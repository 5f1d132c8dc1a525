package relevance

import (
	"fmt"
	"math"
	"sync"

	"wym/internal/vec"
)

// laneNet runs the relevance network over decision units in blocks of
// `lanes`, one unit per SIMD lane, through vec's dense-layer tiles
// (DESIGN §5). NN runs it in float64 and FastNN in float32; both read
// their layers' row-major weights in place.
//
// A block's activations are lane-interleaved: a[j*lanes+k] is value j of
// the block's unit k. The units of a batch's records are packed densely,
// record after record, and run through the network groupUnits at a time:
// each layer tile by tile (TileRows output neurons), every tile over all
// the group's blocks before the next, so a weight tile is fetched once
// per group rather than once per record, and its rows stay in cache while
// they are reused. Lanes never interact, so how units are packed changes
// no bit of any score.
type laneNet[T float32 | float64] struct {
	layers []laneLayer[T]
	dim    int // embedding dimension; the network input is 2*dim
	lanes  int
	width  int // widest layer input or output: a block's stride is width*lanes
	tile   vec.Tile[T]
	zero   []float64 // the [UNP] embedding; never written
	pool   sync.Pool // *laneScratch[T]
}

// laneLayer is one dense layer: row i of the weights is
// w[i*stride : i*stride+in], and act applies the activation in place.
type laneLayer[T float32 | float64] struct {
	in, out, stride int
	w, b            []T
	act             func([]T)
}

// laneScratch holds one group's activations, ping-ponged between layers.
type laneScratch[T float32 | float64] struct {
	x, y []T
}

// newLaneNet checks everything the kernels index by and sizes the
// scratch to one group: the first layer reads 2*dim inputs, each layer
// reads the previous one's outputs, the last has one output, and every
// weight row and bias lies inside its slice.
func newLaneNet[T float32 | float64](dim, lanes int, tile vec.Tile[T], layers []laneLayer[T]) (*laneNet[T], error) {
	if len(layers) == 0 {
		return nil, fmt.Errorf("relevance: scorer network has no layers")
	}
	if dim < 1 || layers[0].in != 2*dim {
		return nil, fmt.Errorf("relevance: scorer input width %d, want 2 × embedding dim %d", layers[0].in, dim)
	}
	n := &laneNet[T]{layers: layers, dim: dim, lanes: lanes, tile: tile, zero: make([]float64, dim)}
	for li, l := range layers {
		if l.in < 1 || l.out < 1 || l.stride < l.in || len(l.b) != l.out || len(l.w) < (l.out-1)*l.stride+l.in {
			return nil, fmt.Errorf("relevance: scorer layer %d malformed: in=%d out=%d stride=%d, %d weights, %d biases",
				li, l.in, l.out, l.stride, len(l.w), len(l.b))
		}
		if li > 0 && l.in != layers[li-1].out {
			return nil, fmt.Errorf("relevance: scorer layer %d input %d does not chain from output %d",
				li, l.in, layers[li-1].out)
		}
		n.width = max(n.width, l.in, l.out)
	}
	if last := layers[len(layers)-1]; last.out != 1 {
		return nil, fmt.Errorf("relevance: scorer output width %d, want 1", last.out)
	}
	size := (groupUnits + lanes - 1) / lanes * n.width * lanes
	n.pool.New = func() any { return &laneScratch[T]{x: make([]T, size), y: make([]T, size)} }
	return n, nil
}

// groupUnits is how many units run through the network together. A
// group may hold the tail of one record and the head of the next. At 32
// units a float64 group's activations (two buffers of 32 units × the
// 300-wide layer, 150 KiB) stay in L2 beside the weights, and the scratch
// never grows past one group. It is a multiple of every lane count, so
// only a batch's last group has a partial block.
const groupUnits = 32

// scoreOne returns one relevance score per unit of rec, clamped to
// [-1, 1]: the batch of one record.
func (n *laneNet[T]) scoreOne(rec *Record) []float64 {
	out := make([]float64, len(rec.Units))
	n.score([]*Record{rec}, out)
	return out
}

// scoreBatch returns one score slice per record, each equal bit for bit
// to scoreOne's; the slices share one allocation.
func (n *laneNet[T]) scoreBatch(recs []*Record) [][]float64 {
	total := 0
	for _, rec := range recs {
		total += len(rec.Units)
	}
	flat := make([]float64, total)
	n.score(recs, flat)
	out := make([][]float64, len(recs))
	for i, rec := range recs {
		u := len(rec.Units)
		out[i], flat = flat[:u:u], flat[u:]
	}
	return out
}

// score writes the scores of recs' units, record after record, into out,
// whose length is their unit total, clamped to [-1, 1]. It is the one
// scoring loop.
func (n *laneNet[T]) score(recs []*Record, out []float64) {
	if len(out) == 0 {
		return
	}
	sc := n.pool.Get().(*laneScratch[T])
	bs := n.width * n.lanes
	var at unitCursor
	for done := 0; done < len(out); done += groupUnits {
		units := min(groupUnits, len(out)-done)
		blocks := (units + n.lanes - 1) / n.lanes
		x, y := sc.x[:blocks*bs], sc.y[:blocks*bs]
		at = n.featurize(recs, at, units, x)
		for li := range n.layers {
			n.forward(&n.layers[li], x, y, blocks)
			x, y = y, x
		}
		// x now holds the last layer's single output, lane k of each block.
		for i := range units {
			v := float64(x[(i/n.lanes)*bs+i%n.lanes])
			if v > 1 {
				v = 1
			}
			if v < -1 {
				v = -1
			}
			out[done+i] = v
		}
	}
	n.pool.Put(sc)
}

// unitCursor is the next unit to featurize: unit u of record r.
type unitCursor struct{ r, u int }

// featurize writes the mean ⊕ |difference| features of the next `units`
// units from `at` into consecutive lanes of x, with the arithmetic of
// Record.Features — the absent side of an unpaired unit is a real zero
// vector, since x/2 and (x+0)/2 differ on -0 — zeroes the unused lanes of
// the last block, and returns the cursor past them.
func (n *laneNet[T]) featurize(recs []*Record, at unitCursor, units int, x []T) unitCursor {
	d, lanes, bs := n.dim, n.lanes, n.width*n.lanes
	for slot := 0; slot < units; slot++ {
		for at.u == len(recs[at.r].Units) {
			at = unitCursor{r: at.r + 1}
		}
		rec := recs[at.r]
		un := rec.Units[at.u]
		l, r := n.zero, n.zero
		if un.Left >= 0 {
			l = rec.LeftVecs[un.Left]
		}
		if un.Right >= 0 {
			r = rec.RightVecs[un.Right]
		}
		if len(l) != d || len(r) != d {
			panic(fmt.Sprintf("relevance: unit %d has %d/%d-dim embeddings, the scorer expects %d", at.u, len(l), len(r), d))
		}
		blk := x[(slot/lanes)*bs : (slot/lanes)*bs+2*d*lanes]
		k := slot % lanes
		for j := 0; j < d; j++ {
			blk[j*lanes+k] = T((l[j] + r[j]) / 2)
			blk[(d+j)*lanes+k] = T(math.Abs(l[j] - r[j]))
		}
		at.u++
	}
	if used := units % lanes; used != 0 {
		blk := x[(units/lanes)*bs:]
		for j := 0; j < 2*d; j++ {
			clear(blk[j*lanes+used : (j+1)*lanes])
		}
	}
	return at
}

// forward computes layer l from x into y for every block.
func (n *laneNet[T]) forward(l *laneLayer[T], x, y []T, blocks int) {
	lanes, bs := n.lanes, n.width*n.lanes
	for i0 := 0; i0 < l.out; i0 += vec.TileRows {
		rows := min(vec.TileRows, l.out-i0)
		w, b := l.w[i0*l.stride:], l.b[i0:]
		for blk := 0; blk < blocks; blk++ {
			n.tile(y[blk*bs+i0*lanes:], b, w, l.stride, rows, x[blk*bs:], l.in)
		}
	}
	for blk := 0; blk < blocks; blk++ {
		l.act(y[blk*bs : blk*bs+l.out*lanes])
	}
}
