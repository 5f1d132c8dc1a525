package relevance

import (
	"fmt"
	"math"
	"sync"

	"wym/internal/vec"
)

// laneNet runs the relevance network over a record's decision units in
// blocks of `lanes`, one unit per SIMD lane, through vec's dense-layer
// tiles (DESIGN §5). NN runs it in float64 and FastNN in float32; both
// read their layers' row-major weights in place.
//
// A block's activations are lane-interleaved: a[j*lanes+k] is value j of
// the block's unit k. Each layer is computed tile by tile (TileRows
// output neurons), and every tile over all blocks before the next, so
// the tile's weight rows stay in cache while they are reused.
type laneNet[T float32 | float64] struct {
	layers []laneLayer[T]
	dim    int // embedding dimension; the network input is 2*dim
	lanes  int
	width  int // widest layer input or output: a block's stride is width*lanes
	tile   func(y, b, w []T, stride, rows int, x []T, in int)
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

type laneScratch[T float32 | float64] struct {
	x, y []T
}

// newLaneNet checks everything the kernels index by and sizes the
// scratch: the first layer reads 2*dim inputs, each layer reads the
// previous one's outputs, the last has one output, and every weight row
// and bias lies inside its slice.
func newLaneNet[T float32 | float64](dim, lanes int, tile func(y, b, w []T, stride, rows int, x []T, in int),
	layers []laneLayer[T]) (*laneNet[T], error) {
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
	n.pool.New = func() any { return new(laneScratch[T]) }
	return n, nil
}

// score returns one relevance score per unit of rec, clamped to [-1, 1].
func (n *laneNet[T]) score(rec *Record) []float64 {
	u := len(rec.Units)
	out := make([]float64, u)
	if u == 0 {
		return out
	}
	blocks := (u + n.lanes - 1) / n.lanes
	bs := n.width * n.lanes
	sc := n.pool.Get().(*laneScratch[T])
	if need := blocks * bs; cap(sc.x) < need {
		sc.x, sc.y = make([]T, need), make([]T, need)
	}
	x, y := sc.x[:blocks*bs], sc.y[:blocks*bs]

	n.featurize(rec, x)
	for li := range n.layers {
		n.forward(&n.layers[li], x, y, blocks)
		x, y = y, x
	}
	// x now holds the last layer's single output, lane k of each block.
	for i := range out {
		v := float64(x[(i/n.lanes)*bs+i%n.lanes])
		if v > 1 {
			v = 1
		}
		if v < -1 {
			v = -1
		}
		out[i] = v
	}
	n.pool.Put(sc)
	return out
}

// featurize writes each unit's mean ⊕ |difference| features into its
// block's lane with the arithmetic of Record.Features — the absent side
// of an unpaired unit is a real zero vector, since x/2 and (x+0)/2 differ
// on -0 — and zeroes the unused lanes of the last block.
func (n *laneNet[T]) featurize(rec *Record, x []T) {
	d, lanes, bs := n.dim, n.lanes, n.width*n.lanes
	for i, un := range rec.Units {
		l, r := n.zero, n.zero
		if un.Left >= 0 {
			l = rec.LeftVecs[un.Left]
		}
		if un.Right >= 0 {
			r = rec.RightVecs[un.Right]
		}
		if len(l) != d || len(r) != d {
			panic(fmt.Sprintf("relevance: unit %d has %d/%d-dim embeddings, the scorer expects %d", i, len(l), len(r), d))
		}
		blk := x[(i/lanes)*bs : (i/lanes)*bs+2*d*lanes]
		k := i % lanes
		for j := 0; j < d; j++ {
			blk[j*lanes+k] = T((l[j] + r[j]) / 2)
			blk[(d+j)*lanes+k] = T(math.Abs(l[j] - r[j]))
		}
	}
	if used := len(rec.Units) % lanes; used != 0 {
		blk := x[(len(rec.Units)/lanes)*bs:]
		for j := 0; j < 2*d; j++ {
			clear(blk[j*lanes+used : (j+1)*lanes])
		}
	}
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
