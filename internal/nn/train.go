package nn

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"math/rand"

	"wym/internal/vec"
)

// This file holds the lane trainer behind FitCtx (DESIGN §5). A
// minibatch's examples sit in SIMD lanes, and all three products of
// backpropagation run through the scorer's float64 tile
// (vec.ScoreTile64): 8 lanes per block on WideTile64 where the 512-bit
// assembly runs, else 4 on DenseTile64.
//
//   - forward: a[j*lanes+k] is input j of the block's example k, and each
//     layer is the tile over its row-major weights, bias first, then the
//     activation — the scorer's own forward pass;
//   - weight gradients: g[i][j] = Σ_e d_e[i]·in_e[j] is the tile with a
//     zero bias, the layer's deltas as its weight rows (drow[i*n+e]) and
//     the inputs in lanes over one block of consecutive j;
//   - deltas: prev_e[j] = Σ_i d_e[i]·W[i][j] is the tile over a transposed
//     copy of W, with a zero bias and the deltas in lanes.
//
// Every sum keeps the order of the per-example trainer this replaced
// (kept as the test reference): the bias or +0 first, then the terms in
// index or batch order, each product rounded before it is added. The
// loss, scaling, weight decay and Adam use its expressions verbatim. So
// the fitted weights, and the returned loss, are bit-identical to it
// (TestFitMatchesReference).
//
// The trainer copies the network's parameters into one flat block, so
// that the tiles read each layer's weights contiguously and Adam runs as
// one pass, and copies them back when the fit ends.

// trainTile returns the tile the trainer runs and its lane count, a
// power of two. Tests replace it to train on each width.
var trainTile = vec.ScoreTile64

// FitCtx is Fit honoring a context: cancellation is checked before every
// epoch, so a SIGINT mid-training abandons the run at the next epoch
// boundary instead of spinning through the remaining schedule. The
// network's weights are left in their last-epoch state; callers that care
// about consistency must discard the network on error.
//
// Every row of x must have InputDim values and every row of y OutputDim.
func (n *Net) FitCtx(ctx context.Context, x [][]float64, y [][]float64, cfg Config) (float64, error) {
	if len(x) == 0 {
		return 0, errors.New("nn: empty training set")
	}
	if len(x) != len(y) {
		return 0, fmt.Errorf("nn: %d inputs but %d targets", len(x), len(y))
	}
	if err := n.Validate(); err != nil {
		return 0, err
	}
	for i, row := range x {
		if len(row) != n.InputDim() {
			return 0, fmt.Errorf("nn: input dim %d, network expects %d (row %d)", len(row), n.InputDim(), i)
		}
	}
	for i, row := range y {
		if len(row) != n.OutputDim() {
			return 0, fmt.Errorf("nn: target dim %d, network outputs %d (row %d)", len(row), n.OutputDim(), i)
		}
	}
	if cfg.Epochs <= 0 || cfg.BatchSize <= 0 || cfg.LR <= 0 {
		return 0, fmt.Errorf("nn: invalid config %+v", cfg)
	}

	t := newTrainer(n, x, min(cfg.BatchSize, len(x)))
	defer t.unpack(n)
	t.lr, t.l2 = cfg.LR, cfg.L2
	rng := rand.New(rand.NewSource(cfg.Seed))
	order := rng.Perm(len(x))
	var lastLoss float64
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		if err := ctx.Err(); err != nil {
			return lastLoss, fmt.Errorf("nn: training canceled at epoch %d: %w", epoch, err)
		}
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		var epochLoss float64
		for start := 0; start < len(order); start += cfg.BatchSize {
			end := min(start+cfg.BatchSize, len(order))
			epochLoss = t.step(order[start:end], y, cfg.Loss, epochLoss)
		}
		lastLoss = epochLoss / float64(len(order))
		if cfg.Verbose != nil {
			cfg.Verbose(epoch, lastLoss)
		}
	}
	return lastLoss, nil
}

// trainer holds one fit's flat buffers, allocated once.
type trainer struct {
	// The lane layout: lanes examples (or inputs) per block, a power of
	// two, so e/lanes is e>>shift and e%lanes is e&mask.
	lanes, mask int
	shift       uint
	tile        vec.Tile[float64]

	layers []trainLayer
	x      [][]float64 // the training inputs
	nw     int         // p[:nw] are the weights, p[nw:] the biases
	p      []float64   // parameters: each layer's weights row by row, then the biases
	g      []float64   // gradients, laid out as p
	m, v   []float64   // Adam moments, laid out as p
	// acts[l] is layer l's input in lane blocks (layer l-1's output);
	// acts[len(layers)] is the network's output.
	acts   [][]float64
	dl, dp []float64 // lane deltas of a layer's outputs and of its inputs
	drow   []float64 // a layer's deltas as rows: drow[i*n+e] is d_e[i]
	// xg holds a layer's inputs in lanes over j: xg[(jb*n+e)*lanes+k] is
	// input jb*lanes+k of example e.
	xg    []float64
	zero  []float64 // the zero bias of the gradient and delta tiles
	gtile []float64 // one gradient tile's output

	lr, l2 float64
	// β1, β2 and ε are variables, not constants, as in the reference:
	// there 1-b1 rounds at run time to 0.09999999999999998, while the
	// constant expression 1-0.9 folds exactly to 0.1 and every weight
	// would change.
	b1, b2, eps float64
	steps       int // Adam steps taken

	// The current step: its examples, their lane blocks, and the layer
	// being worked on.
	batch     []int
	n, blocks int
	li        int
}

// trainLayer is one layer's views of the trainer's flat buffers.
type trainLayer struct {
	in, out int
	act     Activation
	w, b    []float64 // row i of the weights is w[i*in : (i+1)*in]
	gw, gb  []float64
	wt      []float64 // layers > 0: w transposed, wt[j*out+i] = w[i*in+j]
}

// newTrainer allocates one fit's buffers and copies the network's
// parameters into the flat block.
func newTrainer(net *Net, x [][]float64, batch int) *trainer {
	t := &trainer{layers: make([]trainLayer, len(net.Layers)), x: x, b1: 0.9, b2: 0.999, eps: 1e-8}
	t.lanes, t.tile = trainTile()
	t.shift, t.mask = uint(bits.TrailingZeros(uint(t.lanes))), t.lanes-1
	lanes := t.lanes
	size, width := 0, 0
	for _, l := range net.Layers {
		in, out := len(l.W[0]), len(l.W)
		t.nw += out * in
		size += out*in + out
		width = max(width, in, out)
	}
	t.p = make([]float64, size)
	work := make([]float64, 3*size)
	t.g, t.m, t.v = work[:size:size], work[size:2*size:2*size], work[2*size:]
	blocks := (batch + lanes - 1) / lanes
	t.acts = make([][]float64, len(net.Layers)+1)
	t.acts[0] = make([]float64, blocks*len(net.Layers[0].W[0])*lanes)
	wo, bo := 0, t.nw
	for li, l := range net.Layers {
		in, out := len(l.W[0]), len(l.W)
		tl := &t.layers[li]
		*tl = trainLayer{
			in: in, out: out, act: l.Act,
			w: t.p[wo : wo+out*in : wo+out*in], b: t.p[bo : bo+out : bo+out],
			gw: t.g[wo : wo+out*in : wo+out*in], gb: t.g[bo : bo+out : bo+out],
		}
		for i, row := range l.W {
			copy(tl.w[i*in:], row)
		}
		copy(tl.b, l.B)
		if li > 0 {
			tl.wt = make([]float64, in*out)
		}
		t.acts[li+1] = make([]float64, blocks*out*lanes)
		wo, bo = wo+out*in, bo+out
	}
	t.dl = make([]float64, blocks*width*lanes)
	t.dp = make([]float64, blocks*width*lanes)
	t.drow = make([]float64, width*batch)
	t.xg = make([]float64, (width+lanes-1)/lanes*batch*lanes)
	t.zero = make([]float64, vec.TileRows)
	t.gtile = make([]float64, vec.TileRows*lanes)
	return t
}

// unpack copies the trained parameters back into the network's rows and
// biases.
func (t *trainer) unpack(net *Net) {
	for li, l := range net.Layers {
		tl := &t.layers[li]
		for i, row := range l.W {
			copy(row, tl.w[i*tl.in:])
		}
		copy(l.B, tl.b)
	}
}

// step trains on one minibatch and returns sum plus each example's loss,
// added in batch order.
func (t *trainer) step(batch []int, y [][]float64, loss Loss, sum float64) float64 {
	t.batch, t.n, t.blocks = batch, len(batch), (len(batch)+t.mask)>>t.shift
	t.packInputs()
	for t.li = range t.layers {
		t.forward()
	}
	sum = t.outputDeltas(y, loss, sum)
	for t.li = len(t.layers) - 1; t.li >= 0; t.li-- {
		t.packInputLanes()
		t.gradients()
		if t.li > 0 {
			t.deltas()
			t.dl, t.dp = t.dp, t.dl
		}
	}
	t.steps++
	t.update()
	return sum
}

// packInputs writes the batch's inputs into lane blocks and zeroes the
// unused lanes of the last block.
func (t *trainer) packInputs() {
	lanes, sh, mask := t.lanes, t.shift, t.mask
	in := t.layers[0].in
	a := t.acts[0][:t.blocks*in*lanes]
	for e, idx := range t.batch {
		blk := a[(e>>sh)*in*lanes:]
		for j, v := range t.x[idx] {
			blk[j<<sh+e&mask] = v
		}
	}
	if used := t.n & mask; used != 0 {
		blk := a[(t.blocks-1)*in*lanes:]
		for j := 0; j < in; j++ {
			clear(blk[j*lanes+used : (j+1)*lanes])
		}
	}
}

// forward computes layer t.li for every block: each row tile over all
// blocks, so its weights stay in cache, then the activation.
func (t *trainer) forward() {
	l := &t.layers[t.li]
	x, y := t.acts[t.li], t.acts[t.li+1]
	xs, ys := l.in*t.lanes, l.out*t.lanes
	for i0 := 0; i0 < l.out; i0 += vec.TileRows {
		rows := min(vec.TileRows, l.out-i0)
		for blk := 0; blk < t.blocks; blk++ {
			t.tile(y[blk*ys+i0*t.lanes:], l.b[i0:], l.w[i0*l.in:], l.in, rows, x[blk*xs:], l.in)
		}
	}
	l.act.ApplyAll(y[:t.blocks*ys])
}

// outputDeltas computes each example's output delta and loss in batch
// order with the reference's expressions, and returns sum plus the
// losses. Unused lanes get a zero delta.
func (t *trainer) outputDeltas(y [][]float64, loss Loss, sum float64) float64 {
	last := &t.layers[len(t.layers)-1]
	lanes := t.lanes
	os := last.out * lanes
	clear(t.dl[:t.blocks*os])
	for e, idx := range t.batch {
		off := (e>>t.shift)*os + e&t.mask // value i of example e is at off + i*lanes
		out, delta := t.acts[len(t.layers)][off:], t.dl[off:]
		var lossVal float64
		switch loss {
		case LogLoss:
			// Assumes sigmoid output; dL/dz simplifies to (p - y).
			for i, target := range y[idx] {
				p := clampProb(out[i*lanes])
				lossVal += -(target*math.Log(p) + (1-target)*math.Log(1-p))
				delta[i*lanes] = out[i*lanes] - target
			}
		default: // MSE with activation derivative
			for i, target := range y[idx] {
				d := out[i*lanes] - target
				lossVal += d * d
				delta[i*lanes] = 2 * d * last.act.derivative(out[i*lanes])
			}
		}
		sum += lossVal
	}
	return sum
}

// packInputLanes writes layer t.li's inputs into xg, in lanes over j,
// zeroing the lanes past the last input.
func (t *trainer) packInputLanes() {
	l := &t.layers[t.li]
	lanes, sh, mask := t.lanes, t.shift, t.mask
	n, jbs := t.n, (l.in+mask)>>sh
	xg := t.xg[:jbs*n*lanes]
	if t.li == 0 {
		for e, idx := range t.batch {
			row := t.x[idx]
			for jb := 0; jb < jbs; jb++ {
				dst := xg[(jb*n+e)*lanes : (jb*n+e+1)*lanes]
				clear(dst[copy(dst, row[jb*lanes:]):])
			}
		}
		return
	}
	as := l.in * lanes
	for e := 0; e < n; e++ {
		src := t.acts[t.li][(e>>sh)*as+e&mask:] // input j of example e is src[j*lanes]
		for j := 0; j < l.in; j++ {
			xg[((j>>sh)*n+e)<<sh+j&mask] = src[j<<sh]
		}
		for j := l.in; j < jbs*lanes; j++ {
			xg[((j>>sh)*n+e)<<sh+j&mask] = 0
		}
	}
}

// gradients computes layer t.li's weight and bias gradients. Each sums
// its batch's terms from +0 in batch order: the tile's zero bias, then one
// product per example.
func (t *trainer) gradients() {
	l := &t.layers[t.li]
	lanes, sh, mask := t.lanes, t.shift, t.mask
	n, ds := t.n, l.out*lanes
	for i := 0; i < l.out; i++ {
		row := t.drow[i*n : (i+1)*n]
		var s float64
		for e := range row {
			d := t.dl[(e>>sh)*ds+i<<sh+e&mask]
			row[e] = d
			s += d
		}
		l.gb[i] = s
	}
	for i0 := 0; i0 < l.out; i0 += vec.TileRows {
		rows := min(vec.TileRows, l.out-i0)
		for j0 := 0; j0 < l.in; j0 += lanes {
			t.tile(t.gtile, t.zero, t.drow[i0*n:], n, rows, t.xg[j0*n:], n)
			cols := min(lanes, l.in-j0)
			for r := 0; r < rows; r++ {
				copy(l.gw[(i0+r)*l.in+j0:(i0+r)*l.in+j0+cols], t.gtile[r*lanes:])
			}
		}
	}
}

// deltas computes the deltas of layer t.li's inputs into dp: each sums
// its terms from +0 in row order, then takes the previous layer's
// activation derivative. It first refreshes the transposed weights,
// which the last Adam step changed.
func (t *trainer) deltas() {
	l := &t.layers[t.li]
	as, ds := l.in*t.lanes, l.out*t.lanes
	for j := 0; j < l.in; j++ {
		col := l.wt[j*l.out : (j+1)*l.out]
		for i := range col {
			col[i] = l.w[i*l.in+j]
		}
	}
	for j0 := 0; j0 < l.in; j0 += vec.TileRows {
		rows := min(vec.TileRows, l.in-j0)
		for blk := 0; blk < t.blocks; blk++ {
			t.tile(t.dp[blk*as+j0*t.lanes:], t.zero, l.wt[j0*l.out:], l.out, rows, t.dl[blk*ds:], l.out)
		}
	}
	prev, out := t.layers[t.li-1].act, t.acts[t.li]
	for i := range t.dp[:t.blocks*as] {
		t.dp[i] *= prev.derivative(out[i])
	}
}

// update runs the Adam step over the flat parameters with the reference
// optimizer's expressions: each gradient scaled by the batch size, weight
// decay added to the weights' gradients, then the moments and the step.
func (t *trainer) update() {
	s := 1 / float64(t.n)
	c1 := 1 - math.Pow(t.b1, float64(t.steps))
	c2 := 1 - math.Pow(t.b2, float64(t.steps))
	p, m, v := t.p, t.m[:len(t.p)], t.v[:len(t.p)]
	for i, grad := range t.g[:len(p)] {
		grad *= s
		if t.l2 > 0 && i < t.nw {
			grad += t.l2 * p[i]
		}
		m[i] = t.b1*m[i] + (1-t.b1)*grad
		v[i] = t.b2*v[i] + (1-t.b2)*grad*grad
		mh := m[i] / c1
		vh := v[i] / c2
		p[i] -= t.lr * mh / (math.Sqrt(vh) + t.eps)
	}
}
