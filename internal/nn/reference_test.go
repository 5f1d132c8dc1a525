package nn

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// This file keeps the per-example trainer that FitCtx replaced, verbatim
// but for its name and the cancellation check: one example at a time
// through scalar loops, with fresh activations, deltas and gradients for
// each. It is the reference the lane trainer must match bit for bit
// (TestFitMatchesReference), and the gradient checks test its backward
// pass against finite differences.

// fitReference is the former FitCtx without the context.
func (n *Net) fitReference(x [][]float64, y [][]float64, cfg Config) (float64, error) {
	if len(x) == 0 {
		return 0, errors.New("nn: empty training set")
	}
	if len(x) != len(y) {
		return 0, fmt.Errorf("nn: %d inputs but %d targets", len(x), len(y))
	}
	if len(x[0]) != n.InputDim() {
		return 0, fmt.Errorf("nn: input dim %d, network expects %d", len(x[0]), n.InputDim())
	}
	if cfg.Epochs <= 0 || cfg.BatchSize <= 0 || cfg.LR <= 0 {
		return 0, fmt.Errorf("nn: invalid config %+v", cfg)
	}

	opt := newAdam(n, cfg.LR)
	rng := rand.New(rand.NewSource(cfg.Seed))
	order := rng.Perm(len(x))
	var lastLoss float64
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		var epochLoss float64
		for start := 0; start < len(order); start += cfg.BatchSize {
			end := start + cfg.BatchSize
			if end > len(order) {
				end = len(order)
			}
			batch := order[start:end]
			grads := n.newGrads()
			for _, idx := range batch {
				epochLoss += n.backward(x[idx], y[idx], cfg.Loss, grads)
			}
			scaleGrads(grads, 1/float64(len(batch)))
			if cfg.L2 > 0 {
				n.addWeightDecay(grads, cfg.L2)
			}
			opt.step(n, grads)
		}
		lastLoss = epochLoss / float64(len(order))
		if cfg.Verbose != nil {
			cfg.Verbose(epoch, lastLoss)
		}
	}
	return lastLoss, nil
}

// grads mirrors the network's parameter shapes.
type grads struct {
	w [][][]float64
	b [][]float64
}

func (n *Net) newGrads() *grads {
	g := &grads{w: make([][][]float64, len(n.Layers)), b: make([][]float64, len(n.Layers))}
	for l, layer := range n.Layers {
		g.w[l] = make([][]float64, len(layer.W))
		for i := range layer.W {
			g.w[l][i] = make([]float64, len(layer.W[i]))
		}
		g.b[l] = make([]float64, len(layer.B))
	}
	return g
}

func scaleGrads(g *grads, s float64) {
	for l := range g.w {
		for i := range g.w[l] {
			for j := range g.w[l][i] {
				g.w[l][i][j] *= s
			}
		}
		for i := range g.b[l] {
			g.b[l][i] *= s
		}
	}
}

func (n *Net) addWeightDecay(g *grads, l2 float64) {
	for l, layer := range n.Layers {
		for i := range layer.W {
			for j := range layer.W[i] {
				g.w[l][i][j] += l2 * layer.W[i][j]
			}
		}
	}
}

// backward accumulates gradients for one example and returns its loss.
func (n *Net) backward(x, target []float64, loss Loss, g *grads) float64 {
	// Forward pass, caching every layer's activations.
	acts := make([][]float64, len(n.Layers)+1)
	acts[0] = x
	for l := range n.Layers {
		acts[l+1] = n.Layers[l].forward(acts[l])
	}
	out := acts[len(acts)-1]

	// Output delta and loss value.
	delta := make([]float64, len(out))
	var lossVal float64
	switch loss {
	case LogLoss:
		// Assumes sigmoid output; dL/dz simplifies to (p - y).
		for i := range out {
			p := clampProb(out[i])
			lossVal += -(target[i]*math.Log(p) + (1-target[i])*math.Log(1-p))
			delta[i] = out[i] - target[i]
		}
	default: // MSE with activation derivative
		for i := range out {
			d := out[i] - target[i]
			lossVal += d * d
			delta[i] = 2 * d * n.Layers[len(n.Layers)-1].Act.derivative(out[i])
		}
	}

	// Backward pass.
	for l := len(n.Layers) - 1; l >= 0; l-- {
		layer := &n.Layers[l]
		in := acts[l]
		var prevDelta []float64
		if l > 0 {
			prevDelta = make([]float64, len(in))
		}
		for i := range layer.W {
			di := delta[i]
			g.b[l][i] += di
			row := layer.W[i]
			grow := g.w[l][i]
			for j := range row {
				grow[j] += di * in[j]
				if l > 0 {
					prevDelta[j] += di * row[j]
				}
			}
		}
		if l > 0 {
			prev := &n.Layers[l-1]
			for j := range prevDelta {
				prevDelta[j] *= prev.Act.derivative(in[j])
			}
			delta = prevDelta
		}
	}
	return lossVal
}

// adam is the Adam optimizer state (β1=0.9, β2=0.999, ε=1e-8).
type adam struct {
	lr       float64
	t        int
	mW, vW   [][][]float64
	mB, vB   [][]float64
	b1, b2   float64
	epsAdamW float64
}

func newAdam(n *Net, lr float64) *adam {
	a := &adam{lr: lr, b1: 0.9, b2: 0.999, epsAdamW: 1e-8}
	a.mW = make([][][]float64, len(n.Layers))
	a.vW = make([][][]float64, len(n.Layers))
	a.mB = make([][]float64, len(n.Layers))
	a.vB = make([][]float64, len(n.Layers))
	for l, layer := range n.Layers {
		a.mW[l] = make([][]float64, len(layer.W))
		a.vW[l] = make([][]float64, len(layer.W))
		for i := range layer.W {
			a.mW[l][i] = make([]float64, len(layer.W[i]))
			a.vW[l][i] = make([]float64, len(layer.W[i]))
		}
		a.mB[l] = make([]float64, len(layer.B))
		a.vB[l] = make([]float64, len(layer.B))
	}
	return a
}

func (a *adam) step(n *Net, g *grads) {
	a.t++
	c1 := 1 - math.Pow(a.b1, float64(a.t))
	c2 := 1 - math.Pow(a.b2, float64(a.t))
	update := func(p *float64, grad float64, m, v *float64) {
		*m = a.b1**m + (1-a.b1)*grad
		*v = a.b2**v + (1-a.b2)*grad*grad
		mh := *m / c1
		vh := *v / c2
		*p -= a.lr * mh / (math.Sqrt(vh) + a.epsAdamW)
	}
	for l := range n.Layers {
		layer := &n.Layers[l]
		for i := range layer.W {
			for j := range layer.W[i] {
				update(&layer.W[i][j], g.w[l][i][j], &a.mW[l][i][j], &a.vW[l][i][j])
			}
		}
		for i := range layer.B {
			update(&layer.B[i], g.b[l][i], &a.mB[l][i], &a.vB[l][i])
		}
	}
}
