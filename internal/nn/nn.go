// Package nn implements the small feed-forward neural networks WYM uses:
// the decision-unit relevance scorer (a 300/64/32 ReLU regression network,
// §4.2 of the paper) and the neural baselines. It provides dense layers,
// ReLU/tanh/sigmoid/identity activations, mean-squared-error and logistic
// losses, and mini-batch Adam — all deterministic given a seed.
package nn

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// Activation selects a layer's element-wise non-linearity.
type Activation int

// Supported activations.
const (
	Identity Activation = iota
	ReLU
	Tanh
	Sigmoid
)

func (a Activation) apply(x float64) float64 {
	switch a {
	case ReLU:
		return relu(x)
	case Tanh:
		return math.Tanh(x)
	case Sigmoid:
		return 1 / (1 + math.Exp(-x))
	default:
		return x
	}
}

// relu keeps -0 and NaN, as x < 0 ? 0 : x does.
func relu(x float64) float64 {
	if x < 0 {
		return 0
	}
	return x
}

// ApplyAll replaces every element of xs by its activation, with the
// arithmetic of the forward pass.
func (a Activation) ApplyAll(xs []float64) {
	if a == ReLU { // the hidden layers' activation: relu inlines here
		for i, x := range xs {
			xs[i] = relu(x)
		}
		return
	}
	for i, x := range xs {
		xs[i] = a.apply(x)
	}
}

// derivative computes da/dz given the activation output a = f(z).
func (a Activation) derivative(out float64) float64 {
	switch a {
	case ReLU:
		if out > 0 {
			return 1
		}
		return 0
	case Tanh:
		return 1 - out*out
	case Sigmoid:
		return out * (1 - out)
	default:
		return 1
	}
}

// Layer is a dense layer: out = act(W*x + b). Fields are exported so a
// fitted network can be serialized with encoding/gob or encoding/json.
type Layer struct {
	W   [][]float64 // [out][in]
	B   []float64   // [out]
	Act Activation
}

// Net is a feed-forward network: a stack of dense layers.
type Net struct {
	Layers []Layer
}

// New builds a network with the given layer sizes (sizes[0] is the input
// dimension) and per-layer activations (len(acts) == len(sizes)-1).
// Weights use scaled Glorot initialization from the given seed.
func New(sizes []int, acts []Activation, seed int64) *Net {
	if len(sizes) < 2 || len(acts) != len(sizes)-1 {
		panic(fmt.Sprintf("nn: bad topology sizes=%v acts=%v", sizes, acts))
	}
	rng := rand.New(rand.NewSource(seed))
	net := &Net{Layers: make([]Layer, len(acts))}
	for l := range net.Layers {
		in, out := sizes[l], sizes[l+1]
		scale := math.Sqrt(2 / float64(in+out))
		w := make([][]float64, out)
		for i := range w {
			w[i] = make([]float64, in)
			for j := range w[i] {
				w[i][j] = rng.NormFloat64() * scale
			}
		}
		net.Layers[l] = Layer{W: w, B: make([]float64, out), Act: acts[l]}
	}
	return net
}

// InputDim returns the expected input dimension.
func (n *Net) InputDim() int { return len(n.Layers[0].W[0]) }

// OutputDim returns the output dimension.
func (n *Net) OutputDim() int { return len(n.Layers[len(n.Layers)-1].B) }

// Forward runs the network on one input and returns the output activations.
func (n *Net) Forward(x []float64) []float64 {
	a := x
	for l := range n.Layers {
		a = n.Layers[l].forward(a)
	}
	return a
}

func (l *Layer) forward(x []float64) []float64 {
	out := make([]float64, len(l.B))
	for i, row := range l.W {
		s := l.B[i]
		for j, w := range row {
			s += w * x[j]
		}
		out[i] = l.Act.apply(s)
	}
	return out
}

// Loss selects the training objective.
type Loss int

// Supported losses.
const (
	// MSE is mean squared error; the relevance scorer regresses targets
	// in [-1, 1] with it.
	MSE Loss = iota
	// LogLoss is binary cross-entropy over a single sigmoid output.
	LogLoss
)

// Config holds training hyper-parameters. The zero value is not usable;
// call Defaults or fill every field. The paper's relevance-scorer settings
// (40 epochs, batch 256, learning rate 3e-5) are exposed as PaperDefaults.
type Config struct {
	Epochs    int
	BatchSize int
	LR        float64
	L2        float64 // weight decay coefficient
	Loss      Loss
	Seed      int64 // shuffling seed
	// Verbose, when non-nil, receives the mean loss after each epoch.
	Verbose func(epoch int, loss float64)
}

// PaperDefaults returns the §4.2 hyper-parameters: 40 epochs, batch 256,
// learning rate 3e-5, MSE.
func PaperDefaults() Config {
	return Config{Epochs: 40, BatchSize: 256, LR: 3e-5, Loss: MSE, Seed: 1}
}

// Defaults returns fast, practical settings for the small synthetic
// datasets in this repo: fewer epochs at a higher Adam learning rate reach
// the same optimum as the paper's long low-rate schedule.
func Defaults() Config {
	return Config{Epochs: 30, BatchSize: 64, LR: 1e-3, Loss: MSE, Seed: 1}
}

// Fit trains the network on (X, Y) with mini-batch Adam. Y rows must match
// the output dimension. It returns the mean loss of the final epoch.
func (n *Net) Fit(x [][]float64, y [][]float64, cfg Config) (float64, error) {
	return n.FitCtx(context.Background(), x, y, cfg)
}

// FitCtx is Fit honoring a context: cancellation is checked before every
// epoch, so a SIGINT mid-training abandons the run at the next epoch
// boundary instead of spinning through the remaining schedule. The
// network's weights are left in their last-epoch state; callers that care
// about consistency must discard the network on error.
func (n *Net) FitCtx(ctx context.Context, x [][]float64, y [][]float64, cfg Config) (float64, error) {
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
		if err := ctx.Err(); err != nil {
			return lastLoss, fmt.Errorf("nn: training canceled at epoch %d: %w", epoch, err)
		}
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

func clampProb(p float64) float64 {
	const eps = 1e-9
	if p < eps {
		return eps
	}
	if p > 1-eps {
		return 1 - eps
	}
	return p
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
