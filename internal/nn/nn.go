// Package nn implements the small feed-forward neural network WYM uses:
// the decision-unit relevance scorer (a 300/64/32 ReLU regression network,
// §4.2 of the paper). It provides dense layers, ReLU/tanh/sigmoid/identity
// activations, mean-squared-error and logistic losses, and mini-batch Adam
// — all deterministic given a seed.
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

// relu keeps -0 and NaN, as x < 0 ? 0 : x does. It masks the bits
// instead of branching: hidden-layer signs are unpredictable, and a
// mispredicted branch costs more than the rest of the loop.
func relu(x float64) float64 {
	keep := ^uint64(0)
	if x < 0 {
		keep = 0
	}
	return math.Float64frombits(math.Float64bits(x) & keep)
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
		return reluDerivative(out)
	case Tanh:
		return 1 - out*out
	case Sigmoid:
		return out * (1 - out)
	default:
		return 1
	}
}

// reluDerivative is out > 0 ? 1 : 0, selected without a branch.
func reluDerivative(out float64) float64 {
	one := math.Float64bits(1)
	if !(out > 0) {
		one = 0
	}
	return math.Float64frombits(one)
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

// Validate fails unless the network is well formed: at least one layer,
// each with weights, one bias per weight row, every row as wide as its
// layer's first, and each layer reading as many inputs as the layer
// before it outputs. A nil network has no layers.
func (n *Net) Validate() error {
	if n == nil || len(n.Layers) == 0 {
		return errors.New("nn: network has no layers")
	}
	for l, layer := range n.Layers {
		if len(layer.W) == 0 || len(layer.W[0]) == 0 {
			return fmt.Errorf("nn: layer %d is malformed: it has no weights", l)
		}
		if len(layer.B) != len(layer.W) {
			return fmt.Errorf("nn: layer %d has %d biases for %d weight rows", l, len(layer.B), len(layer.W))
		}
		in := len(layer.W[0])
		for i, row := range layer.W {
			if len(row) != in {
				return fmt.Errorf("nn: layer %d row %d has %d weights, row 0 has %d", l, i, len(row), in)
			}
		}
		if l > 0 && in != len(n.Layers[l-1].W) {
			return fmt.Errorf("nn: layer %d input %d does not chain from output %d", l, in, len(n.Layers[l-1].W))
		}
	}
	return nil
}

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
