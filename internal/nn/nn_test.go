package nn

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

func TestActivations(t *testing.T) {
	tests := []struct {
		act  Activation
		in   float64
		want float64
	}{
		{ReLU, -1, 0},
		{ReLU, 2, 2},
		{Identity, -3, -3},
		{Tanh, 0, 0},
		{Sigmoid, 0, 0.5},
	}
	for _, tc := range tests {
		if got := tc.act.apply(tc.in); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("act %v(%v) = %v, want %v", tc.act, tc.in, got, tc.want)
		}
	}
}

func TestActivationDerivatives(t *testing.T) {
	// Check analytic derivatives against finite differences through apply.
	const h = 1e-6
	for _, act := range []Activation{Identity, Tanh, Sigmoid} {
		for _, z := range []float64{-1.5, -0.2, 0.3, 2.0} {
			out := act.apply(z)
			numeric := (act.apply(z+h) - act.apply(z-h)) / (2 * h)
			analytic := act.derivative(out)
			if math.Abs(numeric-analytic) > 1e-4 {
				t.Errorf("act %v derivative at %v: analytic %v numeric %v", act, z, analytic, numeric)
			}
		}
	}
	// ReLU away from the kink.
	if ReLU.derivative(ReLU.apply(2)) != 1 || ReLU.derivative(ReLU.apply(-2)) != 0 {
		t.Error("ReLU derivative wrong")
	}
}

func TestNewTopology(t *testing.T) {
	n := New([]int{4, 8, 2}, []Activation{ReLU, Identity}, 1)
	if n.InputDim() != 4 || n.OutputDim() != 2 {
		t.Fatalf("dims = %d, %d", n.InputDim(), n.OutputDim())
	}
	if len(n.Layers) != 2 || len(n.Layers[0].W) != 8 || len(n.Layers[0].W[0]) != 4 {
		t.Fatalf("layer shapes wrong: %+v", n.Layers[0])
	}
}

func TestNewPanicsOnBadTopology(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New([]int{4}, nil, 1)
}

func TestForwardDeterministic(t *testing.T) {
	a := New([]int{3, 5, 1}, []Activation{ReLU, Tanh}, 7)
	b := New([]int{3, 5, 1}, []Activation{ReLU, Tanh}, 7)
	x := []float64{0.1, -0.2, 0.3}
	if !reflect.DeepEqual(a.Forward(x), b.Forward(x)) {
		t.Fatal("same seed should give identical networks")
	}
	c := New([]int{3, 5, 1}, []Activation{ReLU, Tanh}, 8)
	if reflect.DeepEqual(a.Forward(x), c.Forward(x)) {
		t.Fatal("different seeds should give different networks")
	}
}

func TestGradientCheck(t *testing.T) {
	// Compare backprop gradients to numeric finite differences for a tiny
	// network with smooth activations.
	n := New([]int{2, 3, 1}, []Activation{Tanh, Identity}, 3)
	x := []float64{0.4, -0.7}
	y := []float64{0.2}

	g := n.newGrads()
	n.backward(x, y, MSE, g)

	const h = 1e-6
	lossAt := func() float64 {
		out := n.Forward(x)
		d := out[0] - y[0]
		return d * d
	}
	for l := range n.Layers {
		for i := range n.Layers[l].W {
			for j := range n.Layers[l].W[i] {
				orig := n.Layers[l].W[i][j]
				n.Layers[l].W[i][j] = orig + h
				up := lossAt()
				n.Layers[l].W[i][j] = orig - h
				down := lossAt()
				n.Layers[l].W[i][j] = orig
				numeric := (up - down) / (2 * h)
				if math.Abs(numeric-g.w[l][i][j]) > 1e-4 {
					t.Fatalf("grad W[%d][%d][%d]: backprop %v numeric %v", l, i, j, g.w[l][i][j], numeric)
				}
			}
		}
		for i := range n.Layers[l].B {
			orig := n.Layers[l].B[i]
			n.Layers[l].B[i] = orig + h
			up := lossAt()
			n.Layers[l].B[i] = orig - h
			down := lossAt()
			n.Layers[l].B[i] = orig
			numeric := (up - down) / (2 * h)
			if math.Abs(numeric-g.b[l][i]) > 1e-4 {
				t.Fatalf("grad B[%d][%d]: backprop %v numeric %v", l, i, g.b[l][i], numeric)
			}
		}
	}
}

func TestGradientCheckLogLoss(t *testing.T) {
	n := New([]int{2, 3, 1}, []Activation{Tanh, Sigmoid}, 5)
	x := []float64{0.3, 0.9}
	y := []float64{1}

	g := n.newGrads()
	n.backward(x, y, LogLoss, g)

	const h = 1e-6
	lossAt := func() float64 {
		p := clampProb(n.Forward(x)[0])
		return -(y[0]*math.Log(p) + (1-y[0])*math.Log(1-p))
	}
	l, i, j := 0, 1, 0
	orig := n.Layers[l].W[i][j]
	n.Layers[l].W[i][j] = orig + h
	up := lossAt()
	n.Layers[l].W[i][j] = orig - h
	down := lossAt()
	n.Layers[l].W[i][j] = orig
	numeric := (up - down) / (2 * h)
	if math.Abs(numeric-g.w[l][i][j]) > 1e-4 {
		t.Fatalf("logloss grad: backprop %v numeric %v", g.w[l][i][j], numeric)
	}
}

func TestFitLearnsXOR(t *testing.T) {
	x := [][]float64{{0, 0}, {0, 1}, {1, 0}, {1, 1}}
	y := [][]float64{{0}, {1}, {1}, {0}}
	n := New([]int{2, 8, 1}, []Activation{Tanh, Sigmoid}, 11)
	cfg := Config{Epochs: 800, BatchSize: 4, LR: 0.05, Loss: LogLoss, Seed: 2}
	if _, err := n.Fit(x, y, cfg); err != nil {
		t.Fatal(err)
	}
	for i := range x {
		p := n.Forward(x[i])[0]
		if (p > 0.5) != (y[i][0] > 0.5) {
			t.Fatalf("XOR not learned: input %v -> %v, want %v", x[i], p, y[i][0])
		}
	}
}

func TestFitRegression(t *testing.T) {
	// y = 0.5*x1 - 0.3*x2, easily fit by an identity-output network.
	rng := rand.New(rand.NewSource(5))
	var x [][]float64
	var y [][]float64
	for i := 0; i < 300; i++ {
		a, b := rng.NormFloat64(), rng.NormFloat64()
		x = append(x, []float64{a, b})
		y = append(y, []float64{0.5*a - 0.3*b})
	}
	n := New([]int{2, 8, 1}, []Activation{ReLU, Identity}, 1)
	loss, err := n.Fit(x, y, Config{Epochs: 120, BatchSize: 32, LR: 0.01, Loss: MSE, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if loss > 0.01 {
		t.Fatalf("final loss = %v, want < 0.01", loss)
	}
}

func TestFitErrors(t *testing.T) {
	n := New([]int{2, 1}, []Activation{Identity}, 1)
	if _, err := n.Fit(nil, nil, Defaults()); err == nil {
		t.Fatal("expected error on empty training set")
	}
	if _, err := n.Fit([][]float64{{1, 2}}, [][]float64{}, Defaults()); err == nil {
		t.Fatal("expected error on length mismatch")
	}
	if _, err := n.Fit([][]float64{{1}}, [][]float64{{1}}, Defaults()); err == nil {
		t.Fatal("expected error on dimension mismatch")
	}
	bad := Defaults()
	bad.Epochs = 0
	if _, err := n.Fit([][]float64{{1, 2}}, [][]float64{{1}}, bad); err == nil {
		t.Fatal("expected error on invalid config")
	}
	// Ragged rows past the first are rejected by row, never padded or
	// truncated into the lanes.
	for _, tc := range []struct {
		x, y [][]float64
		want string
	}{
		{[][]float64{{1, 2}, {3}}, [][]float64{{1}, {0}}, "input dim 1, network expects 2 (row 1)"},
		{[][]float64{{1, 2}, {3, 4}, {5, 6, 7}}, [][]float64{{1}, {0}, {1}}, "input dim 3, network expects 2 (row 2)"},
		{[][]float64{{1, 2}, {3, 4}}, [][]float64{{1}, {}}, "target dim 0, network outputs 1 (row 1)"},
		{[][]float64{{1, 2}, {3, 4}}, [][]float64{{1, 0}, {1}}, "target dim 2, network outputs 1 (row 0)"},
	} {
		_, err := n.Fit(tc.x, tc.y, Defaults())
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Fit(%v, %v) error %v, want %q", tc.x, tc.y, err, tc.want)
		}
	}
	malformed := New([]int{2, 3, 1}, []Activation{ReLU, Identity}, 1)
	malformed.Layers[0].W[1] = malformed.Layers[0].W[1][:1]
	if _, err := malformed.Fit([][]float64{{1, 2}}, [][]float64{{1}}, Defaults()); err == nil {
		t.Fatal("expected error on a ragged weight row")
	}
}

func TestFitDeterministic(t *testing.T) {
	x := [][]float64{{0, 0}, {0, 1}, {1, 0}, {1, 1}}
	y := [][]float64{{0}, {1}, {1}, {0}}
	train := func() []float64 {
		n := New([]int{2, 4, 1}, []Activation{Tanh, Sigmoid}, 9)
		_, err := n.Fit(x, y, Config{Epochs: 50, BatchSize: 2, LR: 0.05, Loss: LogLoss, Seed: 4})
		if err != nil {
			t.Fatal(err)
		}
		return n.Forward([]float64{1, 0})
	}
	if !reflect.DeepEqual(train(), train()) {
		t.Fatal("training is not deterministic for a fixed seed")
	}
}

func TestPaperDefaults(t *testing.T) {
	cfg := PaperDefaults()
	if cfg.Epochs != 40 || cfg.BatchSize != 256 || cfg.LR != 3e-5 {
		t.Fatalf("paper defaults = %+v", cfg)
	}
}

func TestVerboseCallback(t *testing.T) {
	var epochs int
	n := New([]int{1, 1}, []Activation{Identity}, 1)
	cfg := Config{Epochs: 3, BatchSize: 1, LR: 0.01, Seed: 1, Verbose: func(int, float64) { epochs++ }}
	if _, err := n.Fit([][]float64{{1}}, [][]float64{{1}}, cfg); err != nil {
		t.Fatal(err)
	}
	if epochs != 3 {
		t.Fatalf("verbose called %d times, want 3", epochs)
	}
}
