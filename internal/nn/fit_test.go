package nn

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"wym/internal/vec"
)

// fitCase is one network and training set for TestFitMatchesReference.
type fitCase struct {
	name  string
	sizes []int
	acts  []Activation
	cfg   Config
	x, y  [][]float64
}

// randomRows returns n rows of width dim drawn by gen.
func randomRows(n, dim int, gen func() float64) [][]float64 {
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = make([]float64, dim)
		for j := range rows[i] {
			rows[i][j] = gen()
		}
	}
	return rows
}

func fitCases() []fitCase {
	rng := rand.New(rand.NewSource(42))
	normal := func() float64 { return rng.NormFloat64() * 0.3 }
	target := func() float64 { return float64(rng.Intn(5)-2) / 2 } // in [-1, 1], as the scorer's
	label := func() float64 { return float64(rng.Intn(2)) }
	// edge mixes ±0, subnormals and ordinary values.
	edges := []float64{0, math.Copysign(0, -1), 5e-324, -5e-324, 2.5e-310, -1e-308, 0.75, -1.5}
	edge := func() float64 { return edges[rng.Intn(len(edges))] }

	paper := Defaults()
	small := Config{Epochs: 25, BatchSize: 10, LR: 0.01, L2: 1e-3, Loss: MSE, Seed: 7}
	logloss := Config{Epochs: 40, BatchSize: 8, LR: 0.05, Loss: LogLoss, Seed: 3}
	wide := Config{Epochs: 30, BatchSize: 64, LR: 0.02, Loss: MSE, Seed: 5}
	return []fitCase{
		{
			// 735 examples in batches of 64: a ragged last batch of 31.
			name:  "paper topology",
			sizes: []int{192, 300, 64, 32, 1}, acts: []Activation{ReLU, ReLU, ReLU, Tanh}, cfg: paper,
			x: randomRows(735, 192, normal), y: randomRows(735, 1, target),
		},
		{
			name:  "every activation, L2, batch 10",
			sizes: []int{14, 13, 9, 5, 1}, acts: []Activation{ReLU, Sigmoid, Identity, Tanh}, cfg: small,
			x: randomRows(57, 14, normal), y: randomRows(57, 1, target),
		},
		{
			name:  "logloss with a sigmoid head",
			sizes: []int{6, 7, 1}, acts: []Activation{Tanh, Sigmoid}, cfg: logloss,
			x: randomRows(30, 6, normal), y: randomRows(30, 1, label),
		},
		{
			name:  "batch larger than the training set",
			sizes: []int{5, 6, 3}, acts: []Activation{ReLU, Identity}, cfg: wide,
			x: randomRows(7, 5, normal), y: randomRows(7, 3, normal),
		},
		{
			name:  "signed zeros and subnormals",
			sizes: []int{9, 11, 1}, acts: []Activation{ReLU, Tanh}, cfg: small,
			x: randomRows(23, 9, edge), y: randomRows(23, 1, target),
		},
	}
}

// tileWidths are the lane layouts the trainer can run on: 4 lanes on
// DenseTile64 and 8 on WideTile64, each in assembly where this machine
// runs it and in the generic loop elsewhere. FitCtx takes the one
// vec.ScoreTile64 names.
var tileWidths = []struct {
	name string
	tile func() (int, vec.Tile[float64])
}{
	{"4 lanes", func() (int, vec.Tile[float64]) { return vec.Lanes64, vec.DenseTile64 }},
	{"8 lanes", func() (int, vec.Tile[float64]) { return vec.WideLanes64, vec.WideTile64 }},
}

// onWidth makes the trainer run on tile for the rest of the test.
func onWidth(t *testing.T, tile func() (int, vec.Tile[float64])) {
	prev := trainTile
	trainTile = tile
	t.Cleanup(func() { trainTile = prev })
}

// TestFitMatchesReference pins the lane trainer to the per-example
// trainer it replaced: for every case, on both tile widths, every weight,
// bias, per-epoch loss and the returned loss are bit-identical.
func TestFitMatchesReference(t *testing.T) {
	for _, tc := range fitCases() {
		t.Run(tc.name, func(t *testing.T) {
			for _, w := range tileWidths {
				t.Run(w.name, func(t *testing.T) {
					onWidth(t, w.tile)
					ref, got := New(tc.sizes, tc.acts, 11), New(tc.sizes, tc.acts, 11)
					fitBoth(t, tc, ref, got)
				})
			}
		})
	}
}

// TestFitTwiceMatchesReference trains on from fitted weights, and checks
// that fitting writes into the network's own rows and biases instead of
// replacing them.
func TestFitTwiceMatchesReference(t *testing.T) {
	tc := fitCases()[1]
	ref, got := New(tc.sizes, tc.acts, 11), New(tc.sizes, tc.acts, 11)
	storage := func() []*float64 { // where each row and bias slice starts
		var at []*float64
		for _, layer := range got.Layers {
			at = append(at, &layer.B[0])
			for _, row := range layer.W {
				at = append(at, &row[0])
			}
		}
		return at
	}
	before := storage()
	fitBoth(t, tc, ref, got)
	tc.cfg.Seed++
	fitBoth(t, tc, ref, got)
	if !slices.Equal(storage(), before) {
		t.Fatal("fitting replaced the network's rows or biases")
	}
}

// TestFitCanceledKeepsLastEpoch: a fit canceled at an epoch boundary
// leaves the network in its last-epoch state, the reference's after as
// many epochs.
func TestFitCanceledKeepsLastEpoch(t *testing.T) {
	tc := fitCases()[1]
	const epochs = 3
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := tc.cfg
	cfg.Verbose = func(epoch int, _ float64) {
		if epoch == epochs-1 {
			cancel()
		}
	}
	got := New(tc.sizes, tc.acts, 11)
	if _, err := got.FitCtx(ctx, tc.x, tc.y, cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("FitCtx error %v, want context.Canceled", err)
	}
	ref := New(tc.sizes, tc.acts, 11)
	cfg.Epochs, cfg.Verbose = epochs, nil
	if _, err := ref.fitReference(tc.x, tc.y, cfg); err != nil {
		t.Fatal(err)
	}
	sameParams(t, got, ref)
}

// fitBoth fits ref with the reference trainer and got with FitCtx on the
// same case, and fails unless the losses and parameters agree bit for bit.
func fitBoth(t *testing.T, tc fitCase, ref, got *Net) {
	t.Helper()
	var refLosses, losses []float64
	cfg := tc.cfg
	cfg.Verbose = func(_ int, loss float64) { refLosses = append(refLosses, loss) }
	refLoss, err := ref.fitReference(tc.x, tc.y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Verbose = func(_ int, loss float64) { losses = append(losses, loss) }
	loss, err := got.FitCtx(context.Background(), tc.x, tc.y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(loss) != math.Float64bits(refLoss) {
		t.Errorf("loss %v, reference %v", loss, refLoss)
	}
	if len(losses) != len(refLosses) {
		t.Fatalf("%d epoch losses, reference %d", len(losses), len(refLosses))
	}
	for e := range refLosses {
		if math.Float64bits(losses[e]) != math.Float64bits(refLosses[e]) {
			t.Fatalf("epoch %d loss %v, reference %v", e, losses[e], refLosses[e])
		}
	}
	sameParams(t, got, ref)
}

// sameParams fails unless got's weights and biases equal ref's bit for
// bit.
func sameParams(t *testing.T, got, ref *Net) {
	t.Helper()
	for l := range ref.Layers {
		for i, row := range ref.Layers[l].W {
			for j, w := range row {
				if g := got.Layers[l].W[i][j]; math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("W[%d][%d][%d] = %v, reference %v", l, i, j, g, w)
				}
			}
		}
		for i, b := range ref.Layers[l].B {
			if g := got.Layers[l].B[i]; math.Float64bits(g) != math.Float64bits(b) {
				t.Fatalf("B[%d][%d] = %v, reference %v", l, i, g, b)
			}
		}
	}
}

// BenchmarkFit times one fit of the paper topology with Defaults() on
// 735 examples, the size of the benchmark's scorer training set.
func BenchmarkFit(b *testing.B) {
	tc := fitCases()[0]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		net := New(tc.sizes, tc.acts, 11)
		if _, err := net.Fit(tc.x, tc.y, tc.cfg); err != nil {
			b.Fatal(err)
		}
	}
}
