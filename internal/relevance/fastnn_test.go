package relevance

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"wym/internal/tokenize"
	"wym/internal/units"
	"wym/internal/vec"
)

// syntheticRecord builds a record with nl left tokens, nr right tokens
// and a mix of paired and unpaired units over unit-norm embeddings.
func syntheticRecord(rng *rand.Rand, dim, nl, nr int) *Record {
	mk := func(n int) [][]float64 {
		out := make([][]float64, n)
		for i := range out {
			v := make([]float64, dim)
			for j := range v {
				v[j] = rng.NormFloat64()
			}
			out[i] = vec.Normalize(v)
		}
		return out
	}
	toks := func(side string, n int) []tokenize.Token {
		out := make([]tokenize.Token, n)
		for i := range out {
			out[i] = tokenize.Token{Text: fmt.Sprintf("%s%d", side, i)}
		}
		return out
	}
	rec := &Record{
		Left: toks("l", nl), Right: toks("r", nr),
		LeftVecs: mk(nl), RightVecs: mk(nr),
	}
	for i := 0; i < nl; i++ {
		if i < nr {
			rec.Units = append(rec.Units, units.Unit{Kind: units.Paired, Left: i, Right: i})
		} else {
			rec.Units = append(rec.Units, units.Unit{Kind: units.UnpairedLeft, Left: i, Right: -1})
		}
	}
	for j := nl; j < nr; j++ {
		rec.Units = append(rec.Units, units.Unit{Kind: units.UnpairedRight, Left: -1, Right: j})
	}
	return rec
}

func trainedScorer(tb testing.TB, dim int) *NN {
	tb.Helper()
	rng := rand.New(rand.NewSource(5))
	ts := NewTrainingSet(DefaultTargetConfig())
	for i := 0; i < 40; i++ {
		rec := syntheticRecord(rng, dim, 3+rng.Intn(3), 3+rng.Intn(3))
		for j := range rec.Units {
			rec.Units[j].Sim = rng.Float64()
		}
		ts.Add(rec, i%2)
	}
	s, err := TrainNN(ts, dim, NNConfig{Hidden: []int{20, 8}, Seed: 1})
	if err != nil {
		tb.Fatalf("TrainNN: %v", err)
	}
	return s
}

func TestFastNNMatchesNN(t *testing.T) {
	const dim = 12
	s := trainedScorer(t, dim)
	fast, err := NewFastNN(s)
	if err != nil {
		t.Fatalf("NewFastNN: %v", err)
	}
	if fast.Dim() != dim {
		t.Fatalf("Dim = %d, want %d", fast.Dim(), dim)
	}
	rng := rand.New(rand.NewSource(9))
	// Unit counts cover every lane-block case: 0..5, one block of eight,
	// a partial second block, and 2*Lanes32+1.
	for _, nu := range []struct{ nl, nr int }{{0, 0}, {1, 0}, {1, 1}, {2, 3}, {4, 4}, {5, 2}, {8, 8}, {9, 13}, {17, 5}} {
		rec := syntheticRecord(rng, dim, nu.nl, nu.nr)
		want := s.Score(rec)
		got := fast.Score(rec)
		if len(got) != len(want) {
			t.Fatalf("nl=%d nr=%d: %d scores, want %d", nu.nl, nu.nr, len(got), len(want))
		}
		for i := range want {
			if d := math.Abs(got[i] - want[i]); d > 1e-4 {
				t.Fatalf("nl=%d nr=%d unit %d: fast %g vs nn %g (Δ %g)", nu.nl, nu.nr, i, got[i], want[i], d)
			}
		}
	}
}

func TestFastNNSpecRoundTrip(t *testing.T) {
	const dim = 12
	s := trainedScorer(t, dim)
	fast, err := NewFastNN(s)
	if err != nil {
		t.Fatal(err)
	}
	back, err := FastNNFromSpec(fast.Spec())
	if err != nil {
		t.Fatalf("FastNNFromSpec: %v", err)
	}
	if back.Dim() != dim {
		t.Fatalf("round-tripped Dim = %d", back.Dim())
	}
	rec := syntheticRecord(rand.New(rand.NewSource(2)), dim, 4, 5)
	a, b := fast.Score(rec), back.Score(rec)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("unit %d: %g != %g after spec round-trip", i, a[i], b[i])
		}
	}
}

func TestFastNNRejectsMalformedSpecs(t *testing.T) {
	if _, err := FastNNFromSpec(nil); err == nil {
		t.Fatal("accepted nil spec")
	}
	fast, err := NewFastNN(trainedScorer(t, 8))
	if err != nil {
		t.Fatal(err)
	}
	sp := fast.Spec()
	sp.Layers[1].In++ // break the chain
	if _, err := FastNNFromSpec(sp); err == nil {
		t.Fatal("accepted broken layer chain")
	}
}

func TestFastNNConcurrentScore(t *testing.T) {
	const dim = 12
	fast, err := NewFastNN(trainedScorer(t, dim))
	if err != nil {
		t.Fatal(err)
	}
	concurrentScore(t, fast, dim)
}
