package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"wym/internal/data"
)

// quadraticThreshold is the F1 sweep calibrateThreshold ran before the
// sorted one, kept as the reference: it recounts all n labels for each of
// the n+1 candidates.
func quadraticThreshold(probas []float64, match []bool) float64 {
	cands := make([]float64, 0, len(probas)+1)
	for _, p := range probas {
		if p > 0 {
			cands = append(cands, p)
		}
	}
	cands = append(cands, 0.5)
	sort.Float64s(cands)
	f1At := func(t float64) float64 {
		var tp, fp, fn int
		for i, p := range probas {
			switch {
			case p >= t && match[i]:
				tp++
			case p >= t:
				fp++
			case match[i]:
				fn++
			}
		}
		if 2*tp+fp+fn == 0 {
			return 0
		}
		return float64(2*tp) / float64(2*tp+fp+fn)
	}
	best, bestF1 := 0.5, f1At(0.5)
	for _, c := range cands {
		if c == best {
			continue
		}
		f := f1At(c)
		if f > bestF1 ||
			(f == bestF1 && math.Abs(c-0.5) < math.Abs(best-0.5)) {
			best, bestF1 = c, f
		}
	}
	return best
}

// TestApplyFeedbackCalibrationSweep pins the sorted F1 sweep to the
// quadratic reference bit for bit on random label multisets: heavy exact
// ties, probas of exactly 0, 0.5 and 1, pairs symmetric about 0.5, and
// all-match and all-non-match sets, for n from 1 to 300.
func TestApplyFeedbackCalibrationSweep(t *testing.T) {
	pools := [][]float64{
		{0, 0.5, 1},
		{0.4, 0.6},
		{0.4, 0.5, 0.6},
		{0.3, 0.4, 0.6, 0.7},
		{0, 0.25, 0.4, 0.5, 0.6, 0.75, 1},
		{0.5},
		{0},
		nil, // continuous
	}
	rng := rand.New(rand.NewSource(26))
	check := func(probas []float64, match []bool) {
		t.Helper()
		got, want := bestThreshold(probas, match), quadraticThreshold(probas, match)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("probas %v, match %v: sorted sweep %v, quadratic %v", probas, match, got, want)
		}
	}
	for trial := 0; trial < 1500; trial++ {
		n := 1 + trial%40
		if trial >= 600 {
			n = 1 + rng.Intn(300)
		}
		pool := pools[trial%len(pools)]
		matchRate := []float64{0, 1, 0.5, 0.1, 0.9}[trial%5]
		probas := make([]float64, n)
		match := make([]bool, n)
		for i := range probas {
			if pool == nil {
				probas[i] = rng.Float64()
			} else {
				probas[i] = pool[rng.Intn(len(pool))]
			}
			match[i] = rng.Float64() < matchRate
		}
		check(probas, match)
	}
	// 0.4 and 0.6 both reach F1 2/3 and sit equally far from 0.5, so only
	// the strict tie rule keeps 0.4, the first one visited.
	probas, match := []float64{0.4, 0.5, 0.5, 0.6}, []bool{true, false, false, true}
	if got := bestThreshold(probas, match); got != 0.4 {
		t.Fatalf("symmetric tie: threshold %v, want 0.4", got)
	}
	check(probas, match)
	check([]float64{0.4, 0.6}, []bool{true, false})
	check([]float64{math.NaN(), 0.3, 0.7}, []bool{true, true, false})
}

// TestApplyFeedbackCalibrationParallel pins calibration on the engine's
// executor to the one-goroutine loop it replaced: the same probas, so
// the same threshold bit for bit. A canceled context fails it.
func TestApplyFeedbackCalibrationParallel(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	sys, test := trainOn(t, "S-FZ", 1.0, fastConfig())
	labels := labelsOf(driftRight(test.Pairs[:40], 0.8, 7))
	pairs := make([]data.Pair, len(labels))
	probas := make([]float64, len(labels))
	match := make([]bool, len(labels))
	for i, lb := range labels {
		pairs[i] = data.Pair{Left: lb.Left, Right: lb.Right}
		_, probas[i] = sys.Predict(pairs[i])
		match[i] = lb.Match
	}
	for i, pred := range sys.Engine().PredictBatch(context.Background(), pairs) {
		if math.Float64bits(pred.Proba) != math.Float64bits(probas[i]) || pred.Err != "" {
			t.Fatalf("label %d: batch %+v, sequential proba %v", i, pred, probas[i])
		}
	}
	got, err := calibrateThreshold(context.Background(), sys, labels)
	if err != nil {
		t.Fatal(err)
	}
	if want := quadraticThreshold(probas, match); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("threshold %v, sequential reference %v", got, want)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := calibrateThreshold(ctx, sys, labels); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled calibration: err = %v, want context.Canceled", err)
	}
}
