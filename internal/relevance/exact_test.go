package relevance_test

import (
	"testing"

	"wym/internal/core"
	"wym/internal/data"
	"wym/internal/datagen"
	"wym/internal/nn"
	"wym/internal/relevance"
)

// TestNNScoreMatchesForward pins the float64 exactness contract on real
// systems: NN.Score and NN.ScoreBatch, which run the lane kernel, equal
// the per-unit forward pass (nn.Net.Forward over Record.Features,
// clamped) bit for bit on every unit of systems trained on S-FZ, S-BR and
// S-DA and on the four scenario packs, on both tile widths. ScoreBatch
// scores each split in chunks of several sizes, so records share lane
// blocks and groups in many arrangements. The scorer has the paper's
// 300/64/32 topology, so the 300-wide layer ends in a partial tile. A
// reordered sum, or a fused multiply-add in either the kernel or the
// compiled reference, fails it.
func TestNNScoreMatchesForward(t *testing.T) {
	if testing.Short() {
		t.Skip("trains seven systems")
	}
	cfg := core.DefaultConfig()
	cfg.ScorerNN = relevance.NNConfig{
		Hidden: []int{300, 64, 32},
		Train:  nn.Config{Epochs: 2, BatchSize: 64, LR: 1e-3, Seed: 1},
		Seed:   1,
	}
	cfg.MaxFineTunePairs = 100
	sets := map[string]*data.Dataset{}
	for _, ds := range []struct {
		key   string
		scale float64
	}{{"S-FZ", 0.3}, {"S-BR", 0.5}, {"S-DA", 0.03}} {
		p, ok := datagen.ProfileByKey(ds.key)
		if !ok {
			t.Fatalf("unknown profile %q", ds.key)
		}
		sets[ds.key] = datagen.Generate(p, ds.scale)
	}
	for _, key := range datagen.ScenarioKeys() {
		d, err := datagen.GenerateScenario(key, 120, 1)
		if err != nil {
			t.Fatal(err)
		}
		sets[key] = d
	}
	for key, d := range sets {
		t.Run(key, func(t *testing.T) {
			train, valid, test := d.MustSplit(0.6, 0.2, 1)
			sys, err := core.Train(train, valid, cfg)
			if err != nil {
				t.Fatal(err)
			}
			s, ok := sys.Scorer().(*relevance.NN)
			if !ok {
				t.Fatalf("scorer is %T, want *relevance.NN", sys.Scorer())
			}
			var units int
			for _, pairs := range [][]data.Pair{valid.Pairs, test.Pairs} {
				recs := make([]*relevance.Record, len(pairs))
				want := make([][]float64, len(pairs))
				for i, p := range pairs {
					recs[i] = sys.Process(p).Rel()
					want[i] = relevance.ForwardReference(s, recs[i])
					units += len(recs[i].Units)
				}
				for _, p := range relevance.TilePaths(s) {
					path, s := p.Name, p.S
					for i, rec := range recs {
						if u, ok := relevance.SameScores(s.Score(rec), want[i]); !ok {
							t.Fatalf("%s tile, pair %d unit %d: NN.Score differs from the forward pass", path, pairs[i].ID, u)
						}
					}
					for _, size := range []int{1, 3, 4, 16, len(recs)} {
						for from := 0; from < len(recs); from += size {
							to := min(from+size, len(recs))
							for k, got := range s.ScoreBatch(recs[from:to]) {
								if u, ok := relevance.SameScores(got, want[from+k]); !ok {
									t.Fatalf("%s tile, chunks of %d, pair %d unit %d: NN.ScoreBatch differs from the forward pass",
										path, size, pairs[from+k].ID, u)
								}
							}
						}
					}
				}
			}
			if units == 0 {
				t.Fatal("no decision units scored")
			}
			t.Logf("%s: %d units bit-identical", key, units)
		})
	}
}
