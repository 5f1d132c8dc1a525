package blocking

import (
	"fmt"
	"math/rand"
	"testing"

	"wym/internal/data"
	"wym/internal/datagen"
)

// mustCandidates runs Candidates, failing the test on a configuration
// rejection.
func mustCandidates(t *testing.T, left, right []data.Entity, cfg Config) []Candidate {
	t.Helper()
	cands, err := Candidates(left, right, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return cands
}

// tables builds two entity tables with known ground truth: left[i] matches
// right[i] for i < nMatch (the rest are unrelated products).
func tables(nMatch, nNoise int) (left, right []data.Entity, truth map[int][]int) {
	truth = map[int][]int{}
	rng := rand.New(rand.NewSource(3))
	brands := []string{"sony", "canon", "dell", "acer", "asus"}
	kinds := []string{"camera", "laptop", "monitor", "printer", "router"}
	for i := 0; i < nMatch; i++ {
		code := fmt.Sprintf("md%04d", i)
		brand := brands[rng.Intn(len(brands))]
		kind := kinds[rng.Intn(len(kinds))]
		left = append(left, data.Entity{kind + " " + code, brand})
		right = append(right, data.Entity{kind + " pro " + code, brand})
		truth[i] = []int{i}
	}
	for i := 0; i < nNoise; i++ {
		left = append(left, data.Entity{fmt.Sprintf("widget wl%04d", i), "generic"})
		right = append(right, data.Entity{fmt.Sprintf("gadget gr%04d", i), "generic"})
	}
	return left, right, truth
}

func TestCandidatesCoverTruth(t *testing.T) {
	left, right, truth := tables(50, 200)
	cands := mustCandidates(t, left, right, DefaultConfig())
	if r := recall(cands, truth); r < 0.99 {
		t.Fatalf("blocking recall = %v, want ~1", r)
	}
	stats := Summarize(left, right, cands)
	if stats.Reduction < 0.9 {
		t.Fatalf("reduction = %v, want >= 0.9 (candidates %d of %d)",
			stats.Reduction, stats.Candidates, stats.LeftSize*stats.RightSize)
	}
}

func TestCandidatesSorted(t *testing.T) {
	left, right, _ := tables(20, 50)
	cands := mustCandidates(t, left, right, DefaultConfig())
	for i := 1; i < len(cands); i++ {
		a, b := cands[i-1], cands[i]
		if a.Left > b.Left || (a.Left == b.Left && a.Right >= b.Right) {
			t.Fatalf("candidates not sorted at %d: %+v, %+v", i, a, b)
		}
	}
}

func TestMinShared(t *testing.T) {
	left := []data.Entity{{"alpha beta gamma"}}
	right := []data.Entity{{"alpha delta"}, {"alpha beta zeta"}}
	cfg := DefaultConfig()
	cfg.MaxDF = 1.0
	cfg.MinShared = 2
	cands := mustCandidates(t, left, right, cfg)
	if len(cands) != 1 || cands[0].Right != 1 {
		t.Fatalf("MinShared filter wrong: %+v", cands)
	}
}

func TestMaxDFDropsFrequentTokens(t *testing.T) {
	// Every record shares "common"; with a tight MaxDF it must not create
	// the cross product.
	var left, right []data.Entity
	for i := 0; i < 50; i++ {
		left = append(left, data.Entity{fmt.Sprintf("common l%04d", i)})
		right = append(right, data.Entity{fmt.Sprintf("common r%04d", i)})
	}
	cands := mustCandidates(t, left, right, DefaultConfig())
	if len(cands) != 0 {
		t.Fatalf("frequent token produced %d candidates", len(cands))
	}
}

func TestJaccardFloor(t *testing.T) {
	left := []data.Entity{{"alpha beta gamma delta"}}
	right := []data.Entity{{"alpha zzz yyy xxx www vvv"}}
	cfg := DefaultConfig()
	cfg.MaxDF = 1.0
	cands := mustCandidates(t, left, right, cfg)
	if len(cands) != 1 {
		t.Fatalf("expected 1 raw candidate, got %d", len(cands))
	}
	cfg.JaccardFloor = 0.3
	cands = mustCandidates(t, left, right, cfg)
	if len(cands) != 0 {
		t.Fatalf("Jaccard floor did not filter: %+v", cands)
	}
}

func TestAttrsRestriction(t *testing.T) {
	left := []data.Entity{{"unique1", "shared"}}
	right := []data.Entity{{"unique2", "shared"}}
	cfg := DefaultConfig()
	cfg.MaxDF = 1.0
	// Indexing only attribute 0: no shared tokens, no candidates.
	cfg.Attrs = []int{0}
	if cands := mustCandidates(t, left, right, cfg); len(cands) != 0 {
		t.Fatalf("attr restriction ignored: %+v", cands)
	}
	cfg.Attrs = []int{1}
	if cands := mustCandidates(t, left, right, cfg); len(cands) != 1 {
		t.Fatalf("attr 1 should block the pair: %+v", cands)
	}
}

func TestPairs(t *testing.T) {
	left := []data.Entity{{"a"}, {"b"}}
	right := []data.Entity{{"c"}}
	ps := Pairs(left, right, []Candidate{{Left: 1, Right: 0}})
	if len(ps) != 1 || ps[0].Left[0] != "b" || ps[0].Right[0] != "c" {
		t.Fatalf("pairs = %+v", ps)
	}
}

func TestRecallEdgeCases(t *testing.T) {
	if recall(nil, nil) != 1 {
		t.Fatal("empty truth should give recall 1")
	}
	if recall(nil, map[int][]int{0: {0}}) != 0 {
		t.Fatal("no candidates should give recall 0")
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil, nil, nil)
	if s.Reduction != 0 || s.Candidates != 0 {
		t.Fatalf("empty summary = %+v", s)
	}
}

func TestBlockingOnSyntheticBenchmark(t *testing.T) {
	// Split a benchmark dataset's matching pairs into two tables and check
	// the blocker recovers most true pairs.
	p, _ := datagen.ProfileByKey("S-DA")
	d := datagen.Generate(p, 0.05)
	var left, right []data.Entity
	truth := map[int][]int{}
	for _, pair := range d.Pairs {
		if pair.Label != data.Match {
			continue
		}
		truth[len(left)] = []int{len(right)}
		left = append(left, pair.Left)
		right = append(right, pair.Right)
	}
	cfg := DefaultConfig()
	cfg.MaxDF = 0.3 // small tables: allow more frequent tokens
	cands := mustCandidates(t, left, right, cfg)
	if r := recall(cands, truth); r < 0.9 {
		t.Fatalf("benchmark blocking recall = %v", r)
	}
}

func BenchmarkCandidates(b *testing.B) {
	left, right, _ := tables(200, 800)
	cfg := DefaultConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Candidates(left, right, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
