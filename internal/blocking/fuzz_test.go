package blocking

import (
	"errors"
	"strings"
	"testing"

	"wym/internal/data"
)

// FuzzBlockingCandidates throws arbitrary table contents and configuration
// knobs at the blocker. Invariants: never panic; an invalid configuration
// is reported via ErrInvalidConfig, exactly when the reference blocker
// (batchCandidates) rejects it; on success every candidate is in-range,
// deduplicated, and sorted; and with no TopK cap both Candidates and a
// chunked stream under the fuzzed memory budget equal the reference, in
// two-table and in Self mode.
func FuzzBlockingCandidates(f *testing.F) {
	f.Add("camera x100 fuji\ncamera x-100 fuji", "espresso maker\ncamera x100", 0.5, 1, 0.0, int64(128))
	f.Add("a b c", "", 1.0, 0, 0.2, int64(0))
	f.Add("", "x", -0.3, -1, 1.5, int64(-5))
	f.Add("one\ntwo\nthree", "one two\nthree four", 0.9, 2, 0.1, int64(1))
	f.Fuzz(func(t *testing.T, leftRaw, rightRaw string, maxDF float64, minShared int, jaccard float64, budget int64) {
		left := fuzzTable(leftRaw)
		right := fuzzTable(rightRaw)
		cfg := Config{MaxDF: maxDF, MinShared: minShared, JaccardFloor: jaccard}

		want, refErr := batchCandidates(left, right, cfg)
		cands, err := Candidates(left, right, cfg)
		if err != nil || refErr != nil {
			if !errors.Is(err, ErrInvalidConfig) || !errors.Is(refErr, ErrInvalidConfig) {
				t.Fatalf("rejections differ: Candidates %v, reference %v", err, refErr)
			}
			return
		}
		seen := map[[2]int]bool{}
		for i, c := range cands {
			if c.Left < 0 || c.Left >= len(left) || c.Right < 0 || c.Right >= len(right) {
				t.Fatalf("candidate %d out of range: %+v (tables %dx%d)", i, c, len(left), len(right))
			}
			key := [2]int{c.Left, c.Right}
			if seen[key] {
				t.Fatalf("duplicate candidate %v", key)
			}
			seen[key] = true
			if i > 0 {
				p := cands[i-1]
				if p.Left > c.Left || (p.Left == c.Left && p.Right >= c.Right) {
					t.Fatalf("candidates unsorted at %d: %+v then %+v", i, p, c)
				}
			}
		}
		sameCandidates(t, "Candidates", cands, want)

		if budget < 0 {
			// Stream-only knobs have their own validation; a negative
			// budget must be rejected, then fuzz the positive mirror.
			if _, err := NewStreamer(left, right, StreamConfig{Config: cfg, MemoryBudget: budget}); !errors.Is(err, ErrInvalidConfig) {
				t.Fatalf("negative budget accepted: %v", err)
			}
			budget = -budget
		}
		sameCandidates(t, "stream", fuzzStream(t, left, right, StreamConfig{Config: cfg, MemoryBudget: budget}), want)

		selfWant, err := batchSelfCandidates(left, cfg)
		if err != nil {
			t.Fatalf("reference rejected the left table alone: %v", err)
		}
		self := StreamConfig{Config: cfg, MemoryBudget: budget, Self: true}
		sameCandidates(t, "self stream", fuzzStream(t, left, left, self), selfWant)
	})
}

// fuzzStream runs a Streamer over the left table in chunks of two rows.
func fuzzStream(t *testing.T, left, right []data.Entity, cfg StreamConfig) []Candidate {
	s, err := NewStreamer(left, right, cfg)
	if err != nil {
		t.Fatalf("reference accepted config but streamer rejected it: %v", err)
	}
	var out []Candidate
	for start := 0; start < len(left); start += 2 {
		cs, err := s.Chunk(start, min(start+2, len(left)))
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, cs...)
	}
	return out
}

// fuzzTable parses newline-separated rows of space-separated attribute
// values into a single-attribute entity table.
func fuzzTable(raw string) []data.Entity {
	if raw == "" {
		return nil
	}
	lines := strings.Split(raw, "\n")
	out := make([]data.Entity, 0, len(lines))
	for _, l := range lines {
		out = append(out, data.Entity{l})
	}
	return out
}
