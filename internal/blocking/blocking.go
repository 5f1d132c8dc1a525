// Package blocking implements candidate-pair generation for entity
// matching at table scale. The paper's benchmark ships pre-blocked record
// pairs, but a deployed matcher must first cut the quadratic cross product
// of two entity tables down to a candidate set. This package provides the
// standard token-based approach: an inverted index over discriminative
// tokens with document-frequency pruning, plus an optional Jaccard
// pre-filter on the candidate pairs.
package blocking

import (
	"errors"
	"fmt"

	"wym/internal/data"
)

// Config tunes the blocker.
type Config struct {
	// MaxDF prunes tokens appearing in more than this fraction of either
	// table: frequent tokens ("black", a shared brand) generate huge,
	// useless buckets. Default 0.1.
	MaxDF float64
	// MinShared is the number of shared index tokens required before a
	// pair becomes a candidate. Default 1.
	MinShared int
	// JaccardFloor drops candidates whose whole-record token Jaccard
	// similarity is below the floor (0 disables the filter).
	JaccardFloor float64
	// Attrs restricts indexing to the listed attribute indices
	// (nil = all attributes).
	Attrs []int
}

// DefaultConfig returns practical defaults.
func DefaultConfig() Config { return Config{MaxDF: 0.1, MinShared: 1} }

// ErrInvalidConfig is the sentinel every configuration rejection wraps:
// errors.Is(err, ErrInvalidConfig) catches them all. A bad blocker
// configuration used to degrade into a silently empty candidate set (an
// out-of-range attribute index simply indexes nothing); validation turns
// that class of operator error into a named failure instead.
var ErrInvalidConfig = errors.New("blocking: invalid config")

// Validate checks the configuration against the table schema. numAttrs is
// the attribute count of the tables to be blocked (0 skips the Attrs
// range check, for callers that validate before loading data). Every
// rejection wraps ErrInvalidConfig.
func (cfg Config) Validate(numAttrs int) error {
	if cfg.MaxDF <= 0 || cfg.MaxDF > 1 {
		return fmt.Errorf("%w: MaxDF %v outside (0,1]", ErrInvalidConfig, cfg.MaxDF)
	}
	if cfg.MinShared < 0 {
		return fmt.Errorf("%w: negative MinShared %d", ErrInvalidConfig, cfg.MinShared)
	}
	if cfg.JaccardFloor < 0 || cfg.JaccardFloor > 1 {
		return fmt.Errorf("%w: JaccardFloor %v outside [0,1]", ErrInvalidConfig, cfg.JaccardFloor)
	}
	for _, a := range cfg.Attrs {
		if a < 0 {
			return fmt.Errorf("%w: negative attribute index %d", ErrInvalidConfig, a)
		}
		if numAttrs > 0 && a >= numAttrs {
			return fmt.Errorf("%w: attribute index %d out of range (table has %d attributes)",
				ErrInvalidConfig, a, numAttrs)
		}
	}
	return nil
}

// numAttrsOf infers the attribute count from the first non-empty row of
// the given tables (0 when both are empty).
func numAttrsOf(tables ...[]data.Entity) int {
	for _, t := range tables {
		for _, e := range t {
			if len(e) > 0 {
				return len(e)
			}
		}
	}
	return 0
}

// Candidate is one generated pair: indices into the left and right tables
// with the number of shared index tokens.
type Candidate struct {
	Left, Right int
	Shared      int
}

// Candidates blocks two entity tables and returns candidate pairs sorted
// by (Left, Right). Both tables must share the schema's attribute order.
// It is the Streamer run over the whole left table as one chunk, with no
// memory budget and no top-k cap. An invalid configuration returns an
// error wrapping ErrInvalidConfig instead of silently producing an empty
// candidate set.
func Candidates(left, right []data.Entity, cfg Config) ([]Candidate, error) {
	s, err := NewStreamer(left, right, StreamConfig{Config: cfg})
	if err != nil {
		return nil, err
	}
	return s.Chunk(0, len(left))
}

// Pairs materializes candidates as unlabeled record pairs ready for a
// matcher.
func Pairs(left, right []data.Entity, cands []Candidate) []data.Pair {
	out := make([]data.Pair, len(cands))
	for i, c := range cands {
		out[i] = data.Pair{ID: i, Left: left[c.Left], Right: right[c.Right]}
	}
	return out
}

// Stats summarizes a blocking run against the full cross product.
type Stats struct {
	LeftSize, RightSize int
	Candidates          int
	// Reduction is 1 - candidates/(|L|*|R|): the fraction of comparisons
	// saved.
	Reduction float64
}

// Summarize computes the reduction statistics.
func Summarize(left, right []data.Entity, cands []Candidate) Stats {
	s := Stats{LeftSize: len(left), RightSize: len(right), Candidates: len(cands)}
	total := float64(len(left) * len(right))
	if total > 0 {
		s.Reduction = 1 - float64(len(cands))/total
	}
	return s
}
