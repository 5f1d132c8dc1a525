// Package pipeline defines the paper's three-component architecture
// template as explicit, pluggable interfaces — a decision-unit generator,
// a relevance scorer and an explainable matcher — plus the batched,
// context-aware Engine that composes one instantiation of each into a
// ready-to-serve matching system.
//
// The WYM system of the paper (internal/core) is one instantiation: its
// generator tokenizes, contextually embeds and runs Algorithm 1; its
// scorer is the trained relevance network (or the Table 4 ablations); its
// matcher is the statistical feature space plus an interpretable
// classifier with the inverse impact transformation. The simulated black
// boxes of Table 3 (internal/baselines) are alternative instantiations:
// a pass-through generator, no relevance scorer, and a feature-model
// matcher that produces predictions without decision units. Every caller
// — the CLI, the server, the benchmark harness and the experiments — runs
// through the same Engine, so swapping a component never forks the
// process→score→match control flow.
package pipeline

import (
	"wym/internal/data"
	"wym/internal/relevance"
	"wym/internal/units"
)

// Record is one record pair flowing through the engine: the raw input
// pair plus the generator's processed view (tokens, contextual embeddings
// and decision units). Instantiations that do not build decision units
// (the baseline black boxes) leave the embedded relevance.Record zero and
// work from Pair alone.
type Record struct {
	// Pair is the raw input the generator consumed.
	Pair data.Pair
	// Record is the unit-level view: decision units plus the token
	// embeddings they index. Its fields (Units, Left, Right, ...) promote,
	// so unit-aware code reads rec.Units directly.
	relevance.Record
}

// Rel returns the unit-level view as the *relevance.Record the substrate
// packages (relevance, eval, checkpointing) consume.
func (r *Record) Rel() *relevance.Record { return &r.Record }

// UnitGenerator is the first template component: it turns a raw record
// pair into a processed Record. Implementations must be safe for
// concurrent use — the Engine fans batch generation out over workers.
//
// Each side's tokens and vectors must come from that side's entity
// alone: the same entity on the same side yields the same tokens and
// bit-identical vectors whatever its partner. Session's unit-score memo
// rests on it. core's generator tokenizes and contextualizes each side
// on its own (TestGeneratorSideContract pins it); Verbatim builds no
// units at all.
type UnitGenerator interface {
	Generate(p data.Pair) *Record
}

// RelevanceScorer is the second template component: one relevance score
// in [-1, 1] per decision unit of a record. Implementations must be safe
// for concurrent use.
type RelevanceScorer interface {
	Score(rec *Record) []float64
}

// Matcher is the third template component: the final decision over a
// processed, scored record, and the interpretable explanation of that
// decision. scores is the RelevanceScorer output for rec (nil when the
// engine has no scorer). Implementations must be safe for concurrent use.
type Matcher interface {
	MatchRecord(rec *Record, scores []float64) (label int, proba float64)
	ExplainRecord(rec *Record, scores []float64) Explanation
}

// UnitScores adapts a unit-level relevance.Scorer (the trained network,
// or the Binary/Cosine ablations of Table 4) to the pipeline's
// RelevanceScorer interface.
type UnitScores struct {
	S relevance.Scorer
}

// Score implements RelevanceScorer.
func (u UnitScores) Score(rec *Record) []float64 { return u.S.Score(rec.Rel()) }

// NoScores is the RelevanceScorer of instantiations whose matcher works
// directly on the raw pair (the baseline black boxes): every record
// scores nil.
type NoScores struct{}

// Score implements RelevanceScorer.
func (NoScores) Score(*Record) []float64 { return nil }

// Verbatim is the pass-through UnitGenerator: it wraps the pair without
// tokenizing or discovering units. Matchers that featurize the raw pair
// (the baseline black boxes) pair it with NoScores.
type Verbatim struct{}

// Generate implements UnitGenerator.
func (Verbatim) Generate(p data.Pair) *Record { return &Record{Pair: p} }

// UnitExplanation is one row of an explanation: a decision unit with its
// rendered tokens, relevance and impact scores.
type UnitExplanation struct {
	Left, Right string // token texts; empty string for the absent side
	Kind        units.Kind
	Attr        int
	Relevance   float64
	Impact      float64
}

// Explanation is the full interpretable output for one record pair.
// Positive impacts push toward match, negative toward non-match. A
// matcher without decision units returns the prediction with no Units.
type Explanation struct {
	Prediction int
	Proba      float64
	Units      []UnitExplanation
}

// AttributeImpact aggregates an explanation's impacts per schema
// attribute: the CERTA-style attribute-level view the related work
// discusses. The returned slice is aligned with the schema; units whose
// attribute falls outside the schema are ignored.
func AttributeImpact(schema data.Schema, ex Explanation) []float64 {
	out := make([]float64, len(schema))
	for _, u := range ex.Units {
		if u.Attr >= 0 && u.Attr < len(out) {
			out[u.Attr] += u.Impact
		}
	}
	return out
}

// RecordError is one record pair quarantined during batch processing: a
// worker recovered a panic (or a validation failure) on it and excluded
// it from the run instead of crashing the whole batch.
type RecordError struct {
	Index int    // position in the dataset's pair slice
	ID    int    // the pair's ID
	Err   string // the recovered panic or error text
}
