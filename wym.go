// Package wym is an intrinsically interpretable entity-matching system, a
// Go reproduction of "An Intrinsically Interpretable Entity Matching
// System" (Baraldi et al., EDBT 2023).
//
// WYM (Why do You Match?) decides whether two entity descriptions refer to
// the same real-world entity and explains each decision through *decision
// units*: pairs of semantically similar tokens drawn from the two
// descriptions, or single tokens with no counterpart. Every unit carries a
// relevance score (its isolated pull toward match or non-match) and an
// impact score (its contribution to the actual decision); positive impacts
// push toward match, negative toward non-match.
//
// Quick start:
//
//	train, valid, test := dataset.MustSplit(0.6, 0.2, 1)
//	sys, err := wym.Train(train, valid, wym.DefaultConfig())
//	if err != nil { ... }
//	label, proba := sys.Predict(test.Pairs[0])
//	explanation := sys.Explain(test.Pairs[0])
//	for _, u := range explanation.Units {
//		fmt.Printf("(%s, %s) impact %+.3f\n", u.Left, u.Right, u.Impact)
//	}
//
// The architecture follows the paper's template: a decision-unit generator
// (BERT-substitute embeddings + relaxed stable marriage, Algorithm 1), a
// relevance scorer (feed-forward network over symmetric unit features,
// Equations 2-3), and an explainable matcher (statistical feature
// engineering + a pool of ten interpretable classifiers with an invertible
// coefficient-to-impact transformation). See DESIGN.md for the full system
// inventory and the substitutions made for the offline Go build.
package wym

import (
	"context"
	"io"
	"sync/atomic"

	"wym/internal/blocking"
	"wym/internal/core"
	"wym/internal/data"
	"wym/internal/datagen"
	"wym/internal/explain"
	"wym/internal/feedback"
	"wym/internal/obs"
	"wym/internal/pipeline"
	"wym/internal/rules"
	"wym/internal/units"
)

// Model format identifiers reported by System.Format: "gob" for the
// training/interchange format, "arena-f32"/"arena-int8" for the mmap-able
// serving format. LoadSystem auto-detects the format from the file.
const (
	FormatGob       = core.FormatGob
	FormatArenaF32  = core.FormatArenaF32
	FormatArenaInt8 = core.FormatArenaInt8
)

// Core types, re-exported from the implementation packages. The aliases
// keep a single source of truth while giving downstream users a flat API.
type (
	// System is a fitted WYM matcher.
	System = core.System
	// Config assembles a WYM variant; start from DefaultConfig.
	Config = core.Config
	// Explanation is the interpretable output for one record pair.
	Explanation = pipeline.Explanation
	// UnitExplanation is one decision unit with its scores.
	UnitExplanation = pipeline.UnitExplanation
	// Timing is the training-pipeline breakdown.
	Timing = core.Timing
	// ArenaOptions configures System.SaveArenaFile, the compiler from a
	// fitted system to the flat zero-copy .wyma serving format.
	ArenaOptions = core.ArenaOptions

	// Engine is the pluggable pipeline engine every instantiation of the
	// paper's architecture template (WYM itself, the simulated baselines)
	// serves through. A fitted System exposes its engine via
	// System.Engine(); all batch and single-pair prediction paths run
	// through it.
	Engine = pipeline.Engine
	// ProcessedRecord is a record pair after unit generation: tokens,
	// contextual embeddings and decision units. Callers that need both a
	// prediction and an explanation for the same pair should Process once
	// and reuse the record — see System.Process below.
	ProcessedRecord = pipeline.Record
	// BatchPrediction is one item's outcome in Engine.PredictBatch: a
	// label and probability, or the quarantined item's error.
	BatchPrediction = pipeline.Prediction

	// Dataset is a named collection of labeled record pairs.
	Dataset = data.Dataset
	// Pair is one EM record: two entity descriptions and a label.
	Pair = data.Pair
	// Entity is one entity description (one value per schema attribute).
	Entity = data.Entity
	// Schema is the ordered attribute names shared by both descriptions.
	Schema = data.Schema

	// Thresholds are the θ/η/ε similarity thresholds of Algorithm 1.
	Thresholds = units.Thresholds

	// DatasetProfile describes a synthetic benchmark dataset.
	DatasetProfile = datagen.Profile
)

// Label values.
const (
	NonMatch = data.NonMatch
	Match    = data.Match
)

// Embedding variants for Config.Embedding (Table 4 of the paper).
const (
	EmbeddingSBERT          = core.SBERT
	EmbeddingBERTPretrained = core.BERTPretrained
	EmbeddingBERTFinetuned  = core.BERTFinetuned
	EmbeddingJaroWinkler    = core.JaroWinkler
)

// Scorer variants for Config.Scorer.
const (
	RelevanceScorerNN     = core.ScorerNN
	RelevanceScorerBinary = core.ScorerBinary
	RelevanceScorerCosine = core.ScorerCosine
)

// Feature-space variants for Config.Features.
const (
	FeaturesFull       = core.FeaturesFull
	FeaturesSimplified = core.FeaturesSimplified
)

// PaperThresholds are the values used in the paper's experiments:
// θ = 0.6, η = 0.65, ε = 0.7.
var PaperThresholds = units.PaperThresholds

// DefaultConfig returns the paper-faithful configuration.
func DefaultConfig() Config { return core.DefaultConfig() }

// Train fits the full WYM pipeline on the training split, selecting the
// explainable classifier by F1 on the validation split.
func Train(train, valid *Dataset, cfg Config) (*System, error) {
	return core.Train(train, valid, cfg)
}

// Fault-tolerant training: the pipeline honors context cancellation at
// stage boundaries (and inside its long loops), persists integrity-checked
// stage checkpoints, and quarantines records whose processing panics
// instead of failing the run.
type (
	// TrainOptions configures checkpointing and resume; see TrainWithOptions.
	TrainOptions = core.TrainOptions
	// TrainReport describes resumed stages, rejected checkpoints and
	// quarantined records of a TrainWithOptions run.
	TrainReport = core.TrainReport
	// TrainStage identifies one pipeline stage (embeddings, units, scorer,
	// features, model).
	TrainStage = core.Stage
	// TrainRecordError is one record pair quarantined during training.
	TrainRecordError = core.RecordError
	// Tracer collects named wall-clock spans; pass one in
	// TrainOptions.Tracer to watch stage timings live, or render a loaded
	// system's spans with Import + Table.
	Tracer = obs.Tracer
	// Span is one completed named span of a traced run.
	Span = obs.Span
)

// NewTracer returns an empty span tracer for TrainOptions.Tracer.
func NewTracer() *Tracer { return obs.NewTracer() }

// Pipeline stages, in execution order.
const (
	StageEmbeddings = core.StageEmbeddings
	StageUnits      = core.StageUnits
	StageScorer     = core.StageScorer
	StageFeatures   = core.StageFeatures
	StageModel      = core.StageModel
)

// TrainContext is Train honoring a context: cancel it (e.g. from a signal
// handler) and the run stops cleanly at the next stage boundary.
func TrainContext(ctx context.Context, train, valid *Dataset, cfg Config) (*System, error) {
	return core.TrainContext(ctx, train, valid, cfg)
}

// TrainWithOptions is the fault-tolerant trainer: TrainContext plus stage
// checkpoints written to opts.CheckpointDir and, with opts.Resume, resume
// from the longest valid checkpoint prefix. A resumed run produces
// predictions byte-identical to an uninterrupted run with the same seed.
func TrainWithOptions(ctx context.Context, train, valid *Dataset, cfg Config, opts TrainOptions) (*System, *TrainReport, error) {
	return core.TrainWithOptions(ctx, train, valid, cfg, opts)
}

// LoadDataset reads a dataset from a Magellan-style CSV file
// (label, left_*, right_* columns).
func LoadDataset(path string) (*Dataset, error) { return data.LoadFile(path) }

// Lenient ingest: quarantine malformed CSV rows instead of failing on the
// first one.
type (
	// LoadOptions configures LoadDatasetLenient (strict mode, error budget).
	LoadOptions = data.LoadOptions
	// LoadReport summarizes a lenient load, listing every quarantined row.
	LoadReport = data.LoadReport
	// RowError is one quarantined input row with its line number.
	RowError = data.RowError
	// RowErrorKind classifies why a row was quarantined.
	RowErrorKind = data.RowErrorKind
)

// ErrBudgetExceeded wraps the abort when quarantined rows exceed the
// configured error budget.
var ErrBudgetExceeded = data.ErrBudgetExceeded

// LoadDatasetLenient reads a Magellan-style CSV file, quarantining
// malformed rows (wrong arity, invalid labels, empty entities, duplicates,
// CSV syntax errors) into the report instead of aborting, up to
// opts.ErrorBudget of them. The report is non-nil whenever the header
// parsed, even when an error is returned.
func LoadDatasetLenient(path string, opts LoadOptions) (*Dataset, *LoadReport, error) {
	return data.LoadFileLenient(path, opts)
}

// SaveDataset writes a dataset as CSV.
func SaveDataset(path string, d *Dataset) error { return data.SaveFile(path, d) }

// BenchmarkProfiles returns the 12 synthetic dataset profiles mirroring
// the paper's Magellan benchmark (Table 2).
func BenchmarkProfiles() []DatasetProfile { return datagen.Benchmark() }

// GenerateDataset materializes a benchmark profile at the given scale
// (1.0 = the paper's Table-2 sizes).
func GenerateDataset(p DatasetProfile, scale float64) *Dataset {
	return datagen.Generate(p, scale)
}

// DatasetByKey generates one benchmark dataset by key (e.g. "S-AG").
// It returns false when the key is unknown.
func DatasetByKey(key string, scale float64) (*Dataset, bool) {
	p, ok := datagen.ProfileByKey(key)
	if !ok {
		return nil, false
	}
	return datagen.Generate(p, scale), true
}

// ScenarioKeys lists the stress-scenario packs beyond the Magellan
// reproduction: "unicode", "hetero-schema", "drift-temporal",
// "customer360". Each ships with a committed quality floor
// (testdata/scenario_floors.json) enforced by a regression test.
func ScenarioKeys() []string { return datagen.ScenarioKeys() }

// GenerateScenario materializes one scenario pack with n labeled pairs,
// deterministic in (key, n, seed). It errors on an unknown key.
func GenerateScenario(key string, n int, seed int64) (*Dataset, error) {
	return datagen.GenerateScenario(key, n, seed)
}

// Attribution is one token's weight in a post-hoc explanation (positive
// pushes toward match). See ExplainLIME.
type Attribution = explain.Attribution

// ExplainLIME computes a post-hoc LIME explanation of an arbitrary matcher
// probability function on one record pair, for comparison against WYM's
// intrinsic impact scores (§5.2 of the paper). samples controls the number
// of perturbations (100 is a reasonable default).
func ExplainLIME(proba func(Pair) float64, p Pair, samples int, seed int64) []Attribution {
	cfg := explain.DefaultConfig()
	if samples > 0 {
		cfg.Samples = samples
	}
	cfg.Seed = seed
	return explain.LIME(explain.ProbaFunc(proba), p, cfg)
}

// Rule engine: the paper's future-work extension — external knowledge as
// rules over decision units (§6). Rules inspect a record's explanation and
// may override the model's decision with a documented reason.
type (
	// Rule evaluates one explained record; see the built-in rules.
	Rule = rules.Rule
	// RuleEngine applies rules in order; the first firing rule wins.
	RuleEngine = rules.Engine
	// RuleDecision is the engine's final, possibly overridden decision.
	RuleDecision = rules.Decision

	// CodeConflictRule forces non-match on disagreeing product codes.
	CodeConflictRule = rules.CodeConflict
	// CodeAgreementRule forces match on shared codes when the model is
	// undecided.
	CodeAgreementRule = rules.CodeAgreement
	// AttributeMismatchRule forces non-match when a key attribute pairs
	// no tokens.
	AttributeMismatchRule = rules.AttributeMismatch
	// MinPairedRatioRule forces non-match below a paired-unit ratio.
	MinPairedRatioRule = rules.MinPairedRatio
)

// NewRuleEngine builds an engine over the given rules.
func NewRuleEngine(rs ...Rule) *RuleEngine { return rules.NewEngine(rs...) }

// PredictWithRules explains the pair, applies the rule engine, and returns
// the final decision together with the explanation that produced it.
func PredictWithRules(sys *System, engine *RuleEngine, p Pair) (RuleDecision, Explanation) {
	ex := sys.Explain(p)
	return engine.Apply(p, ex), ex
}

// Blocking: candidate generation for table-scale matching. The benchmark
// ships pre-paired records, but deployments must first cut the cross
// product of two entity tables down to candidate pairs.
type (
	// BlockingConfig tunes the token-based blocker.
	BlockingConfig = blocking.Config
	// BlockingCandidate is one generated candidate pair.
	BlockingCandidate = blocking.Candidate
	// BlockingStats summarizes a blocking run.
	BlockingStats = blocking.Stats
)

// DefaultBlockingConfig returns practical blocker defaults.
func DefaultBlockingConfig() BlockingConfig { return blocking.DefaultConfig() }

// BlockCandidates blocks two entity tables (each a slice of entities over
// the same schema) and returns candidate pairs. An invalid configuration
// returns an error wrapping blocking.ErrInvalidConfig.
func BlockCandidates(left, right []Entity, cfg BlockingConfig) ([]BlockingCandidate, error) {
	return blocking.Candidates(left, right, cfg)
}

// BlockPairs materializes candidates as unlabeled record pairs ready for
// System.Predict.
func BlockPairs(left, right []Entity, cands []BlockingCandidate) []Pair {
	return blocking.Pairs(left, right, cands)
}

// BlockingSummary computes the comparison-reduction statistics of a run.
func BlockingSummary(left, right []Entity, cands []BlockingCandidate) BlockingStats {
	return blocking.Summarize(left, right, cands)
}

// Table is a plain entity table (rows over a schema) — the input side of
// full-table matching, as opposed to the pre-paired Dataset.
type Table = data.Table

// LoadTable reads an entity table from a CSV file whose header names the
// attributes.
func LoadTable(path string) (*Table, error) { return data.LoadTableFile(path) }

// SaveTable writes an entity table to path as CSV.
func SaveTable(path string, t *Table) error { return data.SaveTableFile(path, t) }

// LoadTruth reads a ground-truth match-pair list ("left,right" header,
// 0-based row indices) for scoring a matching run.
func LoadTruth(path string) ([][2]int, error) { return data.LoadTruthFile(path) }

// SaveTruth writes a ground-truth match-pair list to path.
func SaveTruth(path string, pairs [][2]int) error { return data.SaveTruthFile(path, pairs) }

// LoadSystem restores a fitted system saved with System.SaveFile. Train
// once, serve from many processes:
//
//	sys.SaveFile("matcher.gob")
//	sys, err := wym.LoadSystem("matcher.gob")
//
// Decode failures (truncated files, garbage, a gob of the wrong type)
// come back wrapped with the file path.
func LoadSystem(path string) (*System, error) { return core.LoadFile(path) }

// Load restores a fitted system from a reader holding the gob stream
// System.Save wrote.
func Load(r io.Reader) (*System, error) { return core.Load(r) }

// ModelRef is a reload-safe handle to the System currently being
// served. Readers call Get per request and keep using the snapshot they
// got; a reloader validates a replacement off to the side and publishes
// it with Set in one atomic step. In-flight requests finish on the
// model they started with — no locks on the predict path, safe under
// the race detector with concurrent Get/Set.
type ModelRef struct {
	p atomic.Pointer[System]
}

// NewModelRef builds a handle serving sys (which may be nil until the
// first successful load).
func NewModelRef(sys *System) *ModelRef {
	r := &ModelRef{}
	r.p.Store(sys)
	return r
}

// Get returns the current model. Callers must not assume a second Get
// returns the same snapshot.
func (r *ModelRef) Get() *System { return r.p.Load() }

// Set atomically publishes sys as the current model and returns the
// one it replaced.
func (r *ModelRef) Set(sys *System) (old *System) { return r.p.Swap(sys) }

// Online learning (DESIGN §13): a fitted system folds human-adjudicated
// pair labels in after training — System.ApplyFeedback derives
// contrastive token pairs, recompiles the fine-tuned embedding map, and
// recalibrates the decision threshold, returning a new System (the
// receiver keeps serving; swap via ModelRef.Set). The update is a pure
// function of the accumulated label multiset, so replaying a journal
// reproduces a served model fingerprint-for-fingerprint after a crash.
type (
	// FeedbackLabel is one adjudicated record pair: the two entity
	// descriptions and whether they match.
	FeedbackLabel = feedback.Label
	// FeedbackJournal is the append-only fsync'd label log
	// (directory of CRC-checked segments) behind `wym label` and the
	// server's feedback endpoints.
	FeedbackJournal = feedback.Journal
	// FeedbackSelector ranks candidate pairs for active labeling by
	// margin (closeness of the match probability to the decision
	// threshold).
	FeedbackSelector = feedback.Selector
	// FeedbackRanked is one ranked candidate from FeedbackSelector.
	FeedbackRanked = feedback.Ranked
)

// OpenFeedbackJournal opens (creating if needed) the label journal in
// dir, repairing a torn tail, and returns it with every durable label
// in append order.
func OpenFeedbackJournal(dir string) (*FeedbackJournal, []FeedbackLabel, error) {
	return feedback.Open(dir)
}

// TuneResult is one grid point of a threshold sweep; see TuneThresholds.
type TuneResult = core.TuneResult

// TuneThresholds trains one system per θ/η/ε triple (core's default grid
// when grid is nil) and returns the system with the best validation F1
// together with the full sweep — the paper's "experimentally determined
// thresholds" automated.
func TuneThresholds(train, valid *Dataset, cfg Config, grid []Thresholds) (*System, []TuneResult, error) {
	return core.TuneThresholds(train, valid, cfg, grid)
}

// AttributeImpact aggregates an explanation's unit impacts per schema
// attribute, giving the CERTA-style attribute-level view. (One
// implementation lives in the pipeline layer; core and this facade both
// alias it.)
func AttributeImpact(schema Schema, ex Explanation) []float64 {
	return pipeline.AttributeImpact(schema, ex)
}

// Record-level API: a System also exposes the processing step on its own,
// so callers can tokenize, embed and discover units once per pair and
// reuse the result —
//
//	rec := sys.Process(pair)            // or sys.ProcessAllContext(ctx, ds)
//	label, proba := sys.PredictRecord(rec)
//	ex := sys.ExplainRecord(rec)        // no second tokenize/embed pass
//
// Predict followed by Explain on the same pair costs two full processing
// passes; Process + PredictRecord + ExplainRecord costs one. The batch
// forms run on the engine's one executor: ProcessAll re-raises a
// record's panic on the calling goroutine, while ProcessAllContext
// quarantines it (nil entry + RecordError) instead of failing the batch,
// and honors context cancellation.
