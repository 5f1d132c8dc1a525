// Package core implements WYM, the paper's instantiation of the
// three-component architecture template defined by internal/pipeline: a
// decision-unit generator (corpus-trained embeddings + Algorithm 1), a
// relevance scorer (the Equation 2/3 network, or the Table 4 ablations)
// and an explainable matcher (statistical feature engineering, a
// classifier pool, and the inverse transformation that yields per-unit
// impact scores). Training owns the end-to-end fit; once fitted, every
// prediction and explanation flows through the assembled pipeline.Engine.
package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"wym/internal/arena"
	"wym/internal/classify"
	"wym/internal/data"
	"wym/internal/embed"
	"wym/internal/features"
	"wym/internal/feedback"
	"wym/internal/obs"
	"wym/internal/pipeline"
	"wym/internal/relevance"
	"wym/internal/textsim"
	"wym/internal/tokenize"
	"wym/internal/units"
)

// EmbeddingKind selects the decision-unit generator variant (Table 4).
type EmbeddingKind int

// Embedding variants.
const (
	// SBERT is the default: corpus embeddings contrastively fine-tuned
	// with both positive and negative pairs (the Sentence-BERT stand-in).
	SBERT EmbeddingKind = iota
	// BERTPretrained uses the corpus embeddings as-is.
	BERTPretrained
	// BERTFinetuned fine-tunes with positive pairs only (the "fine-tuned
	// on the EM task" stand-in).
	BERTFinetuned
	// JaroWinkler replaces the embedding similarity with the syntactic
	// Jaro–Winkler measure during unit discovery (the Table 4 baseline).
	// Relevance scoring still uses the corpus embeddings.
	JaroWinkler
)

// ScorerKind selects the relevance scorer variant (Table 4).
type ScorerKind int

// Scorer variants.
const (
	ScorerNN     ScorerKind = iota // the trained network (default)
	ScorerBinary                   // 1 paired / 0 unpaired
	ScorerCosine                   // raw embedding cosine
)

// FeatureKind selects the matcher feature space (Table 4).
type FeatureKind int

// Feature-space variants.
const (
	FeaturesFull       FeatureKind = iota // per-attribute + record scopes
	FeaturesSimplified                    // the 6-feature ablation
)

// Config assembles a WYM variant. DefaultConfig is the paper's system.
type Config struct {
	Thresholds   units.Thresholds
	Tokenize     tokenize.Options
	Embedding    EmbeddingKind
	Scorer       ScorerKind
	Features     FeatureKind
	CodeExact    bool    // product-code exact-pairing heuristic (§5.1.1)
	ContextGamma float64 // record-context mixing weight
	Targets      relevance.TargetConfig
	ScorerNN     relevance.NNConfig
	// MaxFineTunePairs caps the contrastive pairs collected for the
	// embedding fine-tune (0 = default cap).
	MaxFineTunePairs int
	Seed             int64
}

// DefaultConfig returns the paper-faithful configuration: θ/η/ε from §5,
// SBERT-style embeddings, the NN scorer and the full feature space.
func DefaultConfig() Config {
	return Config{
		Thresholds:   units.PaperThresholds,
		Tokenize:     tokenize.Default,
		Embedding:    SBERT,
		Scorer:       ScorerNN,
		Features:     FeaturesFull,
		ContextGamma: 0.15,
		Targets:      relevance.DefaultTargetConfig(),
		Seed:         1,
	}
}

// System is a fitted WYM matcher: the components of the architecture
// template plus the pipeline.Engine they are assembled into.
type System struct {
	cfg    Config
	schema data.Schema
	source embed.Source
	scorer relevance.Scorer
	space  *features.Space
	model  classify.Classifier
	engine *pipeline.Engine

	report []classify.Score
	timing Timing
	// tracer receives the per-stage spans during training; spans is the
	// frozen result, persisted with the model so `wym train -v` and the
	// checkpoint metadata can replay the stage-timing table later.
	tracer *obs.Tracer
	spans  []obs.Span

	// processHook, when non-nil, runs before every unit generation of the
	// system's engine; the fault-tolerance tests inject per-record panics
	// with it.
	processHook func(data.Pair)

	// format and arena record the on-disk representation an arena-backed
	// system was loaded from; both are zero for trained and gob-loaded
	// systems. See arena_persist.go.
	format string
	arena  *arena.File

	// fbLabels is the accumulated feedback label multiset in canonical
	// order; fbThreshold the decision threshold recalibrated over it
	// (0 = default 0.5). feedbackN counts the labels folded in by
	// ApplyFeedback; feedbackFP carries the feedback fingerprint for
	// arena-backed systems, whose read-only metadata cannot recompute
	// it. See feedback.go.
	fbLabels    []feedback.Label
	fbThreshold float64
	feedbackN   int
	feedbackFP  string
}

// rebuildEngine assembles the pipeline instantiation from the fitted
// components: the WYM generator always, the scorer and matcher only once
// they exist (the trainer rebuilds after fitting; a generator-only system
// keeps a generator-only engine).
func (s *System) rebuildEngine() {
	gen := wymGenerator{s: s}
	var scorer pipeline.RelevanceScorer
	if s.scorer != nil {
		scorer = pipeline.UnitScores{S: s.scorer}
	}
	var matcher pipeline.Matcher
	if s.space != nil && s.model != nil {
		matcher = wymMatcher{space: s.space, model: s.model, threshold: s.DecisionThreshold()}
	}
	s.engine = pipeline.New(gen, scorer, matcher)
}

// Engine returns the system's assembled pipeline engine; every serving
// path (CLI, server, benchmarks) predicts through it.
func (s *System) Engine() *pipeline.Engine { return s.engine }

// Timing is the §5.3 pipeline breakdown recorded during training.
type Timing struct {
	Embeddings  time.Duration // corpus embedding training + fine-tuning
	UnitGen     time.Duration // tokenization + Algorithm 1 over the data
	ScorerTrain time.Duration
	Featurize   time.Duration
	ModelSelect time.Duration
}

// Total returns the summed training time.
func (t Timing) Total() time.Duration {
	return t.Embeddings + t.UnitGen + t.ScorerTrain + t.Featurize + t.ModelSelect
}

// Stage identifies one phase of the training pipeline, in execution order.
// The fault-tolerant trainer checkpoints after each completed stage and
// checks for cancellation before starting the next.
type Stage int

// Pipeline stages.
const (
	StageEmbeddings Stage = iota // corpus embeddings + fine-tune
	StageUnits                   // tokenization + Algorithm 1 over both splits
	StageScorer                  // relevance scorer training
	StageFeatures                // feature engineering (not checkpointed: transient)
	StageModel                   // classifier pool + selection
)

// String implements fmt.Stringer; the names double as checkpoint keys.
func (s Stage) String() string {
	switch s {
	case StageEmbeddings:
		return "embeddings"
	case StageUnits:
		return "units"
	case StageScorer:
		return "scorer"
	case StageFeatures:
		return "features"
	case StageModel:
		return "model"
	default:
		return fmt.Sprintf("stage(%d)", int(s))
	}
}

// RecordError is one record pair quarantined during processing: a worker
// recovered a panic (or a validation failure) on it and excluded it from
// the run instead of crashing the whole pipeline.
type RecordError = pipeline.RecordError

// TrainReport describes what the fault-tolerant trainer did beyond the
// happy path: stages resumed from checkpoints, checkpoints it had to
// reject, and records it quarantined.
type TrainReport struct {
	// Resumed lists the stages loaded from checkpoints instead of trained.
	Resumed []Stage
	// CheckpointWarnings notes checkpoints that existed but were rejected
	// (corrupt payload, config or dataset mismatch, stale version).
	CheckpointWarnings []string
	// QuarantinedTrain and QuarantinedValid list record pairs excluded
	// from the run after a per-record worker panic.
	QuarantinedTrain []RecordError
	QuarantinedValid []RecordError
}

// Quarantined returns the total number of quarantined records.
func (r *TrainReport) Quarantined() int {
	return len(r.QuarantinedTrain) + len(r.QuarantinedValid)
}

// TrainOptions configures fault tolerance around TrainWithOptions.
type TrainOptions struct {
	// CheckpointDir, when non-empty, enables stage checkpointing: after
	// each completed stage a versioned, integrity-checked snapshot is
	// written there (atomically, via rename).
	CheckpointDir string
	// Resume loads the longest valid prefix of stage checkpoints from
	// CheckpointDir before training, skipping the stages they cover. A
	// checkpoint is valid only if its version, config fingerprint and
	// dataset fingerprint all match; anything else is recomputed.
	Resume bool
	// OnStage, when non-nil, is called after each stage completes (or is
	// resumed from a checkpoint) — progress reporting for long runs.
	OnStage func(stage Stage, took time.Duration, resumed bool)

	// Tracer, when non-nil, receives a named span per completed training
	// (sub)stage: embeddings/cooc, embeddings/finetune, units/train,
	// scorer/train, and so on. The trainer records the same spans into the
	// returned System either way (see System.StageSpans); passing a tracer
	// just lets callers render them live, e.g. `wym train -v`.
	Tracer *obs.Tracer

	// processHook is the fault-injection seam for the in-package tests:
	// the trained system's generator runs it before each record.
	processHook func(data.Pair)
}

// Train fits the full pipeline on the training split, selecting the
// classifier by F1 on the validation split.
func Train(train, valid *data.Dataset, cfg Config) (*System, error) {
	return TrainContext(context.Background(), train, valid, cfg)
}

// TrainContext is Train honoring a context: cancellation stops the run at
// the next stage boundary (and inside the record-processing and epoch
// loops of the long stages).
func TrainContext(ctx context.Context, train, valid *data.Dataset, cfg Config) (*System, error) {
	sys, _, err := TrainWithOptions(ctx, train, valid, cfg, TrainOptions{})
	return sys, err
}

// stageErr wraps a stage failure with its pipeline position.
func stageErr(st Stage, err error) error {
	return fmt.Errorf("core: %s stage: %w", st, err)
}

// relevanceRecords projects a batch of pipeline records onto their
// unit-level views, preserving quarantined (nil) slots; the scorer stage
// and the checkpoints consume this form.
func relevanceRecords(recs []*pipeline.Record) []*relevance.Record {
	out := make([]*relevance.Record, len(recs))
	for i, rec := range recs {
		if rec != nil {
			out[i] = rec.Rel()
		}
	}
	return out
}

// TrainWithOptions is the fault-tolerant trainer: TrainContext plus stage
// checkpointing, resume, and dirty-record quarantine. The returned report
// is non-nil whenever the input validation passed, even on error.
func TrainWithOptions(ctx context.Context, train, valid *data.Dataset, cfg Config, opts TrainOptions) (*System, *TrainReport, error) {
	if train == nil || train.Size() == 0 {
		return nil, nil, fmt.Errorf("core: empty training set")
	}
	if valid == nil || valid.Size() == 0 {
		return nil, nil, fmt.Errorf("core: empty validation set")
	}
	if err := train.Validate(); err != nil {
		return nil, nil, err
	}
	if cfg.Thresholds == (units.Thresholds{}) {
		cfg.Thresholds = units.PaperThresholds
	}

	tr := opts.Tracer
	if tr == nil {
		// Always trace: spans end up in the fitted System (and its
		// checkpoint metadata) whether or not the caller watches live.
		tr = obs.NewTracer()
	}
	s := &System{cfg: cfg, schema: train.Schema, tracer: tr, processHook: opts.processHook}
	s.rebuildEngine()
	report := &TrainReport{}
	var ck *checkpointer
	if opts.CheckpointDir != "" {
		var err error
		ck, err = newCheckpointer(opts.CheckpointDir, cfg, train, valid)
		if err != nil {
			return nil, report, err
		}
	}
	done := func(st Stage, start time.Time, resumed bool) {
		if resumed {
			report.Resumed = append(report.Resumed, st)
		}
		if opts.OnStage != nil {
			opts.OnStage(st, time.Since(start), resumed)
		}
	}

	// A fully checkpointed run resumes to the final model in one load.
	if ck != nil && opts.Resume {
		if sys, ok := ck.loadModel(report); ok {
			for st := StageEmbeddings; st <= StageModel; st++ {
				done(st, time.Now(), true)
			}
			sys.cfg = cfg
			sys.rebuildEngine()
			// Replay the original run's stage spans into the caller's
			// tracer so the timing table survives a full-model resume.
			tr.Import(sys.spans)
			return sys, report, nil
		}
	}

	// Stage 1: embedding substrate, trained on the corpus of both splits'
	// entity descriptions (test data never reaches embedding training:
	// Predict embeds unseen tokens via the hash part).
	if err := ctx.Err(); err != nil {
		return nil, report, stageErr(StageEmbeddings, err)
	}
	start := time.Now()
	resumed := false
	if ck != nil && opts.Resume {
		if src, ok := ck.loadEmbeddings(report); ok {
			s.source, resumed = src, true
		}
	}
	if !resumed {
		src, err := s.buildSourceCtx(ctx, train, valid)
		if err != nil {
			return nil, report, stageErr(StageEmbeddings, err)
		}
		s.source = src
		if err := ck.saveEmbeddings(src); err != nil {
			return nil, report, err
		}
	}
	s.timing.Embeddings = time.Since(start)
	done(StageEmbeddings, start, resumed)

	// Stage 2: decision units for every training and validation record,
	// generated through the engine's ProcessAllContext. Worker panics
	// quarantine the offending pair (nil entry + report row) instead of
	// crashing the run.
	if err := ctx.Err(); err != nil {
		return nil, report, stageErr(StageUnits, err)
	}
	start = time.Now()
	var trainRecs, validRecs []*relevance.Record
	resumed = false
	if ck != nil && opts.Resume {
		if tr, vr, ok := ck.loadUnits(report); ok {
			trainRecs, validRecs, resumed = tr, vr, true
		}
	}
	if !resumed {
		doneTrain := tr.Start("units/train")
		trainBatch, qt, err := s.engine.ProcessAllContext(ctx, train)
		if err != nil {
			return nil, report, stageErr(StageUnits, err)
		}
		doneTrain()
		doneValid := tr.Start("units/valid")
		validBatch, qv, err := s.engine.ProcessAllContext(ctx, valid)
		if err != nil {
			return nil, report, stageErr(StageUnits, err)
		}
		doneValid()
		trainRecs, report.QuarantinedTrain = relevanceRecords(trainBatch), qt
		validRecs, report.QuarantinedValid = relevanceRecords(validBatch), qv
		if err := ck.saveUnits(trainRecs, validRecs, report); err != nil {
			return nil, report, err
		}
	}
	s.timing.UnitGen = time.Since(start)
	done(StageUnits, start, resumed)

	// The corpus vocabulary is now fully embedded: freeze it into the
	// cache's lock-free read-only tier so every later lookup — scorer
	// training below and all concurrent Predict/Explain traffic — touches
	// no lock for known tokens. (On a resumed run the cache is cold; the
	// freeze is then a no-op and lookups warm the sharded overflow tier.)
	if c, ok := s.source.(*embed.Cache); ok {
		c.Freeze()
	}

	// Stage 3: relevance scorer.
	if err := ctx.Err(); err != nil {
		return nil, report, stageErr(StageScorer, err)
	}
	start = time.Now()
	resumed = false
	if ck != nil && opts.Resume {
		if sc, ok := ck.loadScorer(report); ok {
			s.scorer, resumed = sc, true
		}
	}
	if !resumed {
		doneScorer := tr.Start("scorer/train")
		switch cfg.Scorer {
		case ScorerBinary:
			s.scorer = relevance.Binary{}
		case ScorerCosine:
			s.scorer = relevance.Cosine{}
		default:
			ts := relevance.NewTrainingSet(cfg.Targets)
			for i, rec := range trainRecs {
				if rec == nil {
					continue // quarantined
				}
				ts.Add(rec, train.Pairs[i].Label)
			}
			nnCfg := cfg.ScorerNN
			if nnCfg.Seed == 0 {
				nnCfg.Seed = cfg.Seed
			}
			scorer, err := relevance.TrainNNCtx(ctx, ts, s.source.Dim(), nnCfg)
			if err != nil {
				return nil, report, stageErr(StageScorer, err)
			}
			s.scorer = scorer
		}
		doneScorer()
		if err := ck.saveScorer(s.scorer); err != nil {
			return nil, report, err
		}
	}
	s.timing.ScorerTrain = time.Since(start)
	done(StageScorer, start, resumed)

	// Stage 4: feature engineering. Quarantined records are dropped here,
	// together with their labels, so the matrices stay aligned.
	if err := ctx.Err(); err != nil {
		return nil, report, stageErr(StageFeatures, err)
	}
	start = time.Now()
	doneFeatures := tr.Start("features")
	if cfg.Features == FeaturesSimplified {
		s.space = features.NewSimplifiedSpace()
	} else {
		s.space = features.NewSpace(len(train.Schema))
	}
	xTrain, yTrain := s.featurizeLabeled(trainRecs, train)
	xValid, yValid := s.featurizeLabeled(validRecs, valid)
	doneFeatures()
	s.timing.Featurize = time.Since(start)
	done(StageFeatures, start, false)

	// Stage 5: classifier pool and model selection.
	if err := ctx.Err(); err != nil {
		return nil, report, stageErr(StageModel, err)
	}
	start = time.Now()
	doneModel := tr.Start("model/select")
	best, scores, err := classify.SelectBest(classify.NewPool(cfg.Seed),
		xTrain, yTrain, xValid, yValid)
	if err != nil {
		return nil, report, fmt.Errorf("core: model selection: %w", err)
	}
	s.model = best
	s.report = scores
	doneModel()
	s.timing.ModelSelect = time.Since(start)
	// Freeze the spans before the model checkpoint so the saved snapshot
	// carries the full stage-timing record.
	s.spans = tr.Spans()
	if err := ck.saveModel(s); err != nil {
		return nil, report, err
	}
	done(StageModel, start, false)
	// All three components are fitted: assemble the serving engine.
	s.rebuildEngine()
	return s, report, nil
}

// buildSource trains the embedding stack for the configured variant.
func (s *System) buildSource(train, valid *data.Dataset) embed.Source {
	src, err := s.buildSourceCtx(context.Background(), train, valid)
	if err != nil {
		// Unreachable: the background context never cancels and the ctx
		// variants have no other failure mode.
		panic(err)
	}
	return src
}

// buildSourceCtx trains the embedding stack, checking for cancellation
// inside corpus training, pair collection and the fine-tune.
func (s *System) buildSourceCtx(ctx context.Context, train, valid *data.Dataset) (embed.Source, error) {
	corpus := corpusOf(s.cfg.Tokenize, train, valid)
	coocCfg := embed.DefaultCoocConfig()
	coocCfg.Seed = s.cfg.Seed
	doneCooc := s.tracer.Start("embeddings/cooc")
	cooc, err := embed.TrainCoocCtx(ctx, corpus, coocCfg)
	if err != nil {
		return nil, err
	}
	doneCooc()
	base := embed.Source(embed.NewConcat(embed.NewHash(), cooc))

	switch s.cfg.Embedding {
	case SBERT, BERTFinetuned:
		donePairs := s.tracer.Start("embeddings/pairs")
		pos, neg, err := s.contrastivePairs(ctx, train, base)
		if err != nil {
			return nil, err
		}
		donePairs()
		if s.cfg.Embedding == BERTFinetuned {
			neg = nil // task fine-tune: consolidation only
		}
		doneFT := s.tracer.Start("embeddings/finetune")
		ft, err := embed.FineTuneCtx(ctx, base, pos, neg, embed.DefaultFineTuneConfig())
		if err != nil {
			return nil, err
		}
		doneFT()
		base = ft
	}
	return embed.NewCache(base), nil
}

// contrastivePairs aligns tokens inside training records with the base
// embeddings and collects paired units of matching records as positives
// and of non-matching records as negatives, capped for efficiency.
func (s *System) contrastivePairs(ctx context.Context, train *data.Dataset, base embed.Source) (pos, neg []embed.PairSample, err error) {
	limit := s.cfg.MaxFineTunePairs
	if limit <= 0 {
		limit = 2000
	}
	tmp := &System{cfg: s.cfg, schema: train.Schema, source: base}
	for i := range train.Pairs {
		if len(pos) >= limit && len(neg) >= limit {
			break
		}
		if i%64 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, nil, err
			}
		}
		rec := tmp.generate(train.Pairs[i])
		for _, u := range rec.Units {
			if u.Kind != units.Paired {
				continue
			}
			sample := embed.PairSample{
				A: rec.Left[u.Left].Text,
				B: rec.Right[u.Right].Text,
			}
			if sample.A == sample.B {
				continue // identical tokens carry no fine-tuning signal
			}
			if train.Pairs[i].Label == data.Match {
				if len(pos) < limit {
					pos = append(pos, sample)
				}
			} else if len(neg) < limit {
				neg = append(neg, sample)
			}
		}
	}
	return pos, neg, nil
}

// textsPool recycles the transient token-text slices of unit generation;
// the embedding source only reads them during the Contextualize call.
var textsPool = sync.Pool{New: func() any { return new([]string) }}

// wymGenerator is the paper's decision-unit generator as a
// pipeline.UnitGenerator: tokenization, contextual embedding, and
// Algorithm 1 unit discovery over one record pair.
type wymGenerator struct {
	s *System
}

// Generate implements pipeline.UnitGenerator, running the system's
// processHook first when one is set.
func (g wymGenerator) Generate(p data.Pair) *pipeline.Record {
	if g.s.processHook != nil {
		g.s.processHook(p)
	}
	return g.s.generate(p)
}

// generate runs tokenization, contextual embedding and Algorithm 1 on one
// record pair.
func (s *System) generate(p data.Pair) *pipeline.Record {
	lt := tokenize.Entity(p.Left, s.cfg.Tokenize)
	rt := tokenize.Entity(p.Right, s.cfg.Tokenize)
	tp := textsPool.Get().(*[]string)
	texts := tokenize.AppendTexts((*tp)[:0], lt)
	lv := embed.Contextualize(s.source, texts, s.cfg.ContextGamma)
	texts = tokenize.AppendTexts(texts[:0], rt)
	rv := embed.Contextualize(s.source, texts, s.cfg.ContextGamma)
	*tp = texts
	textsPool.Put(tp)
	in := units.Input{
		Left: lt, Right: rt,
		LeftVecs: lv, RightVecs: rv,
		NumAttrs:  len(s.schema),
		CodeExact: s.cfg.CodeExact,
		// Contextualized embeddings of a normalized source are unit-or-zero
		// (and context mixing re-normalizes regardless), so unit discovery
		// may use the raw dot product instead of the full cosine.
		NormalizedVecs: s.cfg.ContextGamma != 0 || embed.IsNormalized(s.source),
	}
	if s.cfg.Embedding == JaroWinkler {
		in.SimOverride = func(l, r int) float64 {
			return textsim.JaroWinkler(lt[l].Text, rt[r].Text)
		}
	}
	rec := &pipeline.Record{Pair: p}
	rec.Record = relevance.Record{
		Units: units.Discover(in, s.cfg.Thresholds),
		Left:  lt, Right: rt,
		LeftVecs: lv, RightVecs: rv,
	}
	return rec
}

// Process runs the generator on one record pair; the returned record can
// be cached and fed to PredictRecord and ExplainRecord so the pair is
// tokenized and embedded once.
func (s *System) Process(p data.Pair) *pipeline.Record { return s.engine.Process(p) }

// ProcessAll runs Process over a dataset concurrently, preserving order.
func (s *System) ProcessAll(d *data.Dataset) []*pipeline.Record {
	return s.engine.ProcessAll(d)
}

// ProcessAllContext is ProcessAll with cancellation and per-record fault
// isolation: a worker that panics on a record quarantines that pair (nil
// entry in the result, a RecordError in the second return) and moves on.
// Cancellation stops the workers at the next record; the partial results
// are discarded and the context error returned.
func (s *System) ProcessAllContext(ctx context.Context, d *data.Dataset) ([]*pipeline.Record, []RecordError, error) {
	return s.engine.ProcessAllContext(ctx, d)
}

// wymMatcher is the paper's explainable matcher as a pipeline.Matcher:
// the statistical feature space, the selected interpretable classifier,
// and the inverse transformation from model coefficients to per-unit
// impact scores.
type wymMatcher struct {
	space *features.Space
	model classify.Classifier
	// threshold is the match-decision cutoff on the classifier proba:
	// 0.5 for freshly trained systems, possibly recalibrated by
	// ApplyFeedback over human-adjudicated labels (see feedback.go).
	threshold float64
}

// MatchRecord implements pipeline.Matcher.
func (m wymMatcher) MatchRecord(rec *pipeline.Record, scores []float64) (int, float64) {
	x := m.space.Vector(rec.Units, scores)
	proba := m.model.PredictProba(x)
	if proba >= m.threshold {
		return data.Match, proba
	}
	return data.NonMatch, proba
}

// ExplainRecord implements pipeline.Matcher.
func (m wymMatcher) ExplainRecord(rec *pipeline.Record, scores []float64) Explanation {
	x := m.space.Vector(rec.Units, scores)
	proba := m.model.PredictProba(x)
	impacts := m.space.Impacts(rec.Units, scores, m.model.Coefficients())

	ex := Explanation{Proba: proba, Prediction: data.NonMatch}
	if proba >= m.threshold {
		ex.Prediction = data.Match
	}
	for i, u := range rec.Units {
		l, r := units.Texts(u, rec.Left, rec.Right)
		ex.Units = append(ex.Units, UnitExplanation{
			Left: l, Right: r,
			Kind: u.Kind, Attr: u.Attr,
			Relevance: scores[i],
			Impact:    impacts[i],
		})
	}
	return ex
}

// featurizeLabeled featurizes the non-quarantined records of a split,
// returning the feature matrix and the aligned label vector. Featurize
// calls it on ProcessAll's records, of which none is quarantined.
func (s *System) featurizeLabeled(recs []*relevance.Record, d *data.Dataset) (x [][]float64, y []int) {
	x = make([][]float64, 0, len(recs))
	y = make([]int, 0, len(recs))
	for i, rec := range recs {
		if rec == nil {
			continue // quarantined
		}
		x = append(x, s.space.Vector(rec.Units, s.scorer.Score(rec)))
		y = append(y, d.Pairs[i].Label)
	}
	return x, y
}

// Predict classifies one record pair, returning the hard label and the
// match probability.
func (s *System) Predict(p data.Pair) (label int, proba float64) {
	return s.engine.Predict(p)
}

// PredictAll returns hard labels for a whole dataset.
func (s *System) PredictAll(d *data.Dataset) []int {
	return s.engine.PredictAll(d)
}

// UnitExplanation is one row of an explanation: a decision unit with its
// rendered tokens, relevance and impact scores.
type UnitExplanation = pipeline.UnitExplanation

// Explanation is the full interpretable output for one record pair.
type Explanation = pipeline.Explanation

// Explain predicts one record pair and attributes the decision to its
// units via the inverse feature transformation. Positive impacts push
// toward match, negative toward non-match.
func (s *System) Explain(p data.Pair) Explanation {
	return s.engine.Explain(p)
}

// ExplainRecord explains an already-processed record (the evaluation
// harness and record-caching callers reuse processed records).
func (s *System) ExplainRecord(rec *pipeline.Record) Explanation {
	return s.engine.ExplainRecord(rec)
}

// PredictRecord classifies an already-processed record.
func (s *System) PredictRecord(rec *pipeline.Record) (int, float64) {
	return s.engine.PredictRecord(rec)
}

// ModelName returns the selected classifier's name.
func (s *System) ModelName() string { return s.model.Name() }

// Report returns the validation scores of every pool member, best first.
func (s *System) Report() []classify.Score { return s.report }

// TrainingTiming returns the recorded pipeline breakdown.
func (s *System) TrainingTiming() Timing { return s.timing }

// StageSpans returns the per-(sub)stage wall-clock spans recorded during
// training, in completion order. The spans persist with the model
// (Save/Load and the model checkpoint), so a loaded system still reports
// how it was trained; render them with obs.Tracer.Table via Import.
func (s *System) StageSpans() []obs.Span { return append([]obs.Span(nil), s.spans...) }

// Schema returns the schema the system was trained on.
func (s *System) Schema() data.Schema { return s.schema }

// FeatureSpace exposes the fitted feature space (experiments inspect it).
func (s *System) FeatureSpace() *features.Space { return s.space }

// Scorer exposes the fitted relevance scorer.
func (s *System) Scorer() relevance.Scorer { return s.scorer }

// corpusOf collects the token sequences of every entity description for
// embedding training.
func corpusOf(opts tokenize.Options, sets ...*data.Dataset) [][]string {
	var corpus [][]string
	for _, d := range sets {
		if d == nil {
			continue
		}
		for _, p := range d.Pairs {
			corpus = append(corpus,
				tokenize.Texts(tokenize.Entity(p.Left, opts)),
				tokenize.Texts(tokenize.Entity(p.Right, opts)))
		}
	}
	return corpus
}

// NewUnitGenerator builds a System that can Process records (tokenize,
// embed, discover units) without training a scorer or matcher: its engine
// is the generator-only pipeline instantiation. The Figure 4
// unit-distribution experiment uses it. Predict/Explain must not be
// called on the result.
func NewUnitGenerator(d *data.Dataset, cfg Config) *System {
	if cfg.Thresholds == (units.Thresholds{}) {
		cfg.Thresholds = units.PaperThresholds
	}
	s := &System{cfg: cfg, schema: d.Schema}
	s.source = s.buildSource(d, nil)
	s.rebuildEngine()
	return s
}

// Featurize processes a dataset and returns the engineered feature matrix
// the matcher consumes; Table 5 fits the whole classifier pool on it.
func (s *System) Featurize(d *data.Dataset) [][]float64 {
	x, _ := s.featurizeLabeled(relevanceRecords(s.ProcessAll(d)), d)
	return x
}

// AttributeImpact aggregates an explanation's impacts per schema
// attribute: the CERTA-style attribute-level view the related work
// discusses. It is pipeline.AttributeImpact, re-exported for callers of
// the core package.
func AttributeImpact(schema data.Schema, ex Explanation) []float64 {
	return pipeline.AttributeImpact(schema, ex)
}
