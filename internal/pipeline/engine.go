package pipeline

import (
	"context"
	"time"

	"wym/internal/data"
)

// Engine composes one instantiation of the architecture template —
// generator, scorer, matcher — and runs the process→score→match flow over
// single pairs and batches. Every batch method runs on one executor
// (run), which fans items out over min(GOMAXPROCS, n) workers and keeps
// input order in every result. PredictBatch and PredictAll run on a
// fresh Session, which hands it chunks of pairs, so a chunk's records
// are scored in one ScoreBatch call (predictChunk); their results equal
// Predict's bit for bit. There is one fault rule: a panicking item is
// recovered on its worker.
// ProcessAllContext and PredictBatch quarantine it; ProcessAll and
// PredictAll, whose results have no slot for an item's error, re-raise
// it on the calling goroutine.
//
// The scorer and matcher may be nil for generator-only engines (the
// Figure 4 unit-distribution experiment); calling Predict or Explain on
// such an engine panics with a descriptive message.
type Engine struct {
	gen     UnitGenerator
	scorer  RelevanceScorer
	matcher Matcher
	// metrics, when non-nil, receives per-record counters, latency
	// histograms and the in-flight gauge (see metrics.go). Attached via
	// SetMetrics before the engine is published to concurrent callers.
	metrics *Metrics
}

// New assembles an engine from one instantiation of each component.
// gen must be non-nil; scorer and matcher may be nil for engines that
// only generate units.
func New(gen UnitGenerator, scorer RelevanceScorer, matcher Matcher) *Engine {
	if gen == nil {
		panic("pipeline: New requires a UnitGenerator")
	}
	return &Engine{gen: gen, scorer: scorer, matcher: matcher}
}

// Scorer returns the engine's relevance scorer (nil for generator-only
// engines).
func (e *Engine) Scorer() RelevanceScorer { return e.scorer }

// Matcher returns the engine's matcher (nil for generator-only engines).
func (e *Engine) Matcher() Matcher { return e.matcher }

// Process runs the generator on one record pair.
func (e *Engine) Process(p data.Pair) *Record { return e.generate(p) }

// scores runs the scorer, tolerating scorer-less instantiations.
func (e *Engine) scores(rec *Record) []float64 {
	if e.scorer == nil {
		return nil
	}
	return e.scorer.Score(rec)
}

func (e *Engine) mustMatcher() Matcher {
	if e.matcher == nil {
		panic("pipeline: engine has no matcher (generator-only instantiation)")
	}
	return e.matcher
}

// Predict processes one record pair and classifies it, returning the
// hard label and the match probability.
func (e *Engine) Predict(p data.Pair) (label int, proba float64) {
	if m := e.metrics; m != nil {
		start := time.Now()
		label, proba = e.PredictRecord(e.Process(p))
		m.PredictSeconds.Observe(time.Since(start).Seconds())
		return label, proba
	}
	return e.PredictRecord(e.Process(p))
}

// PredictRecord classifies an already-processed record, so callers that
// also need an explanation can Process once and reuse the record.
func (e *Engine) PredictRecord(rec *Record) (label int, proba float64) {
	return e.mustMatcher().MatchRecord(rec, e.scores(rec))
}

// Explain processes one record pair and attributes the decision to its
// units via the matcher's explanation path.
func (e *Engine) Explain(p data.Pair) Explanation {
	return e.ExplainRecord(e.Process(p))
}

// ExplainRecord explains an already-processed record.
func (e *Engine) ExplainRecord(rec *Record) Explanation {
	return e.mustMatcher().ExplainRecord(rec, e.scores(rec))
}

// ProcessAll runs the generator over a dataset concurrently, preserving
// order. A generator panic is re-raised on the calling goroutine once
// every worker has stopped (see raise).
func (e *Engine) ProcessAll(d *data.Dataset) []*Record {
	out := make([]*Record, d.Size())
	raise(run(context.Background(), len(out), func(i int) { out[i] = e.generate(d.Pairs[i]) }))
	return out
}

// ProcessAllContext is ProcessAll with cancellation and per-record fault
// isolation: a record whose generator panics is quarantined (nil entry in
// the result, a RecordError in the second return, both in index order)
// and the rest run on. Cancellation stops the workers at the next record;
// the partial results are discarded and the context error returned.
func (e *Engine) ProcessAllContext(ctx context.Context, d *data.Dataset) ([]*Record, []RecordError, error) {
	out := make([]*Record, d.Size())
	errs := run(ctx, len(out), func(i int) { out[i] = e.generate(d.Pairs[i]) })
	canceled := ctx.Err()
	var quarantined []RecordError
	for i, err := range errs {
		if err != nil && err != canceled {
			e.metrics.quarantineInc()
			quarantined = append(quarantined, RecordError{Index: i, ID: d.Pairs[i].ID, Err: err.Error()})
		}
	}
	if canceled != nil {
		return nil, nil, canceled
	}
	return out, quarantined, nil
}

// PredictAll returns hard labels for a whole dataset, predicted in
// chunks on the executor's workers by a fresh session (predictChunks). A
// panic is re-raised on the calling goroutine once every worker has
// stopped, naming the lowest failing index (see raise).
func (e *Engine) PredictAll(d *data.Dataset) []int {
	preds, errs := e.Session().predictChunks(context.Background(), d.Pairs)
	raise(errs)
	out := make([]int, len(preds))
	for i, p := range preds {
		out[i] = p.Label
	}
	return out
}

// Prediction is one item's outcome in a fault-isolated batch predict.
type Prediction struct {
	Label int
	Proba float64
	// Err is non-empty when the item was quarantined: its generator,
	// scorer or matcher panicked, or the batch was canceled before it
	// ran.
	Err string
}

// PredictBatch is Session.PredictBatch on a fresh session: per-item
// fault isolation, input order, results equal to Predict's bit for bit,
// and a unit score reused only within this call.
func (e *Engine) PredictBatch(ctx context.Context, pairs []data.Pair) []Prediction {
	return e.Session().PredictBatch(ctx, pairs)
}

// now and since read the clock only when metrics are attached.
func now(m *Metrics) time.Time {
	if m == nil {
		return time.Time{}
	}
	return time.Now()
}

func since(m *Metrics, start time.Time) time.Duration {
	if m == nil {
		return 0
	}
	return time.Since(start)
}
