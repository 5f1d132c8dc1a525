package pipeline

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wym/internal/data"
	"wym/internal/relevance"
)

// twoWorkers forces GOMAXPROCS to at least 2 for the rest of the test, so
// the executor's goroutine path runs on a single-core host too.
func twoWorkers(t *testing.T) {
	t.Helper()
	if runtime.GOMAXPROCS(0) >= 2 {
		return
	}
	prev := runtime.GOMAXPROCS(2)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

func TestRunCallsEachIndexOnce(t *testing.T) {
	twoWorkers(t)
	for _, n := range []int{0, 1, 2, 3, 257} {
		calls := make([]atomic.Int32, n)
		out := make([]int, n)
		errs := run(context.Background(), n, func(i int) {
			calls[i].Add(1)
			out[i] = i * i
		})
		if len(errs) != n {
			t.Fatalf("n=%d: len(errs) = %d", n, len(errs))
		}
		for i := 0; i < n; i++ {
			if c := calls[i].Load(); c != 1 {
				t.Fatalf("n=%d: fn(%d) called %d times, want 1", n, i, c)
			}
			if errs[i] != nil || out[i] != i*i {
				t.Fatalf("n=%d: item %d = (%d, %v), want (%d, nil)", n, i, out[i], errs[i], i*i)
			}
		}
		d := dataset(n)
		eng := testEngine()
		recs := eng.ProcessAll(d)
		labels := eng.PredictAll(d)
		preds := eng.PredictBatch(context.Background(), d.Pairs)
		for i := 0; i < n; i++ {
			want, proba := eng.Predict(d.Pairs[i])
			if recs[i].Pair.ID != i || labels[i] != want ||
				preds[i] != (Prediction{Label: want, Proba: proba}) {
				t.Fatalf("n=%d: item %d out of order: record %d, label %d, prediction %+v",
					n, i, recs[i].Pair.ID, labels[i], preds[i])
			}
		}
	}
}

// settleGoroutines polls until the goroutine count is back to want: run's
// workers have called wg.Done when it returns, but may still be exiting.
func settleGoroutines(t *testing.T, want int, after string) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("after %s: %d goroutines, want %d", after, runtime.NumGoroutine(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestRunLeavesNoGoroutine(t *testing.T) {
	twoWorkers(t)
	before := runtime.NumGoroutine()

	run(context.Background(), 64, func(int) {})
	settleGoroutines(t, before, "a normal run")

	errs := run(context.Background(), 64, func(i int) {
		if i%5 == 0 {
			panic("boom")
		}
	})
	for i, err := range errs {
		if (err != nil) != (i%5 == 0) {
			t.Fatalf("item %d: err = %v", i, err)
		}
	}
	settleGoroutines(t, before, "a panicking run")

	ctx, cancel := context.WithCancel(context.Background())
	errs = run(ctx, 64, func(i int) {
		switch {
		case i == 3:
			cancel()
		case i > 3:
			<-ctx.Done() // nothing past item 3 finishes before the cancel
		}
	})
	if errs[63] != context.Canceled {
		t.Fatalf("last item of a canceled run: err = %v, want context.Canceled", errs[63])
	}
	settleGoroutines(t, before, "a canceled run")
}

// cancelingGen cancels the batch's context on pair `at` and holds every
// later pair until it has, so the run is canceled mid-flight and no item
// past `at` finishes before the cancellation.
type cancelingGen struct {
	at       int
	cancel   context.CancelFunc
	canceled chan struct{}
	once     *sync.Once
	started  []atomic.Bool
}

func (g cancelingGen) Generate(p data.Pair) *Record {
	g.started[p.ID].Store(true)
	switch {
	case p.ID == g.at:
		g.once.Do(func() {
			g.cancel()
			close(g.canceled)
		})
	case p.ID > g.at:
		<-g.canceled
	}
	return &Record{Pair: p}
}

func TestPredictBatchCancelMidRun(t *testing.T) {
	twoWorkers(t)
	const n, at = 100, 10
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	gen := cancelingGen{at: at, cancel: cancel, canceled: make(chan struct{}),
		once: new(sync.Once), started: make([]atomic.Bool, n)}
	eng := New(gen, fakeScorer{}, fakeMatcher{})
	preds := eng.PredictBatch(ctx, dataset(n).Pairs)

	unstarted := 0
	for i, pred := range preds {
		if !gen.started[i].Load() {
			unstarted++
			if pred.Err != context.Canceled.Error() {
				t.Fatalf("preds[%d] = %+v, never started, want the context error", i, pred)
			}
			continue
		}
		if pred.Err != "" || pred.Label != 1-i%2 {
			t.Fatalf("preds[%d] = %+v, started before the cancellation, want it completed", i, pred)
		}
	}
	// Past item `at`, each worker but the one that canceled holds at most
	// one started item.
	if want := n - at - runtime.GOMAXPROCS(0); unstarted < want {
		t.Fatalf("%d items skipped after the cancellation, want at least %d", unstarted, want)
	}
}

func TestProcessAllReraisesWorkerPanic(t *testing.T) {
	twoWorkers(t)
	eng := New(fakeGen{panicOn: map[int]bool{13: true, 77: true}}, nil, nil)
	msg := recoverText(func() { eng.ProcessAll(dataset(100)) })
	if !strings.Contains(msg, "item 13") || !strings.Contains(msg, "bad record 13") {
		t.Fatalf("recovered %q, want the lowest failing item (13) and its panic text", msg)
	}
}

func TestPredictAllReraisesWorkerPanic(t *testing.T) {
	twoWorkers(t)
	eng := New(fakeGen{}, fakeScorer{}, fakeMatcher{panicOn: map[int]bool{21: true, 40: true}})
	msg := recoverText(func() { eng.PredictAll(dataset(64)) })
	if !strings.Contains(msg, "item 21") || !strings.Contains(msg, "bad match 21") {
		t.Fatalf("recovered %q, want the lowest failing item (21) and its panic text", msg)
	}
}

// recoverText runs fn and returns the text of the panic it raised, or ""
// when it returned normally.
func recoverText(fn func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	fn()
	return ""
}

// unitGen builds records a unit-level scorer can read: the pair ID rides
// in the record's one left embedding.
type unitGen struct{ fakeGen }

func (g unitGen) Generate(p data.Pair) *Record {
	rec := g.fakeGen.Generate(p)
	rec.LeftVecs = [][]float64{{float64(p.ID)}}
	return rec
}

// batchScorer is a relevance.BatchScorer over unitGen's records: one
// score, the pair ID / 100, panicking on the IDs in panicOn. It counts its
// ScoreBatch calls and the records they carried.
type batchScorer struct {
	panicOn map[int]bool
	calls   *atomic.Int64
	batched *atomic.Int64
}

func (s batchScorer) Score(rec *relevance.Record) []float64 {
	id := int(rec.LeftVecs[0][0])
	if s.panicOn[id] {
		panic(fmt.Sprintf("bad score %d", id))
	}
	return []float64{float64(id) / 100}
}

func (s batchScorer) ScoreBatch(recs []*relevance.Record) [][]float64 {
	s.calls.Add(1)
	s.batched.Add(int64(len(recs)))
	out := make([][]float64, len(recs))
	for i, rec := range recs {
		out[i] = s.Score(rec)
	}
	return out
}

func newBatchScorer(panicOn map[int]bool) batchScorer {
	return batchScorer{panicOn: panicOn, calls: new(atomic.Int64), batched: new(atomic.Int64)}
}

// TestPredictBatchChunkFaults puts a generator, a scorer and a matcher
// panic into one chunk of a batch scored through ScoreBatch: only those
// three items fail, each with its own panic, every other item equals
// Predict bit for bit, the metrics count each pair once, and no goroutine
// outlives the call.
func TestPredictBatchChunkFaults(t *testing.T) {
	twoWorkers(t)
	const n = 41
	genBad, scoreBad, matchBad := chunkPairs, chunkPairs+1, chunkPairs+2 // all in the second chunk
	scorer := newBatchScorer(map[int]bool{scoreBad: true})
	eng := New(unitGen{fakeGen{panicOn: map[int]bool{genBad: true}}}, UnitScores{S: scorer},
		fakeMatcher{panicOn: map[int]bool{matchBad: true}})
	ref := New(unitGen{}, UnitScores{S: newBatchScorer(nil)}, fakeMatcher{})
	m := testMetrics()
	eng.SetMetrics(m)
	pairs := dataset(n).Pairs

	before := runtime.NumGoroutine()
	preds := eng.PredictBatch(context.Background(), pairs)
	settleGoroutines(t, before, "a batch with faults")

	for i, pred := range preds {
		switch i {
		case genBad, scoreBad, matchBad:
			want := map[int]string{genBad: "bad record", scoreBad: "bad score", matchBad: "bad match"}[i]
			if !strings.Contains(pred.Err, fmt.Sprintf("panic: %s %d", want, i)) {
				t.Fatalf("preds[%d].Err = %q, want its own panic (%s %d)", i, pred.Err, want, i)
			}
		default:
			label, proba := ref.Predict(pairs[i])
			if pred != (Prediction{Label: label, Proba: proba}) {
				t.Fatalf("preds[%d] = %+v, Predict gives (%d, %v)", i, pred, label, proba)
			}
		}
	}
	if scorer.calls.Load() == 0 {
		t.Fatal("the batch never reached ScoreBatch")
	}
	if got, want := scorer.batched.Load(), int64(n-1); got != want {
		t.Fatalf("ScoreBatch carried %d records, want %d: every generated record once", got, want)
	}
	if got := m.Processed.Value(); got != n {
		t.Fatalf("processed = %d, want %d", got, n)
	}
	if got := m.Quarantined.Value(); got != 3 {
		t.Fatalf("quarantined = %d, want 3", got)
	}
	if got := m.PredictSeconds.Count(); got != n-3 {
		t.Fatalf("predict histogram count = %d, want %d", got, n-3)
	}
	if got := m.InFlight.Value(); got != 0 {
		t.Fatalf("in-flight gauge = %d, want 0 after the batch", got)
	}
}

// TestPredictBatchChunkCancel cancels a batch scored through ScoreBatch
// from inside its generator: every item started before the cancellation
// completes, the rest carry ctx's error, no cancellation counts as a
// quarantine, and no goroutine outlives the call.
func TestPredictBatchChunkCancel(t *testing.T) {
	twoWorkers(t)
	const n, at = 60, 2*chunkPairs + 1 // the cancel lands mid-chunk
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	gen := cancelingGen{at: at, cancel: cancel, canceled: make(chan struct{}),
		once: new(sync.Once), started: make([]atomic.Bool, n)}
	eng := New(cancelingUnits{gen}, UnitScores{S: newBatchScorer(nil)}, fakeMatcher{})
	m := testMetrics()
	eng.SetMetrics(m)

	before := runtime.NumGoroutine()
	preds := eng.PredictBatch(ctx, dataset(n).Pairs)
	settleGoroutines(t, before, "a canceled batch")

	started := 0
	for i, pred := range preds {
		if !gen.started[i].Load() {
			if pred.Err != context.Canceled.Error() {
				t.Fatalf("preds[%d] = %+v, never started, want the context error", i, pred)
			}
			continue
		}
		started++
		if pred.Err != "" || pred.Label != 1-i%2 || pred.Proba != float64(i)/100 {
			t.Fatalf("preds[%d] = %+v, started before the cancellation, want it completed", i, pred)
		}
	}
	if !gen.started[at].Load() || started == n {
		t.Fatalf("%d of %d items started, want the cancellation mid-batch at item %d", started, n, at)
	}
	if got := m.Quarantined.Value(); got != 0 {
		t.Fatalf("quarantined = %d, want 0: a cancellation is not a fault", got)
	}
	if got := m.Processed.Value(); got != uint64(started) {
		t.Fatalf("processed = %d, want the %d started items", got, started)
	}
	if got := m.PredictSeconds.Count(); got != uint64(started) {
		t.Fatalf("predict histogram count = %d, want %d", got, started)
	}
	if got := m.InFlight.Value(); got != 0 {
		t.Fatalf("in-flight gauge = %d, want 0 after the batch", got)
	}
}

// cancelingUnits is cancelingGen with unitGen's embedding, so a
// unit-level scorer can read its records.
type cancelingUnits struct{ g cancelingGen }

func (c cancelingUnits) Generate(p data.Pair) *Record {
	rec := c.g.Generate(p)
	rec.LeftVecs = [][]float64{{float64(p.ID)}}
	return rec
}
