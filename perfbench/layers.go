package main

import (
	"context"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"wym"
	"wym/internal/audit"
	"wym/internal/data"
	"wym/internal/tokenize"
	"wym/internal/units"
)

// replayLayers is the traced run's in-process replay: it calls each
// layer's public entry point on the workload's own pairs with a span
// around every call, and derives the per-layer metrics from the spans.
// sys is the model the workload serves (the arena on serve-read, the gob
// stack elsewhere); gob is the trained artifact.
func (r *run) replayLayers(sys *wym.System, gob string, pairs []data.Pair) error {
	if len(pairs) > r.sz.replay {
		pairs = pairs[:r.sz.replay]
	}
	if err := r.artifactLayers(gob); err != nil {
		return err
	}
	eng := sys.Engine()
	// One untimed pass first, so every timed pass below sees warm caches.
	for _, p := range pairs {
		eng.Predict(p)
	}
	var tokens, nUnits, mismatched int
	for i, p := range pairs {
		req := "replay-" + strconv.Itoa(i)
		root := r.tr.begin("replay", req, -1)

		sp := r.tr.begin("tokenize", req, root)
		lt := tokenize.Entity(p.Left, tokenize.Default)
		rt := tokenize.Entity(p.Right, tokenize.Default)
		r.tr.end(sp)
		tokens += len(lt) + len(rt)

		sp = r.tr.begin("pipeline.generate", req, root)
		rec := eng.Process(p)
		r.tr.end(sp)
		nUnits += len(rec.Units)

		// Algorithm 1 again, on the record's own tokens and vectors, with
		// the configuration `wym train` uses.
		sp = r.tr.begin("units.discover", req, root)
		us := units.Discover(units.Input{
			Left: rec.Left, Right: rec.Right, LeftVecs: rec.LeftVecs, RightVecs: rec.RightVecs,
			NumAttrs: len(sys.Schema()), NormalizedVecs: true,
		}, units.PaperThresholds)
		r.tr.end(sp)
		if len(us) != len(rec.Units) {
			mismatched++
		}

		sp = r.tr.begin("relevance.score", req, root)
		scores := sys.Scorer().Score(rec.Rel())
		r.tr.end(sp)

		sp = r.tr.begin("classify.match", req, root)
		eng.Matcher().MatchRecord(rec, scores)
		r.tr.end(sp)

		sp = r.tr.begin("explain", req, root)
		eng.Matcher().ExplainRecord(rec, scores)
		r.tr.end(sp)

		// The whole public path last, next to its stages in time, so
		// machine noise hits both alike.
		sp = r.tr.begin("pipeline.predict", req, root)
		eng.Predict(p)
		r.tr.end(sp)
		r.tr.end(root)
	}
	r.check("replayed Discover matches the engine's units", mismatched == 0,
		"%d of %d pairs differ", mismatched, len(pairs))

	n := float64(len(pairs))
	tok, gen, disc := r.tr.durations("tokenize"), r.tr.durations("pipeline.generate"), r.tr.durations("units.discover")
	embedUs := make([]float64, len(tok))
	for i := range tok {
		embedUs[i] = float64(gen[i]-tok[i]-disc[i]) / 1e3
	}
	r.put("tokenize.us_per_pair", "us", r.tr.medianUs("tokenize"))
	r.put("tokenize.tokens_per_pair", "count", float64(tokens)/n)
	r.put("pipeline.generate_us_per_pair", "us", r.tr.medianUs("pipeline.generate"))
	r.put("embed.us_per_pair", "us", median(embedUs))
	r.put("units.discover_us_per_pair", "us", r.tr.medianUs("units.discover"))
	r.put("units.units_per_pair", "count", float64(nUnits)/n)
	r.put("relevance.score_us_per_pair", "us", r.tr.medianUs("relevance.score"))
	r.put("relevance.us_per_unit", "us", float64(r.tr.total("relevance.score"))/1e3/float64(max(nUnits, 1)))
	r.put("classify.match_us_per_pair", "us", r.tr.medianUs("classify.match"))
	r.put("explain.us_per_pair", "us", r.tr.medianUs("explain"))

	r.tracingOverhead(eng, pairs)
	predictUs := r.tr.medianUs("pipeline.predict")
	stages := r.vals["tokenize.us_per_pair"] + r.vals["embed.us_per_pair"] + r.vals["units.discover_us_per_pair"] +
		r.vals["relevance.score_us_per_pair"] + r.vals["classify.match_us_per_pair"]
	r.put("pipeline.predict_us_per_pair", "us", predictUs)
	r.put("trace.unattributed_frac", "ratio", (predictUs-stages)/predictUs)

	// Batch fan-out over the same pairs, in request-sized batches.
	for from := 0; from < len(pairs); from += r.sz.batch {
		to := min(from+r.sz.batch, len(pairs))
		sp := r.tr.begin("pipeline.predict_batch", "batch-"+strconv.Itoa(from), -1)
		eng.PredictBatch(context.Background(), pairs[from:to])
		r.tr.end(sp)
	}
	batch := r.tr.total("pipeline.predict_batch")
	r.put("pipeline.batch_us_per_pair", "us", float64(batch)/1e3/n)
	r.put("pipeline.batch_speedup", "ratio", float64(r.tr.total("pipeline.predict"))/float64(batch))
	return r.auditAppend(sys, pairs)
}

// artifactLayers reports the set-up layers of the model `wym train`
// wrote: the training stages from the spans the artifact carries, and
// core save/load and arena convert/load timed on probe copies of it.
func (r *run) artifactLayers(gob string) error {
	sp := r.tr.begin("core.load", "setup", -1)
	sys, err := wym.LoadSystem(gob)
	r.tr.end(sp)
	if err != nil {
		return err
	}
	stages := map[string]string{
		"embeddings/": "core.train_embeddings_s", "units/": "core.train_units_s",
		"scorer/": "core.train_scorer_s", "features": "core.train_features_s", "model/": "core.train_model_select_s",
	}
	for _, name := range stages {
		r.put(name, "s", 0)
	}
	for _, s := range sys.StageSpans() {
		r.tr.add("core.train/"+s.Name, "setup", -1, s.Start, s.Dur)
		for prefix, name := range stages {
			if strings.HasPrefix(s.Name, prefix) {
				r.vals[name] += s.Dur.Seconds()
			}
		}
	}

	sp = r.tr.begin("core.save", "setup", -1)
	err = sys.SaveFile(r.path("probe.gob"))
	r.tr.end(sp)
	if err != nil {
		return err
	}
	sp = r.tr.begin("arena.convert", "setup", -1)
	err = sys.SaveArenaFile(r.path("probe.wyma"), wym.ArenaOptions{})
	r.tr.end(sp)
	if err != nil {
		return err
	}
	sp = r.tr.begin("arena.load", "setup", -1)
	_, err = wym.LoadSystem(r.path("probe.wyma"))
	r.tr.end(sp)
	if err != nil {
		return err
	}
	for _, name := range []string{"core.load", "core.save", "arena.convert", "arena.load"} {
		r.put(name+"_s", "s", r.tr.total(name).Seconds())
	}
	return nil
}

// tracingOverhead times eng.Predict over pairs in alternating slices
// with and without a span per call, and reports the traced slowdown. It
// stands in for traced against untraced pairs_per_s, which is the arrival
// rate on serve-learn, carries one span per whole job on match-table, and on
// serve-read swings across runs by far more than one span costs.
func (r *run) tracingOverhead(eng *wym.Engine, pairs []data.Pair) {
	const slice = 10
	var plain, traced time.Duration
	for round := 0; round < 2; round++ {
		for from := 0; from < len(pairs); from += slice {
			chunk := pairs[from:min(from+slice, len(pairs))]
			start := time.Now()
			for _, p := range chunk {
				eng.Predict(p)
			}
			plain += time.Since(start)
			start = time.Now()
			for i, p := range chunk {
				sp := r.tr.begin("trace.predict", "overhead-"+strconv.Itoa(from+i), -1)
				eng.Predict(p)
				r.tr.end(sp)
			}
			traced += time.Since(start)
		}
	}
	r.put("trace.overhead_frac", "ratio", float64(traced)/float64(plain)-1)
}

// auditAppend times audit.Log.Append with the server's default flush
// interval on the replayed pairs' explanations.
func (r *run) auditAppend(sys *wym.System, pairs []data.Pair) error {
	dir := r.path("audit-probe")
	l, err := audit.Open(dir, audit.Options{FlushEvery: 200 * time.Millisecond})
	if err != nil {
		return err
	}
	for i, p := range pairs {
		ex := sys.Explain(p)
		rec := audit.Record{
			RequestID: "probe-" + strconv.Itoa(i), TimeNanos: time.Now().UnixNano(), Route: "/predict",
			Model: "default", Left: p.Left, Right: p.Right,
			Prediction: ex.Prediction, Proba: ex.Proba, Threshold: sys.DecisionThreshold(),
			Units: audit.CompactUnits(ex),
		}
		sp := r.tr.begin("audit.append", rec.RequestID, -1)
		err := l.Append(rec)
		r.tr.end(sp)
		if err != nil {
			l.Close()
			return fmt.Errorf("audit append: %w", err)
		}
	}
	if err := l.Close(); err != nil {
		return err
	}
	size, err := dirBytes(dir)
	if err != nil {
		return err
	}
	r.put("audit.append_us", "us", r.tr.medianUs("audit.append"))
	r.put("audit.bytes_per_record", "bytes", float64(size)/float64(len(pairs)))
	return nil
}

// dirBytes sums the sizes of the regular files directly in dir.
func dirBytes(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, e := range entries {
		if info, err := e.Info(); err == nil && info.Mode().IsRegular() {
			total += info.Size()
		}
	}
	return total, nil
}
