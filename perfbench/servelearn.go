package main

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"strconv"
	"time"

	"wym"
	"wym/internal/audit"
	"wym/internal/data"
	"wym/internal/feedback"
)

// serveLearn runs the serving layers for writes beside reads: an open
// loop at a fixed arrival rate against wym-server on the gob artifact
// (90% /predict, 10% /explain on drifted pairs), every decision audited,
// and a fixed schedule of POST /admin/feedback batches from a disjoint
// drifted labeled pool.
func serveLearn(r *run) error {
	seed := r.cfg.seed
	trainCSV, err := writeTrainCSV(r.dir, seed, r.sz.trainPairs)
	if err != nil {
		return err
	}
	pool := drifted(labeledPairs(seed, streamPool, r.sz.pool), seed).Pairs
	nLabels := r.sz.fbBatches * r.sz.fbLabels
	labeled := drifted(labeledPairs(seed, streamFeedback, nLabels), seed).Pairs[:nLabels]
	heldOut := drifted(labeledPairs(seed, streamHeldOut, r.sz.heldOut), seed).Pairs

	var (
		srv           *server
		gob, auditDir string
	)
	err = r.repeatSetup(func(dir string) (func() error, error) {
		g, err := r.trainModel(dir, trainCSV)
		if err != nil {
			return nil, err
		}
		au := filepath.Join(dir, "audit")
		s, err := startServer(r.binary("wym-server"), dir, filepath.Join(dir, "server.log"), "-model", g,
			"-feedback-dir", filepath.Join(dir, "feedback"), "-audit-dir", au, "-audit-sample", "1")
		if err != nil {
			return nil, err
		}
		srv, gob, auditDir = s, g, au
		return func() error { _, err := s.stop(); return err }, nil
	})
	if err != nil {
		return err
	}
	defer srv.kill()

	bodies := make([][]byte, len(pool))
	for j, p := range pool {
		bodies[j] = pairJSON(p)
	}
	reads := func(i int) *op {
		j := pick(seed, i, len(pool))
		route := routePredict
		if i%10 == 9 {
			route = routeExplain
		}
		return &op{route: route, body: bodies[j], pair: j}
	}
	batches := make([][]data.Pair, r.sz.fbBatches)
	writes := make([]*op, r.sz.fbBatches)
	for k := range batches {
		batches[k] = labeled[k*r.sz.fbLabels : (k+1)*r.sz.fbLabels]
		writes[k] = &op{route: routeFeedback, body: feedbackJSON(batches[k]), pair: -1}
	}

	c := newClient(srv.base, 2, r.tr, fmt.Sprintf("sl%d-", seed))
	defer c.close()
	r.warm(c, r.sz.warmup, reads)
	ss, elapsed := openLoop(c, 2, schedule(r.sz.rate, r.dur, reads, writes))
	r.tally.add("timed", ss)

	pred := summarize(latenciesMs(ss, routePredict), 99)
	r.putLatency("predict", "p99", pred)
	r.putLatency("explain", "p99", summarize(latenciesMs(ss, routeExplain), 99))
	r.putLatency("feedback", "tail", summarize(latenciesMs(ss, routeFeedback), 100))
	r.put("latency_p50_ms", "ms", pred.P50)
	late := make([]float64, len(ss))
	for i, s := range ss {
		late[i] = float64(s.late) / 1e6
	}
	lateness := summarize(late, 99)
	r.put("loadgen.late_p99_ms", "ms", lateness.Tail)
	r.note("generator lateness ms: %s (rate %.0f/s)", lateness, r.sz.rate)
	idx, _, _, err := decisions(ss, len(pool))
	if err != nil {
		return err
	}
	r.put("pairs_per_s", "1/s", float64(len(idx))/elapsed.Seconds())

	// Quality of the final model on a held-out drifted slice.
	var scored []sample
	for from := 0; from < len(heldOut); from += 256 {
		n := min(256, len(heldOut)-from)
		scored = append(scored, c.send(&op{route: routeBatch, body: batchJSON(heldOut, from, n), pair: from}))
	}
	r.tally.add("check", scored)
	hIdx, hMatch, itemErrors, err := decisions(scored, len(heldOut))
	if err != nil {
		return err
	}
	r.put("f1", "ratio", servedF1(heldOut, hIdx, hMatch))
	r.check("held-out batch items all answered", itemErrors == 0 && len(hIdx) == len(heldOut),
		"%d of %d answered, %d item errors", len(hIdx), len(heldOut), itemErrors)

	if err := r.checkFeedback(c, gob, labeled); err != nil {
		return err
	}
	// Every successful audited request records one decision per pair.
	want := 0.0
	for _, s := range ss {
		if s.ok() && s.op.route != routeFeedback {
			want++
		}
	}
	want += float64(r.tally["warmup "+routePredict][1] + r.tally["warmup "+routeExplain][1] + len(hIdx))
	metrics, err := r.awaitAudit(srv, want)
	if err != nil {
		return err
	}
	rss, err := srv.stop()
	if err != nil {
		return err
	}
	r.put("peak_rss_mb", "MiB", rss)
	recs, _, err := audit.ReadAll(auditDir)
	if err != nil {
		return err
	}
	r.put("audit.records", "count", metrics["wym_audit_records_total"])
	r.put("audit.dropped", "count", metrics["wym_audit_dropped_total"])
	r.check("audit records on disk equal wym_audit_records_total, none dropped",
		float64(len(recs)) == metrics["wym_audit_records_total"] && metrics["wym_audit_dropped_total"] == 0 &&
			float64(len(recs)) == want,
		"%d on disk, counter %.0f, expected %.0f, dropped %.0f",
		len(recs), metrics["wym_audit_records_total"], want, metrics["wym_audit_dropped_total"])

	if r.tr == nil {
		return nil
	}
	sys, err := wym.LoadSystem(gob)
	if err != nil {
		return err
	}
	if err := r.replayLayers(sys, gob, pool); err != nil {
		return err
	}
	if err := r.feedbackLayers(sys, batches, pool); err != nil {
		return err
	}
	// The audited /predict answers from the explanation: generate, score,
	// then the matcher's explain path.
	audited := r.vals["pipeline.generate_us_per_pair"] + r.vals["relevance.score_us_per_pair"] + r.vals["explain.us_per_pair"]
	r.serveLayers(metrics, pred.P50, audited)
	r.loadgenLayers()
	return nil
}

// checkFeedback compares the server's final feedback fingerprint with an
// in-process ApplyFeedback over the same label multiset.
func (r *run) checkFeedback(c *client, gob string, labeled []data.Pair) error {
	s := c.send(&op{route: routeFeedback, pair: -1})
	r.tally.add("check", []sample{s})
	var status struct {
		LabelsTotal int    `json:"labels_total"`
		Fingerprint string `json:"fingerprint"`
	}
	if !s.ok() || json.Unmarshal(s.body, &status) != nil {
		r.check("feedback status readable", false, "status %d: %v", s.status, s.err)
		return nil
	}
	base, err := wym.LoadSystem(gob)
	if err != nil {
		return err
	}
	want, err := base.ApplyFeedback(r.ctx, toLabels(labeled))
	if err != nil {
		return err
	}
	r.check("served feedback fingerprint equals in-process ApplyFeedback",
		status.Fingerprint == want.FeedbackFingerprint() && status.LabelsTotal == len(labeled),
		"served %s over %d labels, in-process %s over %d", status.Fingerprint, status.LabelsTotal,
		want.FeedbackFingerprint(), len(labeled))
	return nil
}

// awaitAudit scrapes the server until the audit counter reaches want
// (records are appended after each response is written) or 10s pass.
func (r *run) awaitAudit(srv *server, want float64) (map[string]float64, error) {
	deadline := time.Now().Add(10 * time.Second)
	for {
		m, err := scrape(srv)
		if err != nil || m["wym_audit_records_total"] >= want || time.Now().After(deadline) {
			return m, err
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// feedbackLayers replays the run's feedback schedule in-process: the
// cumulative ApplyFeedback per batch, the journal append per batch, and
// predicts on the cold embedding cache of the final swapped model.
func (r *run) feedbackLayers(sys *wym.System, batches [][]data.Pair, pool []data.Pair) error {
	cur := sys
	for k, b := range batches {
		sp := r.tr.begin("feedback.apply", "fb-"+strconv.Itoa(k), -1)
		next, err := cur.ApplyFeedback(r.ctx, toLabels(b))
		r.tr.end(sp)
		if err != nil {
			return err
		}
		cur = next
	}
	j, _, err := feedback.Open(r.path("journal-probe"))
	if err != nil {
		return err
	}
	for k, b := range batches {
		sp := r.tr.begin("feedback.journal_append", "fb-"+strconv.Itoa(k), -1)
		err := j.Append(toLabels(b))
		r.tr.end(sp)
		if err != nil {
			j.Close()
			return err
		}
	}
	if err := j.Close(); err != nil {
		return err
	}
	n := min(200, len(pool))
	for i := 0; i < n; i++ {
		sp := r.tr.begin("embed.cold_predict", "cold-"+strconv.Itoa(i), -1)
		cur.Predict(pool[i])
		r.tr.end(sp)
	}
	applies := r.tr.durations("feedback.apply")
	r.put("feedback.apply_ms_first", "ms", float64(applies[0])/1e6)
	r.put("feedback.apply_ms_last", "ms", float64(applies[len(applies)-1])/1e6)
	r.put("feedback.journal_append_ms", "ms", r.tr.medianUs("feedback.journal_append")/1e3)
	r.put("embed.cold_predict_us", "us", float64(r.tr.total("embed.cold_predict"))/1e3/float64(n))
	return nil
}

// toLabels converts labeled pairs to feedback labels.
func toLabels(ps []data.Pair) []wym.FeedbackLabel {
	out := make([]wym.FeedbackLabel, len(ps))
	for i, p := range ps {
		out[i] = wym.FeedbackLabel{Left: p.Left, Right: p.Right, Match: p.Label == data.Match}
	}
	return out
}
