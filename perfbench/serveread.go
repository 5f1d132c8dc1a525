package main

import (
	"encoding/json"
	"fmt"
	"path/filepath"

	"wym"
	"wym/internal/data"
)

// serveRead is the read-only fast path: a closed loop on 2 connections
// against wym-server serving the f32 .wyma arena, 70% /predict, 20%
// /explain and 10% /predict/batch by count, on in-distribution pairs,
// with audit and feedback off.
func serveRead(r *run) error {
	seed := r.cfg.seed
	trainCSV, err := writeTrainCSV(r.dir, seed, r.sz.trainPairs)
	if err != nil {
		return err
	}
	pool := labeledPairs(seed, streamPool, r.sz.pool).Pairs

	var (
		srv       *server
		gob, wyma string
	)
	err = r.repeatSetup(func(dir string) (func() error, error) {
		g, err := r.trainModel(dir, trainCSV)
		if err != nil {
			return nil, err
		}
		a, err := r.convertModel(g)
		if err != nil {
			return nil, err
		}
		s, err := startServer(r.binary("wym-server"), dir, filepath.Join(dir, "server.log"), "-model", a)
		if err != nil {
			return nil, err
		}
		srv, gob, wyma = s, g, a
		return func() error { _, err := s.stop(); return err }, nil
	})
	if err != nil {
		return err
	}
	defer srv.kill()

	next := readMix(pool, seed, r.sz.batch)
	c := newClient(srv.base, 2, r.tr, fmt.Sprintf("sr%d-", seed))
	defer c.close()
	r.warm(c, r.sz.warmup, next)
	ss, elapsed := closedLoop(c, 2, r.dur, next)
	r.tally.add("timed", ss)
	metrics, err := scrape(srv)
	if err != nil {
		return err
	}
	rss, err := srv.stop()
	if err != nil {
		return err
	}

	pred := summarize(latenciesMs(ss, routePredict), 99)
	r.putLatency("predict", "p99", pred)
	r.putLatency("explain", "p99", summarize(latenciesMs(ss, routeExplain), 99))
	r.putLatency("batch", "p99", summarize(latenciesMs(ss, routeBatch), 99))
	r.put("latency_p50_ms", "ms", pred.P50)
	r.put("peak_rss_mb", "MiB", rss)
	idx, match, itemErrors, err := decisions(ss, len(pool))
	if err != nil {
		return err
	}
	r.put("pairs_per_s", "1/s", float64(len(idx))/elapsed.Seconds())
	r.put("f1", "ratio", servedF1(pool, idx, match))
	r.check("batch items all answered", itemErrors == 0, "%d item errors", itemErrors)

	sys, err := wym.LoadSystem(wyma)
	if err != nil {
		return err
	}
	r.compareServed(sys, pool, ss)
	if r.tr == nil {
		return nil
	}
	if err := r.replayLayers(sys, gob, pool); err != nil {
		return err
	}
	r.serveLayers(metrics, pred.P50, r.vals["pipeline.predict_us_per_pair"])
	r.loadgenLayers()
	return nil
}

// readMix returns serve-read's deterministic request sequence: of every
// ten requests, seven /predict, two /explain and one /predict/batch.
func readMix(pool []data.Pair, seed int64, batch int) func(i int) *op {
	predict := make([]*op, len(pool))
	explain := make([]*op, len(pool))
	for j, p := range pool {
		body := pairJSON(p)
		predict[j] = &op{route: routePredict, body: body, pair: j}
		explain[j] = &op{route: routeExplain, body: body, pair: j}
	}
	batches := make([]*op, 64)
	for k := range batches {
		from := pick(seed, -1-k, len(pool))
		batches[k] = &op{route: routeBatch, body: batchJSON(pool, from, batch), pair: from}
	}
	return func(i int) *op {
		switch i % 10 {
		case 7, 8:
			return explain[pick(seed, i, len(pool))]
		case 9:
			return batches[pick(seed, i, len(batches))]
		default:
			return predict[pick(seed, i, len(pool))]
		}
	}
}

// compareServed checks a fixed sample of served /predict and /explain
// answers (the first ones of the timed phase) against the in-process
// engine on the same artifact.
func (r *run) compareServed(sys *wym.System, pool []data.Pair, ss []sample) {
	var nPred, nExp, differ int
	for _, s := range ss {
		if !s.ok() {
			continue
		}
		p := pool[s.op.pair]
		switch {
		case s.op.route == routePredict && nPred < r.sz.checkN:
			nPred++
			var got predictResp
			label, proba := sys.Predict(p)
			if json.Unmarshal(s.body, &got) != nil || got.Match != (label == data.Match) || got.Probability != proba {
				differ++
			}
		case s.op.route == routeExplain && nExp < r.sz.checkN/3:
			nExp++
			var got explainResp
			if json.Unmarshal(s.body, &got) != nil || !sameExplanation(got, sys.Explain(p), sys.Schema()) {
				differ++
			}
		}
	}
	r.check("served answers equal the in-process arena engine", differ == 0 && nPred > 0 && nExp > 0,
		"%d of %d predict + %d explain differ", differ, nPred, nExp)
}

// sameExplanation compares a served explanation with the engine's.
func sameExplanation(got explainResp, want wym.Explanation, schema data.Schema) bool {
	if got.Match != (want.Prediction == data.Match) || got.Probability != want.Proba || len(got.Units) != len(want.Units) {
		return false
	}
	for i, u := range want.Units {
		attr := ""
		if u.Attr >= 0 && u.Attr < len(schema) {
			attr = schema[u.Attr]
		}
		g := got.Units[i]
		if g.Left != u.Left || g.Right != u.Right || g.Attribute != attr || g.Relevance != u.Relevance || g.Impact != u.Impact {
			return false
		}
	}
	return true
}
