package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/csv"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"wym"
	"wym/internal/blocking"
	"wym/internal/data"
	"wym/internal/datagen"
	"wym/internal/matchjob"
	"wym/internal/pipeline"
)

// matchF1Floor is the committed quality floor of match-table: the pair
// F1 of every job's output against the generated truth.
const matchF1Floor = 0.35

// maxDF is the blocking document-frequency cap passed to `wym match`;
// the default admits near-stop-words on S-FZ and inflates candidates.
const maxDF = 0.05

// jobStats is what one `wym match` run printed.
type jobStats struct {
	matched, candidates int64
	rowErrors           int
	recall, f1          float64
}

// matchTable runs `wym match -truth` on a generated S-FZ table pair,
// split into chunks, as many times as fit the timed phase (at least
// once). It is the only user of blocking and matchjob and does no HTTP.
func matchTable(r *run) error {
	seed := r.cfg.seed
	trainCSV, err := writeTrainCSV(r.dir, seed, r.sz.trainPairs)
	if err != nil {
		return err
	}
	left, right, truth, tp, err := writeTables(r.dir, seed, r.sz.tableRows)
	if err != nil {
		return err
	}
	var gob string
	err = r.repeatSetup(func(dir string) (func() error, error) {
		g, err := r.trainModel(dir, trainCSV)
		gob = g
		return nil, err
	})
	if err != nil {
		return err
	}

	var (
		walls, f1s []float64
		rates      []float64 // candidates decided per second of each job
		rss        []float64 // peak resident set of each job
		hashes     []string
		recallOK   = true
		cliAgrees  = true
		lastOut    string
		start      = time.Now()
		chunk      = strconv.Itoa(r.sz.chunk)
		df         = strconv.FormatFloat(maxDF, 'g', -1, 64)
	)
	for k := 0; k == 0 || time.Since(start) < r.dur; k++ {
		dir := r.path(fmt.Sprintf("job%d", k))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		out := filepath.Join(dir, "matches.csv")
		sp := r.tr.begin("wym.match", "job-"+strconv.Itoa(k), -1)
		res, err := runTool(r.ctx, dir, filepath.Join(dir, "match.log"), r.binary("wym"), "match",
			"-left", left, "-right", right, "-model", gob, "-out", out, "-chunk", chunk, "-max-df", df, "-truth", truth)
		r.tr.end(sp)
		if err != nil {
			r.steps++
			r.stepsFailed++
			return err
		}
		st, err := parseMatch(res.stdout)
		if err != nil {
			return err
		}
		// Every candidate pair is one decision; a quarantined pair is a
		// failed one.
		r.steps += int(st.candidates)
		r.stepsFailed += st.rowErrors
		got, err := readMatches(out)
		if err != nil {
			return err
		}
		h, err := fileHash(out)
		if err != nil {
			return err
		}
		f := pairF1(got, tp.Truth)
		walls, f1s, hashes = append(walls, float64(res.took)/1e6), append(f1s, f), append(hashes, h)
		rates = append(rates, float64(st.candidates)/res.took.Seconds())
		rss = append(rss, res.rssMB)
		recallOK = recallOK && st.recall == 1
		cliAgrees = cliAgrees && math.Abs(st.f1-f) < 0.0005
		lastOut = out
		r.note("job %d: %d candidates, %d matched, %d row errors, F1 %.4f, %.0f ms, sha256 %.16s",
			k, st.candidates, st.matched, st.rowErrors, f, float64(res.took)/1e6, h)
	}
	sameHash := true
	for _, h := range hashes {
		sameHash = sameHash && h == hashes[0]
	}
	r.put("latency_p50_ms", "ms", median(walls))
	r.put("pairs_per_s", "1/s", median(rates))
	r.put("f1", "ratio", median(f1s))
	r.put("peak_rss_mb", "MiB", median(rss))
	r.put("match.jobs", "count", float64(len(walls)))
	r.check("blocking recall is 1.000 on every job", recallOK, "printed by wym match -truth")
	r.check("merged output identical across jobs", sameHash, "%d jobs", len(hashes))
	r.check("pair F1 meets the committed floor", median(f1s) >= matchF1Floor, "F1 %.4f, floor %.2f", median(f1s), matchF1Floor)
	r.check("printed F1 equals the benchmark's own scoring", cliAgrees, "per job, to 3 decimals")

	if r.tr == nil {
		return nil
	}
	return r.matchLayers(gob, left, right, lastOut, tp)
}

// parseMatch reads the summary lines `wym match -truth` prints.
func parseMatch(stdout []byte) (jobStats, error) {
	var st jobStats
	seen := 0
	sc := bufio.NewScanner(bytes.NewReader(stdout))
	for sc.Scan() {
		line := sc.Text()
		var p, rc float64
		switch {
		case strings.HasPrefix(line, "matched:"):
			if _, err := fmt.Sscanf(line, "matched: %d pairs from %d candidates (%d row errors)", &st.matched, &st.candidates, &st.rowErrors); err == nil {
				seen++
			}
		case strings.HasPrefix(line, "recall of blocking:"):
			if _, err := fmt.Sscanf(line, "recall of blocking: %f", &st.recall); err == nil {
				seen++
			}
		case strings.HasPrefix(line, "pair quality:"):
			if _, err := fmt.Sscanf(line, "pair quality: precision %f recall %f F1 %f", &p, &rc, &st.f1); err == nil {
				seen++
			}
		}
	}
	if seen != 3 {
		return st, fmt.Errorf("wym match printed %d of 3 summary lines:\n%s", seen, stdout)
	}
	return st, nil
}

// readMatches parses a merged output CSV (left,right,label,proba) and
// returns the pairs labeled as matches.
func readMatches(path string) ([][2]int, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rows, err := csv.NewReader(f).ReadAll()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	var out [][2]int
	for i, row := range rows {
		if i == 0 {
			continue // header
		}
		if len(row) != 4 {
			return nil, fmt.Errorf("%s row %d: %d fields", path, i+1, len(row))
		}
		l, e1 := strconv.Atoi(row[0])
		rr, e2 := strconv.Atoi(row[1])
		if e1 != nil || e2 != nil {
			return nil, fmt.Errorf("%s row %d: bad indices", path, i+1)
		}
		if row[2] == strconv.Itoa(data.Match) {
			out = append(out, [2]int{l, rr})
		}
	}
	return out, nil
}

// timedPredictor records a span around every PredictBatch the job makes.
type timedPredictor struct {
	eng *pipeline.Engine
	tr  *tracer
}

func (t timedPredictor) PredictBatch(ctx context.Context, pairs []data.Pair) []pipeline.Prediction {
	sp := t.tr.begin("matchjob.predict_batch", "", -1)
	defer t.tr.end(sp)
	return t.eng.PredictBatch(ctx, pairs)
}

// matchLayers is match-table's traced replay: table reads, one blocking
// pass, and the same job run in-process with PredictBatch timed, then the
// per-stage replay on the job's first candidate pairs.
func (r *run) matchLayers(gob, left, right, cliOut string, tp *datagen.TablePair) error {
	sp := r.tr.begin("data.read_tables", "tables", -1)
	lt, err := wym.LoadTable(left)
	if err == nil {
		var rt *wym.Table
		if rt, err = wym.LoadTable(right); err == nil && (len(lt.Rows) != len(tp.Left) || len(rt.Rows) != len(tp.Right)) {
			err = fmt.Errorf("read %d+%d rows, wrote %d+%d", len(lt.Rows), len(rt.Rows), len(tp.Left), len(tp.Right))
		}
	}
	r.tr.end(sp)
	if err != nil {
		return err
	}
	bcfg := blocking.StreamConfig{Config: blocking.Config{MaxDF: maxDF, MinShared: 1}, MemoryBudget: 64 << 20, TopK: 50}

	sp = r.tr.begin("blocking", "tables", -1)
	s, err := blocking.NewStreamer(tp.Left, tp.Right, bcfg)
	if err != nil {
		return err
	}
	var cands [][2]int
	for from := 0; from < len(tp.Left); from += r.sz.chunk {
		cs, err := s.Chunk(from, min(from+r.sz.chunk, len(tp.Left)))
		if err != nil {
			return err
		}
		for c, ok := cs.Next(); ok; c, ok = cs.Next() {
			cands = append(cands, [2]int{c.Left, c.Right})
		}
	}
	r.tr.end(sp)
	r.put("blocking.s", "s", r.tr.total("blocking").Seconds())
	r.put("blocking.candidates", "count", float64(len(cands)))
	r.put("blocking.peak_index_bytes", "bytes", float64(s.Stats().PeakIndexBytes))
	r.put("blocking.recall", "ratio", recall(cands, tp.Truth))
	r.put("data.read_tables_s", "s", r.tr.total("data.read_tables").Seconds())

	sys, err := wym.LoadSystem(gob)
	if err != nil {
		return err
	}
	out := r.path("inproc", "matches.csv")
	runner, err := matchjob.New(timedPredictor{eng: sys.Engine(), tr: r.tr}, tp.Left, tp.Right, matchjob.Config{
		ChunkSize: r.sz.chunk, Blocking: bcfg, Dir: r.path("inproc", "job"), Out: out,
	})
	if err != nil {
		return err
	}
	sp = r.tr.begin("matchjob.run", "inproc", -1)
	sum, err := runner.Run(r.ctx)
	r.tr.end(sp)
	if err != nil {
		return err
	}
	wall := r.tr.total("matchjob.run").Seconds()
	predict := r.tr.total("matchjob.predict_batch").Seconds()
	r.put("matchjob.predict_s", "s", predict)
	r.put("matchjob.other_s", "s", wall-r.vals["blocking.s"]-predict)
	r.put("matchjob.chunks", "count", float64(sum.TotalChunks))
	r.put("matchjob.row_errors", "count", float64(sum.RowErrors))
	h1, err := fileHash(out)
	if err != nil {
		return err
	}
	h2, err := fileHash(cliOut)
	if err != nil {
		return err
	}
	r.check("in-process job output equals wym match output", h1 == h2, "sha256 %.16s vs %.16s", h1, h2)

	pairs := make([]data.Pair, 0, r.sz.replay)
	for _, c := range cands[:min(len(cands), r.sz.replay)] {
		pairs = append(pairs, data.Pair{Left: tp.Left[c[0]], Right: tp.Right[c[1]]})
	}
	return r.replayLayers(sys, gob, pairs)
}
