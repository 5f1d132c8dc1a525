package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"wym"
	"wym/internal/blocking"
	"wym/internal/data"
	"wym/internal/matchjob"
	"wym/internal/pipeline"
)

// TestBlockingConfigFlags pins the flag → StreamConfig assembly,
// including the -attrs list parsing and its error path.
func TestBlockingConfigFlags(t *testing.T) {
	o := matchOptions{maxDF: 0.2, minShared: 2, jaccard: 0.1, indexMemMB: 8, topK: 7, attrs: " 0, 2 "}
	cfg, err := o.blockingConfig(true)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.MaxDF != 0.2 || cfg.MinShared != 2 || cfg.JaccardFloor != 0.1 {
		t.Fatalf("filters not carried: %+v", cfg)
	}
	if cfg.MemoryBudget != 8<<20 || cfg.TopK != 7 || !cfg.Self {
		t.Fatalf("stream knobs not carried: %+v", cfg)
	}
	if len(cfg.Attrs) != 2 || cfg.Attrs[0] != 0 || cfg.Attrs[1] != 2 {
		t.Fatalf("attrs = %v", cfg.Attrs)
	}

	o.attrs = "0,x"
	if _, err := o.blockingConfig(false); err == nil {
		t.Fatal("bad -attrs entry accepted")
	}
}

// TestMatchRejectsChunkBelowOne checks that `wym match` and `wym dedup`
// refuse a -chunk below 1 before they load any input: the job's chunk
// count divides by it. Every input path is missing, so an error about
// anything but -chunk means the flag was not checked first.
func TestMatchRejectsChunkBelowOne(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "missing.csv")
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"match", []string{"-left", missing, "-right", missing}},
		{"dedup", []string{"-in", missing}},
	} {
		for _, chunk := range []string{"0", "-1"} {
			args := append([]string{"-model", missing, "-chunk", chunk}, tc.args...)
			err := runMatchCmd(context.Background(), tc.name, args)
			if err == nil || !strings.Contains(err.Error(), "-chunk") {
				t.Errorf("wym %s -chunk %s: err = %v, want a -chunk usage error", tc.name, chunk, err)
			}
		}
	}
}

// TestMatchRejectsBadTruthBeforeJob checks that `wym match` and `wym
// dedup` load and check -truth before the job starts: a bad header, a
// pair outside the tables, and in a dedup a row paired with itself are
// each refused with an error naming -truth, and no job directory or
// output is created. The model path is missing, so an error about
// anything else means the truth file was not checked first.
func TestMatchRejectsBadTruthBeforeJob(t *testing.T) {
	dir := t.TempDir()
	schema := data.Schema{"name", "city"}
	table := func(name string, rows int) string {
		tb := &data.Table{Schema: schema}
		for i := range rows {
			tb.Rows = append(tb.Rows, data.Entity{fmt.Sprintf("row %d", i), "rome"})
		}
		path := filepath.Join(dir, name)
		if err := data.SaveTableFile(path, tb); err != nil {
			t.Fatal(err)
		}
		return path
	}
	left, right := table("left.csv", 3), table("right.csv", 2)
	for _, tc := range []struct {
		name, cmd, truth, want string
	}{
		{"bad header", "match", "l,r\n0,1\n", "header"},
		{"left index outside", "match", "left,right\n9999,1\n", "outside the tables"},
		{"right index outside", "match", "left,right\n0,1\n2,2\n", "outside the tables"},
		{"dedup index outside", "dedup", "left,right\n1,3\n", "outside the tables"},
		{"dedup self pair", "dedup", "left,right\n0,2\n1,1\n", "with itself"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			truth := filepath.Join(t.TempDir(), "truth.csv")
			if err := os.WriteFile(truth, []byte(tc.truth), 0o644); err != nil {
				t.Fatal(err)
			}
			out := filepath.Join(t.TempDir(), "out.csv")
			args := []string{"-model", filepath.Join(dir, "missing.gob"), "-out", out, "-truth", truth}
			if tc.cmd == "dedup" {
				args = append(args, "-in", left)
			} else {
				args = append(args, "-left", left, "-right", right)
			}
			err := runMatchCmd(context.Background(), tc.cmd, args)
			if err == nil || !strings.Contains(err.Error(), tc.want) || !strings.Contains(err.Error(), "truth") {
				t.Fatalf("err = %v, want a -truth error containing %q", err, tc.want)
			}
			for _, path := range []string{out, out + ".job"} {
				if _, err := os.Stat(path); !os.IsNotExist(err) {
					t.Fatalf("%s exists after a rejected -truth (stat err %v)", path, err)
				}
			}
		})
	}
}

// TestLoadTruthDedupUnordered checks that a dedup's truth pairs come back
// as (min, max), the order the job emits its pairs in, and that a
// two-table match keeps them as written.
func TestLoadTruthDedupUnordered(t *testing.T) {
	path := filepath.Join(t.TempDir(), "truth.csv")
	if err := os.WriteFile(path, []byte("left,right\n2,0\n1,3\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := loadTruth(path, 4, 4, true)
	if err != nil {
		t.Fatal(err)
	}
	if want := [][2]int{{0, 2}, {1, 3}}; !slices.Equal(got, want) {
		t.Fatalf("dedup truth = %v, want %v", got, want)
	}
	if got, err = loadTruth(path, 4, 4, false); err != nil || !slices.Equal(got, [][2]int{{2, 0}, {1, 3}}) {
		t.Fatalf("match truth = %v, %v, want the pairs as written", got, err)
	}
}

// TestMatchJobSessionExact runs a whole match job on one session, as
// `wym match` does, with two workers per chunk: every prediction the job
// gets from the session equals per-pair Predict bit for bit, the session
// reuses unit scores across the job, and the merged output equals that of
// the same job on the engine, whose PredictBatch takes a fresh session
// per call.
func TestMatchJobSessionExact(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	fx := matchTestFixture(t)
	sys, err := wym.LoadSystem(fx.modelPath)
	if err != nil {
		t.Fatal(err)
	}
	left, err := wym.LoadTable(fx.leftPath)
	if err != nil {
		t.Fatal(err)
	}
	right, err := wym.LoadTable(fx.rightPath)
	if err != nil {
		t.Fatal(err)
	}
	job := func(p matchjob.Predictor) []byte {
		dir := t.TempDir()
		r, err := matchjob.New(p, left.Rows, right.Rows, matchjob.Config{
			ChunkSize: 20,
			Blocking:  blocking.StreamConfig{Config: blocking.Config{MaxDF: 0.2, MinShared: 1}, TopK: 50},
			All:       true,
			Dir:       filepath.Join(dir, "job"),
			Out:       filepath.Join(dir, "out.csv"),
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		out, err := os.ReadFile(filepath.Join(dir, "out.csv"))
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	eng := sys.Engine()
	sess := &recordingPredictor{s: eng.Session()}
	if got, want := job(sess), job(eng); !bytes.Equal(got, want) {
		t.Fatal("the job on one session wrote other output than the job on the engine")
	}
	n := 0
	for _, c := range sess.calls {
		for i, p := range c.pairs {
			label, proba := eng.Predict(p)
			if got := c.preds[i]; got.Err != "" || got.Label != label || math.Float64bits(got.Proba) != math.Float64bits(proba) {
				t.Fatalf("session predicted %+v for a pair, Predict gives (%d, %v)", got, label, proba)
			}
			n++
		}
	}
	scored, reused := sess.s.Units()
	if n == 0 || scored == 0 || reused == 0 {
		t.Fatalf("%d pairs predicted, %d units scored, %d reused: want the job to reuse unit scores", n, scored, reused)
	}
}

// recordingPredictor is a matchjob.Predictor that keeps every batch a
// session predicted.
type recordingPredictor struct {
	s     *pipeline.Session
	calls []predictedBatch
}

type predictedBatch struct {
	pairs []data.Pair
	preds []pipeline.Prediction
}

func (r *recordingPredictor) PredictBatch(ctx context.Context, pairs []data.Pair) []pipeline.Prediction {
	preds := r.s.PredictBatch(ctx, pairs)
	r.calls = append(r.calls, predictedBatch{pairs, preds})
	return preds
}

// TestFileFNV checks the model fingerprint is content-derived and that
// a missing file reports an error rather than fingerprint zero.
func TestFileFNV(t *testing.T) {
	dir := t.TempDir()
	a := filepath.Join(dir, "a")
	b := filepath.Join(dir, "b")
	if err := os.WriteFile(a, []byte("model bytes"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(b, []byte("model bytes"), 0o644); err != nil {
		t.Fatal(err)
	}
	fa, err := fileFNV(a)
	if err != nil {
		t.Fatal(err)
	}
	fb, err := fileFNV(b)
	if err != nil {
		t.Fatal(err)
	}
	if fa != fb {
		t.Fatalf("same content, different fingerprints: %x vs %x", fa, fb)
	}
	if err := os.WriteFile(b, []byte("other bytes"), 0o644); err != nil {
		t.Fatal(err)
	}
	if fb, _ = fileFNV(b); fa == fb {
		t.Fatal("different content, same fingerprint")
	}
	if _, err := fileFNV(filepath.Join(dir, "missing")); err == nil {
		t.Fatal("missing file fingerprinted without error")
	}
}
