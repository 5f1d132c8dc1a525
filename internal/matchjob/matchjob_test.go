package matchjob

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"wym/internal/blocking"
	"wym/internal/data"
	"wym/internal/datagen"
	"wym/internal/eval"
	"wym/internal/obs"
	"wym/internal/pipeline"
	"wym/internal/tokenize"
)

// fakeEngine predicts deterministically from pair content (shared-token
// count), with an optional per-batch failure hook.
type fakeEngine struct {
	batches int
	// fail, when non-nil, returns a quarantine message for a pair given
	// the 1-based batch call number.
	fail func(batch int, p data.Pair) string
	// onBatch runs after each batch (cancellation hooks).
	onBatch func(batch int)
}

func (f *fakeEngine) PredictBatch(ctx context.Context, pairs []data.Pair) []pipeline.Prediction {
	f.batches++
	out := make([]pipeline.Prediction, len(pairs))
	for i, p := range pairs {
		if f.fail != nil {
			if msg := f.fail(f.batches, p); msg != "" {
				out[i] = pipeline.Prediction{Err: msg}
				continue
			}
		}
		out[i] = scorePair(p)
	}
	if f.onBatch != nil {
		f.onBatch(f.batches)
	}
	return out
}

// scorePair is the deterministic stand-in matcher: token-set Jaccard
// with a 0.5 threshold.
func scorePair(p data.Pair) pipeline.Prediction {
	left := map[string]bool{}
	for _, v := range p.Left {
		for _, t := range tokenize.SplitWords(v) {
			left[t] = true
		}
	}
	right := map[string]bool{}
	shared := 0
	for _, v := range p.Right {
		for _, t := range tokenize.SplitWords(v) {
			if right[t] {
				continue
			}
			right[t] = true
			if left[t] {
				shared++
			}
		}
	}
	union := len(left) + len(right) - shared
	var jac float64
	if union > 0 {
		jac = float64(shared) / float64(union)
	}
	pred := pipeline.Prediction{Proba: jac}
	if jac >= 0.5 {
		pred.Label = data.Match
	}
	return pred
}

// jobTables returns a small deterministic table pair with ground truth.
func jobTables(t *testing.T, rows int) *datagen.TablePair {
	t.Helper()
	p, ok := datagen.ProfileByKey("S-FZ")
	if !ok {
		t.Fatal("profile S-FZ missing")
	}
	return datagen.GenerateTables(p, rows, 0.3)
}

// jobConfig returns a Config over fresh temp dirs with small chunks.
func jobConfig(t *testing.T) Config {
	t.Helper()
	dir := t.TempDir()
	bcfg := blocking.DefaultStreamConfig()
	bcfg.MaxDF = 0.05
	return Config{
		ChunkSize: 25,
		Blocking:  bcfg,
		Dir:       filepath.Join(dir, "job"),
		Out:       filepath.Join(dir, "matches.csv"),
	}
}

func runJob(t *testing.T, eng Predictor, left, right []data.Entity, cfg Config) *Summary {
	t.Helper()
	r, err := New(eng, left, right, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return sum
}

func TestRunFullJob(t *testing.T) {
	tp := jobTables(t, 120)
	cfg := jobConfig(t)
	reg := obs.NewRegistry()
	cfg.Metrics = NewMetrics(reg)
	sum := runJob(t, &fakeEngine{}, tp.Left, tp.Right, cfg)

	if sum.Interrupted {
		t.Fatal("uninterrupted job reported Interrupted")
	}
	if sum.TotalChunks != 5 || sum.ChunksDone != 5 || sum.ChunksResumed != 0 {
		t.Fatalf("chunk accounting: %+v", sum)
	}
	if sum.Candidates == 0 || sum.Matches == 0 {
		t.Fatalf("no work done: %+v", sum)
	}
	if cfg.Metrics.ChunksDone.Value() != 5 {
		t.Fatalf("metrics chunks done = %d", cfg.Metrics.ChunksDone.Value())
	}
	if int64(cfg.Metrics.CandidatesEmitted.Value()) != sum.Candidates {
		t.Fatalf("metrics candidates = %d, summary %d", cfg.Metrics.CandidatesEmitted.Value(), sum.Candidates)
	}

	raw, err := os.ReadFile(cfg.Out)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
	if lines[0] != "left,right,label,proba" {
		t.Fatalf("header = %q", lines[0])
	}
	if int64(len(lines)-1) != sum.Matches {
		t.Fatalf("output has %d rows, summary says %d matches", len(lines)-1, sum.Matches)
	}

	matches, err := ReadMatches(cfg.Out)
	if err != nil {
		t.Fatal(err)
	}
	q := eval.NewPairQuality(matches, tp.Truth)
	if q.Recall() < 0.9 || q.Precision() < 0.9 {
		t.Fatalf("pair quality on easy tables: %+v p=%v r=%v", q, q.Precision(), q.Recall())
	}
}

func TestInterruptAndResumeByteIdentical(t *testing.T) {
	tp := jobTables(t, 120)

	// Reference: one uninterrupted run.
	ref := jobConfig(t)
	runJob(t, &fakeEngine{}, tp.Left, tp.Right, ref)
	want, err := os.ReadFile(ref.Out)
	if err != nil {
		t.Fatal(err)
	}

	// Interrupted run: cancel after the second chunk's batch; the
	// in-flight chunk must drain, then the loop stops at the boundary.
	cfg := jobConfig(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	eng := &fakeEngine{onBatch: func(batch int) {
		if batch == 2 {
			cancel()
		}
	}}
	r, err := New(eng, tp.Left, tp.Right, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := r.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !sum.Interrupted {
		t.Fatal("canceled run not marked Interrupted")
	}
	if sum.ChunksDone != 2 {
		t.Fatalf("drained %d chunks, want 2", sum.ChunksDone)
	}
	if _, err := os.Stat(cfg.Out); !os.IsNotExist(err) {
		t.Fatal("interrupted run wrote the merged output")
	}

	// Resume and compare bytes.
	cfg.Resume = true
	sum = runJob(t, &fakeEngine{}, tp.Left, tp.Right, cfg)
	if sum.ChunksResumed != 2 || sum.ChunksDone != 3 {
		t.Fatalf("resume accounting: %+v", sum)
	}
	got, err := os.ReadFile(cfg.Out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("resumed output differs from uninterrupted run")
	}
}

func TestResumeRecomputesCorruptSegment(t *testing.T) {
	tp := jobTables(t, 100)

	ref := jobConfig(t)
	runJob(t, &fakeEngine{}, tp.Left, tp.Right, ref)
	want, _ := os.ReadFile(ref.Out)

	cfg := jobConfig(t)
	runJob(t, &fakeEngine{}, tp.Left, tp.Right, cfg)
	// Corrupt the second segment: its SHA-256 no longer matches, so the
	// resume must recompute it and everything after it.
	if err := os.WriteFile(segmentPath(cfg.Dir, 1), []byte("garbage\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg.Resume = true
	sum := runJob(t, &fakeEngine{}, tp.Left, tp.Right, cfg)
	if sum.ChunksResumed != 1 {
		t.Fatalf("resumed %d chunks, want only the pre-corruption prefix (1)", sum.ChunksResumed)
	}
	got, err := os.ReadFile(cfg.Out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("recovered output differs from clean run")
	}
}

func TestResumeRejectsMismatch(t *testing.T) {
	tp := jobTables(t, 60)
	cfg := jobConfig(t)
	runJob(t, &fakeEngine{}, tp.Left, tp.Right, cfg)

	// Different chunk size -> different job.
	mism := cfg
	mism.Resume = true
	mism.ChunkSize = 30
	r, err := New(&fakeEngine{}, tp.Left, tp.Right, mism)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(context.Background()); !errors.Is(err, ErrManifestMismatch) {
		t.Fatalf("chunk-size change: err = %v, want ErrManifestMismatch", err)
	}

	// Different table -> different job.
	mut := append([]data.Entity{}, tp.Left...)
	mut[0] = data.Entity{"tampered", "row", "0"}
	cfg.Resume = true
	r, err = New(&fakeEngine{}, mut, tp.Right, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(context.Background()); !errors.Is(err, ErrManifestMismatch) {
		t.Fatalf("table change: err = %v, want ErrManifestMismatch", err)
	}

	// Same job but no Resume flag -> refuse to clobber.
	cfg.Resume = false
	r, err = New(&fakeEngine{}, tp.Left, tp.Right, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(context.Background()); err == nil {
		t.Fatal("existing manifest accepted without Resume")
	}

	// Throttle is pacing only: changing it must NOT invalidate a resume.
	cfg.Resume = true
	cfg.Throttle = 1
	sum := runJob(t, &fakeEngine{}, tp.Left, tp.Right, cfg)
	if sum.ChunksResumed != sum.TotalChunks {
		t.Fatalf("throttle change invalidated chunks: %+v", sum)
	}
}

func TestRetryOnceOnQuarantine(t *testing.T) {
	tp := jobTables(t, 50)
	cfg := jobConfig(t)
	// Every odd batch call fails entirely; the retry (even call) succeeds.
	eng := &fakeEngine{fail: func(batch int, p data.Pair) string {
		if batch%2 == 1 {
			return "induced panic"
		}
		return ""
	}}
	sum := runJob(t, eng, tp.Left, tp.Right, cfg)
	if sum.ChunksRetried != sum.TotalChunks {
		t.Fatalf("retried %d of %d chunks", sum.ChunksRetried, sum.TotalChunks)
	}
	if sum.RowErrors != 0 {
		t.Fatalf("retry should clear quarantines, got %d row errors", sum.RowErrors)
	}
}

func TestPersistentRowErrorsReported(t *testing.T) {
	tp := jobTables(t, 50)
	cfg := jobConfig(t)
	eng := &fakeEngine{fail: func(batch int, p data.Pair) string {
		return "always broken"
	}}
	sum := runJob(t, eng, tp.Left, tp.Right, cfg)
	if sum.RowErrors == 0 {
		t.Fatal("persistent quarantines not counted")
	}
	if int64(sum.RowErrors) != sum.Candidates {
		t.Fatalf("row errors %d, candidates %d", sum.RowErrors, sum.Candidates)
	}
	if len(sum.RowErrorSamples) == 0 || len(sum.RowErrorSamples) > maxRowErrorSamples {
		t.Fatalf("samples = %d", len(sum.RowErrorSamples))
	}
	if sum.RowErrorSamples[0].Err != "always broken" {
		t.Fatalf("sample = %+v", sum.RowErrorSamples[0])
	}
	if sum.Matches != 0 {
		t.Fatalf("quarantined rows produced matches: %+v", sum)
	}
	raw, err := os.ReadFile(cfg.Out)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimRight(string(raw), "\n"); got != "left,right,label,proba" {
		t.Fatalf("quarantined rows leaked into output: %q", got)
	}
}

func TestDedupJob(t *testing.T) {
	table := []data.Entity{
		{"digital camera x100 pro", "fuji", "499"},
		{"digital camera x100 pro max", "fuji", "489"},
		{"espresso maker deluxe", "delonghi", "120"},
		{"lawn mower gx", "bosch", "300"},
	}
	cfg := jobConfig(t)
	cfg.ChunkSize = 2
	cfg.Blocking.Self = true
	cfg.Blocking.MaxDF = 1.0
	sum := runJob(t, &fakeEngine{}, table, nil, cfg)
	if sum.Matches != 1 {
		t.Fatalf("dedup matches = %d, want 1: %+v", sum.Matches, sum)
	}
	matches, err := ReadMatches(cfg.Out)
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 1 || matches[0] != [2]int{0, 1} {
		t.Fatalf("dedup pairs = %v", matches)
	}
}

// TestFingerprintConfigPinned pins the manifest's config fingerprint for
// one match and one dedup configuration. The expected values are what
// the code wrote before Blocking.Self replaced a separate dedup switch;
// if the fingerprint text changes, -resume refuses every job directory
// written before the change.
func TestFingerprintConfigPinned(t *testing.T) {
	match := Config{
		ChunkSize: 125,
		Blocking: blocking.StreamConfig{
			Config:       blocking.Config{MaxDF: 0.05, MinShared: 1},
			MemoryBudget: 64 << 20, TopK: 50,
		},
		ModelSum: 0x0123456789abcdef,
	}
	dedup := Config{
		ChunkSize: 1000,
		Blocking: blocking.StreamConfig{
			Config:       blocking.Config{MaxDF: 0.1, MinShared: 2, JaccardFloor: 0.2, Attrs: []int{1, 0}},
			MemoryBudget: 8 << 20, TopK: 7, Self: true,
		},
		All:      true,
		ModelSum: 42,
	}
	for _, tc := range []struct {
		name string
		cfg  Config
		want uint64
	}{
		{"match", match, 0x3c000e3c2ed80179},
		{"dedup", dedup, 0xe3fd2a1a336e8d3d},
	} {
		if got := fingerprintConfig(tc.cfg); got != tc.want {
			t.Errorf("%s fingerprint = %#x, want %#x", tc.name, got, tc.want)
		}
	}
}

func TestAllEmitsNonMatches(t *testing.T) {
	tp := jobTables(t, 60)
	cfg := jobConfig(t)
	cfg.All = true
	sum := runJob(t, &fakeEngine{}, tp.Left, tp.Right, cfg)
	raw, err := os.ReadFile(cfg.Out)
	if err != nil {
		t.Fatal(err)
	}
	rows := strings.Count(string(raw), "\n") - 1
	if int64(rows) != sum.Candidates {
		t.Fatalf("All mode wrote %d rows, candidates %d", rows, sum.Candidates)
	}
	if sum.Matches >= sum.Candidates {
		t.Fatalf("expected some non-matches: %+v", sum)
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	table := []data.Entity{{"a"}}
	good := jobConfig(t)
	if _, err := New(nil, table, table, good); err == nil {
		t.Fatal("nil engine accepted")
	}
	bad := good
	bad.Dir = ""
	if _, err := New(&fakeEngine{}, table, table, bad); err == nil {
		t.Fatal("missing Dir accepted")
	}
	bad = good
	bad.ChunkSize = -1
	if _, err := New(&fakeEngine{}, table, table, bad); err == nil {
		t.Fatal("negative ChunkSize accepted")
	}
	bad = good
	bad.Blocking.MaxDF = -2
	if _, err := New(&fakeEngine{}, table, table, bad); !errors.Is(err, blocking.ErrInvalidConfig) {
		t.Fatalf("bad blocking config: %v", err)
	}
}

func TestReadMatchesErrors(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "m.csv")
	if _, err := ReadMatches(path); err == nil {
		t.Fatal("missing file accepted")
	}
	os.WriteFile(path, []byte("left,right,label,proba\n1,2\n"), 0o644)
	if _, err := ReadMatches(path); err == nil {
		t.Fatal("short row accepted")
	}
	os.WriteFile(path, []byte("left,right,label,proba\nx,2,1,0.5\n"), 0o644)
	if _, err := ReadMatches(path); err == nil {
		t.Fatal("non-integer index accepted")
	}
}

// TestRunFilesystemFailures covers the job's filesystem error paths: a
// job dir blocked by a plain file, an output directory that does not
// exist (merge cannot land), and segment/manifest writes into a missing
// directory.
func TestRunFilesystemFailures(t *testing.T) {
	tp := jobTables(t, 60)
	dir := t.TempDir()

	// Job dir is an existing regular file: MkdirAll must fail.
	blocked := filepath.Join(dir, "blocked")
	if err := os.WriteFile(blocked, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := jobConfig(t)
	cfg.Dir = blocked
	r, err := New(&fakeEngine{}, tp.Left, tp.Right, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(context.Background()); err == nil {
		t.Fatal("job dir blocked by a file, Run succeeded")
	}

	// Output directory missing: the chunks complete but the merge fails.
	cfg = jobConfig(t)
	cfg.Out = filepath.Join(dir, "no-such-dir", "out.csv")
	r, err = New(&fakeEngine{}, tp.Left, tp.Right, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(context.Background()); err == nil {
		t.Fatal("missing output directory, Run succeeded")
	}

	missing := filepath.Join(dir, "nope")
	if _, err := writeSegment(missing, 0, []byte("row\n")); err == nil {
		t.Fatal("writeSegment into a missing directory succeeded")
	}
	if err := writeManifest(missing, &manifest{Magic: manifestMagic, Version: manifestVersion}); err == nil {
		t.Fatal("writeManifest into a missing directory succeeded")
	}
}
