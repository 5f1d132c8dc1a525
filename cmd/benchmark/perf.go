package main

// perf.go implements the -bench-json mode: a machine-readable performance
// snapshot of the hot pipeline paths (tokenize→embed→Discover→score). The
// committed BENCH_baseline.json at the repo root is generated with
//
//	go run ./cmd/benchmark -bench-json BENCH_baseline.json
//
// so future performance work has a fixed reference point. Each entry is a
// standard testing.Benchmark result (ns/op, allocs/op, B/op); regenerate on
// the same machine as the baseline when comparing.

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"testing"
	"time"

	"wym"
	"wym/internal/audit"
	"wym/internal/blocking"
	"wym/internal/datagen"
	"wym/internal/embed"
	"wym/internal/matchjob"
	"wym/internal/obs"
	"wym/internal/pipeline"
	"wym/internal/tokenize"
	"wym/internal/units"
)

// benchResult is one benchmark's metrics.
type benchResult struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	Iterations  int     `json:"iterations"`
}

// perfSnapshot is the on-disk shape of a -bench-json run.
type perfSnapshot struct {
	GoVersion  string                 `json:"go_version"`
	GOOS       string                 `json:"goos"`
	GOARCH     string                 `json:"goarch"`
	GOMAXPROCS int                    `json:"gomaxprocs"`
	Dataset    string                 `json:"dataset"`
	Scale      float64                `json:"scale"`
	Seed       int64                  `json:"seed"`
	Benchmarks map[string]benchResult `json:"benchmarks"`
}

// runBenchJSON collects a snapshot and writes it as JSON; "-" writes to
// stdout. An empty path skips the perf snapshot output (the
// -metrics-json-only mode). metricsPath, when non-empty, additionally
// dumps the obs registry accumulated during the run — the engine metrics
// of every timed operation — in the registry's JSON rendering.
func runBenchJSON(path, metricsPath, dataset string, scale float64, seed int64) error {
	snap, reg, err := collectSnapshot(dataset, scale, seed)
	if err != nil {
		return err
	}
	if path != "" {
		out, err := json.MarshalIndent(snap, "", "  ")
		if err != nil {
			return err
		}
		out = append(out, '\n')
		if path == "-" {
			if _, err := os.Stdout.Write(out); err != nil {
				return err
			}
		} else {
			if err := os.WriteFile(path, out, 0o644); err != nil {
				return err
			}
			fmt.Printf("wrote %s (%s, scale %g, %d benchmarks)\n", path, snap.Dataset, snap.Scale, len(snap.Benchmarks))
		}
	}
	return writeMetricsJSON(metricsPath, reg)
}

// writeMetricsJSON dumps the registry as JSON to path ("-" = stdout, ""
// = skip).
func writeMetricsJSON(path string, reg *obs.Registry) error {
	if path == "" {
		return nil
	}
	if path == "-" {
		return reg.WriteJSON(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := reg.WriteJSON(f); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d metric families)\n", path, len(reg.Snapshot()))
	return nil
}

// collectSnapshot trains one system on the named benchmark dataset and
// times the deployment-relevant paths: batch unit generation (ProcessAll),
// single record prediction and explanation, plus the Contextualize and
// Discover micro-paths that dominate them.
func collectSnapshot(dataset string, scale float64, seed int64) (perfSnapshot, *obs.Registry, error) {
	var snap perfSnapshot
	reg := obs.NewRegistry()
	if dataset == "" {
		dataset = "S-FZ"
	}
	d, ok := wym.DatasetByKey(dataset, scale)
	if !ok {
		return snap, reg, fmt.Errorf("unknown dataset %q", dataset)
	}
	train, valid, test, err := d.Split(0.6, 0.2, seed)
	if err != nil {
		return snap, reg, err
	}
	sys, err := wym.Train(train, valid, wym.DefaultConfig())
	if err != nil {
		return snap, reg, err
	}

	snap = perfSnapshot{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Dataset:    dataset,
		Scale:      scale,
		Seed:       seed,
		Benchmarks: map[string]benchResult{},
	}
	record := func(name string, fn func(b *testing.B)) {
		r := testing.Benchmark(fn)
		snap.Benchmarks[name] = benchResult{
			NsPerOp:     float64(r.NsPerOp()),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
			Iterations:  r.N,
		}
	}

	// The deployment paths are timed through the pipeline engine — the
	// surface every binary serves from — so the numbers measure what
	// production code actually runs. The engine is instrumented with the
	// full metrics bundle on purpose: the committed baseline then times
	// the observed hot path, and -bench-guard holds the instrumentation
	// overhead to the same regression budget as any other change.
	eng := sys.Engine()
	eng.SetMetrics(pipeline.NewMetrics(reg))
	record("ProcessAll", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			eng.ProcessAll(test)
		}
	})
	record("Predict", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			eng.Predict(test.Pairs[i%test.Size()])
		}
	})
	record("Explain", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			eng.Explain(test.Pairs[i%test.Size()])
		}
	})

	// Audited predict: the serve-side audit path — process once, predict
	// and explain from the same record, compact the decision units and
	// append to a batched-fsync audit log. The cross-series gate in
	// guard.go holds the audit overhead inside the serving budget
	// (PredictAudited within 1.25x of the bare Predict).
	adir, err := os.MkdirTemp("", "wym-bench-audit")
	if err != nil {
		return snap, reg, err
	}
	defer os.RemoveAll(adir)
	alog, err := audit.Open(adir, audit.Options{FlushEvery: 200 * time.Millisecond})
	if err != nil {
		return snap, reg, err
	}
	defer alog.Close()
	record("PredictAudited", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p := test.Pairs[i%test.Size()]
			start := time.Now()
			// One scoring pass: the explanation carries the prediction, so
			// the audited server answers from ExplainRecord directly.
			ex := eng.ExplainRecord(eng.Process(p))
			if err := alog.Append(audit.Record{
				RequestID: "bench-" + strconv.Itoa(i), TimeNanos: start.UnixNano(),
				Route: "/predict", Model: "bench",
				Left: p.Left, Right: p.Right,
				Prediction: ex.Prediction, Proba: ex.Proba, Threshold: sys.DecisionThreshold(),
				Units:        audit.CompactUnits(ex),
				LatencyNanos: int64(time.Since(start)),
			}); err != nil {
				b.Fatal(err)
			}
		}
	})

	// Model-format paths: cold-start load of the gob snapshot vs the
	// mmap-able arena, and the serving predict path on the arena-backed
	// system (zero-copy vectors + the float32 FastNN scorer). The
	// cross-series gates in guard.go hold the arena to its contract —
	// load ≥10x faster than gob, predict ≥2x faster than the gob-backed
	// engine — so the ratios are enforced, not just recorded.
	dir, err := os.MkdirTemp("", "wym-bench-model")
	if err != nil {
		return snap, reg, err
	}
	defer os.RemoveAll(dir)
	gobPath := filepath.Join(dir, "model.gob")
	arenaPath := filepath.Join(dir, "model.wyma")
	if err := sys.SaveFile(gobPath); err != nil {
		return snap, reg, err
	}
	if err := sys.SaveArenaFile(arenaPath, wym.ArenaOptions{}); err != nil {
		return snap, reg, err
	}
	record("ModelLoadGob", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := wym.LoadSystem(gobPath); err != nil {
				b.Fatal(err)
			}
		}
	})
	record("ModelLoadArena", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := wym.LoadSystem(arenaPath); err != nil {
				b.Fatal(err)
			}
		}
	})
	arenaSys, err := wym.LoadSystem(arenaPath)
	if err != nil {
		return snap, reg, err
	}
	arenaEng := arenaSys.Engine()
	arenaEng.SetMetrics(pipeline.NewMetrics(reg))
	record("ArenaPredict", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			arenaEng.Predict(test.Pairs[i%test.Size()])
		}
	})

	// Table-scale matching paths: the streaming blocking index (shard
	// build + probe over a full table pair) and a complete chunked match
	// job — blocking, batch prediction, segment writes, and the manifest
	// discipline — on tables generated from the same profile the system
	// was trained on.
	profile, ok := datagen.ProfileByKey(dataset)
	if !ok {
		return snap, reg, fmt.Errorf("unknown dataset %q", dataset)
	}
	tables := datagen.GenerateTables(profile, 300, 0.2)
	scfg := blocking.DefaultStreamConfig()
	scfg.MaxDF = 0.05
	scfg.MemoryBudget = 1 << 20
	scfg.TopK = 20
	record("BlockingIndex", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s, err := blocking.NewStreamer(tables.Left, tables.Right, scfg)
			if err != nil {
				b.Fatal(err)
			}
			for start := 0; start < len(tables.Left); start += 100 {
				end := start + 100
				if end > len(tables.Left) {
					end = len(tables.Left)
				}
				if _, err := s.Chunk(start, end); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	jobTables := datagen.GenerateTables(profile, 150, 0.2)
	record("MatchJob", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			jdir, err := os.MkdirTemp(dir, "job")
			if err != nil {
				b.Fatal(err)
			}
			// One session per job, as `wym match` runs it.
			r, err := matchjob.New(eng.Session(), jobTables.Left, jobTables.Right, matchjob.Config{
				ChunkSize: 50,
				Blocking:  scfg,
				Dir:       jdir,
				Out:       filepath.Join(jdir, "out.csv"),
			})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := r.Run(context.Background()); err != nil {
				b.Fatal(err)
			}
		}
	})

	// Micro-paths, on a self-contained embedding stack so the numbers do
	// not depend on the trained system's internals.
	var corpus [][]string
	for _, p := range train.Pairs {
		corpus = append(corpus,
			tokenize.Texts(tokenize.Entity(p.Left, tokenize.Default)),
			tokenize.Texts(tokenize.Entity(p.Right, tokenize.Default)))
	}
	src := embed.NewCache(embed.NewConcat(embed.NewHash(), embed.TrainCooc(corpus, embed.DefaultCoocConfig())))
	pair := widestPair(test)
	lt := tokenize.Entity(pair.Left, tokenize.Default)
	rt := tokenize.Entity(pair.Right, tokenize.Default)
	ltexts, rtexts := tokenize.Texts(lt), tokenize.Texts(rt)

	record("Contextualize", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			embed.Contextualize(src, ltexts, 0.15)
		}
	})
	in := units.Input{
		Left: lt, Right: rt,
		LeftVecs:  embed.Contextualize(src, ltexts, 0.15),
		RightVecs: embed.Contextualize(src, rtexts, 0.15),
		NumAttrs:  len(d.Schema),
	}
	record("Discover", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			units.Discover(in, units.PaperThresholds)
		}
	})
	return snap, reg, nil
}

// widestPair returns the record pair with the most tokens, the
// representative load for the per-record micro benchmarks.
func widestPair(d *wym.Dataset) wym.Pair {
	best, bestN := d.Pairs[0], -1
	for _, p := range d.Pairs {
		n := len(tokenize.Entity(p.Left, tokenize.Default)) +
			len(tokenize.Entity(p.Right, tokenize.Default))
		if n > bestN {
			best, bestN = p, n
		}
	}
	return best
}
