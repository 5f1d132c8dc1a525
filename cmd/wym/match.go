package main

import (
	"context"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"strconv"
	"strings"
	"time"

	"wym"
	"wym/internal/audit"
	"wym/internal/blocking"
	"wym/internal/data"
	"wym/internal/eval"
	"wym/internal/matchjob"
)

// matchOptions carries the parsed command line of `wym match` / `wym dedup`.
type matchOptions struct {
	left, right string // match mode
	in          string // dedup mode
	model       string
	out         string
	job         string
	resume      bool
	chunk       int
	topK        int
	indexMemMB  int
	maxDF       float64
	minShared   int
	jaccard     float64
	attrs       string
	all         bool
	throttle    time.Duration
	truth       string
	verbose     bool
	auditDir    string
}

// runMatchCmd implements both table-matching subcommands. name is "match"
// (two tables) or "dedup" (one table against itself).
func runMatchCmd(ctx context.Context, name string, args []string) error {
	fs := flag.NewFlagSet("wym "+name, flag.ExitOnError)
	var o matchOptions
	if name == "dedup" {
		fs.StringVar(&o.in, "in", "", "entity table CSV to deduplicate (header = attribute names)")
	} else {
		fs.StringVar(&o.left, "left", "", "left entity table CSV (header = attribute names)")
		fs.StringVar(&o.right, "right", "", "right entity table CSV")
	}
	fs.StringVar(&o.model, "model", "", "trained model file (wym train -save)")
	fs.StringVar(&o.out, "out", "matches.csv", "merged output CSV (left,right,label,proba)")
	fs.StringVar(&o.job, "job", "", "job directory for the manifest and chunk segments (default <out>.job)")
	fs.BoolVar(&o.resume, "resume", false, "resume an interrupted job from its manifest, skipping verified chunks")
	fs.IntVar(&o.chunk, "chunk", 1000, "left rows per chunk (the unit of checkpointing)")
	fs.IntVar(&o.topK, "topk", 50, "keep at most k candidates per left row (0 = unlimited)")
	fs.IntVar(&o.indexMemMB, "index-mem-mb", 64, "blocking index memory budget in MiB (0 = unbounded)")
	fs.Float64Var(&o.maxDF, "max-df", 0.1, "prune tokens appearing in more than this fraction of either table")
	fs.IntVar(&o.minShared, "min-shared", 1, "shared index tokens required for a candidate pair")
	fs.Float64Var(&o.jaccard, "jaccard", 0, "drop candidates with whole-record Jaccard below this floor (0 = off)")
	fs.StringVar(&o.attrs, "attrs", "", "comma-separated attribute indices to index (default all)")
	fs.BoolVar(&o.all, "all", false, "emit every scored candidate, not only match decisions")
	fs.DurationVar(&o.throttle, "throttle", 0, "pause after each chunk (pacing; never invalidates a resume)")
	fs.StringVar(&o.truth, "truth", "", "ground-truth pair CSV (left,right) to score the run against")
	fs.StringVar(&o.auditDir, "audit", "", "record every emitted decision (with its explanation) into this audit log directory; query with wym audit")
	fs.BoolVar(&o.verbose, "v", false, "report each chunk as it completes")
	fs.Parse(args)

	if o.chunk < 1 {
		return fmt.Errorf("-chunk must be at least 1, not %d", o.chunk)
	}
	if o.model == "" {
		return fmt.Errorf("pass -model <file> (train one with: wym train -dataset S-FZ -save matcher.gob)")
	}
	if o.job == "" {
		o.job = o.out + ".job"
	}

	var left, right *wym.Table
	var err error
	if name == "dedup" {
		if o.in == "" {
			return fmt.Errorf("pass -in <table.csv>")
		}
		if left, err = wym.LoadTable(o.in); err != nil {
			return err
		}
		right = left
	} else {
		if o.left == "" || o.right == "" {
			return fmt.Errorf("pass -left <table.csv> and -right <table.csv>")
		}
		if left, err = wym.LoadTable(o.left); err != nil {
			return err
		}
		if right, err = wym.LoadTable(o.right); err != nil {
			return err
		}
	}
	fmt.Printf("left table %s: %d rows, schema %v\n", left.Name, len(left.Rows), left.Schema)
	if name != "dedup" {
		fmt.Printf("right table %s: %d rows, schema %v\n", right.Name, len(right.Rows), right.Schema)
	}

	sys, err := wym.LoadSystem(o.model)
	if err != nil {
		return err
	}
	modelSum, err := fileFNV(o.model)
	if err != nil {
		return err
	}
	fmt.Printf("model %s (classifier %s)\n", o.model, sys.ModelName())

	bcfg, err := o.blockingConfig(name == "dedup")
	if err != nil {
		return err
	}
	cfg := matchjob.Config{
		ChunkSize: o.chunk,
		Blocking:  bcfg,
		All:       o.all,
		Dir:       o.job,
		Out:       o.out,
		Resume:    o.resume,
		ModelSum:  modelSum,
		Throttle:  o.throttle,
	}
	if o.auditDir != "" {
		alog, err := audit.Open(o.auditDir, audit.Options{})
		if err != nil {
			return err
		}
		defer alog.Close()
		cfg.Audit = alog
		cfg.AuditMeta = matchjob.AuditMeta{
			Model:      o.model,
			ArtifactFP: fmt.Sprintf("fnv64:%016x", modelSum),
			FeedbackFP: sys.FeedbackFingerprint(),
			Threshold:  sys.DecisionThreshold(),
			Route:      name,
		}
		fmt.Printf("audit: recording decisions under %s\n", o.auditDir)
	}
	runner, err := matchjob.New(sys.Engine(), left.Rows, right.Rows, cfg)
	if err != nil {
		return err
	}
	totalChunks := (len(left.Rows) + o.chunk - 1) / o.chunk
	fmt.Printf("job: %d chunks of %d rows (index budget %d MiB, top-k %d)\n",
		totalChunks, o.chunk, o.indexMemMB, o.topK)

	start := time.Now()
	sum, err := runner.Run(ctx)
	if err != nil {
		return err
	}
	if o.verbose {
		fmt.Printf("chunks: %d done, %d resumed, %d retried (%v)\n",
			sum.ChunksDone, sum.ChunksResumed, sum.ChunksRetried, time.Since(start).Round(time.Millisecond))
	}
	if sum.Interrupted {
		fmt.Printf("interrupted: %d/%d chunks done — resumable with -resume\n",
			sum.ChunksDone+sum.ChunksResumed, sum.TotalChunks)
		return nil
	}

	fmt.Printf("matched: %d pairs from %d candidates (%d row errors)\n",
		sum.Matches, sum.Candidates, sum.RowErrors)
	for _, re := range sum.RowErrorSamples {
		fmt.Fprintf(os.Stderr, "wym: chunk %d pair (%d,%d) quarantined: %s\n", re.Chunk, re.Left, re.Right, re.Err)
	}
	fmt.Printf("blocking: peak index %d bytes, %d candidates pruned by top-k\n",
		sum.PeakIndexBytes, sum.Pruned)
	if o.auditDir != "" {
		fmt.Printf("audit: %d decisions recorded under %s\n", sum.AuditRecords, o.auditDir)
	}

	if o.truth != "" {
		if err := reportQuality(o, bcfg, left.Rows, right.Rows); err != nil {
			return err
		}
	}
	fmt.Printf("output: %s (job dir %s)\n", o.out, o.job)
	return nil
}

// blockingConfig assembles the stream configuration from the flags.
func (o matchOptions) blockingConfig(self bool) (blocking.StreamConfig, error) {
	cfg := blocking.StreamConfig{
		Config: blocking.Config{
			MaxDF:        o.maxDF,
			MinShared:    o.minShared,
			JaccardFloor: o.jaccard,
		},
		MemoryBudget: int64(o.indexMemMB) << 20,
		TopK:         o.topK,
		Self:         self,
	}
	if o.attrs != "" {
		for _, f := range strings.Split(o.attrs, ",") {
			a, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil {
				return cfg, fmt.Errorf("bad -attrs entry %q: %w", f, err)
			}
			cfg.Attrs = append(cfg.Attrs, a)
		}
	}
	return cfg, nil
}

// reportQuality scores the finished run against a ground-truth pair list:
// recall of blocking (the candidate ceiling) and pair quality of the
// emitted matches.
func reportQuality(o matchOptions, bcfg blocking.StreamConfig, left, right []data.Entity) error {
	truth, err := wym.LoadTruth(o.truth)
	if err != nil {
		return err
	}
	// One extra streaming pass over the tables recovers the candidate
	// set for recall-of-blocking without the job having to retain it.
	s, err := blocking.NewStreamer(left, right, bcfg)
	if err != nil {
		return err
	}
	truthSet := make(map[[2]int]bool, len(truth))
	for _, p := range truth {
		truthSet[p] = true
	}
	var hits [][2]int
	for startRow := 0; startRow < len(left); startRow += o.chunk {
		end := startRow + o.chunk
		if end > len(left) {
			end = len(left)
		}
		cands, err := s.Chunk(startRow, end)
		if err != nil {
			return err
		}
		for _, c := range cands {
			if truthSet[[2]int{c.Left, c.Right}] {
				hits = append(hits, [2]int{c.Left, c.Right})
			}
		}
	}
	fmt.Printf("recall of blocking: %.3f (%d truth pairs)\n",
		eval.BlockingRecall(hits, truth), len(truth))

	matches, err := matchjob.ReadMatches(o.out)
	if err != nil {
		return err
	}
	q := eval.NewPairQuality(matches, truth)
	fmt.Printf("pair quality: precision %.3f recall %.3f F1 %.3f\n",
		q.Precision(), q.Recall(), q.F1())
	return nil
}

// fileFNV fingerprints a file's contents (FNV-64a) — the model identity
// recorded in the job manifest.
func fileFNV(path string) (uint64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	h := fnv.New64a()
	h.Write(raw)
	return h.Sum64(), nil
}
