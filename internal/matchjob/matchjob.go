// Package matchjob runs full-table entity matching as a crash-safe batch
// job: blocking + batch prediction over the left table in fixed-size
// chunks, each chunk's results written to its own segment file and
// recorded in a WYMJOB manifest; every file the job writes is replaced
// atomically and fsync'd (internal/durable). A kill at any point
// loses at most the in-flight chunk; -resume verifies the manifest's
// fingerprints and each segment's SHA-256, then continues after the last
// valid chunk. Because the blocking stream emits a budget-independent,
// deterministic candidate set and prediction is deterministic in the
// model, an interrupted-and-resumed job produces byte-identical output to
// an uninterrupted one.
package matchjob

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"strconv"
	"time"

	"wym/internal/audit"
	"wym/internal/blocking"
	"wym/internal/data"
	"wym/internal/durable"
	"wym/internal/pipeline"
)

// Predictor is the prediction engine the job drives: pipeline.Engine
// satisfies it, and tests substitute fakes.
type Predictor interface {
	PredictBatch(ctx context.Context, pairs []data.Pair) []pipeline.Prediction
}

// Explainer is the additional engine capability audit recording needs;
// pipeline.Engine satisfies it.
type Explainer interface {
	Explain(p data.Pair) pipeline.Explanation
}

// AuditMeta is the model provenance stamped on every audit record a job
// writes.
type AuditMeta struct {
	Model      string  // model artifact path or registry name
	ArtifactFP string  // artifact fingerprint ("fnv64:...")
	FeedbackFP string  // folded-feedback fingerprint ("" when none)
	Threshold  float64 // decision threshold in force
	Route      string  // "match" or "dedup"
}

// Config tunes one matching job.
type Config struct {
	// ChunkSize is the number of left rows per chunk (default 1000). The
	// chunk is the unit of checkpointing: a kill loses at most one.
	ChunkSize int
	// Blocking configures candidate generation, including the index
	// memory budget and the top-k-per-record cap.
	Blocking blocking.StreamConfig
	// Dedup blocks the left table against itself (Left < Right pairs
	// only); the right table passed to New is ignored.
	Dedup bool
	// All emits every scored candidate instead of only match decisions.
	All bool
	// Dir is the job directory holding the manifest and result segments.
	Dir string
	// Out is the merged output CSV written when the job completes.
	Out string
	// Resume validates an existing manifest and skips verified chunks
	// instead of failing on leftover job state.
	Resume bool
	// ModelSum fingerprints the model so a resume with a different model
	// is rejected; callers hash the model file (FNV-64a).
	ModelSum uint64
	// Throttle pauses after each processed chunk. It paces the job (for
	// tests and load-shaping) and is excluded from the config
	// fingerprint: changing it never invalidates a resume.
	Throttle time.Duration
	// Metrics, when non-nil, receives the runner's counters, the index
	// gauge, and the per-chunk latency histogram.
	Metrics *Metrics
	// Audit, when non-nil, records every emitted decision with its
	// decision-unit explanation. Records for a chunk are appended only
	// after that chunk's manifest entry is durable, so a resumed job
	// never double-records a replayed chunk, even after a power loss
	// (at-most-once: a crash between the manifest write and the audit
	// flush loses that chunk's records).
	// Requires the engine to implement Explainer.
	Audit *audit.Log
	// AuditMeta describes the model behind the audit records.
	AuditMeta AuditMeta
}

// RowError is one candidate pair that stayed quarantined after the chunk
// retry; the pair is skipped in the output and reported in the summary.
type RowError struct {
	Chunk       int
	Left, Right int
	Err         string
}

// Summary reports a finished (or cleanly interrupted) job.
type Summary struct {
	TotalChunks   int
	ChunksDone    int // processed in this run
	ChunksResumed int // skipped: already valid in the manifest
	ChunksRetried int
	Candidates    int64 // includes resumed chunks' recorded counts
	Pruned        int64 // top-k-capped pairs (this run only)
	Matches       int64
	RowErrors     int
	// RowErrorSamples holds the first few quarantined pairs for the job
	// report; RowErrors is the full count.
	RowErrorSamples []RowError
	// PeakIndexBytes is the blocking index's peak resident size.
	PeakIndexBytes int64
	// AuditRecords counts decisions recorded into the audit log in this
	// run (resumed chunks contribute nothing: they were recorded when
	// they first committed).
	AuditRecords int64
	// Interrupted is true when the job stopped at a chunk boundary after
	// context cancellation; the manifest makes the run resumable.
	Interrupted bool
}

const maxRowErrorSamples = 10

// Runner executes one full-table matching job.
type Runner struct {
	eng     Predictor
	explain Explainer // non-nil iff cfg.Audit is
	left    []data.Entity
	right   []data.Entity
	cfg     Config
}

// New prepares a job over two tables (or one, with cfg.Dedup). The tables
// and configuration are fingerprinted here; Run compares them against any
// existing manifest.
func New(eng Predictor, left, right []data.Entity, cfg Config) (*Runner, error) {
	if eng == nil {
		return nil, fmt.Errorf("matchjob: nil engine")
	}
	if cfg.Dir == "" || cfg.Out == "" {
		return nil, fmt.Errorf("matchjob: Dir and Out are required")
	}
	if cfg.ChunkSize == 0 {
		cfg.ChunkSize = 1000
	}
	if cfg.ChunkSize < 0 {
		return nil, fmt.Errorf("matchjob: negative ChunkSize %d", cfg.ChunkSize)
	}
	if cfg.Dedup {
		right = left
		cfg.Blocking.Self = true
	}
	if cfg.Metrics == nil {
		// An empty bundle's nil fields are nil-safe, so instrumentation
		// sites need no guards.
		cfg.Metrics = &Metrics{}
	}
	var explain Explainer
	if cfg.Audit != nil {
		var ok bool
		if explain, ok = eng.(Explainer); !ok {
			return nil, fmt.Errorf("matchjob: Audit requires an engine that can Explain")
		}
	}
	// Surface blocking config errors before any job state is created.
	if _, err := blocking.NewStreamer(left, right, cfg.Blocking); err != nil {
		return nil, err
	}
	return &Runner{eng: eng, explain: explain, left: left, right: right, cfg: cfg}, nil
}

// Run executes the job: resume validation, the chunk loop, and the final
// merge. Context cancellation is observed at chunk boundaries only — the
// in-flight chunk always drains, its segment and manifest entry are
// written, and Run returns a Summary with Interrupted set and a nil
// error. The caller restarts with Resume to continue.
func (r *Runner) Run(ctx context.Context) (*Summary, error) {
	cfg := r.cfg
	m := cfg.Metrics
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("matchjob: creating job dir: %w", err)
	}
	cfgSum := fingerprintConfig(cfg)
	leftSum := fingerprintTable(r.left)
	rightSum := fingerprintTable(r.right)

	man, err := loadManifest(cfg.Dir, cfgSum, leftSum, rightSum)
	if err != nil {
		return nil, err
	}
	switch {
	case man != nil && !cfg.Resume:
		return nil, fmt.Errorf("matchjob: job dir %s already has a manifest; pass Resume to continue it", cfg.Dir)
	case man == nil:
		man = &manifest{Magic: manifestMagic, Version: manifestVersion,
			CfgSum: cfgSum, LeftSum: leftSum, RightSum: rightSum}
	}

	stream, err := blocking.NewStreamer(r.left, r.right, cfg.Blocking)
	if err != nil {
		return nil, err
	}

	total := (len(r.left) + cfg.ChunkSize - 1) / cfg.ChunkSize
	sum := &Summary{TotalChunks: total, ChunksResumed: len(man.Chunks)}
	for _, c := range man.Chunks {
		sum.Candidates += int64(c.Candidates)
		sum.Matches += int64(c.Matches)
		sum.RowErrors += c.RowErrors
		m.ChunksResumed.Inc()
	}

	for id := len(man.Chunks); id < total; id++ {
		if ctx.Err() != nil {
			sum.Interrupted = true
			return sum, nil
		}
		start := id * cfg.ChunkSize
		end := start + cfg.ChunkSize
		if end > len(r.left) {
			end = len(r.left)
		}
		chunkStart := time.Now()
		rec, emitted, err := r.runChunk(ctx, stream, id, start, end, sum)
		if err != nil {
			return nil, err
		}
		man.Chunks = append(man.Chunks, rec)
		if err := writeManifest(cfg.Dir, man); err != nil {
			return nil, err
		}
		// Audit after the manifest commit: a chunk the manifest owns is
		// never re-run, so its decisions are recorded at most once.
		if cfg.Audit != nil {
			n, err := r.auditChunk(id, emitted)
			sum.AuditRecords += n
			if err != nil {
				return nil, err
			}
		}
		m.ChunksDone.Inc()
		m.ChunkSeconds.Observe(time.Since(chunkStart).Seconds())
		m.IndexBytes.Set(stream.Stats().PeakIndexBytes)
		sum.ChunksDone++
		sum.Candidates += int64(rec.Candidates)
		sum.Matches += int64(rec.Matches)
		sum.RowErrors += rec.RowErrors
		if cfg.Throttle > 0 {
			time.Sleep(cfg.Throttle)
		}
	}
	sum.Pruned = stream.Stats().Pruned
	sum.PeakIndexBytes = stream.Stats().PeakIndexBytes

	if err := r.merge(man); err != nil {
		return nil, err
	}
	if !man.Done {
		man.Done = true
		if err := writeManifest(cfg.Dir, man); err != nil {
			return nil, err
		}
	}
	return sum, nil
}

// emittedRow is one decision a chunk wrote to its segment, kept for
// audit recording after the chunk commits.
type emittedRow struct {
	Left, Right int
	Label       int
	Proba       float64
}

// runChunk blocks one left range, predicts the candidates, and writes the
// chunk's result segment atomically. Quarantined predictions trigger one
// whole-chunk retry; pairs still failing are skipped and reported. When
// auditing, the emitted rows are returned for post-commit recording.
func (r *Runner) runChunk(ctx context.Context, stream *blocking.Streamer, id, start, end int, sum *Summary) (chunkRecord, []emittedRow, error) {
	cfg := r.cfg
	cs, err := stream.Chunk(start, end)
	if err != nil {
		return chunkRecord{}, nil, err
	}
	var cands []blocking.Candidate
	for {
		c, ok := cs.Next()
		if !ok {
			break
		}
		cands = append(cands, c)
	}
	cfg.Metrics.CandidatesEmitted.Add(uint64(len(cands)))

	pairs := make([]data.Pair, len(cands))
	for i, c := range cands {
		pairs[i] = data.Pair{ID: i, Left: r.left[c.Left], Right: r.right[c.Right]}
	}
	// The in-flight chunk always drains: prediction runs on an
	// uncancelable child so SIGINT stops the job at the next boundary
	// with this chunk's work saved, not thrown away.
	predCtx := context.WithoutCancel(ctx)
	preds := r.eng.PredictBatch(predCtx, pairs)
	if quarantined(preds) {
		cfg.Metrics.ChunksRetried.Inc()
		sum.ChunksRetried++
		preds = r.eng.PredictBatch(predCtx, pairs)
	}

	rec := chunkRecord{ID: id, Start: start, End: end, Candidates: len(cands)}
	var buf bytes.Buffer
	var emitted []emittedRow
	for i, p := range preds {
		if p.Err != "" {
			rec.RowErrors++
			cfg.Metrics.RowErrors.Inc()
			if len(sum.RowErrorSamples) < maxRowErrorSamples {
				sum.RowErrorSamples = append(sum.RowErrorSamples,
					RowError{Chunk: id, Left: cands[i].Left, Right: cands[i].Right, Err: p.Err})
			}
			continue
		}
		if p.Label == data.Match {
			rec.Matches++
			cfg.Metrics.Matches.Inc()
		} else if !cfg.All {
			continue
		}
		buf.WriteString(strconv.Itoa(cands[i].Left))
		buf.WriteByte(',')
		buf.WriteString(strconv.Itoa(cands[i].Right))
		buf.WriteByte(',')
		buf.WriteString(strconv.Itoa(p.Label))
		buf.WriteByte(',')
		buf.WriteString(strconv.FormatFloat(p.Proba, 'f', 6, 64))
		buf.WriteByte('\n')
		if cfg.Audit != nil {
			emitted = append(emitted, emittedRow{
				Left: cands[i].Left, Right: cands[i].Right,
				Label: p.Label, Proba: p.Proba,
			})
		}
	}
	sha, err := writeSegment(cfg.Dir, id, buf.Bytes())
	if err != nil {
		return chunkRecord{}, nil, err
	}
	rec.SHA256 = sha
	return rec, emitted, nil
}

// auditChunk records one committed chunk's emitted decisions, each with
// a freshly computed decision-unit explanation (prediction is
// deterministic in the model, so the explanation matches the emitted
// proba), and flushes the log at the chunk boundary. An audit failure
// fails the run; the job itself stays resumable from its manifest.
func (r *Runner) auditChunk(id int, emitted []emittedRow) (int64, error) {
	meta := r.cfg.AuditMeta
	var n int64
	for _, row := range emitted {
		p := data.Pair{Left: r.left[row.Left], Right: r.right[row.Right]}
		start := time.Now()
		ex := r.explain.Explain(p)
		rec := audit.Record{
			RequestID:    fmt.Sprintf("c%06d:p%d-%d", id, row.Left, row.Right),
			TimeNanos:    time.Now().UnixNano(),
			Route:        meta.Route,
			Model:        meta.Model,
			ArtifactFP:   meta.ArtifactFP,
			FeedbackFP:   meta.FeedbackFP,
			Left:         p.Left,
			Right:        p.Right,
			Prediction:   row.Label,
			Proba:        row.Proba,
			Threshold:    meta.Threshold,
			Units:        audit.CompactUnits(ex),
			LatencyNanos: int64(time.Since(start)),
		}
		if err := r.cfg.Audit.Append(rec); err != nil {
			return n, fmt.Errorf("matchjob: auditing chunk %d: %w", id, err)
		}
		n++
	}
	if err := r.cfg.Audit.Sync(); err != nil {
		return n, fmt.Errorf("matchjob: flushing audit log after chunk %d: %w", id, err)
	}
	return n, nil
}

// quarantined reports whether any prediction in the batch failed.
func quarantined(preds []pipeline.Prediction) bool {
	for _, p := range preds {
		if p.Err != "" {
			return true
		}
	}
	return false
}

// writeSegment writes one chunk's result rows atomically and durably
// and returns their SHA-256 hex digest.
func writeSegment(dir string, id int, payload []byte) (string, error) {
	err := durable.WriteFile(segmentPath(dir, id), 0o600, func(w io.Writer) error {
		_, err := w.Write(payload)
		return err
	})
	if err != nil {
		return "", fmt.Errorf("matchjob: writing segment %d: %w", id, err)
	}
	sum := sha256.Sum256(payload)
	return hex.EncodeToString(sum[:]), nil
}

// merge concatenates all segments, in chunk order, under a header row and
// replaces the output file atomically and durably. Merging is idempotent:
// a kill between merge and the final manifest write just re-merges on
// resume.
func (r *Runner) merge(man *manifest) error {
	err := durable.WriteFile(r.cfg.Out, 0o600, func(w io.Writer) error {
		if _, err := io.WriteString(w, "left,right,label,proba\n"); err != nil {
			return err
		}
		for _, c := range man.Chunks {
			seg, err := os.Open(segmentPath(r.cfg.Dir, c.ID))
			if err != nil {
				return fmt.Errorf("merging chunk %d: %w", c.ID, err)
			}
			_, err = io.Copy(w, seg)
			seg.Close()
			if err != nil {
				return fmt.Errorf("merging chunk %d: %w", c.ID, err)
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("matchjob: writing output: %w", err)
	}
	return nil
}

// ReadMatches loads a merged output file back as (left, right) index
// pairs — what eval's pair-quality metrics consume.
func ReadMatches(path string) ([][2]int, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("matchjob: %w", err)
	}
	var out [][2]int
	for i, line := range bytes.Split(raw, []byte{'\n'}) {
		if i == 0 || len(line) == 0 {
			continue
		}
		fields := bytes.SplitN(line, []byte{','}, 4)
		if len(fields) < 4 {
			return nil, fmt.Errorf("matchjob: %s line %d: malformed row %q", path, i+1, line)
		}
		li, err1 := strconv.Atoi(string(fields[0]))
		ri, err2 := strconv.Atoi(string(fields[1]))
		label, err3 := strconv.Atoi(string(fields[2]))
		if err1 != nil || err2 != nil || err3 != nil {
			return nil, fmt.Errorf("matchjob: %s line %d: malformed row %q", path, i+1, line)
		}
		if label == data.Match {
			out = append(out, [2]int{li, ri})
		}
	}
	return out, nil
}
