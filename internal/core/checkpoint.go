package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"

	"wym/internal/data"
	"wym/internal/durable"
	"wym/internal/embed"
	"wym/internal/relevance"
)

// Stage checkpoints: after each completed pipeline stage the trainer
// persists a gob snapshot of that stage's output so an interrupted run can
// resume without redoing finished work. Every checkpoint carries a magic
// string, a format version, fingerprints of the training configuration and
// of both dataset splits, and a SHA-256 of its payload. A checkpoint is
// loaded only when all of those match — a checkpoint written by a
// different config, different data, or a truncated write is silently
// recomputed (with a warning in the TrainReport), never trusted.

const (
	checkpointMagic   = "WYMCKPT"
	checkpointVersion = 1
)

// checkpointEnvelope is the on-disk frame around a stage payload.
type checkpointEnvelope struct {
	Magic   string
	Version int
	Stage   string
	CfgSum  uint64
	DataSum uint64
	PaySum  [sha256.Size]byte
	Payload []byte
}

// checkpointer writes and validates the per-stage checkpoints of one
// training run.
type checkpointer struct {
	dir     string
	cfgSum  uint64
	dataSum uint64
}

// newCheckpointer creates the checkpoint directory and fingerprints the
// run's configuration and datasets.
func newCheckpointer(dir string, cfg Config, train, valid *data.Dataset) (*checkpointer, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("core: creating checkpoint dir: %w", err)
	}
	return &checkpointer{
		dir:     dir,
		cfgSum:  fingerprintConfig(cfg),
		dataSum: fingerprintData(train, valid),
	}, nil
}

// fingerprintConfig hashes the persistable view of the configuration (the
// same shadow struct Save uses, so the Verbose callback is excluded).
func fingerprintConfig(cfg Config) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v", shadowOf(cfg))
	return h.Sum64()
}

// fingerprintData hashes the content of both splits: schema, pair order,
// labels, and every attribute value. Resuming against different data must
// invalidate every checkpoint.
func fingerprintData(sets ...*data.Dataset) uint64 {
	h := fnv.New64a()
	for _, d := range sets {
		if d == nil {
			fmt.Fprint(h, "<nil>\x00")
			continue
		}
		fmt.Fprintf(h, "%q\x00", d.Schema)
		for _, p := range d.Pairs {
			fmt.Fprintf(h, "%d\x1f%d\x1f%q\x1f%q\x00", p.ID, p.Label, p.Left, p.Right)
		}
	}
	return h.Sum64()
}

// path returns the checkpoint file for a stage. The numeric prefix keeps
// directory listings in pipeline order.
func (ck *checkpointer) path(st Stage) string {
	return filepath.Join(ck.dir, fmt.Sprintf("stage%d-%s.ckpt", int(st), st))
}

// save gob-encodes the payload, wraps it in a verified envelope, and
// writes it atomically and durably (durable.WriteFile) so a crash mid-write
// never leaves a half-checkpoint behind. A new checkpoint is readable by
// its owner only: it holds both splits' records. A nil checkpointer is a
// no-op, which lets Train call save unconditionally.
func (ck *checkpointer) save(st Stage, payload any) error {
	if ck == nil {
		return nil
	}
	var pay bytes.Buffer
	if err := gob.NewEncoder(&pay).Encode(payload); err != nil {
		return fmt.Errorf("core: encoding %s checkpoint: %w", st, err)
	}
	env := checkpointEnvelope{
		Magic:   checkpointMagic,
		Version: checkpointVersion,
		Stage:   st.String(),
		CfgSum:  ck.cfgSum,
		DataSum: ck.dataSum,
		PaySum:  sha256.Sum256(pay.Bytes()),
		Payload: pay.Bytes(),
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&env); err != nil {
		return fmt.Errorf("core: encoding %s checkpoint envelope: %w", st, err)
	}
	err := durable.WriteFile(ck.path(st), 0o600, func(w io.Writer) error {
		_, err := w.Write(buf.Bytes())
		return err
	})
	if err != nil {
		return fmt.Errorf("core: writing %s checkpoint: %w", st, err)
	}
	return nil
}

// load reads and verifies a stage checkpoint into payload. The bool
// reports whether a valid checkpoint was loaded; an invalid one returns
// (false, reason) and the caller recomputes the stage.
func (ck *checkpointer) load(st Stage, payload any) (bool, string) {
	if ck == nil {
		return false, ""
	}
	raw, err := os.ReadFile(ck.path(st))
	if err != nil {
		if os.IsNotExist(err) {
			return false, ""
		}
		return false, fmt.Sprintf("%s checkpoint unreadable: %v", st, err)
	}
	var env checkpointEnvelope
	if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&env); err != nil {
		return false, fmt.Sprintf("%s checkpoint corrupt: %v", st, err)
	}
	switch {
	case env.Magic != checkpointMagic:
		return false, fmt.Sprintf("%s checkpoint has wrong magic %q", st, env.Magic)
	case env.Version != checkpointVersion:
		return false, fmt.Sprintf("%s checkpoint has version %d, want %d", st, env.Version, checkpointVersion)
	case env.Stage != st.String():
		return false, fmt.Sprintf("%s checkpoint labeled %q", st, env.Stage)
	case env.CfgSum != ck.cfgSum:
		return false, fmt.Sprintf("%s checkpoint was written by a different configuration", st)
	case env.DataSum != ck.dataSum:
		return false, fmt.Sprintf("%s checkpoint was written for different data", st)
	case env.PaySum != sha256.Sum256(env.Payload):
		return false, fmt.Sprintf("%s checkpoint payload fails its integrity check", st)
	}
	if err := gob.NewDecoder(bytes.NewReader(env.Payload)).Decode(payload); err != nil {
		return false, fmt.Sprintf("%s checkpoint payload corrupt: %v", st, err)
	}
	return true, ""
}

// warn records a rejected-checkpoint reason on the report.
func warn(report *TrainReport, reason string) {
	if reason != "" {
		report.CheckpointWarnings = append(report.CheckpointWarnings, reason)
	}
}

// --- per-stage payloads ---------------------------------------------------

// embedPayload wraps the embedding source so the gob interface machinery
// (embed.Source concrete types are registered in embed/gob.go) applies.
type embedPayload struct {
	Source embed.Source
}

func (ck *checkpointer) saveEmbeddings(src embed.Source) error {
	return ck.save(StageEmbeddings, &embedPayload{Source: src})
}

func (ck *checkpointer) loadEmbeddings(report *TrainReport) (embed.Source, bool) {
	var p embedPayload
	ok, reason := ck.load(StageEmbeddings, &p)
	warn(report, reason)
	if !ok || p.Source == nil {
		return nil, false
	}
	return p.Source, true
}

// recsSnapshot stores one split's processed records. Quarantined entries
// are nil in the live slice, which gob cannot encode inside a pointer
// slice, so the snapshot keeps only the non-nil records plus their
// indices and rebuilds the sparse slice on load.
type recsSnapshot struct {
	N           int
	Indices     []int
	Recs        []*relevance.Record
	Quarantined []RecordError
}

func snapshotRecs(recs []*relevance.Record, quarantined []RecordError) recsSnapshot {
	snap := recsSnapshot{N: len(recs), Quarantined: quarantined}
	for i, rec := range recs {
		if rec != nil {
			snap.Indices = append(snap.Indices, i)
			snap.Recs = append(snap.Recs, rec)
		}
	}
	return snap
}

func (snap recsSnapshot) restore() []*relevance.Record {
	recs := make([]*relevance.Record, snap.N)
	for k, i := range snap.Indices {
		if i >= 0 && i < snap.N && k < len(snap.Recs) {
			recs[i] = snap.Recs[k]
		}
	}
	return recs
}

// unitsPayload stores both splits' processed records and quarantine lists.
type unitsPayload struct {
	Train recsSnapshot
	Valid recsSnapshot
}

func (ck *checkpointer) saveUnits(trainRecs, validRecs []*relevance.Record, report *TrainReport) error {
	return ck.save(StageUnits, &unitsPayload{
		Train: snapshotRecs(trainRecs, report.QuarantinedTrain),
		Valid: snapshotRecs(validRecs, report.QuarantinedValid),
	})
}

// loadUnits restores both splits' records; the checkpointed quarantine
// lists are merged into the report so a resumed run reports the same
// exclusions as the original.
func (ck *checkpointer) loadUnits(report *TrainReport) (trainRecs, validRecs []*relevance.Record, ok bool) {
	var p unitsPayload
	ok, reason := ck.load(StageUnits, &p)
	warn(report, reason)
	if !ok {
		return nil, nil, false
	}
	report.QuarantinedTrain = p.Train.Quarantined
	report.QuarantinedValid = p.Valid.Quarantined
	return p.Train.restore(), p.Valid.restore(), true
}

// scorerPayload wraps the fitted relevance scorer.
type scorerPayload struct {
	Scorer relevance.Scorer
}

func (ck *checkpointer) saveScorer(sc relevance.Scorer) error {
	return ck.save(StageScorer, &scorerPayload{Scorer: sc})
}

func (ck *checkpointer) loadScorer(report *TrainReport) (relevance.Scorer, bool) {
	var p scorerPayload
	ok, reason := ck.load(StageScorer, &p)
	warn(report, reason)
	if !ok || p.Scorer == nil {
		return nil, false
	}
	return p.Scorer, true
}

// saveModel checkpoints the fully fitted system — the same snapshot
// Save/Load use — so a finished run resumes in a single load.
func (ck *checkpointer) saveModel(s *System) error {
	if ck == nil {
		return nil
	}
	return ck.save(StageModel, s.snapshot())
}

// loadModel restores the model checkpoint through the same checks Load
// applies; a snapshot that fails them is recomputed, with a warning.
func (ck *checkpointer) loadModel(report *TrainReport) (*System, bool) {
	var snap systemSnapshot
	ok, reason := ck.load(StageModel, &snap)
	warn(report, reason)
	if !ok {
		return nil, false
	}
	s, err := fromSnapshot(&snap)
	if err != nil {
		warn(report, fmt.Sprintf("%s checkpoint rejected: %v", StageModel, err))
		return nil, false
	}
	return s, true
}
