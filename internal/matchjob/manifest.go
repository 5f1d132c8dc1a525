package matchjob

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"

	"wym/internal/data"
	"wym/internal/durable"
)

const (
	manifestMagic   = "WYMJOB"
	manifestVersion = 1
	manifestName    = "job.json"
)

// ErrManifestMismatch is returned when -resume finds a manifest written
// by a different job: other tables, another configuration, or another
// model. Resuming such a run would silently mix outputs, so the mismatch
// is a named, checkable failure.
var ErrManifestMismatch = errors.New("matchjob: manifest does not match this job")

// chunkRecord is one completed chunk in the manifest: its half-open left
// range, its counts, and the SHA-256 of its result segment so resume can
// detect a truncated or corrupted segment file.
type chunkRecord struct {
	ID         int    `json:"id"`
	Start      int    `json:"start"`
	End        int    `json:"end"`
	Candidates int    `json:"candidates"`
	Matches    int    `json:"matches"`
	RowErrors  int    `json:"row_errors"`
	SHA256     string `json:"sha256"`
}

// manifest is the WYMJOB job state, serialized as JSON and rewritten
// atomically and durably after every chunk. A kill or a power loss at
// any point leaves either the previous manifest or the new one — never
// a torn file — so at most one chunk of work is lost.
type manifest struct {
	Magic   string `json:"magic"`
	Version int    `json:"version"`
	// CfgSum fingerprints the job configuration (chunking, blocking knobs,
	// output mode, model); LeftSum/RightSum fingerprint the two input
	// tables. All three must match for a resume to be valid.
	CfgSum   uint64        `json:"cfg_sum"`
	LeftSum  uint64        `json:"left_sum"`
	RightSum uint64        `json:"right_sum"`
	Chunks   []chunkRecord `json:"chunks"`
	Done     bool          `json:"done"`
}

// fingerprintConfig hashes the parts of the configuration that determine
// the job's output. Throttle is excluded: it only paces chunks and must
// not invalidate a resume. The text is fixed: a change to it makes
// -resume refuse every existing job directory.
func fingerprintConfig(cfg Config) uint64 {
	h := fnv.New64a()
	b := cfg.Blocking
	fmt.Fprintf(h, "chunk=%d dedup=%t all=%t model=%d", cfg.ChunkSize, b.Self, cfg.All, cfg.ModelSum)
	fmt.Fprintf(h, " maxdf=%v minshared=%d jaccard=%v attrs=%v budget=%d topk=%d",
		b.MaxDF, b.MinShared, b.JaccardFloor, b.Attrs, b.MemoryBudget, b.TopK)
	return h.Sum64()
}

// fingerprintTable hashes every attribute value of a table in row order.
func fingerprintTable(rows []data.Entity) uint64 {
	h := fnv.New64a()
	for _, row := range rows {
		fmt.Fprintf(h, "%q\x00", row)
	}
	return h.Sum64()
}

// manifestPath returns the manifest file inside a job directory.
func manifestPath(dir string) string { return filepath.Join(dir, manifestName) }

// segmentPath returns the result-segment file for a chunk.
func segmentPath(dir string, id int) string {
	return filepath.Join(dir, fmt.Sprintf("chunk-%06d.csv", id))
}

// writeManifest replaces the manifest atomically and durably
// (durable.WriteFile).
func writeManifest(dir string, m *manifest) error {
	buf, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("matchjob: encoding manifest: %w", err)
	}
	buf = append(buf, '\n')
	err = durable.WriteFile(manifestPath(dir), 0o600, func(w io.Writer) error {
		_, err := w.Write(buf)
		return err
	})
	if err != nil {
		return fmt.Errorf("matchjob: writing manifest: %w", err)
	}
	return nil
}

// loadManifest reads and validates a manifest against this job's
// fingerprints, then verifies each recorded chunk's segment file digest.
// It returns the longest valid prefix of completed chunks: the first
// missing or corrupted segment (and everything after it) is discarded and
// recomputed rather than trusted. A missing manifest returns (nil, nil).
func loadManifest(dir string, cfgSum, leftSum, rightSum uint64) (*manifest, error) {
	raw, err := os.ReadFile(manifestPath(dir))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("matchjob: reading manifest: %w", err)
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("matchjob: decoding manifest: %w", err)
	}
	switch {
	case m.Magic != manifestMagic:
		return nil, fmt.Errorf("%w: bad magic %q", ErrManifestMismatch, m.Magic)
	case m.Version != manifestVersion:
		return nil, fmt.Errorf("%w: manifest version %d, want %d", ErrManifestMismatch, m.Version, manifestVersion)
	case m.CfgSum != cfgSum:
		return nil, fmt.Errorf("%w: configuration changed since the interrupted run", ErrManifestMismatch)
	case m.LeftSum != leftSum:
		return nil, fmt.Errorf("%w: left table changed since the interrupted run", ErrManifestMismatch)
	case m.RightSum != rightSum:
		return nil, fmt.Errorf("%w: right table changed since the interrupted run", ErrManifestMismatch)
	}
	// Keep only the contiguous prefix of chunks whose segments verify.
	valid := 0
	for i, c := range m.Chunks {
		if c.ID != i {
			break
		}
		sum, err := fileSHA256(segmentPath(dir, c.ID))
		if err != nil || sum != c.SHA256 {
			break
		}
		valid = i + 1
	}
	m.Chunks = m.Chunks[:valid]
	return &m, nil
}

// fileSHA256 returns the hex digest of a file's contents.
func fileSHA256(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
