package feedback

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"

	"wym/internal/durable"
)

// The journal is a WYMFBK1 segment log (internal/durable): a directory
// of numbered .wymfbk segments whose records are label batches, each
// gob-encoded with a fresh encoder so records are independently
// decodable. Append fsyncs before returning — a returned nil error means
// the batch survives power loss. Open repairs a crash-torn tail of the
// newest segment; damage anywhere else fails the open with ErrCorrupt.
// The log never prunes, so it starts at segment 000000.

// ErrCorrupt marks journal damage that tail-truncation cannot repair:
// a bad magic, a segment sequence gap, or a CRC, framing or decoding
// failure before the final record of the final segment.
var ErrCorrupt = errors.New("feedback: journal corrupt")

var format = durable.Format{
	Magic:      "WYMFBK1\n",
	Ext:        ".wymfbk",
	MaxRecord:  64 << 20,
	ErrCorrupt: ErrCorrupt,
}

// Journal is an append-only label log. It is not safe for concurrent
// Append; callers serialize writes (the server holds its feedback mutex).
type Journal struct {
	log     *durable.Log
	all     []Label // every label, replayed plus appended, in order
	records int
}

// Open opens (creating if needed) the journal in dir, replays every
// record, repairs a torn tail, and returns the journal plus all labels
// in append order. Batches interrupted mid-write by a crash are dropped;
// everything acknowledged by a completed Append is returned.
func Open(dir string) (*Journal, []Label, error) {
	return openLimit(dir, 0)
}

// openLimit is Open with an explicit segment rotation threshold (0 for
// the default), for tests that want many small segments.
func openLimit(dir string, segmentBytes int64) (*Journal, []Label, error) {
	j := &Journal{}
	log, err := durable.Open(dir, &format, durable.Options{SegmentBytes: segmentBytes}, func(payload []byte) error {
		var batch []Label
		if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&batch); err != nil {
			return err
		}
		if len(batch) == 0 {
			return errors.New("empty record")
		}
		j.all = append(j.all, batch...)
		j.records++
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	j.log = log
	return j, j.All(), nil
}

// Append durably writes one label batch: when Append returns nil the
// batch is framed, CRC'd, and fsync'd. Empty batches are rejected —
// an empty record would be indistinguishable from a no-op on replay
// counting, and callers never mean it.
func (j *Journal) Append(batch []Label) error {
	if len(batch) == 0 {
		return errors.New("feedback: empty label batch")
	}
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(batch); err != nil {
		return err
	}
	if err := j.log.Append(payload.Bytes()); err != nil {
		return fmt.Errorf("feedback: journaling a batch of %d labels: %w", len(batch), err)
	}
	j.records++
	j.all = append(j.all, batch...)
	return nil
}

// Labels returns the total number of labels in the journal (replayed
// plus appended this session).
func (j *Journal) Labels() int { return len(j.all) }

// All returns a copy of every label in the journal, in append order —
// what a fresh replay of the directory would return. Model reloads use
// it to re-fold the journal into the new artifact.
func (j *Journal) All() []Label { return append([]Label(nil), j.all...) }

// Records returns the number of durable batches.
func (j *Journal) Records() int { return j.records }

// Dir returns the journal directory.
func (j *Journal) Dir() string { return j.log.Dir() }

// Close releases the segment handle. Appended batches are already
// durable; Close exists for tidy shutdown, not for flushing.
func (j *Journal) Close() error { return j.log.Close() }
