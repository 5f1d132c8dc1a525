package audit

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"sync/atomic"

	"wym/internal/durable"
)

// The log is a WYMAUD1 segment log (internal/durable): a directory of
// numbered .wymaud segments whose records are gob-encoded Records, each
// with a fresh encoder so records are independently decodable.
//
// Crash model: appends are buffered and fsync'd on the flush interval
// (or per append with FlushEvery zero), so a crash loses at most the
// unflushed tail of the newest segment. Open verifies every sealed
// segment and repairs that tail; damage anywhere else fails the open
// with ErrCorrupt. Retention prunes segments from the front, so a log
// may start at any segment index.

// DefaultSegmentBytes rotates segments at 8 MiB.
const DefaultSegmentBytes = durable.DefaultSegmentBytes

// ErrCorrupt marks log damage that tail-truncation cannot repair: a bad
// magic, a segment sequence gap, or a CRC, framing or decoding failure
// before the final record of the final segment.
var ErrCorrupt = errors.New("audit: log corrupt")

var format = durable.Format{
	Magic: "WYMAUD1\n",
	Ext:   ".wymaud",
	// Audit records are a pair of entities plus an explanation — a few
	// KiB; 16 MiB is generous.
	MaxRecord:  16 << 20,
	Pruned:     true,
	ErrCorrupt: ErrCorrupt,
}

// Options tunes a Log (see durable.Options). The zero value is usable:
// default segment size, unbounded retention, and an fsync per append —
// right for tests and low-rate batch jobs, too slow for serving. A
// record must fit a single segment; oversized appends are rejected.
type Options = durable.Options

// Log is an append-only audit log writer. Append is safe for
// concurrent use.
type Log struct {
	log     *durable.Log
	records atomic.Int64 // records appended this session
}

// Open opens (creating if needed) the audit log in dir, verifying
// sealed segments and repairing a torn tail on the newest one. Unlike
// the feedback journal, Open does not return the records — audit logs
// are queried with Scan, not replayed into memory.
func Open(dir string, opt Options) (*Log, error) {
	log, err := durable.Open(dir, &format, opt, func(payload []byte) error {
		_, err := decode(payload)
		return err
	})
	if err != nil {
		return nil, err
	}
	return &Log{log: log}, nil
}

// Append encodes and writes one record. With a flush interval
// configured the write is buffered — durable at the next tick, Sync,
// rotation, or Close; without one it is fsync'd before returning.
func (l *Log) Append(rec Record) error {
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(&rec); err != nil {
		return err
	}
	if payload.Len() > l.log.Room() {
		return fmt.Errorf("audit: record %q encodes to %d bytes, exceeds a segment", rec.RequestID, payload.Len())
	}
	if err := l.log.Append(payload.Bytes()); err != nil {
		return err
	}
	l.records.Add(1)
	return nil
}

// Sync flushes buffered records and fsyncs the active segment: when it
// returns nil, every previously acknowledged Append survives power
// loss. Batch jobs call it at chunk boundaries.
func (l *Log) Sync() error { return l.log.Sync() }

// Records returns the number of records appended this session.
func (l *Log) Records() int64 { return l.records.Load() }

// Dir returns the log directory.
func (l *Log) Dir() string { return l.log.Dir() }

// Close flushes, fsyncs, and releases the segment handle. The flusher
// goroutine (if any) is stopped first.
func (l *Log) Close() error { return l.log.Close() }

// decode is the codec's read side: one payload is one gob-encoded Record.
func decode(payload []byte) (Record, error) {
	var rec Record
	err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&rec)
	return rec, err
}
