package durable

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// Segment log layout: a directory of numbered segments (000000<ext>,
// 000001<ext>, …). Each segment starts with its format's 8-byte magic
// and holds frames, one record each in append order: a u32le payload
// length, a u32le CRC-32C of the payload, then the payload.
//
// Crash model: a crash can tear only bytes not yet fsync'd, which are
// always at the tail of the newest segment. Open repairs that tail — a
// partial frame, a frame that fails its CRC or that the format's codec
// cannot decode, or a magic torn while the segment was being created —
// by truncating back to the last whole record. The same damage anywhere
// else is real corruption and fails the open. The tolerant reader, Scan,
// instead recovers the longest valid prefix of every segment: querying
// a log must work even when the writer would refuse it.

const (
	// frameHeader is the framing overhead per record: u32le payload
	// length + u32le CRC-32C of the payload.
	frameHeader = 8

	// DefaultSegmentBytes rotates segments at 8 MiB — small enough that
	// tail-repair scans stay cheap, large enough that rotation is rare.
	DefaultSegmentBytes = 8 << 20
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

var errClosed = errors.New("durable: log closed")

// Format is one segment log format: its bytes on disk and the rules
// that differ between formats. Each format declares exactly one.
type Format struct {
	Magic string // 8 bytes opening every segment
	Ext   string // segment file extension, with its dot
	// MaxRecord bounds a payload: Append refuses a longer one, and a
	// longer length prefix on disk is damage.
	MaxRecord int
	// Pruned formats may lose their oldest segments to retention, so a
	// log may start at any index; any other log starts at 000000.
	Pruned bool
	// ErrCorrupt is wrapped by every damage error Open returns.
	ErrCorrupt error
}

// SegmentPath returns the file of segment n of the log in dir.
func (f *Format) SegmentPath(dir string, n int) string {
	return filepath.Join(dir, fmt.Sprintf("%06d%s", n, f.Ext))
}

// Options tunes a Log. The zero value is usable: default segment size,
// unbounded retention, and an fsync per append.
type Options struct {
	// SegmentBytes is the rotation threshold (default 8 MiB). A record
	// whose frame does not fit the active segment starts the next one,
	// unless the active segment holds no record yet.
	SegmentBytes int64
	// RetainBytes caps the log's total on-disk size (0 = unbounded).
	// At rotation, the oldest sealed segments are pruned until the
	// sealed total fits RetainBytes minus one full segment, so
	// sealed + active never exceeds the cap and the active segment is
	// never deleted. Must be at least 2*SegmentBytes when set.
	RetainBytes int64
	// FlushEvery batches fsyncs: appended records become durable at the
	// next interval tick, on rotation, on Sync, and on Close. Zero
	// flushes and fsyncs every append.
	FlushEvery time.Duration
}

// Log is an append-only segment log writer. Its methods are safe for
// concurrent use.
type Log struct {
	dir string
	f   *Format
	opt Options

	mu       sync.Mutex
	file     *os.File      // newest segment, append position at EOF
	w        *bufio.Writer // buffers appends between fsyncs
	seg      int           // index of the newest segment
	oldest   int           // index of the oldest retained segment
	segBytes int64         // bytes written to the newest segment
	sealed   map[int]int64 // sizes of sealed (rotated-out) segments
	dirty    bool          // buffered or unsynced bytes exist

	done chan struct{} // closes the background flusher
	wg   sync.WaitGroup
}

// Open opens (creating if needed) the log in dir and hands every
// record's payload, oldest first, to decode; a decode error marks that
// frame as damage, as a CRC failure does. Damage at the tail of the
// newest segment is truncated away, fsync'd before Open returns, and
// the records before it are kept. Damage anywhere else, a sequence gap
// or a segment name the format does not produce fails with the
// format's ErrCorrupt.
func Open(dir string, f *Format, opt Options, decode func(payload []byte) error) (*Log, error) {
	if opt.SegmentBytes == 0 {
		opt.SegmentBytes = DefaultSegmentBytes
	}
	if opt.SegmentBytes < int64(len(f.Magic))+frameHeader {
		return nil, fmt.Errorf("durable: segment limit %d too small", opt.SegmentBytes)
	}
	if opt.RetainBytes > 0 && opt.RetainBytes < 2*opt.SegmentBytes {
		return nil, fmt.Errorf("durable: retention cap %d must be at least two segments (%d)",
			opt.RetainBytes, 2*opt.SegmentBytes)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	segs, err := f.list(dir)
	if err != nil {
		return nil, err
	}
	l := &Log{dir: dir, f: f, opt: opt, sealed: make(map[int]int64)}
	for i, seg := range segs {
		path := f.SegmentPath(dir, seg)
		raw, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		valid, damage := f.prefix(raw, decode)
		// Past a whole magic, damage is a torn tail; so is a partial
		// magic, left by a crash while the segment was being created.
		torn := valid > 0 || (len(raw) < len(f.Magic) && strings.HasPrefix(f.Magic, string(raw)))
		newest := i == len(segs)-1
		if damage != nil && !(newest && torn) {
			return nil, fmt.Errorf("%w: %s: %v", f.ErrCorrupt, filepath.Base(path), damage)
		}
		if !newest {
			l.sealed[seg] = valid
			continue
		}
		if err := l.openSegment(seg, valid, false); err != nil {
			return nil, err
		}
	}
	if len(segs) == 0 {
		if err := l.openSegment(0, 0, true); err != nil {
			return nil, err
		}
	} else {
		l.oldest = segs[0]
	}
	if opt.FlushEvery > 0 {
		l.done = make(chan struct{})
		l.wg.Add(1)
		go l.flushLoop()
	}
	return l, nil
}

// Append frames payload and writes it, first rotating to a new segment
// when the frame does not fit the active one and the active one already
// holds a record. With a flush interval the write is buffered — durable
// at the next tick, Sync, rotation, or Close; without one it is fsync'd
// before Append returns. Append never blocks on an interval fsync in
// progress for longer than the fsync itself.
func (l *Log) Append(payload []byte) error {
	if len(payload) > l.f.MaxRecord {
		return fmt.Errorf("durable: record of %d bytes exceeds the %d-byte limit", len(payload), l.f.MaxRecord)
	}
	var hdr [frameHeader]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.Checksum(payload, castagnoli))
	framed := int64(frameHeader + len(payload))

	l.mu.Lock()
	defer l.mu.Unlock()
	if l.file == nil {
		return errClosed
	}
	if l.segBytes+framed > l.opt.SegmentBytes && l.segBytes > int64(len(l.f.Magic)) {
		if err := l.rotate(); err != nil {
			return err
		}
	}
	if _, err := l.w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := l.w.Write(payload); err != nil {
		return err
	}
	l.segBytes += framed
	l.dirty = true
	if l.opt.FlushEvery <= 0 {
		return l.syncLocked()
	}
	return nil
}

// Room returns the largest payload that fits an empty segment.
func (l *Log) Room() int {
	return int(l.opt.SegmentBytes) - len(l.f.Magic) - frameHeader
}

// Sync flushes buffered records and fsyncs the active segment: when it
// returns nil, every previously acknowledged Append survives power
// loss.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.file == nil {
		return errClosed
	}
	return l.syncLocked()
}

func (l *Log) syncLocked() error {
	if !l.dirty {
		return nil
	}
	if err := l.w.Flush(); err != nil {
		return err
	}
	if err := l.file.Sync(); err != nil {
		return err
	}
	l.dirty = false
	return nil
}

// Dir returns the log directory.
func (l *Log) Dir() string { return l.dir }

// Close flushes, fsyncs, and releases the segment handle. The flusher
// goroutine (if any) is stopped first.
func (l *Log) Close() error {
	if l.done != nil {
		close(l.done)
		l.wg.Wait()
		l.done = nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.file == nil {
		return nil
	}
	err := l.syncLocked()
	if cerr := l.file.Close(); err == nil {
		err = cerr
	}
	l.file = nil
	return err
}

// flushLoop fsyncs dirty buffers every FlushEvery until Close.
func (l *Log) flushLoop() {
	defer l.wg.Done()
	t := time.NewTicker(l.opt.FlushEvery)
	defer t.Stop()
	for {
		select {
		case <-l.done:
			return
		case <-t.C:
			l.mu.Lock()
			if l.file != nil {
				// A failed interval fsync leaves dirty set; the error
				// surfaces on the next Sync/Close or a later retry.
				_ = l.syncLocked()
			}
			l.mu.Unlock()
		}
	}
}

// rotate seals the active segment (flush + fsync + close), starts the
// next one, and prunes sealed segments past the retention cap. Called
// with the mutex held.
func (l *Log) rotate() error {
	if err := l.syncLocked(); err != nil {
		return err
	}
	if err := l.file.Close(); err != nil {
		return err
	}
	l.sealed[l.seg] = l.segBytes
	if err := l.openSegment(l.seg+1, 0, true); err != nil {
		return err
	}
	return l.pruneLocked()
}

// pruneLocked deletes the oldest sealed segments until the sealed
// total fits RetainBytes minus one full segment — so sealed + active
// never exceeds the cap, whatever the active segment grows to. The
// active segment is never a candidate.
func (l *Log) pruneLocked() error {
	if l.opt.RetainBytes <= 0 {
		return nil
	}
	budget := l.opt.RetainBytes - l.opt.SegmentBytes
	for l.sealedTotalLocked() > budget && l.oldest < l.seg {
		if err := os.Remove(l.f.SegmentPath(l.dir, l.oldest)); err != nil && !os.IsNotExist(err) {
			return err
		}
		delete(l.sealed, l.oldest)
		l.oldest++
	}
	return nil
}

func (l *Log) sealedTotalLocked() int64 {
	var total int64
	for _, n := range l.sealed {
		total += n
	}
	return total
}

// openSegment makes segment seg the active one, appending after its
// first valid bytes; with valid zero — a new segment, or one whose
// magic was torn — it writes the magic first. The truncation and the
// magic are fsync'd through the handle later appends use, so a second
// crash cannot resurrect torn bytes under newly appended records; a
// created segment's directory entry is fsync'd too.
func (l *Log) openSegment(seg int, valid int64, create bool) error {
	flag := os.O_WRONLY | os.O_APPEND
	if create {
		flag |= os.O_CREATE | os.O_EXCL
	}
	file, err := os.OpenFile(l.f.SegmentPath(l.dir, seg), flag, 0o644)
	if err != nil {
		return err
	}
	err = file.Truncate(valid)
	if err == nil && valid == 0 {
		_, err = file.WriteString(l.f.Magic)
		valid = int64(len(l.f.Magic))
	}
	if err == nil {
		err = file.Sync()
	}
	if err == nil && create {
		err = SyncDir(l.dir)
	}
	if err != nil {
		file.Close()
		return err
	}
	l.file, l.w, l.seg, l.segBytes, l.dirty = file, bufio.NewWriter(file), seg, valid, false
	return nil
}

// list returns the segment indices in dir, ascending. The sequence must
// be contiguous and, unless the format is pruned, start at zero.
func (f *Format) list(dir string) ([]int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []int
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || filepath.Ext(name) != f.Ext {
			continue
		}
		var n int
		if _, err := fmt.Sscanf(name, "%06d"+f.Ext, &n); err != nil {
			return nil, fmt.Errorf("%w: unrecognized segment name %q", f.ErrCorrupt, name)
		}
		segs = append(segs, n)
	}
	sort.Ints(segs)
	for i, n := range segs {
		want := i
		if f.Pruned {
			want += segs[0]
		}
		if n != want {
			return nil, fmt.Errorf("%w: segment sequence gap (have %06d, want %06d)", f.ErrCorrupt, n, want)
		}
	}
	return segs, nil
}

// prefix walks one segment's bytes, handing each frame's payload to
// decode, and returns the length of the valid prefix with the damage
// that ended it — nil when the whole segment is valid. A bad magic
// leaves no valid prefix at all.
func (f *Format) prefix(raw []byte, decode func([]byte) error) (int64, error) {
	if !bytes.HasPrefix(raw, []byte(f.Magic)) {
		return 0, errors.New("bad magic")
	}
	off := len(f.Magic)
	for off < len(raw) {
		n, err := f.frame(raw[off:], decode)
		if err != nil {
			return int64(off), fmt.Errorf("at offset %d: %w", off, err)
		}
		off += n
	}
	return int64(off), nil
}

// frame checks the frame at the front of b, hands its payload to
// decode, and returns the frame's length.
func (f *Format) frame(b []byte, decode func([]byte) error) (int, error) {
	if len(b) < frameHeader {
		return 0, io.ErrUnexpectedEOF
	}
	n := binary.LittleEndian.Uint32(b)
	if n > uint32(f.MaxRecord) {
		return 0, fmt.Errorf("record length %d exceeds limit", n)
	}
	if uint32(len(b)-frameHeader) < n {
		return 0, io.ErrUnexpectedEOF
	}
	payload := b[frameHeader : frameHeader+int(n)]
	if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(b[4:]) {
		return 0, errors.New("crc mismatch")
	}
	return frameHeader + int(n), decode(payload)
}

// ScanStats summarizes one Scan pass.
type ScanStats struct {
	Segments  int // segment files visited
	Records   int // records decoded and delivered
	Truncated int // segments whose tail (or entirety) was unreadable
}

// Scan reads every decodable record of the log in dir, oldest segment
// first, calling fn per record. It is the tolerant reader: each segment
// is recovered to its longest valid prefix — a bad magic, torn tail,
// bit-flipped or undecodable frame, or sequence gap never fails the
// scan, it just bounds what that segment contributes (and bumps
// Truncated). A non-nil error from fn aborts the scan and is returned;
// IO errors reading the directory are returned as-is.
func Scan[T any](dir string, f *Format, decode func([]byte) (T, error), fn func(T) error) (ScanStats, error) {
	var stats ScanStats
	entries, err := os.ReadDir(dir) // sorted by name, so oldest first
	if err != nil {
		return stats, err
	}
	for _, e := range entries {
		if e.IsDir() || filepath.Ext(e.Name()) != f.Ext {
			continue
		}
		stats.Segments++
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return stats, err
		}
		var abort error
		_, damage := f.prefix(raw, func(payload []byte) error {
			rec, err := decode(payload)
			if err != nil {
				return err
			}
			stats.Records++
			abort = fn(rec)
			return abort
		})
		if abort != nil {
			return stats, abort
		}
		if damage != nil {
			stats.Truncated++
		}
	}
	return stats, nil
}
