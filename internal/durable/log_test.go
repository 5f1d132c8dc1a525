package durable

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

var errTestCorrupt = errors.New("test log corrupt")

// testFormat is a format whose payloads are opaque bytes, so these tests
// exercise the segment log alone.
var testFormat = Format{Magic: "WYMTST1\n", Ext: ".tst", MaxRecord: 64, ErrCorrupt: errTestCorrupt}

// openTest opens a log of f in dir and returns it with every replayed
// payload.
func openTest(t *testing.T, dir string, f *Format, opt Options) (*Log, []string) {
	t.Helper()
	var got []string
	l, err := Open(dir, f, opt, func(p []byte) error {
		got = append(got, string(p))
		return nil
	})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return l, got
}

func appendAll(t *testing.T, l *Log, payloads ...string) {
	t.Helper()
	for _, p := range payloads {
		if err := l.Append([]byte(p)); err != nil {
			t.Fatalf("Append(%q): %v", p, err)
		}
	}
}

func sizes(t *testing.T, dir string, f *Format, n int) []int64 {
	t.Helper()
	out := make([]int64, n)
	for i := range out {
		st, err := os.Stat(f.SegmentPath(dir, i))
		if err != nil {
			t.Fatal(err)
		}
		out[i] = st.Size()
	}
	if _, err := os.Stat(f.SegmentPath(dir, n)); !os.IsNotExist(err) {
		t.Fatalf("segment %d exists, want %d segments", n, n)
	}
	return out
}

// TestLogRotationRule: a record starts a new segment when its frame does
// not fit the active one and the active one already holds a record — so
// a frame bigger than the limit goes alone into a segment of its own,
// and never leaves an empty segment behind.
func TestLogRotationRule(t *testing.T) {
	dir := t.TempDir()
	// Room for exactly two 4-byte records: 8 magic + 2 × (8 + 4).
	opt := Options{SegmentBytes: 32}
	l, _ := openTest(t, dir, &testFormat, opt)
	big := strings.Repeat("x", 40)
	appendAll(t, l, "aaaa", "bbbb", "cccc", big, "dddd")
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if got, want := sizes(t, dir, &testFormat, 4), []int64{32, 20, 56, 20}; !reflect.DeepEqual(got, want) {
		t.Fatalf("segment sizes %v, want %v", got, want)
	}
	l, got := openTest(t, dir, &testFormat, opt)
	l.Close()
	if want := []string{"aaaa", "bbbb", "cccc", big, "dddd"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed %q, want %q", got, want)
	}

	fresh := t.TempDir()
	l, _ = openTest(t, fresh, &testFormat, opt)
	appendAll(t, l, big)
	l.Close()
	if got, want := sizes(t, fresh, &testFormat, 1), []int64{56}; !reflect.DeepEqual(got, want) {
		t.Fatalf("oversized first record: segment sizes %v, want %v", got, want)
	}
}

// TestLogRecordBound: Append refuses a payload over the format's bound,
// and a frame claiming more is damage, even with a matching CRC.
func TestLogRecordBound(t *testing.T) {
	dir := t.TempDir()
	l, _ := openTest(t, dir, &testFormat, Options{})
	appendAll(t, l, "kept")
	if err := l.Append(make([]byte, testFormat.MaxRecord+1)); err == nil {
		t.Fatal("Append accepted a payload over MaxRecord")
	}
	l.Close()

	payload := make([]byte, testFormat.MaxRecord+1)
	frame := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	frame = binary.LittleEndian.AppendUint32(frame, crc32.Checksum(payload, castagnoli))
	f, err := os.OpenFile(testFormat.SegmentPath(dir, 0), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(append(frame, payload...)); err != nil {
		t.Fatal(err)
	}
	f.Close()

	stats, err := Scan(dir, &testFormat, func(p []byte) (string, error) { return string(p), nil },
		func(string) error { return nil })
	if err != nil || stats != (ScanStats{Segments: 1, Records: 1, Truncated: 1}) {
		t.Fatalf("Scan = %+v, %v; want the record before the oversized frame and one truncated segment", stats, err)
	}
	l, got := openTest(t, dir, &testFormat, Options{})
	l.Close()
	if !reflect.DeepEqual(got, []string{"kept"}) {
		t.Fatalf("replayed %q, want the record before the oversized frame", got)
	}
}

// TestLogSegmentSequence: Open requires a contiguous run of segments
// named as the format names them, starting at 000000 unless the format
// is pruned; Scan reads whatever segment files are there.
func TestLogSegmentSequence(t *testing.T) {
	pruned := testFormat
	pruned.Pruned = true
	write := func(t *testing.T, dir string, name string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(testFormat.Magic), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name     string
		files    []string
		unpruned bool // Open of the unpruned format succeeds
		pruned   bool // Open of the pruned format succeeds
	}{
		{"from-zero", []string{"000000.tst", "000001.tst"}, true, true},
		{"from-two", []string{"000002.tst", "000003.tst"}, false, true},
		{"gap", []string{"000000.tst", "000002.tst"}, false, false},
		{"foreign-name", []string{"000000.tst", "notes.tst"}, false, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, f := range []struct {
				format *Format
				ok     bool
			}{{&testFormat, tc.unpruned}, {&pruned, tc.pruned}} {
				dir := t.TempDir()
				for _, name := range tc.files {
					write(t, dir, name)
				}
				l, err := Open(dir, f.format, Options{}, func([]byte) error { return nil })
				if f.ok {
					if err != nil {
						t.Fatalf("Open (pruned=%t): %v", f.format.Pruned, err)
					}
					if err := l.Append([]byte("next")); err != nil {
						t.Fatal(err)
					}
					l.Close()
				} else if !errors.Is(err, errTestCorrupt) {
					t.Fatalf("Open (pruned=%t) = %v, want ErrCorrupt", f.format.Pruned, err)
				}
				stats, err := Scan(dir, f.format, func(p []byte) ([]byte, error) { return p, nil },
					func([]byte) error { return nil })
				if err != nil || stats.Segments != len(tc.files) {
					t.Fatalf("Scan = %+v, %v; want all %d segment files visited", stats, err, len(tc.files))
				}
			}
		})
	}
}
