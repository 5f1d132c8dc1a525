package audit

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// goldenRecords are the records behind testdata/golden.wymaud, a WYMAUD1
// segment written by the audit log before it ran on the shared segment
// log. Times, latencies and units are fixed so the bytes are.
var goldenRecords = []Record{
	{
		RequestID: "req-golden-1", TimeNanos: 1760000000123456789, Route: "/predict",
		Model: "default", ArtifactFP: "fnv64:0123456789abcdef", FeedbackFP: "fnv64:fedcba9876543210",
		Left:       []string{"sony bravia kdl-40", "tv", "499.99"},
		Right:      []string{"sony kdl40 bravia", "television", "499"},
		Prediction: 1, Proba: 0.875, Threshold: 0.5,
		Units: []Unit{
			{Left: "sony", Right: "sony", Kind: 0, Attr: 0, Relevance: 0.75, Impact: 0.25},
			{Left: "kdl-40", Right: "kdl40", Kind: 1, Attr: 0, Relevance: 0.5, Impact: 0.125},
			{Left: "tv", Kind: 2, Attr: 1, Relevance: -0.25, Impact: -0.0625},
		},
		LatencyNanos: 1234567,
	},
	{
		RequestID: "c000003:p12-40", TimeNanos: 1760000000987654321, Route: "match",
		Model: "model.gob", ArtifactFP: "fnv64:00000000deadbeef",
		Left:  []string{"café münchen", "抹茶", "3,50"},
		Right: []string{"cafe munchen", "matcha", "3.50"},
		Proba: 0.125, Threshold: 0.5,
		Units: []Unit{
			{Left: "café", Right: "cafe", Kind: 1, Attr: 0, Relevance: 0.375, Impact: -0.5},
		},
		LatencyNanos: 7654321,
	},
}

// segFile names audit segment n in dir.
func segFile(dir string, n int) string {
	return filepath.Join(dir, fmt.Sprintf("%06d.wymaud", n))
}

// appendFrame appends one frame — u32le payload length, u32le CRC-32C of
// the payload, the payload — to a segment file.
func appendFrame(t *testing.T, path string, payload []byte) {
	t.Helper()
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(append(hdr[:], payload...)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestAuditFormatBytes pins the WYMAUD1 bytes: appending goldenRecords
// writes exactly the committed segment, and reading the committed
// segment returns exactly goldenRecords.
func TestAuditFormatBytes(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "golden.wymaud"))
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range goldenRecords {
		if err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(segFile(dir, 0))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("log wrote %d bytes that differ from the committed %d-byte segment:\n got %q\nwant %q",
			len(got), len(want), got, want)
	}

	replay := t.TempDir()
	if err := os.WriteFile(segFile(replay, 0), want, 0o644); err != nil {
		t.Fatal(err)
	}
	recs, stats, err := ReadAll(replay)
	if err != nil {
		t.Fatal(err)
	}
	if stats != (ScanStats{Segments: 1, Records: len(goldenRecords)}) {
		t.Fatalf("committed segment scanned as %+v", stats)
	}
	if !reflect.DeepEqual(recs, goldenRecords) {
		t.Fatalf("committed segment read back as\n%+v\nwant\n%+v", recs, goldenRecords)
	}
	l, err = Open(replay, Options{})
	if err != nil {
		t.Fatalf("Open on the committed segment: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestAuditUndecodablePayload: a frame whose CRC checks but whose payload
// is no record is damage at its offset. At the tail of the newest
// segment Open truncates it and keeps what came before; in a sealed
// segment Open fails with ErrCorrupt; Scan ends that segment's prefix
// there, counts the segment as truncated and returns no error.
func TestAuditUndecodablePayload(t *testing.T) {
	bad := []byte("not a gob stream")
	ids := func(recs []Record) string {
		var out []string
		for _, r := range recs {
			out = append(out, r.RequestID)
		}
		return strings.Join(out, " ")
	}

	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"r0", "r1"} {
		if err := l.Append(Record{RequestID: id}); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	appendFrame(t, segFile(dir, 0), bad)
	recs, stats, err := ReadAll(dir)
	if err != nil {
		t.Fatalf("Scan with an undecodable tail frame: %v", err)
	}
	if ids(recs) != "r0 r1" || stats.Truncated != 1 {
		t.Fatalf("Scan read %q with %d truncated segments, want \"r0 r1\" and 1", ids(recs), stats.Truncated)
	}
	l, err = Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open with an undecodable tail frame: %v", err)
	}
	if err := l.Append(Record{RequestID: "post-repair"}); err != nil {
		t.Fatalf("append after repair: %v", err)
	}
	l.Close()
	recs, stats, err = ReadAll(dir)
	if err != nil {
		t.Fatal(err)
	}
	if ids(recs) != "r0 r1 post-repair" || stats.Truncated != 0 {
		t.Fatalf("after repair read %q with %d truncated segments, want \"r0 r1 post-repair\" and 0",
			ids(recs), stats.Truncated)
	}

	sealed := t.TempDir()
	opt := Options{SegmentBytes: 512}
	if l, err = Open(sealed, opt); err != nil {
		t.Fatal(err)
	}
	payload := strings.Repeat("p", 100)
	const n = 12 // enough to seal segment 0 and move on
	for i := 0; i < n; i++ {
		if err := l.Append(Record{RequestID: fmt.Sprintf("r%d", i), Left: []string{payload}}); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	if _, err := os.Stat(segFile(sealed, 1)); err != nil {
		t.Fatalf("segment 0 was not sealed: %v", err)
	}
	appendFrame(t, segFile(sealed, 0), bad)
	if _, err := Open(sealed, opt); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open with an undecodable frame in a sealed segment: err=%v, want ErrCorrupt", err)
	}
	recs, stats, err = ReadAll(sealed)
	if err != nil {
		t.Fatalf("Scan with an undecodable frame in a sealed segment: %v", err)
	}
	if len(recs) != n || stats.Truncated != 1 {
		t.Fatalf("Scan read %d records with %d truncated segments, want %d and 1", len(recs), stats.Truncated, n)
	}
}
