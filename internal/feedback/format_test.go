package feedback

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"wym/internal/data"
)

// goldenBatches are the label batches behind testdata/golden.wymfbk, a
// WYMFBK1 segment written by the journal before it ran on the shared
// segment log.
var goldenBatches = [][]Label{
	{{Left: data.Entity{"sony bravia kdl-40", "tv", "499.99"}, Right: data.Entity{"sony kdl40 bravia", "television", "499"}, Match: true}},
	{
		{Left: data.Entity{"ipad air 64gb", "tablet", ""}, Right: data.Entity{"kindle paperwhite", "e-reader", "129"}, Match: false},
		{Left: data.Entity{"café münchen", "抹茶", "3,50"}, Right: data.Entity{"cafe munchen", "matcha", "3.50"}, Match: true},
	},
}

// segFile names journal segment n in dir.
func segFile(dir string, n int) string {
	return filepath.Join(dir, fmt.Sprintf("%06d.wymfbk", n))
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

// TestJournalFormatBytes pins the WYMFBK1 bytes: appending goldenBatches
// writes exactly the committed segment, and replaying the committed
// segment returns exactly goldenBatches.
func TestJournalFormatBytes(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "golden.wymfbk"))
	if err != nil {
		t.Fatal(err)
	}
	var labels []Label
	for _, b := range goldenBatches {
		labels = append(labels, b...)
	}

	dir := t.TempDir()
	j, _ := mustOpen(t, dir)
	for _, b := range goldenBatches {
		if err := j.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(segFile(dir, 0))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("journal wrote %d bytes that differ from the committed %d-byte segment:\n got %q\nwant %q",
			len(got), len(want), got, want)
	}

	replay := t.TempDir()
	if err := os.WriteFile(segFile(replay, 0), want, 0o644); err != nil {
		t.Fatal(err)
	}
	j2, replayed := mustOpen(t, replay)
	defer j2.Close()
	if !reflect.DeepEqual(replayed, labels) {
		t.Fatalf("committed segment replayed to\n%+v\nwant\n%+v", replayed, labels)
	}
	if j2.Records() != len(goldenBatches) {
		t.Fatalf("committed segment replayed %d records, want %d", j2.Records(), len(goldenBatches))
	}
}

// TestJournalUndecodablePayload: a frame whose CRC checks but whose
// payload is no label batch — not gob at all, or an empty batch — is
// damage at its offset. At the tail of the newest segment Open truncates
// it and keeps what came before; in a sealed segment Open fails with
// ErrCorrupt.
func TestJournalUndecodablePayload(t *testing.T) {
	var empty bytes.Buffer
	if err := gob.NewEncoder(&empty).Encode([]Label{}); err != nil {
		t.Fatal(err)
	}
	first := goldenBatches[0]
	second := goldenBatches[1]
	for _, bad := range []struct {
		name    string
		payload []byte
	}{
		{"not-gob", []byte("not a gob stream")},
		{"empty-batch", empty.Bytes()},
	} {
		t.Run(bad.name, func(t *testing.T) {
			dir := t.TempDir()
			j, _ := mustOpen(t, dir)
			if err := j.Append(first); err != nil {
				t.Fatal(err)
			}
			j.Close()
			appendFrame(t, segFile(dir, 0), bad.payload)
			j, labels, err := Open(dir)
			if err != nil {
				t.Fatalf("Open with an undecodable tail frame: %v", err)
			}
			if !reflect.DeepEqual(labels, first) {
				t.Fatalf("replayed %+v, want the batch before the bad frame", labels)
			}
			if err := j.Append(second); err != nil {
				t.Fatalf("append after repair: %v", err)
			}
			j.Close()
			j, labels, err = Open(dir)
			if err != nil {
				t.Fatalf("reopen after repair: %v", err)
			}
			j.Close()
			if want := append(append([]Label(nil), first...), second...); !reflect.DeepEqual(labels, want) {
				t.Fatalf("after repair and append replayed %+v, want %+v", labels, want)
			}

			// Tiny segments: each batch is alone in its own segment, so
			// segment 0 is sealed.
			sealed := t.TempDir()
			j, _, err = openLimit(sealed, 64)
			if err != nil {
				t.Fatal(err)
			}
			for _, b := range [][]Label{first, second} {
				if err := j.Append(b); err != nil {
					t.Fatal(err)
				}
			}
			j.Close()
			appendFrame(t, segFile(sealed, 0), bad.payload)
			if _, _, err := openLimit(sealed, 64); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Open with an undecodable frame in a sealed segment: err=%v, want ErrCorrupt", err)
			}
		})
	}
}
