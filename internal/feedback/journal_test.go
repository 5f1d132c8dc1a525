package feedback

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"wym/internal/data"
)

func lbl(l, r string, match bool) Label {
	return Label{Left: data.Entity{l}, Right: data.Entity{r}, Match: match}
}

func mustOpen(t *testing.T, dir string) (*Journal, []Label) {
	t.Helper()
	j, labels, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return j, labels
}

func TestJournalAppendReplay(t *testing.T) {
	dir := t.TempDir()
	j, labels := mustOpen(t, dir)
	if len(labels) != 0 {
		t.Fatalf("fresh journal replayed %d labels", len(labels))
	}
	batches := [][]Label{
		{lbl("ipad", "ipad 2", true)},
		{lbl("ipad", "kindle", false), lbl("xps 13", "xps13", true)},
	}
	var want []Label
	for _, b := range batches {
		if err := j.Append(b); err != nil {
			t.Fatal(err)
		}
		want = append(want, b...)
	}
	if j.Labels() != 3 || j.Records() != 2 {
		t.Fatalf("Labels=%d Records=%d", j.Labels(), j.Records())
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, got := mustOpen(t, dir)
	defer j2.Close()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("replay mismatch:\n got %+v\nwant %+v", got, want)
	}
	if j2.Labels() != 3 || j2.Records() != 2 {
		t.Fatalf("replayed Labels=%d Records=%d", j2.Labels(), j2.Records())
	}
}

func TestJournalRejectsEmptyBatch(t *testing.T) {
	j, _ := mustOpen(t, t.TempDir())
	defer j.Close()
	if err := j.Append(nil); err == nil {
		t.Fatal("empty batch accepted")
	}
}

func TestJournalRotationAndReplayAcrossSegments(t *testing.T) {
	dir := t.TempDir()
	// Tiny segment limit: every batch forces a rotation.
	j, _, err := openLimit(dir, 64)
	if err != nil {
		t.Fatal(err)
	}
	var want []Label
	for i := 0; i < 5; i++ {
		b := []Label{lbl("left-entity-value", "right-entity-value", i%2 == 0)}
		if err := j.Append(b); err != nil {
			t.Fatal(err)
		}
		want = append(want, b...)
	}
	j.Close()

	segs, _ := filepath.Glob(filepath.Join(dir, "*"+format.Ext))
	if len(segs) < 2 {
		t.Fatalf("expected rotation, got %d segments", len(segs))
	}
	j2, got := mustOpen(t, dir)
	defer j2.Close()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("cross-segment replay mismatch: got %d labels, want %d", len(got), len(want))
	}
}

// TestJournalTornTailRepaired simulates a crash mid-record: every
// truncation point of the final record must replay to exactly the
// previously acknowledged batches, and the journal must stay appendable.
func TestJournalTornTailRepaired(t *testing.T) {
	// Measure the segment offsets once on a throwaway journal.
	probe := t.TempDir()
	segBytes := func() int64 {
		st, err := os.Stat(format.SegmentPath(probe, 0))
		if err != nil {
			t.Fatal(err)
		}
		return st.Size()
	}
	j, _ := mustOpen(t, probe)
	if err := j.Append([]Label{lbl("a", "b", true)}); err != nil {
		t.Fatal(err)
	}
	durable := segBytes()
	if err := j.Append([]Label{lbl("c", "d", false), lbl("e", "f", true)}); err != nil {
		t.Fatal(err)
	}
	full := segBytes()
	j.Close()

	for cut := durable + 1; cut < full; cut += 3 {
		dir := t.TempDir()
		jw, _ := mustOpen(t, dir)
		jw.Append([]Label{lbl("a", "b", true)})
		jw.Append([]Label{lbl("c", "d", false), lbl("e", "f", true)})
		jw.Close()

		seg := format.SegmentPath(dir, 0)
		raw, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(seg, raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		j2, labels, err := Open(dir)
		if err != nil {
			t.Fatalf("cut=%d: %v", cut, err)
		}
		if len(labels) != 1 || !labels[0].Match {
			t.Fatalf("cut=%d: replayed %+v, want just the first batch", cut, labels)
		}
		// Re-append after repair and confirm the tail is clean.
		if err := j2.Append([]Label{lbl("g", "h", true)}); err != nil {
			t.Fatalf("cut=%d: append after repair: %v", cut, err)
		}
		j2.Close()
		_, labels2, err := Open(dir)
		if err != nil {
			t.Fatalf("cut=%d: reopen: %v", cut, err)
		}
		if len(labels2) != 2 {
			t.Fatalf("cut=%d: got %d labels after repair+append", cut, len(labels2))
		}
	}
}

func TestJournalCorruptionInEarlierSegmentFails(t *testing.T) {
	dir := t.TempDir()
	j, _, err := openLimit(dir, 64)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := j.Append([]Label{lbl("some-left-value", "some-right-value", true)}); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	// Flip a payload byte in the first segment (not the last).
	seg := format.SegmentPath(dir, 0)
	raw, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xFF
	if err := os.WriteFile(seg, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open = %v, want ErrCorrupt", err)
	}
}

func TestJournalBadMagicFails(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(format.SegmentPath(dir, 0), []byte("NOTMAGIC and then some"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open = %v, want ErrCorrupt", err)
	}
}

func TestJournalTornMagicRepaired(t *testing.T) {
	dir := t.TempDir()
	// Crash during segment creation: only half the magic landed.
	if err := os.WriteFile(format.SegmentPath(dir, 0), []byte(format.Magic[:3]), 0o644); err != nil {
		t.Fatal(err)
	}
	j, labels, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer j.Close()
	if len(labels) != 0 {
		t.Fatalf("replayed %d labels from torn-magic segment", len(labels))
	}
	if err := j.Append([]Label{lbl("a", "b", true)}); err != nil {
		t.Fatal(err)
	}
}

func TestJournalSegmentGapFails(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(format.SegmentPath(dir, 1), []byte(format.Magic), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open = %v, want ErrCorrupt", err)
	}
}
