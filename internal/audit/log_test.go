package audit

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// randomRecord draws one record with adversarial strings (unicode,
// separators, empties) and a variable-length unit list.
func randomRecord(rng *rand.Rand, i int) Record {
	pool := []string{"sony", "café", "münchen", "молоко", "抹茶", "", "a,b\nc", strings.Repeat("x", 200)}
	pick := func() string { return pool[rng.Intn(len(pool))] }
	rec := Record{
		RequestID:    fmt.Sprintf("req-%06d", i),
		TimeNanos:    rng.Int63(),
		Route:        "/predict",
		Model:        "default",
		ArtifactFP:   fmt.Sprintf("fnv64:%016x", rng.Uint64()),
		FeedbackFP:   fmt.Sprintf("fnv64:%016x", rng.Uint64()),
		Left:         []string{pick(), pick(), pick()},
		Right:        []string{pick(), pick(), pick()},
		Prediction:   rng.Intn(2),
		Proba:        rng.Float64(),
		Threshold:    0.5,
		LatencyNanos: rng.Int63n(int64(time.Second)),
	}
	for u := rng.Intn(6); u > 0; u-- {
		rec.Units = append(rec.Units, Unit{
			Left: pick(), Right: pick(),
			Kind: rng.Intn(3), Attr: rng.Intn(4),
			Relevance: rng.Float64()*2 - 1, Impact: rng.Float64()*2 - 1,
		})
	}
	return rec
}

// TestAuditRoundTrip is the core property: every appended record reads
// back field-identical, across a close/reopen boundary.
func TestAuditRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	var want []Record
	for i := 0; i < 60; i++ {
		rec := randomRecord(rng, i)
		if err := l.Append(rec); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		want = append(want, rec)
		if i == 29 { // reopen mid-stream: replay + append must compose
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			if l, err = Open(dir, Options{}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, stats, err := ReadAll(dir)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Truncated != 0 {
		t.Fatalf("clean log scanned with %d truncated segments", stats.Truncated)
	}
	if len(got) != len(want) {
		t.Fatalf("read %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("record %d diverged:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}
}

// TestAuditFlushBatching verifies the fsync-batching contract: with a
// long flush interval, appends stay buffered (invisible to a reader)
// until Sync makes them durable.
func TestAuditFlushBatching(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{FlushEvery: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 0; i < 5; i++ {
		if err := l.Append(Record{RequestID: fmt.Sprintf("r%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	if got, _, _ := ReadAll(dir); len(got) != 0 {
		t.Fatalf("buffered records visible before flush: %d", len(got))
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	got, _, err := ReadAll(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Fatalf("after Sync read %d records, want 5", len(got))
	}
}

// TestAuditTornTailRepair simulates a crash mid-record: garbage or a
// partial frame at the tail is dropped on Open, everything before it
// survives, and the repaired log accepts new appends.
func TestAuditTornTailRepair(t *testing.T) {
	for _, tear := range []struct {
		name string
		mut  func([]byte) []byte
	}{
		{"garbage-suffix", func(b []byte) []byte { return append(b, 0xde, 0xad, 0xbe, 0xef) }},
		{"partial-record", func(b []byte) []byte { return b[:len(b)-3] }},
		{"partial-header", func(b []byte) []byte { return append(b, 0x10, 0x00) }},
	} {
		t.Run(tear.name, func(t *testing.T) {
			dir := t.TempDir()
			l, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 4; i++ {
				if err := l.Append(Record{RequestID: fmt.Sprintf("r%d", i)}); err != nil {
					t.Fatal(err)
				}
			}
			l.Close()
			seg := format.SegmentPath(dir, 0)
			raw, err := os.ReadFile(seg)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(seg, tear.mut(raw), 0o644); err != nil {
				t.Fatal(err)
			}
			l, err = Open(dir, Options{})
			if err != nil {
				t.Fatalf("open after torn tail: %v", err)
			}
			if err := l.Append(Record{RequestID: "post-repair"}); err != nil {
				t.Fatal(err)
			}
			l.Close()
			got, _, err := ReadAll(dir)
			if err != nil {
				t.Fatal(err)
			}
			var ids []string
			for _, r := range got {
				ids = append(ids, r.RequestID)
			}
			want := "r0 r1 r2 r3 post-repair"
			if tear.name == "partial-record" {
				want = "r0 r1 r2 post-repair"
			}
			if strings.Join(ids, " ") != want {
				t.Fatalf("recovered %q, want %q", strings.Join(ids, " "), want)
			}
		})
	}
}

// TestAuditCorruptMiddle: a bit flip in a sealed segment is
// unrepairable damage for the writer (ErrCorrupt — only the active
// tail may be torn), while the tolerant reader still recovers the
// longest valid prefix.
func TestAuditCorruptMiddle(t *testing.T) {
	dir := t.TempDir()
	opt := Options{SegmentBytes: 512}
	l, err := Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	payload := strings.Repeat("p", 100)
	for i := 0; i < 12; i++ { // enough to seal segment 0 and move on
		if err := l.Append(Record{RequestID: fmt.Sprintf("r%d", i), Left: []string{payload}}); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	clean, _, err := ReadAll(dir)
	if err != nil {
		t.Fatal(err)
	}
	seg := format.SegmentPath(dir, 0)
	raw, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(seg, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, opt); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("writer open on sealed-segment corruption: err=%v, want ErrCorrupt", err)
	}
	stats, err := Scan(dir, func(Record) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if stats.Truncated != 1 {
		t.Fatalf("Truncated = %d, want 1", stats.Truncated)
	}
	if stats.Records == 0 || stats.Records >= len(clean) {
		t.Fatalf("recovered %d records, want a strict non-empty prefix of %d", stats.Records, len(clean))
	}
}

// TestAuditRotationRetention holds the retention invariants under a
// tiny segment limit: the on-disk total never exceeds the cap, the
// active (newest) segment is never deleted, and what survives is a
// contiguous suffix of what was appended.
func TestAuditRotationRetention(t *testing.T) {
	dir := t.TempDir()
	const segBytes, retain = 4096, 8192
	l, err := Open(dir, Options{SegmentBytes: segBytes, RetainBytes: retain})
	if err != nil {
		t.Fatal(err)
	}
	var appended []string
	payload := strings.Repeat("p", 150)
	for i := 0; i < 300; i++ {
		id := fmt.Sprintf("req-%06d", i)
		if err := l.Append(Record{RequestID: id, Left: []string{payload}}); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		appended = append(appended, id)
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var total int64
		newest := ""
		for _, e := range entries {
			fi, err := e.Info()
			if err != nil {
				t.Fatal(err)
			}
			total += fi.Size()
			if e.Name() > newest {
				newest = e.Name()
			}
		}
		if total > retain {
			t.Fatalf("after append %d: on-disk total %d exceeds cap %d", i, total, retain)
		}
		if newest == "" {
			t.Fatalf("after append %d: active segment missing", i)
		}
	}
	l.Close()

	// Reopen must succeed on the pruned directory (first segment > 0).
	l, err = Open(dir, Options{SegmentBytes: segBytes, RetainBytes: retain})
	if err != nil {
		t.Fatalf("reopen pruned log: %v", err)
	}
	l.Close()

	got, _, err := ReadAll(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 || len(got) >= len(appended) {
		t.Fatalf("retained %d of %d records; want a proper non-empty suffix", len(got), len(appended))
	}
	suffix := appended[len(appended)-len(got):]
	for i, r := range got {
		if r.RequestID != suffix[i] {
			t.Fatalf("retained record %d = %s, want suffix element %s", i, r.RequestID, suffix[i])
		}
	}
}

// TestAuditRetentionTooSmall: a cap under two segments is a config
// error, not a log that silently deletes its active segment.
func TestAuditRetentionTooSmall(t *testing.T) {
	if _, err := Open(t.TempDir(), Options{SegmentBytes: 4096, RetainBytes: 4096}); err == nil {
		t.Fatal("Open accepted a retention cap smaller than two segments")
	}
}

// TestAuditOversizedRecord: a record that cannot fit one segment is
// rejected up front (the retention invariant depends on it).
func TestAuditOversizedRecord(t *testing.T) {
	l, err := Open(t.TempDir(), Options{SegmentBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	err = l.Append(Record{RequestID: "big", Left: []string{strings.Repeat("x", 2048)}})
	if err == nil {
		t.Fatal("oversized record accepted")
	}
}

// TestAuditConcurrentAppend drives parallel appends through the flush
// loop — the serving configuration — and checks nothing is lost or torn.
func TestAuditConcurrentAppend(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{FlushEvery: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	const workers, per = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := l.Append(Record{RequestID: fmt.Sprintf("w%d-%d", w, i)}); err != nil {
					t.Errorf("append: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, stats, err := ReadAll(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != workers*per || stats.Truncated != 0 {
		t.Fatalf("read %d records (%d truncated segments), want %d intact", len(got), stats.Truncated, workers*per)
	}
	if n := l.Records(); n != workers*per {
		t.Fatalf("Records() = %d, want %d", n, workers*per)
	}
}

// TestAuditSamplerProperties: determinism, rate monotonicity, and
// observed-rate convergence over 1e5 request IDs.
func TestAuditSamplerProperties(t *testing.T) {
	rates := []float64{0.1, 0.3, 0.5, 0.9}
	const n = 100000
	counts := make([]int, len(rates))
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("req-%d", i)
		prev := false
		for ri := range rates { // ascending rates: sampled set must only grow
			s := Sampled(id, rates[ri])
			if s != Sampled(id, rates[ri]) {
				t.Fatalf("verdict for %q at rate %g is unstable", id, rates[ri])
			}
			if prev && !s {
				t.Fatalf("monotonicity violated for %q: sampled at %g but not %g", id, rates[ri-1], rates[ri])
			}
			prev = s
			if s {
				counts[ri]++
			}
		}
	}
	for ri, rate := range rates {
		observed := float64(counts[ri]) / n
		if diff := observed - rate; diff < -0.02 || diff > 0.02 {
			t.Fatalf("rate %g observed %.4f over %d ids (tolerance 0.02)", rate, observed, n)
		}
	}
	if Sampled("anything", 0) {
		t.Fatal("rate 0 sampled a request")
	}
	if !Sampled("anything", 1) {
		t.Fatal("rate 1 skipped a request")
	}
}

// TestAuditExplanationRoundTrip: the compact unit form converts to and
// from pipeline.Explanation without loss.
func TestAuditExplanationRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	rec := randomRecord(rng, 0)
	ex := rec.Explanation()
	if ex.Prediction != rec.Prediction || ex.Proba != rec.Proba || len(ex.Units) != len(rec.Units) {
		t.Fatalf("Explanation() lost fields: %+v vs %+v", ex, rec)
	}
	back := CompactUnits(ex)
	if !reflect.DeepEqual(back, rec.Units) {
		t.Fatalf("CompactUnits round trip diverged:\n got %+v\nwant %+v", back, rec.Units)
	}
}

// TestAuditScanMissingDir: scanning a directory that does not exist is
// an error (the CLI reports it), not a panic or empty success.
func TestAuditScanMissingDir(t *testing.T) {
	if _, err := Scan(filepath.Join(t.TempDir(), "nope"), func(Record) error { return nil }); err == nil {
		t.Fatal("Scan of a missing directory succeeded")
	}
}
