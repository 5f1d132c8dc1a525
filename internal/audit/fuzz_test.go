package audit

import (
	"fmt"
	"os"
	"testing"
)

// FuzzAuditLog throws arbitrary damage at a WYMAUD segment — appended
// garbage, truncation, and bit flips, all derived from the fuzz input —
// and holds the recovery invariants: nothing panics, the tolerant
// reader recovers a prefix of the records that were appended, and the
// writer either repairs the directory on Open or fails with a clean
// error (never a half-open log).
func FuzzAuditLog(f *testing.F) {
	f.Add([]byte{3, 0, 0xFF, 0xA5})           // 3 records + tail garbage
	f.Add([]byte{5, 1, 7})                    // truncation
	f.Add([]byte{4, 2, 40, 0x80, 2, 9, 0xFF}) // bit flips
	f.Add([]byte{0, 1, 200})                  // empty log, deep truncate
	f.Fuzz(func(t *testing.T, input []byte) {
		if len(input) > 64 {
			input = input[:64]
		}
		next := func() byte {
			if len(input) == 0 {
				return 0
			}
			b := input[0]
			input = input[1:]
			return b
		}

		// Build a known-good single-segment log with n records.
		dir := t.TempDir()
		n := int(next()) % 8
		l, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		want := make([]string, n)
		for i := 0; i < n; i++ {
			want[i] = fmt.Sprintf("req-%d", i)
			if err := l.Append(Record{RequestID: want[i], Proba: float64(i) / 8}); err != nil {
				t.Fatal(err)
			}
		}
		l.Close()
		seg := format.SegmentPath(dir, 0)
		raw, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}

		// Damage it as the input dictates.
		switch next() % 3 {
		case 0: // arbitrary bytes appended after the valid prefix
			raw = append(raw, input...)
		case 1: // crash truncation
			cut := int(next())
			if cut > len(raw) {
				cut = len(raw)
			}
			raw = raw[:len(raw)-cut]
		case 2: // bit flips anywhere in the file
			for len(input) >= 2 && len(raw) > 0 {
				pos := int(next()) % len(raw)
				raw[pos] ^= next() | 1
			}
		}
		if err := os.WriteFile(seg, raw, 0o644); err != nil {
			t.Fatal(err)
		}

		// Tolerant reader: never panics, recovers a prefix.
		var got []string
		stats, err := Scan(dir, func(rec Record) error {
			got = append(got, rec.RequestID)
			return nil
		})
		if err != nil {
			t.Fatalf("Scan on damaged segment: %v", err)
		}
		_ = stats
		for i, id := range got {
			if i < n && id != want[i] {
				t.Fatalf("recovered record %d = %q, want prefix element %q", i, id, want[i])
			}
		}

		// Writer: Open either repairs (tail damage) or refuses cleanly.
		l2, err := Open(dir, Options{})
		if err != nil {
			return // unrepairable mid-file damage: a clean error is the contract
		}
		if err := l2.Append(Record{RequestID: "post-damage"}); err != nil {
			t.Fatalf("append after repair: %v", err)
		}
		if err := l2.Close(); err != nil {
			t.Fatal(err)
		}
		var last string
		if _, err := Scan(dir, func(rec Record) error { last = rec.RequestID; return nil }); err != nil {
			t.Fatalf("Scan after repair: %v", err)
		}
		if last != "post-damage" {
			t.Fatalf("record appended after repair not recovered (last = %q)", last)
		}
	})
}
