package feedback

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"wym/internal/data"
)

// FuzzFeedbackJournal drives the journal through arbitrary sequences of
// appends, crash-truncations, and tail corruption decoded from the fuzz
// input. Invariants: no operation sequence panics; reopening always
// succeeds (tail damage is repairable by construction); and as long as
// only crash-truncation has occurred, the replayed labels are exactly a
// batch-granular prefix of the acknowledged appends.
func FuzzFeedbackJournal(f *testing.F) {
	f.Add([]byte{0, 4, 3, 0, 9, 1, 7, 3, 0, 2, 2, 0xFF, 0xA5, 3})
	f.Add([]byte{0, 0, 0, 1, 200, 3})
	f.Fuzz(func(t *testing.T, input []byte) {
		if len(input) > 64 {
			input = input[:64]
		}
		dir := t.TempDir()
		const segLimit = 256 // tiny segments so rotation is exercised
		j, replayed, err := openLimit(dir, segLimit)
		if err != nil {
			t.Fatalf("initial open: %v", err)
		}
		if len(replayed) != 0 {
			t.Fatalf("fresh dir replayed %d labels", len(replayed))
		}
		var acked [][]Label // acknowledged batches, in append order
		tainted := false    // true once arbitrary bytes were written
		seq := 0

		next := func() byte {
			if len(input) == 0 {
				return 0
			}
			b := input[0]
			input = input[1:]
			return b
		}

		reopen := func(op string) {
			j.Close()
			var got []Label
			j, got, err = openLimit(dir, segLimit)
			if err != nil {
				t.Fatalf("%s: reopen: %v", op, err)
			}
			if tainted {
				return
			}
			// got must be a prefix of the acked batch concatenation.
			var all []Label
			for _, b := range acked {
				all = append(all, b...)
			}
			if len(got) > len(all) || (len(got) > 0 && !reflect.DeepEqual(got, all[:len(got)])) {
				t.Fatalf("%s: replay is not a prefix of acknowledged labels: got %d, acked %d",
					op, len(got), len(all))
			}
			// Batch granularity: the prefix must end on a batch boundary.
			n := len(got)
			for _, b := range acked {
				if n == 0 {
					break
				}
				if n < len(b) {
					t.Fatalf("%s: replay split a batch (%d labels into batch of %d)", op, n, len(b))
				}
				n -= len(b)
			}
			// Trim acked to what survived; further appends extend from here.
			survived := len(got)
			var kept [][]Label
			for _, b := range acked {
				if survived == 0 {
					break
				}
				kept = append(kept, b)
				survived -= len(b)
			}
			acked = kept
		}

		newestSegment := func() string {
			segs, _ := filepath.Glob(filepath.Join(dir, "*"+format.Ext))
			sort.Strings(segs)
			if len(segs) == 0 {
				return ""
			}
			return segs[len(segs)-1]
		}

		for len(input) > 0 {
			switch next() % 4 {
			case 0: // append a small batch derived from the input
				n := int(next())%3 + 1
				batch := make([]Label, n)
				for i := range batch {
					seq++
					batch[i] = Label{
						Left:  data.Entity{fmt.Sprintf("l%d-%d", seq, next())},
						Right: data.Entity{fmt.Sprintf("r%d", seq)},
						Match: next()%2 == 0,
					}
				}
				if err := j.Append(batch); err != nil {
					t.Fatalf("append: %v", err)
				}
				acked = append(acked, batch)
			case 1: // crash: truncate the newest segment by up to 255 bytes
				seg := newestSegment()
				if seg == "" {
					continue
				}
				cut := int64(next())
				st, err := os.Stat(seg)
				if err != nil {
					t.Fatal(err)
				}
				size := st.Size() - cut
				if size < 0 {
					size = 0
				}
				j.Close()
				if err := os.Truncate(seg, size); err != nil {
					t.Fatal(err)
				}
				reopen("truncate")
			case 2: // corruption: overwrite tail bytes of the newest segment
				seg := newestSegment()
				if seg == "" {
					continue
				}
				raw, err := os.ReadFile(seg)
				if err != nil {
					t.Fatal(err)
				}
				n := int(next())%8 + 1
				for i := 0; i < n && len(raw) > len(format.Magic); i++ {
					raw[len(raw)-1-i%len(raw)] ^= next() | 1
				}
				j.Close()
				if err := os.WriteFile(seg, raw, 0o644); err != nil {
					t.Fatal(err)
				}
				tainted = true
				// Tail corruption of the newest segment must stay repairable
				// unless the flipped bytes landed before the final record —
				// arbitrary flips can hit earlier records in this segment, so
				// a clean ErrCorrupt is acceptable; a panic is not.
				j2, _, err := openLimit(dir, segLimit)
				if err != nil {
					// Damaged beyond repair: reset the world and carry on.
					os.RemoveAll(dir)
					j2, _, err = openLimit(dir, segLimit)
					if err != nil {
						t.Fatalf("reset open: %v", err)
					}
					acked = nil
					tainted = false
				}
				j = j2
			case 3: // plain reopen
				reopen("reopen")
			}
		}
		j.Close()
	})
}
