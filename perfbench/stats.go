package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// minBeyond is the number of samples that must lie above a reported tail:
// a tail backed by fewer samples is one unlucky request, not a percentile.
const minBeyond = 10

// latency is a timing summary: the median, the tail, and the counts that
// say how much the tail can be trusted.
type latency struct {
	N       int     // samples
	P50     float64 // median
	Tail    float64 // value at TailPct
	TailPct float64 // highest percentile with at least minBeyond samples beyond it
	Beyond  int     // samples strictly beyond the tail's rank
}

// summarize sorts a copy of xs and reports its median and tail. The tail
// is the nearest-rank value at capPct, or at the highest lower percentile
// that still has minBeyond samples beyond it (capPct 100 gives the plain
// rule). A rank at or below the median's is no tail: when too few samples
// leave room for one (fewer than 2*minBeyond+3), the tail is the maximum,
// reported at 100% with zero samples beyond it.
func summarize(xs []float64, capPct float64) latency {
	n := len(xs)
	if n == 0 {
		return latency{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	l := latency{N: n, P50: median(s)}
	k := n - minBeyond - 1
	if c := int(math.Ceil(capPct*float64(n)/100)) - 1; c < k {
		k = c
	}
	if k > n/2 {
		l.Tail, l.TailPct, l.Beyond = s[k], 100*float64(k+1)/float64(n), n-k-1
	} else {
		l.Tail, l.TailPct = s[n-1], 100
	}
	return l
}

// String renders the summary with its sample counts.
func (l latency) String() string {
	return fmt.Sprintf("p50 %.4f, p%.2f %.4f (n=%d, %d beyond)", l.P50, l.TailPct, l.Tail, l.N, l.Beyond)
}

// median returns the middle of xs (the mean of the two middle values for
// an even count). xs need not be sorted; it is not modified.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := xs
	if !sort.Float64sAreSorted(xs) {
		s = append([]float64(nil), xs...)
		sort.Float64s(s)
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// f1 is the harmonic mean of precision and recall from confusion counts;
// 0 when there is nothing to score.
func f1(tp, fp, fn int) float64 {
	if tp == 0 {
		return 0
	}
	p := float64(tp) / float64(tp+fp)
	r := float64(tp) / float64(tp+fn)
	return 2 * p * r / (p + r)
}

// labelF1 scores predicted labels against truth.
func labelF1(pred, truth []bool) float64 {
	var tp, fp, fn int
	for i := range pred {
		switch {
		case pred[i] && truth[i]:
			tp++
		case pred[i]:
			fp++
		case truth[i]:
			fn++
		}
	}
	return f1(tp, fp, fn)
}

// pairF1 scores a set of emitted match pairs against the true pairs.
// Duplicates in got count once.
func pairF1(got, truth [][2]int) float64 {
	want := make(map[[2]int]bool, len(truth))
	for _, p := range truth {
		want[p] = true
	}
	seen := make(map[[2]int]bool, len(got))
	var tp, fp int
	for _, p := range got {
		if seen[p] {
			continue
		}
		seen[p] = true
		if want[p] {
			tp++
		} else {
			fp++
		}
	}
	return f1(tp, fp, len(want)-tp)
}

// recall is the share of truth pairs present in got.
func recall(got, truth [][2]int) float64 {
	if len(truth) == 0 {
		return 1
	}
	have := make(map[[2]int]bool, len(got))
	for _, p := range got {
		have[p] = true
	}
	hit := 0
	for _, p := range truth {
		if have[p] {
			hit++
		}
	}
	return float64(hit) / float64(len(truth))
}

// fileHash is the SHA-256 of a file's bytes, hex encoded.
func fileHash(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", fmt.Errorf("hashing %s: %w", path, err)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
