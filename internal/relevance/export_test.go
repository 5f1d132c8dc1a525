package relevance

import "math"

// ForwardReference is the per-unit reference NN.Score must equal bit for
// bit: nn.Net.Forward over Record.Features, then clamped to [-1, 1].
func ForwardReference(s *NN, rec *Record) []float64 {
	out := make([]float64, len(rec.Units))
	for i := range rec.Units {
		v := s.net.Forward(rec.Features(i))[0]
		if v > 1 {
			v = 1
		}
		if v < -1 {
			v = -1
		}
		out[i] = v
	}
	return out
}

// SameScores reports whether two score vectors agree bit for bit, any two
// NaNs counting as equal.
func SameScores(a, b []float64) (int, bool) {
	if len(a) != len(b) {
		return -1, false
	}
	for i := range a {
		if a[i] != a[i] && b[i] != b[i] {
			continue
		}
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i, false
		}
	}
	return 0, true
}
