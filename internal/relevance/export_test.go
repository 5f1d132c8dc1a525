package relevance

import (
	"math"

	"wym/internal/vec"
)

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

// Path is a scorer rebuilt on one tile width, named by that width.
type Path[S any] struct {
	Name string
	S    S
}

// TilePaths returns s rebuilt on each float64 tile width the scorer can
// run: DenseTile64's 4 lanes, then WideTile64's 8, each on whatever code
// this machine runs for that width. The rebuilt scorers share s's
// network and weights.
func TilePaths(s *NN) []Path[*NN] {
	return []Path[*NN]{
		{"256-bit", &NN{net: s.net, lanes: s.lanes.onTile(vec.Lanes64, vec.DenseTile64)}},
		{"512-bit", &NN{net: s.net, lanes: s.lanes.onTile(vec.WideLanes64, vec.WideTile64)}},
	}
}

// FastTilePaths is TilePaths for FastNN: DenseTile32's 8 lanes, then
// WideTile32's 16.
func FastTilePaths(f *FastNN) []Path[*FastNN] {
	return []Path[*FastNN]{
		{"256-bit", &FastNN{spec: f.spec, lanes: f.lanes.onTile(vec.Lanes32, vec.DenseTile32)}},
		{"512-bit", &FastNN{spec: f.spec, lanes: f.lanes.onTile(vec.WideLanes32, vec.WideTile32)}},
	}
}

func (n *laneNet[T]) onTile(lanes int, tile vec.Tile[T]) *laneNet[T] {
	m, err := newLaneNet(n.dim, lanes, tile, n.layers)
	if err != nil {
		panic(err)
	}
	return m
}
