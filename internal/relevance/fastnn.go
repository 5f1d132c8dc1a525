package relevance

import (
	"fmt"
	"math"

	"wym/internal/arena"
	"wym/internal/nn"
	"wym/internal/vec"
)

// FastNN is the arena-path relevance scorer: the same network as NN in
// float32, with weights in the arena's row-major layout, each row
// zero-padded to a multiple of 8. Score and ScoreBatch run the float32
// lane kernel over 16 decision units at a time on AVX-512 hosts and 8
// elsewhere (vec.ScoreTile32), reading the padded rows in place. Its
// float32 arithmetic is pinned against the float64 scorer by the
// prediction-equivalence goldens in internal/core.
//
// A FastNN is built either from a trained float64 network (NewFastNN, at
// `wym model convert` time) or directly over the weight views of an
// opened arena (FastNNFromSpec, at load time — zero copies). It is safe
// for concurrent use; per-call scratch is pooled.
type FastNN struct {
	spec  []arena.ScorerLayer // the weights as the arena stores them
	lanes *laneNet[float32]
}

func roundUp8(n int) int { return (n + 7) &^ 7 }

// NewFastNN converts a trained float64 scorer into the padded float32
// layout. The conversion narrows every weight once; no further precision
// is lost at score time beyond the float32 arithmetic itself.
func NewFastNN(s *NN) (*FastNN, error) {
	if s == nil || s.lanes == nil {
		return nil, fmt.Errorf("relevance: no trained network to convert")
	}
	spec := make([]arena.ScorerLayer, len(s.net.Layers))
	for li, l := range s.net.Layers {
		act, err := actID(l.Act)
		if err != nil {
			return nil, fmt.Errorf("relevance: layer %d: %w", li, err)
		}
		in, out := s.lanes.layers[li].in, len(l.W)
		sl := arena.ScorerLayer{
			In: in, Out: out, InPadded: roundUp8(in), Act: act,
			W: make([]float32, out*roundUp8(in)),
			B: make([]float32, out),
		}
		for i, row := range l.W {
			dst := sl.W[i*sl.InPadded:]
			for j, wv := range row {
				dst[j] = float32(wv)
			}
			sl.B[i] = float32(l.B[i])
		}
		spec[li] = sl
	}
	return newFastNN(spec, s.Dim())
}

// FastNNFromSpec wraps an arena scorer section without copying: the
// weight slices are the file's own views, so a loaded model's scorer
// costs no decode and no allocation beyond the struct itself.
func FastNNFromSpec(sp *arena.Scorer) (*FastNN, error) {
	if sp == nil || len(sp.Layers) == 0 {
		return nil, fmt.Errorf("relevance: arena has no scorer")
	}
	for li, l := range sp.Layers {
		if l.InPadded%8 != 0 {
			return nil, fmt.Errorf("relevance: arena scorer layer %d: padded width %d not a multiple of 8", li, l.InPadded)
		}
	}
	if in0 := sp.Layers[0].In; in0%2 != 0 {
		return nil, fmt.Errorf("relevance: arena scorer input width %d is odd", in0)
	}
	return newFastNN(sp.Layers, sp.Layers[0].In/2)
}

func newFastNN(spec []arena.ScorerLayer, dim int) (*FastNN, error) {
	layers := make([]laneLayer[float32], len(spec))
	for li, l := range spec {
		layers[li] = laneLayer[float32]{in: l.In, out: l.Out, stride: l.InPadded, w: l.W, b: l.B, act: actF32(l.Act)}
	}
	width, tile := vec.ScoreTile32()
	lanes, err := newLaneNet(dim, width, tile, layers)
	if err != nil {
		return nil, err
	}
	return &FastNN{spec: spec, lanes: lanes}, nil
}

// Dim returns the embedding dimension the scorer expects.
func (f *FastNN) Dim() int { return f.lanes.dim }

// Spec returns the network in arena layout, sharing the weight slices.
func (f *FastNN) Spec() *arena.Scorer {
	return &arena.Scorer{Layers: append([]arena.ScorerLayer(nil), f.spec...)}
}

// Score implements Scorer; outputs are clamped to [-1, 1] like NN.Score.
func (f *FastNN) Score(rec *Record) []float64 { return f.lanes.scoreOne(rec) }

// ScoreBatch implements BatchScorer: Score of each record, bit for bit,
// with the records' units packed into shared lane blocks.
func (f *FastNN) ScoreBatch(recs []*Record) [][]float64 { return f.lanes.scoreBatch(recs) }

// actF32 returns the in-place float32 activation for an arena act code;
// tanh and sigmoid are evaluated in float64 and narrowed.
func actF32(act uint32) func([]float32) {
	switch act {
	case arena.ActReLU:
		return func(y []float32) {
			for i, v := range y {
				if v < 0 {
					y[i] = 0
				}
			}
		}
	case arena.ActTanh:
		return func(y []float32) {
			for i, v := range y {
				y[i] = float32(math.Tanh(float64(v)))
			}
		}
	case arena.ActSigmoid:
		return func(y []float32) {
			for i, v := range y {
				y[i] = float32(1 / (1 + math.Exp(-float64(v))))
			}
		}
	default:
		return func([]float32) {}
	}
}

func actID(a nn.Activation) (uint32, error) {
	switch a {
	case nn.Identity:
		return arena.ActIdentity, nil
	case nn.ReLU:
		return arena.ActReLU, nil
	case nn.Tanh:
		return arena.ActTanh, nil
	case nn.Sigmoid:
		return arena.ActSigmoid, nil
	default:
		return 0, fmt.Errorf("unsupported activation %d", a)
	}
}
