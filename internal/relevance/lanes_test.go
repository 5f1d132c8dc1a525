package relevance

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"wym/internal/nn"
	"wym/internal/vec"
)

// edgeValues are the IEEE values the exactness tests plant in embeddings.
var edgeValues = []float64{0, math.Copysign(0, -1), 5e-324, -1e-310, math.Inf(1), math.Inf(-1), math.NaN()}

// raggedNet has widths that are not multiples of the tile and uses every
// activation.
func raggedNet(dim int) *nn.Net {
	return nn.New([]int{2 * dim, 13, 9, 5, 1}, []nn.Activation{nn.ReLU, nn.Sigmoid, nn.Identity, nn.Tanh}, 3)
}

// TestNNScoreMatchesForwardRagged pins NN.Score to the per-unit forward
// pass bit for bit where the lane blocking has edges: every unit count from
// 0 to 2*Lanes64+1 (partial blocks), layer widths off the tile, paired and
// unpaired units, and embeddings holding signed zeros, subnormals,
// infinities and NaN.
func TestNNScoreMatchesForwardRagged(t *testing.T) {
	const dim = 7
	ragged, err := NewNN(raggedNet(dim), dim)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(21))
	for name, s := range map[string]*NN{"ragged": ragged, "trained": trainedScorer(t, dim)} {
		for n := 0; n <= 2*vec.Lanes64+1; n++ {
			for _, edges := range []bool{false, true} {
				nl, nr := n, n/2 // paired, then unpaired left
				if n%2 == 1 {
					nl, nr = n/3, n // paired, then unpaired right
				}
				rec := syntheticRecord(rng, dim, nl, nr)
				if edges {
					for _, v := range append(rec.LeftVecs, rec.RightVecs...) {
						for j := range v {
							if rng.Intn(4) == 0 {
								v[j] = edgeValues[rng.Intn(len(edgeValues))]
							}
						}
					}
				}
				if i, ok := SameScores(s.Score(rec), ForwardReference(s, rec)); !ok {
					t.Fatalf("%s, %d units, edges %v: unit %d differs from the forward pass", name, n, edges, i)
				}
			}
		}
	}
}

// concurrentScore scores a fixed set of records from four goroutines and
// requires every result to equal the single-threaded one: the pooled
// scratch must never leak between calls.
func concurrentScore(t *testing.T, s Scorer, dim int) {
	rng := rand.New(rand.NewSource(4))
	recs := make([]*Record, 8)
	want := make([][]float64, len(recs))
	for i := range recs {
		recs[i] = syntheticRecord(rng, dim, 2+i, 3+i/2)
		want[i] = s.Score(recs[i])
	}
	done := make(chan error, 4)
	for g := 0; g < 4; g++ {
		go func() {
			for iter := 0; iter < 50; iter++ {
				for i, rec := range recs {
					got := s.Score(rec)
					for j := range got {
						if got[j] != want[i][j] {
							done <- fmt.Errorf("rec %d unit %d: %g != %g", i, j, got[j], want[i][j])
							return
						}
					}
				}
			}
			done <- nil
		}()
	}
	for g := 0; g < 4; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func TestNNConcurrentScore(t *testing.T) {
	const dim = 12
	concurrentScore(t, trainedScorer(t, dim), dim)
}

// TestNNGobDecodeRejectsMalformed feeds GobDecode every network shape the
// kernel cannot run: each must fail with an error naming the defect, and
// never panic.
func TestNNGobDecodeRejectsMalformed(t *testing.T) {
	const dim = 3
	good := func() *nn.Net {
		return nn.New([]int{2 * dim, 5, 1}, []nn.Activation{nn.ReLU, nn.Tanh}, 1)
	}
	cases := []struct {
		name, want string
		net        func() *nn.Net
		dim        int
	}{
		{"nil network", "no layers", func() *nn.Net { return nil }, dim},
		{"no layers", "no layers", func() *nn.Net { return &nn.Net{} }, dim},
		{"ragged row", "row 2 has 5 weights", func() *nn.Net {
			n := good()
			n.Layers[0].W[2] = n.Layers[0].W[2][:5]
			return n
		}, dim},
		{"bias count", "4 biases for 5 weight rows", func() *nn.Net {
			n := good()
			n.Layers[0].B = n.Layers[0].B[:4]
			return n
		}, dim},
		{"broken chain", "does not chain", func() *nn.Net {
			n := good()
			n.Layers[1] = nn.New([]int{6, 1}, []nn.Activation{nn.Tanh}, 1).Layers[0]
			return n
		}, dim},
		{"output width", "output width 2", func() *nn.Net {
			return nn.New([]int{2 * dim, 5, 2}, []nn.Activation{nn.ReLU, nn.Tanh}, 1)
		}, dim},
		{"input width", "input width 6, want 2 × embedding dim 4", good, dim + 1},
		{"zero dim", "embedding dim 0", good, 0},
		{"empty layer", "malformed", func() *nn.Net {
			n := good()
			n.Layers[1].W, n.Layers[1].B = nil, nil
			return n
		}, dim},
		{"unknown activation", "unsupported activation 9", func() *nn.Net {
			n := good()
			n.Layers[1].Act = 9
			return n
		}, dim},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := gob.NewEncoder(&buf).Encode(nnSnapshot{Net: tc.net(), Dim: tc.dim}); err != nil {
				t.Fatal(err)
			}
			var s NN
			err := s.GobDecode(buf.Bytes())
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("GobDecode error %v, want one containing %q", err, tc.want)
			}
		})
	}
}

// BenchmarkNNScore and BenchmarkFastNNScore score one 25-unit record on
// the paper topology (192 → 300 → 64 → 32 → 1).
func paperScorer(b *testing.B) (*NN, *Record) {
	const dim = 96
	net := nn.New([]int{2 * dim, 300, 64, 32, 1}, []nn.Activation{nn.ReLU, nn.ReLU, nn.ReLU, nn.Tanh}, 1)
	s, err := NewNN(net, dim)
	if err != nil {
		b.Fatal(err)
	}
	return s, syntheticRecord(rand.New(rand.NewSource(1)), dim, 12, 13)
}

func BenchmarkNNScore(b *testing.B) {
	s, rec := paperScorer(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = s.Score(rec)
	}
}

func BenchmarkFastNNScore(b *testing.B) {
	s, rec := paperScorer(b)
	fast, err := NewFastNN(s)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = fast.Score(rec)
	}
}

var benchSink []float64
