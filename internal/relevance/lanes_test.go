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

// plantEdges replaces about a quarter of the record's embedding values
// with IEEE edge values.
func plantEdges(rng *rand.Rand, rec *Record) {
	for _, v := range append(rec.LeftVecs, rec.RightVecs...) {
		for j := range v {
			if rng.Intn(4) == 0 {
				v[j] = edgeValues[rng.Intn(len(edgeValues))]
			}
		}
	}
}

// TestNNScoreMatchesForwardRagged pins NN.Score to the per-unit forward
// pass bit for bit where the lane blocking has edges, on both tile
// widths: every unit count from 0 to 2*WideLanes64+1 (partial blocks of
// either width), layer widths off the tile, paired and unpaired units,
// and embeddings holding signed zeros, subnormals, infinities and NaN.
func TestNNScoreMatchesForwardRagged(t *testing.T) {
	const dim = 7
	ragged, err := NewNN(raggedNet(dim), dim)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(21))
	for name, net := range map[string]*NN{"ragged": ragged, "trained": trainedScorer(t, dim)} {
		for _, p := range TilePaths(net) {
			path, s := p.Name, p.S
			for n := 0; n <= 2*vec.WideLanes64+1; n++ {
				for _, edges := range []bool{false, true} {
					nl, nr := n, n/2 // paired, then unpaired left
					if n%2 == 1 {
						nl, nr = n/3, n // paired, then unpaired right
					}
					rec := syntheticRecord(rng, dim, nl, nr)
					if edges {
						plantEdges(rng, rec)
					}
					if i, ok := SameScores(s.Score(rec), ForwardReference(s, rec)); !ok {
						t.Fatalf("%s, %s tile, %d units, edges %v: unit %d differs from the forward pass", name, path, n, edges, i)
					}
				}
			}
		}
	}
}

// raggedBatch returns records whose unit counts mix 0, every count from 1
// to 2*WideLanes64+1, and counts that straddle or exceed a packed group
// (groupUnits ± 1, 2*groupUnits+3), in shuffled order; about half carry
// IEEE edge values in their embeddings.
func raggedBatch(rng *rand.Rand, dim int) []*Record {
	counts := []int{0, 0, groupUnits - 1, groupUnits, groupUnits + 1, 2*groupUnits + 3}
	for n := 1; n <= 2*vec.WideLanes64+1; n++ {
		counts = append(counts, n)
	}
	rng.Shuffle(len(counts), func(i, j int) { counts[i], counts[j] = counts[j], counts[i] })
	recs := make([]*Record, len(counts))
	for i, n := range counts {
		nl, nr := n, rng.Intn(n+1) // max(nl, nr) units, min(nl, nr) of them paired
		if rng.Intn(2) == 0 {
			nl, nr = nr, nl
		}
		recs[i] = syntheticRecord(rng, dim, nl, nr)
		if rng.Intn(2) == 0 {
			plantEdges(rng, recs[i])
		}
	}
	return recs
}

// batchChunks is how the batch tests cut a record list: whole, and in
// chunks of several sizes, so records share blocks and groups in many
// arrangements.
var batchChunks = []int{1, 2, 5, 7, 1 << 30}

// TestNNScoreMatchesForwardBatch pins NN.ScoreBatch to the per-unit
// forward pass bit for bit on a ragged batch, on both tile widths and in
// every chunking: records of 0 units, partial blocks, records that
// straddle a group boundary, and IEEE edge values.
func TestNNScoreMatchesForwardBatch(t *testing.T) {
	const dim = 7
	ragged, err := NewNN(raggedNet(dim), dim)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(23))
	for name, net := range map[string]*NN{"ragged": ragged, "trained": trainedScorer(t, dim)} {
		recs := raggedBatch(rng, dim)
		want := make([][]float64, len(recs))
		for i, rec := range recs {
			want[i] = ForwardReference(net, rec)
		}
		for _, p := range TilePaths(net) {
			path, s := p.Name, p.S
			for _, size := range batchChunks {
				for from := 0; from < len(recs); from += size {
					to := min(from+size, len(recs))
					got := s.ScoreBatch(recs[from:to])
					if len(got) != to-from {
						t.Fatalf("%s, %s tile: %d score slices for %d records", name, path, len(got), to-from)
					}
					for k := range got {
						if u, ok := SameScores(got[k], want[from+k]); !ok {
							t.Fatalf("%s, %s tile, chunks of %d: record %d (%d units) unit %d differs from the forward pass",
								name, path, size, from+k, len(recs[from+k].Units), u)
						}
					}
				}
			}
		}
	}
}

// TestFastNNScoreBatchMatchesScore pins FastNN.ScoreBatch to FastNN.Score
// bit for bit on the ragged batch, on both tile widths and in every
// chunking. Where this machine runs both widths in assembly, the two
// widths also agree bit for bit: they fuse the same terms in the same
// order, so switching an arena model to 16 lanes moves no score.
func TestFastNNScoreBatchMatchesScore(t *testing.T) {
	const dim = 7
	fast, err := NewFastNN(trainedScorer(t, dim))
	if err != nil {
		t.Fatal(err)
	}
	recs := raggedBatch(rand.New(rand.NewSource(25)), dim)
	paths := FastTilePaths(fast)
	for _, p := range paths {
		path, f := p.Name, p.S
		for _, size := range batchChunks {
			for from := 0; from < len(recs); from += size {
				to := min(from+size, len(recs))
				for k, got := range f.ScoreBatch(recs[from:to]) {
					if u, ok := SameScores(got, f.Score(recs[from+k])); !ok {
						t.Fatalf("%s tile, chunks of %d: record %d unit %d: ScoreBatch differs from Score", path, size, from+k, u)
					}
				}
			}
		}
	}
	if lanes, _ := vec.ScoreTile32(); lanes != vec.WideLanes32 {
		t.Log("no 512-bit assembly on this machine: the widths are not compared")
		return
	}
	for i, rec := range recs {
		if u, ok := SameScores(paths[1].S.Score(rec), paths[0].S.Score(rec)); !ok {
			t.Fatalf("record %d unit %d: the 512-bit tile differs from the 256-bit one", i, u)
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

// BenchmarkNNScoreBatch and BenchmarkFastNNScoreBatch time scoring as it
// runs inside a batch predict, where generating each pair evicts the
// scorer's weights from cache: 32 records of 6–24 units on the paper
// topology, 4 MiB of other memory touched before each record, and only
// the scoring timed. "Score" scores each record as it comes; "ScoreBatch"
// scores them in chunks of 4 records, the way the engine's chunks do.
// Both report µs per unit.
func BenchmarkNNScoreBatch(b *testing.B) {
	s, _ := paperScorer(b)
	benchScoreBatch(b, s)
}

func BenchmarkFastNNScoreBatch(b *testing.B) {
	s, _ := paperScorer(b)
	fast, err := NewFastNN(s)
	if err != nil {
		b.Fatal(err)
	}
	benchScoreBatch(b, fast)
}

func benchScoreBatch(b *testing.B, s BatchScorer) {
	const dim, records, chunk = 96, 32, 4
	rng := rand.New(rand.NewSource(1))
	recs := make([]*Record, records)
	units := 0
	for i := range recs {
		recs[i] = syntheticRecord(rng, dim, 6+rng.Intn(13), 6+rng.Intn(13))
		units += len(recs[i].Units)
	}
	evict := make([]byte, 4<<20)
	touch := func() {
		for i := range evict {
			evict[i]++
		}
	}
	run := func(b *testing.B, score func(from, to int)) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for from := 0; from < records; from += chunk {
				b.StopTimer()
				for range chunk {
					touch()
				}
				b.StartTimer()
				score(from, from+chunk)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*units), "µs/unit")
	}
	b.Run("Score", func(b *testing.B) {
		run(b, func(from, to int) {
			for _, rec := range recs[from:to] {
				b.StopTimer()
				touch()
				b.StartTimer()
				benchSink = s.Score(rec)
			}
		})
	})
	b.Run("ScoreBatch", func(b *testing.B) {
		run(b, func(from, to int) {
			b.StopTimer()
			for range to - from {
				touch()
			}
			b.StartTimer()
			benchBatchSink = s.ScoreBatch(recs[from:to])
		})
	})
}

var (
	benchSink      []float64
	benchBatchSink [][]float64
)
