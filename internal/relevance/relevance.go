// Package relevance implements the decision-unit relevance scorer (§4.2 of
// the paper). A relevance score in [-1, 1] measures how strongly a unit
// pushes, in isolation, toward a match (+1) or non-match (-1) decision.
//
// The production scorer is a feed-forward regression network trained on
// heuristic targets built with Equations 2 and 3: unit-level labels are
// derived from the record label and the unit's embedding similarity,
// neutralized when they would contradict each other (challenge R1), and
// averaged over every occurrence of the same token pair in the dataset.
// Unpaired units are treated as paired with a zero-embedded [UNP] token
// (challenge R5); the mean ⊕ |difference| featurization makes the score
// symmetric (challenge R3).
//
// The package also provides the ablation scorers of Table 4: Binary (1 for
// paired, 0 for unpaired) and Cosine (the raw embedding similarity).
package relevance

import (
	"context"
	"fmt"

	"wym/internal/nn"
	"wym/internal/tokenize"
	"wym/internal/units"
	"wym/internal/vec"
)

// Record packages one EM record prepared for scoring: its decision units
// and the contextualized token embeddings they index.
type Record struct {
	Units               []units.Unit
	Left, Right         []tokenize.Token
	LeftVecs, RightVecs [][]float64
}

// Dim returns the embedding dimension of the record (0 when it has no
// tokens on either side).
func (r *Record) Dim() int {
	if len(r.LeftVecs) > 0 {
		return len(r.LeftVecs[0])
	}
	if len(r.RightVecs) > 0 {
		return len(r.RightVecs[0])
	}
	return 0
}

// UnitVectors returns the unit's left and right embedding; the absent side
// of an unpaired unit is the zero vector ([UNP]).
func (r *Record) UnitVectors(i int) (l, rv []float64) {
	u := r.Units[i]
	d := r.Dim()
	zero := func() []float64 { return make([]float64, d) }
	if u.Left >= 0 {
		l = r.LeftVecs[u.Left]
	} else {
		l = zero()
	}
	if u.Right >= 0 {
		rv = r.RightVecs[u.Right]
	} else {
		rv = zero()
	}
	return l, rv
}

// Features returns the scorer input for unit i: mean(l, r) ⊕ |l - r|.
// The representation is invariant to swapping l and r, which guarantees
// the symmetry requirement on paired units.
func (r *Record) Features(i int) []float64 {
	l, rv := r.UnitVectors(i)
	return vec.Concat(vec.Mean(l, rv), vec.AbsDiff(l, rv))
}

// Scorer assigns one relevance score in [-1, 1] per unit of a record.
type Scorer interface {
	Score(rec *Record) []float64
}

// BatchScorer is a Scorer that also scores many records in one call:
// ScoreBatch(recs)[i] equals Score(recs[i]) bit for bit. NN and FastNN
// pack the records' units into shared lane blocks, so the network's
// weights are fetched once per group of records instead of once per
// record. A unit's score is a function of its two vectors alone, so a
// record holding any subset of another's units scores them the same;
// the engine's batch sessions rely on it to score only the units they
// have not scored before.
type BatchScorer interface {
	Scorer
	ScoreBatch(recs []*Record) [][]float64
}

// Binary is the Table 4 ablation scorer: 1 for paired units, 0 for
// unpaired ones.
type Binary struct{}

// Score implements Scorer.
func (Binary) Score(rec *Record) []float64 {
	out := make([]float64, len(rec.Units))
	for i, u := range rec.Units {
		if u.Kind == units.Paired {
			out[i] = 1
		}
	}
	return out
}

// Cosine is the Table 4 ablation scorer that returns the raw embedding
// cosine similarity of the unit's tokens. Unpaired units score 0: the
// cosine against the zero-embedded [UNP] token.
type Cosine struct{}

// Score implements Scorer.
func (Cosine) Score(rec *Record) []float64 {
	out := make([]float64, len(rec.Units))
	for i := range rec.Units {
		l, r := rec.UnitVectors(i)
		out[i] = vec.Cosine(l, r)
	}
	return out
}

// TargetConfig holds the α and β similarity thresholds of Equation 2.
type TargetConfig struct {
	// Alpha: in a matching record, a paired unit counts as match evidence
	// (target 1) only when its similarity reaches Alpha; below it the
	// target is neutralized to 0.
	Alpha float64
	// Beta: in a non-matching record, a paired unit counts as non-match
	// evidence (target -1) only when its similarity is below Beta; above
	// it — tokens that genuinely mean the same thing in different
	// entities — the target is neutralized to 0 (challenge R1).
	Beta float64
}

// DefaultTargetConfig returns the repo defaults: α = 0.65, β = 0.8.
// β sits above the pairing thresholds so that only strongly similar pairs
// inside non-matching records are excused.
func DefaultTargetConfig() TargetConfig { return TargetConfig{Alpha: 0.65, Beta: 0.8} }

// UnitTarget applies Equation 2 (and its unpaired analogue) to one unit:
// it returns the raw target in {-1, 0, 1} given the record label.
func UnitTarget(u units.Unit, sim float64, label int, cfg TargetConfig) float64 {
	if u.Kind != units.Paired {
		// Unpaired units are non-match evidence; inside matching records
		// the evidence contradicts the label and is neutralized.
		if label == 1 {
			return 0
		}
		return -1
	}
	if label == 1 {
		if sim >= cfg.Alpha {
			return 1
		}
		return 0
	}
	if sim < cfg.Beta {
		return -1
	}
	return 0
}

// TrainingSet accumulates Equation 3: for every decision unit occurrence
// it records the features, and per unit key the running mean of targets.
type TrainingSet struct {
	cfg TargetConfig

	features [][]float64
	keys     []string
	sum      map[string]float64
	count    map[string]int
}

// NewTrainingSet returns an empty accumulator.
func NewTrainingSet(cfg TargetConfig) *TrainingSet {
	return &TrainingSet{cfg: cfg, sum: make(map[string]float64), count: make(map[string]int)}
}

// Add appends every unit of the record with the given label.
func (ts *TrainingSet) Add(rec *Record, label int) {
	for i, u := range rec.Units {
		key := units.Key(u, rec.Left, rec.Right)
		ts.features = append(ts.features, rec.Features(i))
		ts.keys = append(ts.keys, key)
		ts.sum[key] += UnitTarget(u, u.Sim, label, ts.cfg)
		ts.count[key]++
	}
}

// Len returns the number of accumulated unit occurrences.
func (ts *TrainingSet) Len() int { return len(ts.features) }

// Materialize returns the feature matrix and the per-occurrence targets
// y*, each occurrence receiving its unit key's dataset-wide mean target.
func (ts *TrainingSet) Materialize() (x [][]float64, y [][]float64) {
	y = make([][]float64, len(ts.keys))
	for i, key := range ts.keys {
		y[i] = []float64{ts.sum[key] / float64(ts.count[key])}
	}
	return ts.features, y
}

// NN is the production relevance scorer: the paper's 300/64/32 ReLU
// network with a tanh output head, regressing the Equation 3 targets.
// Score and ScoreBatch run the network through the float64 lane kernel,
// 8 units per block on AVX-512 hosts and 4 elsewhere (vec.ScoreTile64),
// bit-identical to nn.Net.Forward over Record.Features on every path
// (TestNNScoreMatchesForward).
type NN struct {
	net   *nn.Net // the trainer's form, and the gob form
	lanes *laneNet[float64]
}

// NewNN wraps a fitted network as the scorer for dim-dimensional
// embeddings. It rejects a network the kernel cannot run: one that fails
// nn.Net.Validate, an unknown activation, an input width other than 2*dim
// or an output width other than 1. It then packs each layer's rows into
// one contiguous block and points the network's rows into it, so the
// kernel and the network read the same weights. The NN owns net.
func NewNN(net *nn.Net, dim int) (*NN, error) {
	if err := net.Validate(); err != nil {
		return nil, fmt.Errorf("relevance: scorer network: %w", err)
	}
	layers := make([]laneLayer[float64], len(net.Layers))
	for li, l := range net.Layers {
		if _, err := actID(l.Act); err != nil {
			return nil, fmt.Errorf("relevance: scorer layer %d: %w", li, err)
		}
		out, in := len(l.W), len(l.W[0])
		packed := make([]float64, out*in)
		for i, row := range l.W {
			copy(packed[i*in:], row)
		}
		layers[li] = laneLayer[float64]{in: in, out: out, stride: in, w: packed, b: l.B, act: l.Act.ApplyAll}
	}
	width, tile := vec.ScoreTile64()
	lanes, err := newLaneNet(dim, width, tile, layers)
	if err != nil {
		return nil, err
	}
	for li, l := range net.Layers {
		in := layers[li].in
		for i := range l.W {
			l.W[i] = layers[li].w[i*in : (i+1)*in : (i+1)*in]
		}
	}
	return &NN{net: net, lanes: lanes}, nil
}

// NNConfig configures TrainNN.
type NNConfig struct {
	Hidden []int     // hidden layer sizes; nil = the paper's {300, 64, 32}
	Train  nn.Config // optimizer settings; zero Epochs = nn.Defaults()
	Seed   int64
}

// TrainNN fits the scorer network on an accumulated training set. dim is
// the embedding dimensionality (the input size is 2*dim).
func TrainNN(ts *TrainingSet, dim int, cfg NNConfig) (*NN, error) {
	return TrainNNCtx(context.Background(), ts, dim, cfg)
}

// TrainNNCtx is TrainNN honoring a context: cancellation propagates into
// the epoch loop (nn.FitCtx), so an interrupt abandons scorer training at
// the next epoch boundary.
func TrainNNCtx(ctx context.Context, ts *TrainingSet, dim int, cfg NNConfig) (*NN, error) {
	if ts.Len() == 0 {
		return nil, fmt.Errorf("relevance: empty training set")
	}
	hidden := cfg.Hidden
	if hidden == nil {
		hidden = []int{300, 64, 32}
	}
	sizes := append([]int{2 * dim}, hidden...)
	sizes = append(sizes, 1)
	acts := make([]nn.Activation, len(sizes)-1)
	for i := range acts {
		acts[i] = nn.ReLU
	}
	acts[len(acts)-1] = nn.Tanh
	net := nn.New(sizes, acts, cfg.Seed)

	trainCfg := cfg.Train
	if trainCfg.Epochs == 0 {
		trainCfg = nn.Defaults()
		trainCfg.Seed = cfg.Seed
	}
	x, y := ts.Materialize()
	if _, err := net.FitCtx(ctx, x, y, trainCfg); err != nil {
		return nil, fmt.Errorf("relevance: %w", err)
	}
	return NewNN(net, dim)
}

// Score implements Scorer. Outputs are clamped to [-1, 1] (the tanh head
// already enforces it; the clamp guards future head changes).
func (s *NN) Score(rec *Record) []float64 { return s.lanes.scoreOne(rec) }

// ScoreBatch implements BatchScorer: Score of each record, bit for bit,
// with the records' units packed into shared lane blocks.
func (s *NN) ScoreBatch(recs []*Record) [][]float64 { return s.lanes.scoreBatch(recs) }

// Dim returns the embedding dimension the scorer expects.
func (s *NN) Dim() int { return s.lanes.dim }

// LeftTexts returns the left tokens' texts in order.
func (r *Record) LeftTexts() []string { return tokenize.Texts(r.Left) }

// RightTexts returns the right tokens' texts in order.
func (r *Record) RightTexts() []string { return tokenize.Texts(r.Right) }
