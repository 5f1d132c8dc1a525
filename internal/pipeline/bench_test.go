package pipeline_test

import (
	"context"
	"testing"

	"wym/internal/blocking"
	"wym/internal/data"
	"wym/internal/datagen"
	"wym/internal/embed"
	"wym/internal/nn"
	"wym/internal/pipeline"
	"wym/internal/relevance"
	"wym/internal/tokenize"
	"wym/internal/units"
)

// hashGen is the paper's decision-unit generator on an untrained
// embedding stack: tokenize.Entity, hash embeddings contextualized per
// side, and Algorithm 1.
type hashGen struct{ src embed.Source }

func (g hashGen) Generate(p data.Pair) *pipeline.Record {
	lt := tokenize.Entity(p.Left, tokenize.Default)
	rt := tokenize.Entity(p.Right, tokenize.Default)
	lv := embed.Contextualize(g.src, tokenize.Texts(lt), 0.15)
	rv := embed.Contextualize(g.src, tokenize.Texts(rt), 0.15)
	rec := &pipeline.Record{Pair: p}
	rec.Record = relevance.Record{
		Units: units.Discover(units.Input{
			Left: lt, Right: rt, LeftVecs: lv, RightVecs: rv,
			NumAttrs: len(p.Left), NormalizedVecs: true,
		}, units.PaperThresholds),
		Left: lt, Right: rt, LeftVecs: lv, RightVecs: rv,
	}
	return rec
}

// sumMatcher labels a pair by the sum of its scores.
type sumMatcher struct{}

func (sumMatcher) MatchRecord(_ *pipeline.Record, scores []float64) (int, float64) {
	var s float64
	for _, v := range scores {
		s += v
	}
	if s > 0 {
		return 1, s
	}
	return 0, s
}

func (m sumMatcher) ExplainRecord(rec *pipeline.Record, scores []float64) pipeline.Explanation {
	label, proba := m.MatchRecord(rec, scores)
	return pipeline.Explanation{Prediction: label, Proba: proba}
}

// BenchmarkPredictBatchTableChunk predicts one chunk of a table-matching
// job: the blocking candidates of 125 left rows of a 500×500 S-FZ table
// pair, where each left row has several candidates and right rows recur
// across left rows. The scorer is the paper's 300/64/32 network (random
// weights) and each op is one Engine.PredictBatch, so a fresh session:
// the reported scored/op and reused/op are the units it ran through the
// network and the units it answered from its memo.
func BenchmarkPredictBatchTableChunk(b *testing.B) {
	p, _ := datagen.ProfileByKey("S-FZ")
	tables := datagen.GenerateTables(p, 500, 0.25)
	cfg := blocking.DefaultConfig()
	cfg.MaxDF = 0.05
	cands, err := blocking.Candidates(tables.Left[:125], tables.Right, cfg)
	if err != nil {
		b.Fatal(err)
	}
	pairs := make([]data.Pair, len(cands))
	for i, c := range cands {
		pairs[i] = data.Pair{ID: i, Left: tables.Left[c.Left], Right: tables.Right[c.Right]}
	}
	src := embed.NewHash()
	net := nn.New([]int{2 * src.Dim(), 300, 64, 32, 1}, []nn.Activation{nn.ReLU, nn.ReLU, nn.ReLU, nn.Tanh}, 1)
	scorer, err := relevance.NewNN(net, src.Dim())
	if err != nil {
		b.Fatal(err)
	}
	eng := pipeline.New(hashGen{src: src}, pipeline.UnitScores{S: scorer}, sumMatcher{})
	b.ReportAllocs()
	b.ResetTimer()
	var scored, reused int64
	for i := 0; i < b.N; i++ {
		s := eng.Session()
		s.PredictBatch(context.Background(), pairs)
		n, r := s.Units()
		scored, reused = scored+n, reused+r
	}
	b.ReportMetric(float64(len(pairs)), "pairs/op")
	b.ReportMetric(float64(scored)/float64(b.N), "scored/op")
	b.ReportMetric(float64(reused)/float64(b.N), "reused/op")
}
