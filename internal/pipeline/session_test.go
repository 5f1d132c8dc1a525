package pipeline

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"wym/internal/data"
	"wym/internal/relevance"
	"wym/internal/tokenize"
	"wym/internal/units"
)

// The session tests run on fakes that keep the contracts the memo rests
// on, and that make any slip of the memo visible: wordGen's vectors
// depend on their own entity alone but differ between entities that
// share a word; vecScorer scores a unit from its two vectors alone but
// tells the sides apart, which the real network's mean ⊕ |difference|
// features do not; hashMatcher's probability moves with every bit of
// every score.

// boom is the first vector component of the word "boom", on which
// vecScorer panics.
const boom = 99

// wordGen is a UnitGenerator over whitespace tokens. Token t of an
// entity has the vector (word digest, entity digest, t): a function of
// the entity on its own side, as UnitGenerator requires. Each left token
// pairs with the first free right token of the same word, and the rest
// are unpaired. It panics on the pair IDs in panicOn.
type wordGen struct{ panicOn map[int]bool }

func (g wordGen) Generate(p data.Pair) *Record {
	if g.panicOn[p.ID] {
		panic(fmt.Sprintf("bad record %d", p.ID))
	}
	rec := &Record{Pair: p}
	rec.Left, rec.LeftVecs = wordTokens(p.Left)
	rec.Right, rec.RightVecs = wordTokens(p.Right)
	free := make([]bool, len(rec.Right))
	for j := range free {
		free[j] = true
	}
	for i, lt := range rec.Left {
		u := units.Unit{Kind: units.UnpairedLeft, Left: i, Right: -1, Attr: lt.Attr}
		for j, rt := range rec.Right {
			if free[j] && rt.Text == lt.Text {
				free[j] = false
				u = units.Unit{Kind: units.Paired, Left: i, Right: j, Sim: 1, Attr: lt.Attr}
				break
			}
		}
		rec.Units = append(rec.Units, u)
	}
	for j, rt := range rec.Right {
		if free[j] {
			rec.Units = append(rec.Units, units.Unit{Kind: units.UnpairedRight, Left: -1, Right: j, Attr: rt.Attr})
		}
	}
	return rec
}

// wordTokens tokenizes one entity and embeds each token.
func wordTokens(ent data.Entity) ([]tokenize.Token, [][]float64) {
	h := fnv.New64a()
	for _, a := range ent {
		fmt.Fprintf(h, "%d:%s", len(a), a)
	}
	context := float64(h.Sum64()%1000) / 1000
	var toks []tokenize.Token
	var vecs [][]float64
	for a, v := range ent {
		for pos, w := range strings.Fields(v) {
			wh := fnv.New32a()
			wh.Write([]byte(w))
			word := float64(wh.Sum32()%1000) / 1000
			if w == "boom" {
				word = boom
			}
			vecs = append(vecs, []float64{word, context, float64(len(toks))})
			toks = append(toks, tokenize.Token{Text: w, Attr: a, Pos: pos})
		}
	}
	return toks, vecs
}

// vecScorer is a relevance.BatchScorer whose unit score is a function of
// the unit's two vectors alone, and differs between a vector on the left
// and the same vector on the right. It panics on a unit holding a boom
// vector, and counts the units ScoreBatch is given.
type vecScorer struct{ batched *atomic.Int64 }

func newVecScorer() vecScorer { return vecScorer{batched: new(atomic.Int64)} }

func (s vecScorer) Score(rec *relevance.Record) []float64 {
	out := make([]float64, len(rec.Units))
	for i := range rec.Units {
		l, r := rec.UnitVectors(i)
		if l[0] == boom || r[0] == boom {
			panic("boom unit")
		}
		out[i] = math.Sin(3*l[0]+5*l[1]+l[2]) - math.Cos(7*r[0]+11*r[1]+r[2])/2
	}
	return out
}

func (s vecScorer) ScoreBatch(recs []*relevance.Record) [][]float64 {
	out := make([][]float64, len(recs))
	for k, rec := range recs {
		s.batched.Add(int64(len(rec.Units)))
		out[k] = s.Score(rec)
	}
	return out
}

// hashMatcher's probability is a hash of every score's bits, so a score
// that differs in any bit changes the prediction. It panics on the pair
// IDs in panicOn.
type hashMatcher struct{ panicOn map[int]bool }

func (m hashMatcher) MatchRecord(rec *Record, scores []float64) (int, float64) {
	if m.panicOn[rec.Pair.ID] {
		panic(fmt.Sprintf("bad match %d", rec.Pair.ID))
	}
	h := fnv.New64a()
	for _, s := range scores {
		fmt.Fprintf(h, "%x,", math.Float64bits(s))
	}
	proba := float64(h.Sum64()>>11) / (1 << 53)
	if proba >= 0.5 {
		return 1, proba
	}
	return 0, proba
}

func (m hashMatcher) ExplainRecord(rec *Record, scores []float64) Explanation {
	label, proba := m.MatchRecord(rec, scores)
	ex := Explanation{Prediction: label, Proba: proba}
	for i, u := range rec.Units {
		ex.Units = append(ex.Units, UnitExplanation{Kind: u.Kind, Attr: u.Attr, Relevance: scores[i]})
	}
	return ex
}

// tablePairs returns n candidate pairs over one pool of entities, the way
// blocking emits them: three consecutive pairs share their left entity,
// the right entities recur across chunks, and every entity appears on
// both sides. Words recur across entities, so a unit is paired in one
// pair and unpaired in another.
func tablePairs(n int) []data.Pair {
	rng := rand.New(rand.NewSource(7))
	words := strings.Fields("blue grill broadway seattle cafe 192 st main pizza bar rome ave")
	pool := make([]data.Entity, 17)
	for e := range pool {
		ent := make(data.Entity, 2)
		for a := range ent {
			w := make([]string, 1+rng.Intn(3))
			for i := range w {
				w[i] = words[rng.Intn(len(words))]
			}
			ent[a] = strings.Join(w, " ")
		}
		pool[e] = ent
	}
	pairs := make([]data.Pair, n)
	for i := range pairs {
		pairs[i] = data.Pair{ID: i, Left: pool[(i/3)%len(pool)], Right: pool[(i*7+3)%len(pool)]}
	}
	return pairs
}

// sessionEngine is the fake engine the session tests run on.
func sessionEngine(genPanics, matchPanics map[int]bool) (*Engine, vecScorer) {
	s := newVecScorer()
	return New(wordGen{panicOn: genPanics}, UnitScores{S: s}, hashMatcher{panicOn: matchPanics}), s
}

// wantPredictions is per-pair Predict over pairs.
func wantPredictions(eng *Engine, pairs []data.Pair) []Prediction {
	want := make([]Prediction, len(pairs))
	for i, p := range pairs {
		label, proba := eng.Predict(p)
		want[i] = Prediction{Label: label, Proba: proba}
	}
	return want
}

// samePredictions fails unless got equals want bit for bit.
func samePredictions(t *testing.T, what string, got, want []Prediction) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d predictions, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i].Label != want[i].Label || math.Float64bits(got[i].Proba) != math.Float64bits(want[i].Proba) || got[i].Err != want[i].Err {
			t.Fatalf("%s: item %d = %+v, per-pair Predict gives %+v", what, i, got[i], want[i])
		}
	}
}

// countUnits returns the decision units of pairs, and how many are
// paired and how many distinct (side, entity, token) unpaired units they
// hold.
func countUnits(pairs []data.Pair) (total, paired, distinct int) {
	seen := make(map[string]bool)
	for _, p := range pairs {
		rec := wordGen{}.Generate(p)
		total += len(rec.Units)
		for _, u := range rec.Units {
			switch u.Kind {
			case units.Paired:
				paired++
			case units.UnpairedLeft:
				seen[fmt.Sprintf("L|%q|%d", p.Left, u.Left)] = true
			case units.UnpairedRight:
				seen[fmt.Sprintf("R|%q|%d", p.Right, u.Right)] = true
			}
		}
	}
	return total, paired, len(seen)
}

// TestSessionMatchesPredict checks PredictBatch, PredictAll and a session
// reused across calls, explaining as well, against per-pair Predict bit
// for bit, on pairs that repeat entities within chunks, across chunks,
// across workers and across calls; and that the session's unit counters
// add up.
func TestSessionMatchesPredict(t *testing.T) {
	twoWorkers(t)
	pairs := tablePairs(203)
	eng, scorer := sessionEngine(nil, nil)
	want := wantPredictions(eng, pairs)

	samePredictions(t, "Engine.PredictBatch", eng.PredictBatch(context.Background(), pairs), want)
	labels := eng.PredictAll(&data.Dataset{Pairs: pairs})
	for i, l := range labels {
		if l != want[i].Label {
			t.Fatalf("PredictAll[%d] = %d, Predict gives %d", i, l, want[i].Label)
		}
	}

	s := eng.Session()
	before := scorer.batched.Load()
	total := 0
	for _, r := range [][2]int{{0, 100}, {50, 203}, {0, 203}, {101, 102}} {
		got := s.PredictBatch(context.Background(), pairs[r[0]:r[1]])
		samePredictions(t, fmt.Sprintf("session call on pairs %d-%d", r[0], r[1]), got, want[r[0]:r[1]])
		n, _, _ := countUnits(pairs[r[0]:r[1]])
		total += n
	}
	for _, p := range pairs[:20] {
		got, ref := s.Explain(p), eng.Explain(p)
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("Session.Explain(pair %d) = %+v, Engine.Explain gives %+v", p.ID, got, ref)
		}
		total += len(got.Units)
	}
	scored, reused := s.Units()
	if scored+reused != int64(total) {
		t.Fatalf("session counted %d scored + %d reused units, the calls held %d", scored, reused, total)
	}
	if got := scorer.batched.Load() - before; got != scored {
		t.Fatalf("ScoreBatch was given %d units, the session counted %d scored", got, scored)
	}
	if _, paired, distinct := countUnits(pairs); scored >= int64(total) || scored < int64(paired+distinct) {
		t.Fatalf("session scored %d of %d units; every paired unit (%d) and each distinct unpaired one (%d) at least once, and fewer than all",
			scored, total, paired, distinct)
	}
}

// TestSessionScoresEachUnpairedUnitOnce runs on one worker, where the
// counts are exact: over chunks and calls a session scores every paired
// unit each time it occurs and each distinct unpaired unit once.
func TestSessionScoresEachUnpairedUnitOnce(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	pairs := tablePairs(120)
	eng, scorer := sessionEngine(nil, nil)
	want := wantPredictions(eng, pairs)
	total, paired, distinct := countUnits(pairs)
	before := scorer.batched.Load()

	s := eng.Session()
	samePredictions(t, "first call", s.PredictBatch(context.Background(), pairs), want)
	if scored, reused := s.Units(); scored != int64(paired+distinct) || reused != int64(total-paired-distinct) {
		t.Fatalf("first call: %d scored, %d reused; want %d (paired) + %d (distinct unpaired) scored, %d reused",
			scored, reused, paired, distinct, total-paired-distinct)
	}
	samePredictions(t, "second call", s.PredictBatch(context.Background(), pairs), want)
	if scored, _ := s.Units(); scored != int64(2*paired+distinct) {
		t.Fatalf("after a second call on the same pairs: %d scored, want %d: only the paired units again", scored, 2*paired+distinct)
	}
	if got := scorer.batched.Load() - before; got != int64(2*paired+distinct) {
		t.Fatalf("ScoreBatch was given %d units, want %d", got, 2*paired+distinct)
	}
}

// TestSessionMemoKey pins each part of the memo's key on pairs built to
// tell them apart, each checked against per-pair Predict in one call and
// then in calls of one pair each on one session:
//   - side: one entity with an unpaired token on the left of one pair
//     and on the right of another;
//   - token index: one entity with several unpaired tokens;
//   - entity: two entities that share a word at the same token index,
//     and two whose attribute strings concatenate alike;
//   - paired units, which are never memoized: one left entity whose
//     token pairs with the same word in two different right entities.
func TestSessionMemoKey(t *testing.T) {
	twoWorkers(t)
	e := func(attrs ...string) data.Entity { return data.Entity(attrs) }
	pairs := []data.Pair{
		{Left: e("blue grill", "rome"), Right: e("main st", "bar")},
		{Left: e("cafe", "ave"), Right: e("blue grill", "rome")},
		{Left: e("blue cafe", "rome"), Right: e("pizza", "bar")},
		{Left: e("ab", "c"), Right: e("x", "y")},
		{Left: e("a", "bc"), Right: e("x", "y")},
		{Left: e("rome grill", "st"), Right: e("grill bar", "ave")},
		{Left: e("rome grill", "st"), Right: e("grill", "main")},
	}
	for i := range pairs {
		pairs[i].ID = i
	}
	eng, _ := sessionEngine(nil, nil)
	want := wantPredictions(eng, pairs)
	samePredictions(t, "one call", eng.PredictBatch(context.Background(), pairs), want)
	s := eng.Session()
	for i := range pairs {
		samePredictions(t, fmt.Sprintf("call %d of one session", i), s.PredictBatch(context.Background(), pairs[i:i+1]), want[i:i+1])
	}
	// Every pair again, in reverse, now answered from the memo.
	for i := len(pairs) - 1; i >= 0; i-- {
		samePredictions(t, fmt.Sprintf("repeat of pair %d", i), s.PredictBatch(context.Background(), pairs[i:i+1]), want[i:i+1])
	}
	if _, reused := s.Units(); reused == 0 {
		t.Fatal("the repeated calls reused no unit score")
	}
}

// TestEntityKeyExact checks that entityKey tells apart entities whose
// attribute strings concatenate alike.
func TestEntityKeyExact(t *testing.T) {
	ents := []data.Entity{{"ab", "c"}, {"a", "bc"}, {"abc"}, {"abc", ""}, {"", "abc"}, {}, {""}, {"", ""}}
	seen := make(map[string]int)
	for i, ent := range ents {
		k := string(entityKey(nil, ent))
		if j, ok := seen[k]; ok {
			t.Fatalf("entities %q and %q share the key %q", ents[j], ent, k)
		}
		seen[k] = i
	}
}

// TestSessionFaultsQuarantineOwnPair puts a generator, a scorer and a
// matcher panic into one chunk of a session's call: only those three
// pairs fail, each with its own panic, and every other result, in that
// call and in later calls on the same session, equals per-pair Predict.
// The failed ScoreBatch call stores nothing: the fallback scores the
// chunk's records one by one, so the chunk's entities, which no other
// chunk holds, are still unscored in the memo afterwards.
func TestSessionFaultsQuarantineOwnPair(t *testing.T) {
	twoWorkers(t)
	e := func(attrs ...string) data.Entity { return data.Entity(attrs) }
	pairs := tablePairs(40)
	genBad, scoreBad, matchBad := 0, 1, 2 // the first chunk
	pairs[genBad] = data.Pair{Left: e("only here"), Right: e("first chunk")}
	pairs[scoreBad] = data.Pair{Left: e("boom here"), Right: e("nowhere else")}
	pairs[matchBad] = data.Pair{Left: e("just once"), Right: e("matcher fails")}
	pairs[3] = data.Pair{Left: e("single pair"), Right: e("no repeats")}
	for i := range pairs {
		pairs[i].ID = i
	}
	eng, _ := sessionEngine(map[int]bool{genBad: true}, map[int]bool{matchBad: true})
	faults := map[int]string{genBad: "bad record 0", scoreBad: "boom unit", matchBad: "bad match 2"}
	want := make([]Prediction, len(pairs))
	for i, p := range pairs {
		if msg, ok := faults[i]; ok {
			want[i] = Prediction{Err: "panic: " + msg}
			continue
		}
		label, proba := eng.Predict(p)
		want[i] = Prediction{Label: label, Proba: proba}
	}

	s := eng.Session()
	samePredictions(t, "call with faults", s.PredictBatch(context.Background(), pairs), want)
	s.mu.Lock()
	for _, p := range pairs[:4] {
		for _, ent := range []data.Entity{p.Left, p.Right} {
			if m := s.entities[string(entityKey(nil, ent))]; m != nil && (m.scores[0] != nil || m.scores[1] != nil) {
				t.Errorf("entity %q of the chunk whose ScoreBatch panicked has memoized scores", ent)
			}
		}
	}
	s.mu.Unlock()
	for k := range 3 {
		samePredictions(t, fmt.Sprintf("later call %d", k), s.PredictBatch(context.Background(), pairs), want)
	}
	samePredictions(t, "a later call without the faulty pairs", s.PredictBatch(context.Background(), pairs[3:]), want[3:])
}

// TestSessionConcurrentCalls runs one session's PredictBatch from four
// goroutines at once, each over the pairs in another order, on two
// workers each: every result equals per-pair Predict. Under the race
// detector it checks the memo's locking.
func TestSessionConcurrentCalls(t *testing.T) {
	twoWorkers(t)
	pairs := tablePairs(160)
	eng, _ := sessionEngine(nil, nil)
	want := wantPredictions(eng, pairs)
	s := eng.Session()
	var wg sync.WaitGroup
	got := make([][]Prediction, 4)
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rot := append(append([]data.Pair(nil), pairs[g*40:]...), pairs[:g*40]...)
			got[g] = s.PredictBatch(context.Background(), rot)
		}()
	}
	wg.Wait()
	for g, preds := range got {
		rot := append(append([]Prediction(nil), want[g*40:]...), want[:g*40]...)
		samePredictions(t, fmt.Sprintf("goroutine %d", g), preds, rot)
	}
}

// TestSessionWithoutBatchScorer checks a session on scorers the memo does
// not apply to: results equal Predict and every unit counts as scored.
func TestSessionWithoutBatchScorer(t *testing.T) {
	pairs := tablePairs(30)
	total, _, _ := countUnits(pairs)
	for name, sc := range map[string]RelevanceScorer{
		"Score only": UnitScores{S: scoreOnly{newVecScorer()}},
		"Cosine":     UnitScores{S: relevance.Cosine{}},
	} {
		eng := New(wordGen{}, sc, hashMatcher{})
		s := eng.Session()
		samePredictions(t, name, s.PredictBatch(context.Background(), pairs), wantPredictions(eng, pairs))
		if scored, reused := s.Units(); scored != int64(total) || reused != 0 {
			t.Fatalf("%s: %d scored, %d reused, want all %d scored", name, scored, reused, total)
		}
	}
}

// scoreOnly hides a scorer's ScoreBatch.
type scoreOnly struct{ s relevance.Scorer }

func (s scoreOnly) Score(rec *relevance.Record) []float64 { return s.s.Score(rec) }
