package pipeline

import (
	"context"
	"encoding/binary"
	"math"
	"sync"
	"time"

	"wym/internal/data"
	"wym/internal/relevance"
	"wym/internal/units"
)

// Session is the engine's batch path: PredictBatch and Explain with the
// engine's results, bit for bit, whose scoring remembers each unpaired
// decision unit's relevance score for the session's whole lifetime.
//
// An unpaired unit is one token against [UNP]'s zero vector, so its
// score is a function of that token's vector alone, and the
// UnitGenerator contract makes the vector a function of the token's own
// entity on its own side. The session therefore memoizes the score by
// (side, entity, token index), the entity interned by its exact
// attribute strings, and scores each unpaired unit of an entity once,
// however many pairs the entity appears in. Paired units depend on both
// entities and are always scored. The memo applies only when the scorer
// is a UnitScores over a relevance.BatchScorer (NN, FastNN); with any
// other scorer a session scores every unit, as the engine does.
//
// Engine.PredictBatch and PredictAll run on a fresh session per call.
// A table-scale job keeps one session for all its chunks, so a right
// entity that is a candidate of many left rows is scored once. A
// session's memory grows with the distinct entities it sees: one
// interned copy of each, plus 8 bytes per token of each side it stored
// scores for. It is safe for concurrent use; one mutex guards the memo,
// and it is never held while the network runs.
type Session struct {
	e     *Engine
	batch relevance.BatchScorer // the scorer under the memo; nil when the memo does not apply

	mu       sync.Mutex
	entities map[string]*memoEntity // keyed by entityKey
	key      []byte                 // entityKey's scratch
	scored   int64                  // units the session ran through the scorer
	reused   int64                  // units whose score came from the memo or from another unit of the same call
}

// memoEntity is one interned entity's memoized scores: scores[side][t]
// is the score of its token t as an unpaired unit on that side (0 left,
// 1 right), NaN until stored. A side's slice is allocated when its first
// score is stored, with one slot per token of the side.
type memoEntity struct {
	scores [2][]float64
}

// unitKey names one unpaired unit's memo slot: token `token` of an
// interned entity on one side.
type unitKey struct {
	ent   *memoEntity
	side  int
	token int
}

// unitPos is unit i of record k of a call.
type unitPos struct{ k, i int }

// Session returns a new session on the engine (see Session).
func (e *Engine) Session() *Session {
	s := &Session{e: e}
	if u, ok := e.scorer.(UnitScores); ok {
		if b, ok := u.S.(relevance.BatchScorer); ok {
			s.batch, s.entities = b, make(map[string]*memoEntity)
		}
	}
	return s
}

// Units reports how many decision units the session has scored through
// the network and how many it took from the memo or from an identical
// unit of the same call, over its whole lifetime.
func (s *Session) Units() (scored, reused int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.scored, s.reused
}

// Explain is Engine.Explain, scored through the session's memo; a panic
// is not recovered.
func (s *Session) Explain(p data.Pair) Explanation {
	rec := s.e.Process(p)
	return s.e.mustMatcher().ExplainRecord(rec, s.scoreAll([]*Record{rec})[0])
}

// PredictBatch predicts a slice of pairs with per-item fault isolation:
// an item whose processing panics fails alone (Err set, zero scores),
// never the batch. Results keep input order and equal Predict's bit for
// bit. Cancelling the context marks the not-yet-started items with the
// context error and returns what completed.
func (s *Session) PredictBatch(ctx context.Context, pairs []data.Pair) []Prediction {
	out, errs := s.predictChunks(ctx, pairs)
	canceled := ctx.Err()
	for i, err := range errs {
		if err == nil {
			continue
		}
		if err != canceled {
			s.e.metrics.quarantineInc()
		}
		out[i] = Prediction{Err: err.Error()}
	}
	return out
}

// chunkPairs is how many pairs one executor item predicts together: it
// generates them, scores their records in one call, then matches them.
// Four pairs' records fill the scorer's packed groups; 16-pair chunks
// ran match-table no faster and held more memory.
const chunkPairs = 4

// predictChunks predicts pairs on the executor, one chunk of chunkPairs
// per item (predictChunk), and returns each pair's prediction and error:
// nil when it was predicted, "panic: <value>" when its generation,
// scoring or matching panicked, and ctx's error when ctx was done before
// it started.
func (s *Session) predictChunks(ctx context.Context, pairs []data.Pair) ([]Prediction, []error) {
	out := make([]Prediction, len(pairs))
	errs := make([]error, len(pairs))
	chunk := func(c int) (lo, hi int) { return c * chunkPairs, min((c+1)*chunkPairs, len(pairs)) }
	for c, err := range run(ctx, (len(pairs)+chunkPairs-1)/chunkPairs, func(c int) {
		lo, hi := chunk(c)
		s.predictChunk(ctx, pairs[lo:hi], out[lo:hi], errs[lo:hi])
	}) {
		if err == nil {
			continue
		}
		// ctx was done before the chunk started (predictChunk guards
		// each of its own steps).
		lo, hi := chunk(c)
		for i := lo; i < hi; i++ {
			if errs[i] == nil {
				errs[i] = err
			}
		}
	}
	return out, errs
}

// predictChunk predicts up to chunkPairs pairs into out, recording each
// pair's failure in errs. It checks ctx before each pair, so
// cancellation stays per item, and generates each pair under its own
// recover. It scores the generated records together (scoreChunk), then
// matches each under its own recover. No pair is generated twice. With
// metrics attached, each predicted pair observes its own generate and
// match time plus an equal share of the chunk's scoring time.
func (s *Session) predictChunk(ctx context.Context, pairs []data.Pair, out []Prediction, errs []error) {
	e, m := s.e, s.e.metrics
	var (
		recs [chunkPairs]*Record
		idx  [chunkPairs]int           // recs[k] is pairs[idx[k]]
		took [chunkPairs]time.Duration // generate time of recs[k]
	)
	n := 0
	for i, p := range pairs {
		if err := ctx.Err(); err != nil {
			errs[i] = err
			continue
		}
		start := now(m)
		if errs[i] = try(func() { recs[n] = e.generate(p) }); errs[i] == nil {
			idx[n], took[n] = i, since(m, start)
			n++
		}
	}
	start := now(m)
	scores, scoreErrs := s.scoreChunk(recs[:n])
	share := since(m, start) / time.Duration(max(n, 1))
	for k, i := range idx[:n] {
		if scoreErrs != nil && scoreErrs[k] != nil {
			errs[i] = scoreErrs[k]
			continue
		}
		start := now(m)
		errs[i] = try(func() {
			label, proba := e.mustMatcher().MatchRecord(recs[k], scores[k])
			out[i] = Prediction{Label: label, Proba: proba}
		})
		if m != nil && errs[i] == nil {
			m.PredictSeconds.Observe((took[k] + share + since(m, start)).Seconds())
		}
	}
}

// scoreChunk scores a chunk's records in one call (scoreAll). If that
// panics, it scores the same records one by one, each under its own
// recover and without the memo, so only a record whose scoring panics
// fails: errs is then non-nil and errs[k] holds record k's panic.
func (s *Session) scoreChunk(recs []*Record) (scores [][]float64, errs []error) {
	if try(func() { scores = s.scoreAll(recs) }) == nil {
		return scores, nil
	}
	scores, errs = make([][]float64, len(recs)), make([]error, len(recs))
	var scored int64
	for k, rec := range recs {
		if errs[k] = try(func() { scores[k] = s.e.scores(rec) }); errs[k] == nil {
			scored += int64(len(rec.Units))
		}
	}
	s.count(scored, 0)
	return scores, errs
}

// scoreAll scores records with Score's results: through the memo and one
// ScoreBatch call when the memo applies (scoreMemo), else one Score per
// record (Binary, Cosine, NoScores, no scorer).
func (s *Session) scoreAll(recs []*Record) [][]float64 {
	if s.batch != nil {
		return s.scoreMemo(recs)
	}
	out := make([][]float64, len(recs))
	var scored int64
	for k, rec := range recs {
		out[k] = s.e.scores(rec)
		scored += int64(len(rec.Units))
	}
	s.count(scored, 0)
	return out
}

// memoPlan is one scoreMemo call's work: what ScoreBatch must score,
// where its scores go, and which memo slots they fill.
type memoPlan struct {
	// sub[k] is what ScoreBatch scores of recs[k]: the record itself when
	// every unit needs the network, else a record of just those units,
	// whose j-th is unit at[k][j] of recs[k].
	sub []*relevance.Record
	at  [][]int
	// out[k] holds recs[k]'s scores. At planning it is set only for a
	// record with a memo hit or a duplicate, and holds those units'
	// scores; a record left nil takes ScoreBatch's slice whole.
	out [][]float64
	// fresh maps each miss to the first unit of the call that scores it;
	// dups are later units of the call with the same key, as (unit, the
	// unit that scores it).
	fresh map[unitKey]unitPos
	dups  [][2]unitPos
	// reused counts the units taken from the memo or from dups.
	reused int64
}

// scoreMemo scores recs in one ScoreBatch call, sending it only the
// units the memo cannot answer: every paired unit, and the first unit of
// the call with each missing (side, entity, token). The scores it
// computes for unpaired units are stored once ScoreBatch has returned,
// so a call that panics stores none. Each unit's score equals
// Score(recs[k]) bit for bit: the network scores every unit from its own
// two vectors alone (relevance.BatchScorer), and an unpaired unit's
// vector depends only on its key (UnitGenerator).
func (s *Session) scoreMemo(recs []*Record) [][]float64 {
	p := s.plan(recs)
	scores := s.batch.ScoreBatch(p.sub)
	var scored int64
	for k, sub := range p.sub {
		scored += int64(len(sub.Units))
		if p.out[k] == nil {
			p.out[k] = scores[k]
			continue
		}
		for j, i := range p.at[k] {
			p.out[k][i] = scores[k][j]
		}
	}
	for _, d := range p.dups {
		p.out[d[0].k][d[0].i] = p.out[d[1].k][d[1].i]
	}
	s.store(recs, p)
	s.count(scored, p.reused)
	return p.out
}

// plan looks every unpaired unit of recs up in the memo, under the lock.
// A unit whose token index lies outside its side's slots (a record that
// breaks the UnitGenerator contract) panics here or in store, and
// scoreChunk then scores the chunk without the memo.
func (s *Session) plan(recs []*Record) memoPlan {
	total := 0
	for _, rec := range recs {
		total += len(rec.Units)
	}
	p := memoPlan{
		sub:   make([]*relevance.Record, len(recs)),
		at:    make([][]int, len(recs)),
		out:   make([][]float64, len(recs)),
		fresh: make(map[unitKey]unitPos, total),
	}
	idx := make([]int, 0, total) // every record's scored units, record after record
	s.mu.Lock()
	defer s.mu.Unlock()
	for k, rec := range recs {
		var (
			ents   [2]*memoEntity // interned on first use
			vals   []float64      // p.out[k], once a unit is answered
			scored = idx[len(idx):]
		)
		for i, u := range rec.Units {
			side, token := unpairedToken(u)
			if side < 0 {
				scored = append(scored, i)
				continue
			}
			if ents[side] == nil {
				ents[side] = s.intern(rec.Pair, side)
			}
			key := unitKey{ent: ents[side], side: side, token: token}
			if sl := key.ent.scores[side]; sl != nil && !math.IsNaN(sl[token]) {
				if vals == nil {
					vals = make([]float64, len(rec.Units))
				}
				vals[i] = sl[token]
				p.reused++
				continue
			}
			if first, ok := p.fresh[key]; ok {
				if vals == nil {
					vals = make([]float64, len(rec.Units))
				}
				p.dups = append(p.dups, [2]unitPos{{k, i}, first})
				p.reused++
				continue
			}
			p.fresh[key] = unitPos{k, i}
			scored = append(scored, i)
		}
		idx = idx[:len(idx)+len(scored)]
		if vals == nil {
			p.sub[k] = rec.Rel()
			continue
		}
		su := make([]units.Unit, len(scored))
		for j, i := range scored {
			su[j] = rec.Units[i]
		}
		p.sub[k] = &relevance.Record{Units: su, Left: rec.Left, Right: rec.Right, LeftVecs: rec.LeftVecs, RightVecs: rec.RightVecs}
		p.at[k], p.out[k] = scored, vals
	}
	return p
}

// store writes the scores of a plan's misses into the memo, under the
// lock.
func (s *Session) store(recs []*Record, p memoPlan) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for key, at := range p.fresh {
		sl := key.ent.scores[key.side]
		if sl == nil {
			tokens := recs[at.k].Left
			if key.side == 1 {
				tokens = recs[at.k].Right
			}
			sl = make([]float64, len(tokens))
			for t := range sl {
				sl[t] = math.NaN()
			}
			key.ent.scores[key.side] = sl
		}
		sl[key.token] = p.out[at.k][at.i]
	}
}

// count adds to the session's unit counters.
func (s *Session) count(scored, reused int64) {
	s.mu.Lock()
	s.scored += scored
	s.reused += reused
	s.mu.Unlock()
}

// intern returns the memo entry of one side's entity of p, creating it
// on first sight. Entities are told apart by their exact attribute
// strings (entityKey), never by a hash alone. The caller holds the lock.
func (s *Session) intern(p data.Pair, side int) *memoEntity {
	ent := p.Left
	if side == 1 {
		ent = p.Right
	}
	s.key = entityKey(s.key[:0], ent)
	if m, ok := s.entities[string(s.key)]; ok {
		return m
	}
	m := new(memoEntity)
	s.entities[string(s.key)] = m
	return m
}

// entityKey appends an encoding of ent's attribute strings to buf: each
// one's length as a uvarint, then its bytes. The lengths make the
// encoding injective, so two entities share a key only when every
// attribute is equal.
func entityKey(buf []byte, ent data.Entity) []byte {
	for _, a := range ent {
		buf = binary.AppendUvarint(buf, uint64(len(a)))
		buf = append(buf, a...)
	}
	return buf
}

// unpairedToken returns the side (0 left, 1 right) and token index of an
// unpaired unit, and side -1 for a paired one.
func unpairedToken(u units.Unit) (side, token int) {
	switch u.Kind {
	case units.UnpairedLeft:
		return 0, u.Left
	case units.UnpairedRight:
		return 1, u.Right
	}
	return -1, 0
}
