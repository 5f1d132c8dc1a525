package core

import (
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"sort"
	"strings"

	"wym/internal/data"
	"wym/internal/embed"
	"wym/internal/feedback"
	"wym/internal/tokenize"
	"wym/internal/vec"
)

// Online learning (DESIGN §13): confirmed/corrected pair labels fold
// into the fitted system without retraining, through two complementary
// deterministic updates.
//
// Geometry repair: each label is expanded into contrastive token pairs
// by best-similarity alignment against the *pre-fine-tune* base
// embeddings — so the derived pairs for a label never depend on what
// feedback was applied before it — and the Hebbian map is recompiled
// over the enlarged pair multiset (embed.Hebbian.Apply). This pulls
// drifted surface forms back toward their trained counterparts so unit
// discovery pairs them again.
//
// Decision recalibration: the match threshold on the classifier proba
// is re-fit over the full accumulated label multiset, scored through
// the updated embeddings. The relevance scorer and classifier were
// fitted to the training-time feature distribution; when the data
// drifts, true matches still separate from non-matches by proba but
// the 0.5 cutoff lands on the wrong side of them. Choosing the cutoff
// that maximizes F1 on the human-adjudicated labels converts a handful
// of labels directly into restored recall without touching the fitted
// (interpretable) model.
//
// Both updates are pure functions of the accumulated label *multiset*:
// any batching or ordering of the same labels converges to the same
// model, which is what lets a journal replay reproduce a served model
// fingerprint-for-fingerprint after a crash.

// ApplyFeedback returns a new System with the labeled pairs folded into
// the contrastive fine-tune. The receiver is never mutated — in-flight
// predictions against it stay consistent, and serving swaps the
// returned system in atomically (wym.ModelRef). The scorer, feature
// space, and classifier are shared with the receiver (they are
// read-only at serve time); the embedding source is replaced and the
// pipeline engine rebuilt through the standard rebuildEngine path.
//
// ApplyFeedback fails on untrained systems, on read-only arena-backed
// systems (fold feedback into the gob artifact and re-convert), on
// embedding variants without a fine-tuned layer (BERTPretrained,
// JaroWinkler), and on models saved before pair retention existed.
func (s *System) ApplyFeedback(ctx context.Context, labels []feedback.Label) (*System, error) {
	if s.model == nil || s.scorer == nil || s.source == nil {
		return nil, fmt.Errorf("core: cannot apply feedback to an untrained system")
	}
	if s.arena != nil {
		return nil, fmt.Errorf("core: arena-backed model (%s) is read-only; apply feedback to the gob artifact and re-convert", s.Format())
	}
	if len(labels) == 0 {
		return nil, fmt.Errorf("core: empty feedback batch")
	}
	h, err := s.hebbian()
	if err != nil {
		return nil, err
	}
	pos, neg, err := s.feedbackPairs(ctx, h.Base, labels)
	if err != nil {
		return nil, err
	}
	nh, err := h.WithApplied(ctx, pos, neg)
	if err != nil {
		return nil, err
	}
	ns := *s
	ns.source = embed.NewCache(nh)
	ns.fbLabels = mergeLabels(s.fbLabels, labels)
	ns.feedbackN = len(ns.fbLabels)
	// Recalibrate the decision threshold over the accumulated labels,
	// scored through the updated embeddings (threshold does not affect
	// probas, so building the engine before calibrating is sound).
	ns.fbThreshold = 0
	ns.rebuildEngine()
	if ns.fbThreshold, err = calibrateThreshold(ctx, &ns, ns.fbLabels); err != nil {
		return nil, err
	}
	ns.rebuildEngine()
	return &ns, nil
}

// DecisionThreshold returns the match cutoff on the classifier proba:
// 0.5 until feedback recalibrates it. calibrateThreshold only ever
// returns positive cutoffs, so 0 is a reliable "unset" sentinel here.
func (s *System) DecisionThreshold() float64 {
	if s.fbThreshold > 0 {
		return s.fbThreshold
	}
	return 0.5
}

// mergeLabels returns the canonical ordering of the union multiset:
// sorted by (left entity, right entity, polarity). Any batching of the
// same labels produces the same slice, making every downstream update a
// function of the label multiset alone.
func mergeLabels(old, add []feedback.Label) []feedback.Label {
	out := make([]feedback.Label, 0, len(old)+len(add))
	out = append(out, old...)
	out = append(out, add...)
	sort.SliceStable(out, func(i, j int) bool { return labelKey(out[i]) < labelKey(out[j]) })
	return out
}

// labelKey renders a label's canonical sort/hash key. Attribute values
// are delimited with bytes that cannot appear inside them after
// tokenization-safe joining (0x00/0x01 are not valid text).
func labelKey(lb feedback.Label) string {
	var b strings.Builder
	for _, a := range lb.Left {
		b.WriteString(a)
		b.WriteByte(0x00)
	}
	b.WriteByte(0x01)
	for _, a := range lb.Right {
		b.WriteString(a)
		b.WriteByte(0x00)
	}
	b.WriteByte(0x01)
	if lb.Match {
		b.WriteByte('M')
	} else {
		b.WriteByte('U')
	}
	return b.String()
}

// calibrateThreshold scores every accumulated label through the updated
// system's Engine.PredictBatch, so the labels are predicted on every
// core, and returns bestThreshold over them. A canceled ctx returns its
// error; a label whose predict panics re-raises the panic here.
func calibrateThreshold(ctx context.Context, s *System, labels []feedback.Label) (float64, error) {
	pairs := make([]data.Pair, len(labels))
	match := make([]bool, len(labels))
	for i, lb := range labels {
		pairs[i] = data.Pair{Left: lb.Left, Right: lb.Right}
		match[i] = lb.Match
	}
	preds := s.engine.PredictBatch(ctx, pairs)
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	probas := make([]float64, len(preds))
	for i, pred := range preds {
		if pred.Err != "" {
			panic(fmt.Sprintf("core: feedback label %d: %s", i, pred.Err))
		}
		probas[i] = pred.Proba
	}
	return bestThreshold(probas, match), nil
}

// bestThreshold returns the cutoff maximizing F1 over labels with the
// given probas and match flags. Candidates are the observed probas plus
// the 0.5 default, visited in ascending order; ties prefer the candidate
// closest to (then, exactly) 0.5, so feedback that carries no signal —
// or no positive labels at all — leaves the default cutoff in place.
// Non-positive probas are excluded as candidates, so the returned
// threshold is always > 0 — fbThreshold == 0 therefore unambiguously
// means "never calibrated" (DecisionThreshold and the persisted
// FbThreshold/FeedbackThreshold fields rely on that invariant). Each
// candidate's counts are two binary searches into the sorted probas of
// each class, so the sweep is O(n log n).
func bestThreshold(probas []float64, match []bool) float64 {
	var pos, neg []float64
	cands := make([]float64, 0, len(probas)+1)
	for i, p := range probas {
		if match[i] {
			pos = append(pos, p)
		} else {
			neg = append(neg, p)
		}
		if p > 0 {
			cands = append(cands, p)
		}
	}
	cands = append(cands, 0.5)
	sort.Float64s(cands)
	sort.Float64s(pos)
	sort.Float64s(neg)
	// atLeast counts the probas of sorted ps that are >= t; a NaN sorts
	// first and is never >= t, as in a direct count.
	atLeast := func(ps []float64, t float64) int { return len(ps) - sort.SearchFloat64s(ps, t) }
	f1At := func(t float64) float64 {
		tp, fp := atLeast(pos, t), atLeast(neg, t)
		fn := len(pos) - tp
		if 2*tp+fp+fn == 0 {
			return 0
		}
		return float64(2*tp) / float64(2*tp+fp+fn)
	}
	best, bestF1 := 0.5, f1At(0.5)
	for _, c := range cands {
		if c == best {
			continue
		}
		f := f1At(c)
		if f > bestF1 ||
			(f == bestF1 && math.Abs(c-0.5) < math.Abs(best-0.5)) {
			best, bestF1 = c, f
		}
	}
	return best
}

// FeedbackCount returns the number of labels folded in by ApplyFeedback
// over this model's lifetime (carried through Save/Load and into arena
// conversions).
func (s *System) FeedbackCount() int { return s.feedbackN }

// FeedbackFingerprint identifies the feedback state of the model:
// "fnv64:%016x" over the canonically ordered feedback label multiset,
// or "" when no feedback has been applied. Replaying the same label set
// in any order reproduces the same fingerprint — the crash-recovery e2e
// asserts on it.
func (s *System) FeedbackFingerprint() string {
	if s.feedbackFP != "" {
		return s.feedbackFP // arena-backed: carried in metadata
	}
	if len(s.fbLabels) == 0 {
		return ""
	}
	h := fnv.New64a()
	for _, lb := range s.fbLabels {
		io.WriteString(h, labelKey(lb))
		h.Write([]byte{0x02})
	}
	return fmt.Sprintf("fnv64:%016x", h.Sum64())
}

// SupportsFeedback reports whether ApplyFeedback can work on this
// system: trained, gob-backed, with a pair-retaining fine-tuned layer.
func (s *System) SupportsFeedback() bool {
	if s.model == nil || s.scorer == nil || s.source == nil || s.arena != nil {
		return false
	}
	_, err := s.hebbian()
	return err == nil
}

// hebbian unwraps the fine-tuned layer of the embedding stack.
func (s *System) hebbian() (*embed.Hebbian, error) {
	src := s.source
	if c, ok := src.(*embed.Cache); ok {
		src = c.Base
	}
	h, ok := src.(*embed.Hebbian)
	if !ok {
		return nil, fmt.Errorf("core: embedding variant has no fine-tuned layer (feedback requires SBERT or BERTFinetuned)")
	}
	if !h.SupportsApply() {
		return nil, fmt.Errorf("core: model predates fine-tune pair retention; retrain to enable feedback")
	}
	return h, nil
}

// Feedback pair-derivation floors. Training's contrastivePairs only
// harvests Paired units, but on clean data those align identical token
// texts, which carry no fine-tuning signal (v·vᵀ along an existing
// direction) and are skipped — feedback through that lens would be a
// no-op exactly when it matters, on the drifted or perturbed vocabulary
// a human just adjudicated. Feedback labels instead use best-alignment
// extraction: a Match pulls each token toward its most similar
// same-attribute counterpart when they are strongly related
// (≥ feedbackPosFloor — drifted surface forms of one word align around
// 0.5-0.6 cosine, unrelated words below 0.4, so the floor separates
// genuine variant pairs from coincidental alignments), a NonMatch
// pushes apart only the confusable high-similarity alignments
// (≥ feedbackNegFloor) that plausibly caused the false match.
const (
	feedbackPosFloor = 0.50
	feedbackNegFloor = 0.60
)

// feedbackPairs expands labels into contrastive token pairs against the
// pre-fine-tune base source. Derivation is per-label and depends only on
// the frozen base, never on previously applied feedback — with the
// uncapped collection, that is what makes ApplyFeedback independent of
// batching and ordering.
func (s *System) feedbackPairs(ctx context.Context, base embed.Source, labels []feedback.Label) (pos, neg []embed.PairSample, err error) {
	for i, lb := range labels {
		if i%16 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, nil, err
			}
		}
		p, n := derivePairs(s.cfg, base, lb)
		pos = append(pos, p...)
		neg = append(neg, n...)
	}
	if s.cfg.Embedding == BERTFinetuned {
		neg = nil // task fine-tune: consolidation only, as in training
	}
	return pos, neg, nil
}

// derivePairs extracts the contrastive samples of one label: each left
// token is aligned to its highest-cosine right token within the same
// attribute; alignments to an identical text are skipped (no signal),
// and the rest contribute a sample when they clear the floor for the
// label's polarity. Samples are deduplicated within the label.
func derivePairs(cfg Config, base embed.Source, lb feedback.Label) (pos, neg []embed.PairSample) {
	lt := tokenize.Entity(lb.Left, cfg.Tokenize)
	rt := tokenize.Entity(lb.Right, cfg.Tokenize)
	if len(lt) == 0 || len(rt) == 0 {
		return nil, nil
	}
	lv := make([][]float64, len(lt))
	for i, tok := range lt {
		lv[i] = base.Vector(tok.Text)
	}
	rv := make([][]float64, len(rt))
	for i, tok := range rt {
		rv[i] = base.Vector(tok.Text)
	}
	floor := feedbackPosFloor
	if !lb.Match {
		floor = feedbackNegFloor
	}
	seen := map[embed.PairSample]bool{}
	for li, l := range lt {
		if vec.Norm(lv[li]) == 0 {
			continue
		}
		best, bestSim := -1, 0.0
		for ri, r := range rt {
			if r.Attr != l.Attr || vec.Norm(rv[ri]) == 0 {
				continue
			}
			if sim := vec.Cosine(lv[li], rv[ri]); best < 0 || sim > bestSim {
				best, bestSim = ri, sim
			}
		}
		if best < 0 || bestSim < floor {
			continue
		}
		sample := embed.PairSample{A: l.Text, B: rt[best].Text}
		if sample.A == sample.B || seen[sample] {
			continue // identical tokens carry no fine-tuning signal
		}
		seen[sample] = true
		if lb.Match {
			pos = append(pos, sample)
		} else {
			neg = append(neg, sample)
		}
	}
	return pos, neg
}
