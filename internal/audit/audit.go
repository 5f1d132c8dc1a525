// Package audit is the prediction audit trail: an append-only,
// crash-safe log of served match decisions, each stored with enough
// context to re-render its decision-unit explanation after the fact —
// request identity, model provenance (artifact and feedback
// fingerprints), both entity sides, the prediction with score and
// threshold, the compact explanation, and latency.
//
// The on-disk WYMAUD segment format runs on the same segment log as the
// feedback journal (internal/durable): a directory of numbered
// segments, each starting with an 8-byte magic and holding
// length-prefixed, CRC-32C-checked gob records. Where the journal
// fsyncs every append (labels are few and each must survive power
// loss), the audit log batches fsyncs on a configurable flush interval
// — prediction traffic is orders of magnitude hotter, and the crash
// contract is "lose at most the unflushed tail", never a torn file.
// Segments rotate at a size limit and old segments are pruned against a
// retention cap; the active segment is never deleted.
package audit

import (
	"wym/internal/pipeline"
	"wym/internal/units"
)

// Unit is one decision unit of a stored explanation — the compact
// serialized form of pipeline.UnitExplanation.
type Unit struct {
	Left, Right string // token texts; empty for the absent side
	Kind        int    // units.Kind
	Attr        int    // schema attribute index
	Relevance   float64
	Impact      float64
}

// Record is one audited decision. TimeNanos and LatencyNanos are set by
// the caller (unix nanos / nanoseconds) so tests can pin them.
type Record struct {
	RequestID string
	TimeNanos int64
	Route     string // serving route pattern, or "match"/"dedup" for batch jobs

	Model      string // registry name or artifact path
	ArtifactFP string // model artifact fingerprint ("fnv64:...")
	FeedbackFP string // folded-feedback fingerprint ("" when none)

	Left, Right []string // the entity sides, one value per schema attribute

	Prediction int // data.Match / data.NonMatch
	Proba      float64
	Threshold  float64 // decision threshold the prediction was taken at

	Units        []Unit // the decision-unit explanation
	LatencyNanos int64
}

// CompactUnits converts an engine explanation's units to the stored
// form.
func CompactUnits(ex pipeline.Explanation) []Unit {
	if len(ex.Units) == 0 {
		return nil
	}
	out := make([]Unit, len(ex.Units))
	for i, u := range ex.Units {
		out[i] = Unit{
			Left: u.Left, Right: u.Right,
			Kind: int(u.Kind), Attr: u.Attr,
			Relevance: u.Relevance, Impact: u.Impact,
		}
	}
	return out
}

// Explanation reassembles the stored explanation in the engine's type,
// so a stored record renders through the same code path as a live
// explain.
func (r *Record) Explanation() pipeline.Explanation {
	ex := pipeline.Explanation{Prediction: r.Prediction, Proba: r.Proba}
	for _, u := range r.Units {
		ex.Units = append(ex.Units, pipeline.UnitExplanation{
			Left: u.Left, Right: u.Right,
			Kind: units.Kind(u.Kind), Attr: u.Attr,
			Relevance: u.Relevance, Impact: u.Impact,
		})
	}
	return ex
}
