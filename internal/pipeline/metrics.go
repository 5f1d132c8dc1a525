package pipeline

import (
	"time"

	"wym/internal/data"
	"wym/internal/obs"
)

// Metrics is the engine's observability bundle. Every field is optional
// (obs metrics are nil-safe), but NewMetrics registers the full standard
// set. One bundle can be shared across engine rebuilds — the server
// re-attaches the same bundle after a hot model reload so counters and
// histograms accumulate across model generations.
type Metrics struct {
	// Processed counts record pairs run through the unit generator,
	// including quarantined ones.
	Processed *obs.Counter
	// Quarantined counts record pairs excluded after a worker panic
	// (generator or full-predict, quarantining batch paths only).
	Quarantined *obs.Counter
	// ProcessSeconds is the per-record unit-generation latency
	// (tokenize + embed + Algorithm 1).
	ProcessSeconds *obs.Histogram
	// PredictSeconds is the per-record end-to-end predict latency
	// (generation + scoring + matching). In the chunked batch paths a
	// record's scoring is its equal share of its chunk's one scoring
	// call.
	PredictSeconds *obs.Histogram
	// InFlight gauges records currently inside the generator or a
	// predict, across all workers.
	InFlight *obs.Gauge
}

// NewMetrics registers the engine's standard metric set on the registry
// and returns the bundle. Metric names are part of the observability
// contract documented in DESIGN.md §9.
func NewMetrics(reg *obs.Registry) *Metrics {
	return &Metrics{
		Processed: reg.Counter("wym_engine_records_processed_total",
			"Record pairs run through the decision-unit generator."),
		Quarantined: reg.Counter("wym_engine_records_quarantined_total",
			"Record pairs quarantined after a per-record worker panic."),
		ProcessSeconds: reg.Histogram("wym_engine_process_seconds",
			"Per-record unit-generation latency (tokenize + embed + Algorithm 1).",
			obs.DefaultLatencyBuckets),
		PredictSeconds: reg.Histogram("wym_engine_predict_seconds",
			"Per-record end-to-end predict latency.",
			obs.DefaultLatencyBuckets),
		InFlight: reg.Gauge("wym_engine_inflight_records",
			"Records currently being processed or predicted."),
	}
}

// SetMetrics attaches (or, with nil, detaches) a metrics bundle. It must
// not race with serving calls: attach before the engine is published to
// request handlers — the server does it before ModelRef.Set on every
// load and reload. A nil bundle keeps the hot path at a single pointer
// check per record.
func (e *Engine) SetMetrics(m *Metrics) { e.metrics = m }

// Metrics returns the attached bundle (nil when uninstrumented).
func (e *Engine) Metrics() *Metrics { return e.metrics }

// generate runs the generator on one pair, recording process-side
// metrics when a bundle is attached. Every generator call inside the
// engine flows through here.
func (e *Engine) generate(p data.Pair) *Record {
	m := e.metrics
	if m == nil {
		return e.gen.Generate(p)
	}
	m.InFlight.Inc()
	// Dec via defer so a generator panic cannot leak the gauge; the pair
	// counts as processed either way.
	defer m.InFlight.Dec()
	m.Processed.Inc()
	start := time.Now()
	rec := e.gen.Generate(p)
	m.ProcessSeconds.Observe(time.Since(start).Seconds())
	return rec
}

// quarantineInc bumps the quarantine counter; nil-safe on the bundle so
// the quarantining batch methods need no guards.
func (m *Metrics) quarantineInc() {
	if m == nil {
		return
	}
	m.Quarantined.Inc()
}
