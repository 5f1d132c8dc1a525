// Command wym-server serves a trained WYM matcher over HTTP: train once
// with `wym -save matcher.gob`, then serve predictions and decision-unit
// explanations as JSON.
//
// Usage:
//
//	wym-server -model matcher.gob -addr :8080
//
// Endpoints:
//
//	POST /predict        {"left": [...], "right": [...]}
//	    -> {"match": bool, "probability": float}
//	POST /predict/batch  {"pairs": [{"left": [...], "right": [...]}, ...]}
//	    -> {"results": [...], "errors": n}   (per-item error semantics)
//	POST /explain        {"left": [...], "right": [...]}
//	    -> prediction plus the decision units with relevance and impact
//	POST /models/{name}/predict        -> predict against a named model
//	POST /models/{name}/predict/batch  -> batch against a named model
//	POST /models/{name}/explain        -> explain against a named model
//	GET  /models         -> the resident model registry (names, formats, fingerprints)
//	GET  /schema         -> the attribute names the model was trained with
//	GET  /healthz        -> 200 ok (liveness)
//	GET  /readyz         -> 200 while serving (with the resident-model
//	                        list), 503 while draining (readiness)
//	POST /admin/reload   {"path": "..."}? -> atomically swap the default model
//	POST   /admin/models/{name}/load {"path": "..."} -> load/replace a named model
//	DELETE /admin/models/{name}                      -> unload a named model
//	POST /admin/feedback {"labels": [{"left": [...], "right": [...], "match": bool}, ...]}
//	    -> fold adjudicated labels into the default model (journal + atomic swap)
//	GET  /admin/feedback -> feedback provenance (label count, fingerprint, threshold)
//	POST /admin/models/{name}/feedback, GET /admin/models/{name}/feedback
//	    -> the same against a named model
//
// The left/right arrays hold one string per schema attribute, in the
// order the model was trained with (reported by GET /schema).
//
// Several models can be resident at once: the -model artifact is the
// pinned "default" (served by the bare routes), -models preloads more,
// and the registry evicts least-recently-used extras past the
// -max-model-bytes budget. Every model keeps the same hot-reload,
// metrics, and drain semantics the single-model server had.
//
// The process reloads its default model on SIGHUP and drains
// gracefully on SIGINT/SIGTERM; see the serve package for the
// resilience middleware (panic recovery, per-request timeouts, body
// caps, load shedding).
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"wym"
	"wym/internal/audit"
	"wym/internal/obs"
	"wym/internal/pipeline"
	"wym/internal/serve"
)

func main() {
	var (
		modelPath = flag.String("model", "", "path to a system saved with wym -save")
		addr      = flag.String("addr", ":8080", "listen address")

		readTimeout   = flag.Duration("read-timeout", 15*time.Second, "full-request read deadline")
		writeTimeout  = flag.Duration("write-timeout", 60*time.Second, "response write deadline")
		idleTimeout   = flag.Duration("idle-timeout", 120*time.Second, "keep-alive idle deadline")
		reqTimeout    = flag.Duration("request-timeout", 30*time.Second, "per-request handling budget (503 past it)")
		shutdownGrace = flag.Duration("shutdown-grace", 15*time.Second, "drain budget on SIGINT/SIGTERM")

		maxBody     = flag.Int64("max-body", 1<<20, "request body cap in bytes (413 past it)")
		maxInFlight = flag.Int("max-inflight", 64, "concurrent predict/explain cap (429 past it, 0 = unlimited)")
		retryAfter  = flag.Duration("retry-after", time.Second, "Retry-After hint on shed (429) responses")
		maxBatch    = flag.Int("max-batch", 256, "maximum pairs per /predict/batch request")

		preload       = flag.String("models", "", "extra named models to preload, as name=path[,name=path...]")
		feedbackDir   = flag.String("feedback-dir", "", "root directory for per-model feedback label journals; empty disables the feedback endpoints")
		maxModelBytes = flag.Int64("max-model-bytes", 0, "registry bytes budget; LRU-evicts non-default models past it (0 = unlimited)")

		adminAddr = flag.String("admin-addr", "", "admin listen address for GET /metrics (and pprof); empty disables")
		pprofOn   = flag.Bool("pprof", false, "expose net/http/pprof on the admin address")

		auditDir      = flag.String("audit-dir", "", "prediction audit log directory; empty disables auditing")
		auditSample   = flag.String("audit-sample", "1", "audit sampling: a rate in [0,1], or default=R,/route=R,... per-route overrides")
		auditFlush    = flag.Duration("audit-flush", 200*time.Millisecond, "audit fsync batching interval (0 = fsync every record)")
		auditSegBytes = flag.Int64("audit-segment-bytes", audit.DefaultSegmentBytes, "audit segment rotation size in bytes")
		auditRetain   = flag.Int64("audit-retain-bytes", 0, "audit retention cap across segments (0 = unbounded; otherwise >= 2x segment size)")
	)
	flag.Parse()
	if *modelPath == "" {
		fmt.Fprintln(os.Stderr, "wym-server: -model is required")
		os.Exit(2)
	}
	loadStart := time.Now()
	sys, err := wym.LoadSystem(*modelPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wym-server:", err)
		os.Exit(1)
	}
	loadTook := time.Since(loadStart)

	logger := log.New(os.Stderr, "wym-server: ", log.LstdFlags)
	a, err := newApp(sys, *modelPath, options{
		logger:        logger,
		maxInFlight:   *maxInFlight,
		retryAfter:    *retryAfter,
		reqTimeout:    *reqTimeout,
		maxBody:       *maxBody,
		maxBatch:      *maxBatch,
		maxModelBytes: *maxModelBytes,
		feedbackDir:   *feedbackDir,

		auditDir:          *auditDir,
		auditSample:       *auditSample,
		auditFlush:        *auditFlush,
		auditSegmentBytes: *auditSegBytes,
		auditRetainBytes:  *auditRetain,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "wym-server:", err)
		os.Exit(1)
	}
	defer a.feedback.Close()
	defer a.audit.Close()
	a.observeModelLoad(sys.Format(), loadTook)
	logger.Printf("loaded %s (%s) in %v", *modelPath, sys.Format(), loadTook.Round(time.Millisecond))
	if a.feedback.enabled() {
		logger.Printf("feedback enabled, journaling under %s", *feedbackDir)
	}
	if a.audit.enabled() {
		logger.Printf("audit enabled, recording under %s (sample %s)", *auditDir, *auditSample)
	}
	if *preload != "" {
		for _, spec := range strings.Split(*preload, ",") {
			name, path, ok := strings.Cut(strings.TrimSpace(spec), "=")
			if !ok || name == "" || path == "" {
				fmt.Fprintf(os.Stderr, "wym-server: -models entry %q is not name=path\n", spec)
				os.Exit(2)
			}
			entry, err := a.load(name, path)
			if err != nil {
				fmt.Fprintf(os.Stderr, "wym-server: preloading model %s: %v\n", name, err)
				os.Exit(1)
			}
			logger.Printf("preloaded model %s from %s (%s)", name, path, entry.status().Format)
		}
	}
	srv := serve.New(serve.Config{
		Addr:          *addr,
		ReadTimeout:   *readTimeout,
		WriteTimeout:  *writeTimeout,
		IdleTimeout:   *idleTimeout,
		ShutdownGrace: *shutdownGrace,
		ErrorLog:      logger,
	}, a.handler())
	a.drainFn = srv.Draining

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	a.watchHUP(ctx)

	if *adminAddr != "" {
		adminSrv := serve.New(serve.Config{
			Addr:          *adminAddr,
			ShutdownGrace: *shutdownGrace,
			ErrorLog:      logger,
		}, a.adminHandler(*pprofOn))
		go func() {
			if err := adminSrv.Run(ctx); err != nil {
				logger.Printf("admin server: %v", err)
			}
		}()
		logger.Printf("admin surface (GET /metrics, pprof=%v) on %s", *pprofOn, *adminAddr)
	}

	logger.Printf("serving %s (classifier %s, schema %v) on %s",
		*modelPath, sys.ModelName(), sys.Schema(), *addr)
	if err := srv.Run(ctx); err != nil {
		logger.Printf("shutdown: %v", err)
		os.Exit(1)
	}
	logger.Printf("drained cleanly, bye")
}

// options tunes the request-handling stack; zero values are filled with
// serving defaults by newApp.
type options struct {
	logger        *log.Logger
	maxInFlight   int
	retryAfter    time.Duration
	reqTimeout    time.Duration
	maxBody       int64
	maxBatch      int
	maxModelBytes int64           // model-registry bytes budget (0 = unlimited)
	feedbackDir   string          // feedback journal root ("" disables feedback)
	registry      *obs.Registry   // metrics registry; newApp creates one when nil
	faults        *serve.Injector // test-only fault injection, nil in production

	// Prediction auditing; see audit.go. auditDir == "" disables it.
	auditDir          string
	auditSample       string // sampling spec for parseSampleSpec
	auditFlush        time.Duration
	auditSegmentBytes int64
	auditRetainBytes  int64
}

// app is the serving state: the model registry (with the pinned
// default model's reload-safe handle) plus the middleware
// configuration. All request handlers resolve a model snapshot exactly
// once, so a concurrent reload never splits one request across two
// models.
type app struct {
	ref          *wym.ModelRef // the default registry entry's ref
	defaultEntry *modelEntry   // the pinned default entry (stable across reloads)
	models       *modelRegistry
	audit        *auditor
	logger       *log.Logger
	limiter      *serve.Limiter
	opts         options
	drainFn      func() bool // wired to serve.Server.Draining
	reloadMu     sync.Mutex  // serializes reloads, named-model load/unload, and feedback; never held on the predict path
	reloads      atomic.Int64

	// Online learning: per-model label journals plus the feedback
	// counters; see feedback.go.
	feedback       *feedbackStore
	fbLabels       *obs.Counter
	fbApplies      *obs.Counter
	fbRejected     *obs.Counter
	fbApplySeconds *obs.Histogram

	// Observability: one registry for the process; the engine bundle is
	// re-attached to every reloaded model so counters survive swaps.
	reg           *obs.Registry
	engineMetrics *pipeline.Metrics
	httpMetrics   *serve.HTTPMetrics
	reloadsTotal  *obs.Counter
}

func newApp(sys *wym.System, modelPath string, opts options) (*app, error) {
	if opts.logger == nil {
		opts.logger = log.Default()
	}
	if opts.maxBatch <= 0 {
		opts.maxBatch = 256
	}
	if opts.retryAfter <= 0 {
		opts.retryAfter = time.Second
	}
	if opts.registry == nil {
		opts.registry = obs.NewRegistry()
	}
	a := &app{
		logger:  opts.logger,
		limiter: serve.NewLimiter(opts.maxInFlight, opts.retryAfter),
		opts:    opts,
		drainFn: func() bool { return false },

		reg:         opts.registry,
		httpMetrics: serve.NewHTTPMetrics(opts.registry),
		reloadsTotal: opts.registry.Counter("wym_server_reloads_total",
			"Successful model hot reloads."),
	}
	a.engineMetrics = pipeline.NewMetrics(a.reg)
	a.limiter.CountSheds(a.reg.Counter("wym_server_shed_total",
		"Requests shed with 429 by the in-flight limiter."))
	a.feedback = newFeedbackStore(opts.feedbackDir)
	a.registerFeedbackMetrics()
	au, err := newAuditor(opts, a.reg, opts.logger)
	if err != nil {
		return nil, err
	}
	a.audit = au
	// The registry validates, instruments, and journal-replays every
	// model before publishing it: handlers must never observe an
	// uninstrumented engine, a broken artifact must never displace a
	// serving one, and a (re)loaded model must carry every acked
	// feedback label.
	a.models = newModelRegistry(opts.maxModelBytes, a.reg, func(name string, sys *wym.System) (*wym.System, error) {
		if err := validateSystem(sys); err != nil {
			return nil, err
		}
		upd, err := a.replayFeedback(name, sys)
		if err != nil {
			return nil, err
		}
		upd.Engine().SetMetrics(a.engineMetrics)
		return upd, nil
	})
	// The startup artifact was already validated by loading successfully
	// in main; replay its journal and instrument before publishing, as
	// above.
	sys, err = a.replayFeedback(defaultModelName, sys)
	if err != nil {
		return nil, fmt.Errorf("model %s: %w", modelPath, err)
	}
	sys.Engine().SetMetrics(a.engineMetrics)
	a.defaultEntry = a.models.Install(defaultModelName, modelPath, sys)
	a.ref = a.defaultEntry.ref
	a.setResidentFormat("", sys.Format())
	return a, nil
}

// setResidentFormat flips the wym_server_model_format gauge family from
// the default model's previous format to its current one: the serving
// format's series reads 1, every format it replaced 0 — so a scrape
// identifies the representation /predict serves (gob vs arena) across
// hot swaps. Named models never move it. Called at startup and with
// reloadMu held.
func (a *app) setResidentFormat(prev, format string) {
	const name = "wym_server_model_format"
	const help = "1 for the model format currently serving, 0 for formats it replaced."
	if prev != "" && prev != format {
		a.reg.Gauge(name, help, obs.L("format", prev)).Set(0)
	}
	a.reg.Gauge(name, help, obs.L("format", format)).Set(1)
}

// observeModelLoad records one model artifact load into the per-format
// load-duration histogram. Arena loads are mmap + header validation and
// land in the sub-millisecond buckets; gob loads decode the full
// snapshot.
func (a *app) observeModelLoad(format string, took time.Duration) {
	a.reg.Histogram("wym_server_model_load_seconds",
		"Model artifact load+validate latency, labeled by on-disk format.",
		obs.DefaultLatencyBuckets, obs.L("format", format)).Observe(took.Seconds())
}

// handler assembles the full middleware stack. The hot endpoints shed
// load and respect the request budget; health and admin endpoints skip
// the limiter so probes and operators get through even at saturation.
// Recovery and access logging wrap everything.
func (a *app) handler() http.Handler {
	mux := http.NewServeMux()
	// Metrics wrap each route outermost (inside the mux) so the route
	// label is the registered pattern and shed 429s are counted too.
	hot := func(route string, h http.HandlerFunc) http.Handler {
		var inner http.Handler = h
		inner = a.opts.faults.Middleware(inner) // no-op when nil
		inner = serve.MaxBytes(a.opts.maxBody, inner)
		inner = serve.Timeout(a.opts.reqTimeout, inner)
		inner = a.limiter.Middleware(inner)
		return a.httpMetrics.Route(route, inner)
	}
	admin := func(route string, h http.HandlerFunc) http.Handler {
		inner := serve.Timeout(a.opts.reqTimeout, serve.MaxBytes(a.opts.maxBody, h))
		return a.httpMetrics.Route(route, inner)
	}
	mux.Handle("GET /healthz", a.httpMetrics.Route("/healthz",
		http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			fmt.Fprintln(w, "ok")
		})))
	mux.Handle("GET /readyz", a.httpMetrics.Route("/readyz", http.HandlerFunc(a.handleReadyz)))
	mux.Handle("GET /schema", a.httpMetrics.Route("/schema",
		http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			writeJSON(w, http.StatusOK, a.ref.Get().Schema())
		})))
	// Handlers receive their registered route pattern explicitly (for
	// the audit trail and per-route sampling) alongside the resolved
	// registry entry, so one request never re-resolves its model.
	mux.Handle("POST /predict", hot("/predict", a.defaultScoped("/predict", a.predictWith)))
	mux.Handle("POST /predict/batch",
		hot("/predict/batch", a.defaultScoped("/predict/batch", a.predictBatchWith)))
	mux.Handle("POST /explain", hot("/explain", a.defaultScoped("/explain", a.explainWith)))
	// Model-scoped routes: the metric label is the route pattern, not
	// the expanded name, so series cardinality stays fixed however many
	// models churn through the registry.
	mux.Handle("POST /models/{name}/predict",
		hot("/models/{name}/predict", a.modelScoped("/models/{name}/predict", a.predictWith)))
	mux.Handle("POST /models/{name}/predict/batch",
		hot("/models/{name}/predict/batch", a.modelScoped("/models/{name}/predict/batch", a.predictBatchWith)))
	mux.Handle("POST /models/{name}/explain",
		hot("/models/{name}/explain", a.modelScoped("/models/{name}/explain", a.explainWith)))
	mux.Handle("GET /models", a.httpMetrics.Route("/models",
		http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			writeJSON(w, http.StatusOK, a.models.List())
		})))
	mux.Handle("POST /admin/reload", admin("/admin/reload", a.handleReload))
	mux.Handle("POST /admin/feedback", admin("/admin/feedback", a.handleFeedback))
	mux.Handle("GET /admin/feedback", admin("/admin/feedback", a.handleFeedbackStatus))
	mux.Handle("POST /admin/models/{name}/feedback",
		admin("/admin/models/{name}/feedback", a.handleModelFeedback))
	mux.Handle("GET /admin/models/{name}/feedback",
		admin("/admin/models/{name}/feedback", a.handleModelFeedbackStatus))
	mux.Handle("POST /admin/models/{name}/load",
		admin("/admin/models/{name}/load", a.handleModelLoad))
	mux.Handle("DELETE /admin/models/{name}",
		admin("/admin/models/{name}", a.handleModelUnload))
	return serve.AccessLog(a.logger, a.limiter.InFlight, serve.Recover(a.logger, mux))
}

// adminHandler is the admin-surface mux: GET /metrics always, the
// net/http/pprof handlers when enabled. It is served on its own listener
// (-admin-addr) so profiling and scraping never contend with, or leak
// onto, the public predict routes.
func (a *app) adminHandler(pprofOn bool) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("GET /metrics", a.reg.Handler())
	if pprofOn {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return serve.Recover(a.logger, mux)
}

// watchHUP reloads the model from its current path on SIGHUP until ctx
// ends — the classic "promote the retrained artifact in place" signal.
func (a *app) watchHUP(ctx context.Context) {
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	go func() {
		defer signal.Stop(hup)
		for {
			select {
			case <-ctx.Done():
				return
			case <-hup:
				if path, err := a.reload(""); err != nil {
					a.logger.Printf("SIGHUP reload of %s failed, keeping current model: %v", path, err)
				} else {
					a.logger.Printf("SIGHUP reload: now serving %s", path)
				}
			}
		}
	}()
}

// reload loads and validates a replacement default model, publishing
// it only after it passes (the registry validates and re-attaches the
// process-lifetime engine metrics before the swap, so counters
// accumulate across model generations). On any failure the previous
// model keeps serving — rollback is the default, not an action. An
// empty path means "reload the default entry's artifact in place".
func (a *app) reload(path string) (string, error) {
	a.reloadMu.Lock()
	defer a.reloadMu.Unlock()
	if path == "" {
		path = a.defaultEntry.status().Path
	}
	_, err := a.loadLocked(defaultModelName, path)
	return path, err
}

// load is loadLocked under reloadMu.
func (a *app) load(name, path string) (*modelEntry, error) {
	a.reloadMu.Lock()
	defer a.reloadMu.Unlock()
	return a.loadLocked(name, path)
}

// loadLocked loads the artifact at path into the registry under name and
// records the load. Loading the default model is a reload: it counts
// one and moves the resident-format gauge, whichever route asked for it.
// The caller holds reloadMu.
func (a *app) loadLocked(name, path string) (*modelEntry, error) {
	prev := a.defaultEntry.status().Format
	start := time.Now()
	entry, err := a.models.Load(name, path)
	if err != nil {
		return nil, err
	}
	format := entry.status().Format
	a.observeModelLoad(format, time.Since(start))
	if name == defaultModelName {
		a.setResidentFormat(prev, format)
		a.reloads.Add(1)
		a.reloadsTotal.Inc()
	}
	return entry, nil
}

// Reloads returns the number of successful model swaps (exposed on
// /readyz; tests use it to observe SIGHUP handling).
func (a *app) Reloads() int64 { return a.reloads.Load() }

// validateSystem smoke-tests a candidate model before it is allowed to
// serve: the schema must be usable and a probe predict must complete
// without tripping an invariant panic anywhere in the pipeline.
func validateSystem(sys *wym.System) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("probe predict panicked: %v", r)
		}
	}()
	schema := sys.Schema()
	if len(schema) == 0 {
		return errors.New("empty schema")
	}
	probe := make([]string, len(schema))
	for i := range probe {
		probe[i] = "probe"
	}
	sys.Predict(wym.Pair{Left: probe, Right: probe})
	return nil
}

// pairRequest is the JSON body of /predict and /explain, and one batch
// item.
type pairRequest struct {
	Left  []string `json:"left"`
	Right []string `json:"right"`
}

// predictResponse is the /predict reply.
type predictResponse struct {
	Match       bool    `json:"match"`
	Probability float64 `json:"probability"`
}

// sideError pinpoints which side of a pair has the wrong attribute
// count.
type sideError struct {
	Side string `json:"side"` // "left" or "right"
	Want int    `json:"want"`
	Got  int    `json:"got"`
}

// errorResponse is the structured error body for request failures.
type errorResponse struct {
	Error    string      `json:"error"`
	BadSides []sideError `json:"bad_sides,omitempty"`
}

// batchRequest is the /predict/batch body.
type batchRequest struct {
	Pairs []pairRequest `json:"pairs"`
}

// batchItem is one /predict/batch result: either a prediction or an
// item-level error, never both.
type batchItem struct {
	Match       *bool       `json:"match,omitempty"`
	Probability *float64    `json:"probability,omitempty"`
	Error       string      `json:"error,omitempty"`
	BadSides    []sideError `json:"bad_sides,omitempty"`
}

// batchResponse is the /predict/batch reply; Errors counts failed items.
type batchResponse struct {
	Results []batchItem `json:"results"`
	Errors  int         `json:"errors"`
}

// unitResponse is one decision unit in the /explain reply.
type unitResponse struct {
	Left      string  `json:"left,omitempty"`
	Right     string  `json:"right,omitempty"`
	Paired    bool    `json:"paired"`
	Attribute string  `json:"attribute"`
	Relevance float64 `json:"relevance"`
	Impact    float64 `json:"impact"`
}

// explainResponse is the /explain reply.
type explainResponse struct {
	Match       bool           `json:"match"`
	Probability float64        `json:"probability"`
	Units       []unitResponse `json:"units"`
}

// reloadRequest is the optional /admin/reload body; an omitted or empty
// path reloads the artifact the server is already pointed at.
type reloadRequest struct {
	Path string `json:"path"`
}

// reloadResponse reports a successful swap.
type reloadResponse struct {
	Status  string   `json:"status"`
	Path    string   `json:"path"`
	Model   string   `json:"model"`
	Schema  []string `json:"schema"`
	Reloads int64    `json:"reloads"`
}

// handleReadyz reports readiness plus what this replica is actually
// serving: every resident model's name, format, and artifact
// fingerprint — the router's health prober and operators key on it.
func (a *app) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if a.drainFn() {
		writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	sys := a.ref.Get()
	if sys == nil {
		writeError(w, http.StatusServiceUnavailable, "no model loaded")
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":  "ready",
		"model":   sys.ModelName(),
		"reloads": a.Reloads(),
		"models":  a.models.List(),
	})
}

// scopedHandler is a request handler bound to a resolved model: the
// registered route pattern (audit/metrics label), the registry name,
// and the entry to serve from.
type scopedHandler func(route, name string, e *modelEntry, w http.ResponseWriter, r *http.Request)

// defaultScoped binds a handler to the pinned default model.
func (a *app) defaultScoped(route string, h scopedHandler) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		h(route, defaultModelName, a.defaultEntry, w, r)
	}
}

// modelScoped resolves the {name} route segment against the registry
// and hands the request to the shared handler body; unknown names are
// a 404, never a panic.
func (a *app) modelScoped(route string, h scopedHandler) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		name := r.PathValue("name")
		entry := a.models.Get(name)
		if entry == nil {
			writeError(w, http.StatusNotFound, fmt.Sprintf("unknown model %q", name))
			return
		}
		entry.touch(time.Now())
		h(route, name, entry, w, r)
	}
}

func (a *app) predictWith(route, name string, e *modelEntry, w http.ResponseWriter, r *http.Request) {
	sys := e.System()
	start := time.Now()
	p, ok := decodePair(w, r, sys)
	if !ok {
		return
	}
	eng := sys.Engine()
	id := a.audit.requestID(w, r)
	if !a.audit.sample(route, id) {
		label, proba := eng.Predict(p)
		writeJSON(w, http.StatusOK, predictResponse{
			Match:       label == wym.Match,
			Probability: proba,
		})
		return
	}
	// Audited path: process and explain once, and answer from the
	// explanation itself — it carries the same prediction and probability
	// the matcher would return, at the cost of one scoring pass instead
	// of the two a separate PredictRecord + ExplainRecord would spend
	// (the scorer dominates both; see the PredictAudited bench gate).
	ex := eng.ExplainRecord(eng.Process(p))
	latency := time.Since(start)
	writeJSON(w, http.StatusOK, predictResponse{
		Match:       ex.Prediction == wym.Match,
		Probability: ex.Proba,
	})
	a.audit.record(route, id, name, e, sys, p, ex, latency)
}

// handlePredictBatch serves a batch with per-item error semantics: items
// with the wrong attribute count are rejected up front, and the rest run
// through Engine.PredictBatch, whose worker fan-out quarantines any item
// whose processing panics (that item fails alone, never the batch or the
// process). The batch runs under the request context, so a client
// disconnect or timeout stops the remaining items.
func (a *app) predictBatchWith(route, name string, e *modelEntry, w http.ResponseWriter, r *http.Request) {
	sys := e.System()
	start := time.Now()
	var req batchRequest
	if err := decodeStrict(r.Body, &req); err != nil {
		writeDecodeError(w, err)
		return
	}
	if len(req.Pairs) == 0 {
		writeError(w, http.StatusBadRequest, "batch has no pairs")
		return
	}
	if len(req.Pairs) > a.opts.maxBatch {
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("batch has %d pairs, limit is %d", len(req.Pairs), a.opts.maxBatch))
		return
	}
	resp := batchResponse{Results: make([]batchItem, len(req.Pairs))}
	var (
		pairs   []wym.Pair // arity-valid items, in request order
		indices []int      // their positions in the response
	)
	for i, pr := range req.Pairs {
		if bad := checkArity(sys, pr); len(bad) > 0 {
			resp.Results[i] = batchItem{Error: "wrong attribute count", BadSides: bad}
			resp.Errors++
			continue
		}
		pairs = append(pairs, wym.Pair{Left: pr.Left, Right: pr.Right})
		indices = append(indices, i)
	}
	id := a.audit.requestID(w, r)
	okItems := make([]bool, len(pairs)) // batch positions that produced a prediction
	for k, pred := range sys.Engine().PredictBatch(r.Context(), pairs) {
		i := indices[k]
		if pred.Err != "" {
			a.logger.Printf("batch item %d failed: %s", i, pred.Err)
			resp.Results[i] = batchItem{Error: "internal error: " + strings.TrimPrefix(pred.Err, "panic: ")}
			resp.Errors++
			continue
		}
		match := pred.Label == wym.Match
		proba := pred.Proba
		resp.Results[i] = batchItem{Match: &match, Probability: &proba}
		okItems[k] = true
	}
	latency := time.Since(start)
	writeJSON(w, http.StatusOK, resp)
	if id == "" {
		return
	}
	// Each batch item samples under its own derived ID (base#index), so
	// a sampled batch doesn't flood the log with every item. Sampled
	// items are re-explained after the response is written; the stored
	// latency is the whole batch's, which is what the client observed.
	eng := sys.Engine()
	for k, served := range okItems {
		if !served {
			continue
		}
		itemID := id + "#" + strconv.Itoa(indices[k])
		if !a.audit.sample(route, itemID) {
			continue
		}
		a.audit.record(route, itemID, name, e, sys, pairs[k], eng.Explain(pairs[k]), latency)
	}
}

func (a *app) explainWith(route, name string, e *modelEntry, w http.ResponseWriter, r *http.Request) {
	sys := e.System()
	start := time.Now()
	p, ok := decodePair(w, r, sys)
	if !ok {
		return
	}
	id := a.audit.requestID(w, r)
	ex := sys.Engine().Explain(p)
	latency := time.Since(start)
	resp := explainResponse{
		Match:       ex.Prediction == wym.Match,
		Probability: ex.Proba,
	}
	schema := sys.Schema()
	for _, u := range ex.Units {
		attr := ""
		if u.Attr >= 0 && u.Attr < len(schema) {
			attr = schema[u.Attr]
		}
		resp.Units = append(resp.Units, unitResponse{
			Left: u.Left, Right: u.Right,
			Paired:    u.Left != "" && u.Right != "",
			Attribute: attr,
			Relevance: u.Relevance,
			Impact:    u.Impact,
		})
	}
	writeJSON(w, http.StatusOK, resp)
	if a.audit.sample(route, id) {
		a.audit.record(route, id, name, e, sys, p, ex, latency)
	}
}

func (a *app) handleReload(w http.ResponseWriter, r *http.Request) {
	var req reloadRequest
	body, err := io.ReadAll(r.Body)
	if err != nil {
		writeDecodeError(w, err)
		return
	}
	if len(body) > 0 { // body is optional; empty means reload in place
		if err := decodeStrict(bytes.NewReader(body), &req); err != nil {
			writeDecodeError(w, err)
			return
		}
	}
	path, err := a.reload(req.Path)
	if err != nil {
		a.logger.Printf("reload of %s failed, keeping current model: %v", path, err)
		writeError(w, http.StatusInternalServerError, "reload failed: "+err.Error())
		return
	}
	sys := a.ref.Get()
	a.logger.Printf("reload: now serving %s (classifier %s)", path, sys.ModelName())
	writeJSON(w, http.StatusOK, reloadResponse{
		Status:  "ok",
		Path:    path,
		Model:   sys.ModelName(),
		Schema:  sys.Schema(),
		Reloads: a.Reloads(),
	})
}

// handleModelLoad loads (or hot-replaces) a named model from an
// artifact path. The same validate-then-swap rules as /admin/reload
// apply: a bad artifact never displaces a serving model, and a load of
// "default" is a reload.
func (a *app) handleModelLoad(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var req reloadRequest
	if err := decodeStrict(r.Body, &req); err != nil {
		writeDecodeError(w, err)
		return
	}
	if req.Path == "" {
		writeError(w, http.StatusBadRequest, "path is required")
		return
	}
	if err := validModelName(name); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	// load holds reloadMu, which serializes this load against feedback
	// ingestion: the registry's onLoad replays the model's journal
	// (Journal.All) and publishes via ref.Set, both of which
	// feedbackWith assumes cannot interleave with its own Append+Set
	// sequence.
	entry, err := a.load(name, req.Path)
	if err != nil {
		a.logger.Printf("load of model %s from %s failed: %v", name, req.Path, err)
		writeError(w, http.StatusInternalServerError, "load failed: "+err.Error())
		return
	}
	st := entry.status()
	a.logger.Printf("model %s: now serving %s (%s, %s)", name, st.Path, st.Format, st.Fingerprint)
	writeJSON(w, http.StatusOK, struct {
		Status string      `json:"status"`
		Model  modelStatus `json:"model"`
		Schema []string    `json:"schema"`
	}{Status: "ok", Model: st, Schema: entry.System().Schema()})
}

// handleModelUnload evicts a named model; the default is pinned.
func (a *app) handleModelUnload(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	// Same serialization as handleModelLoad: an eviction must not land
	// in the middle of feedbackWith's apply-journal-swap sequence.
	a.reloadMu.Lock()
	err := a.models.Remove(name)
	a.reloadMu.Unlock()
	if err != nil {
		status := http.StatusNotFound
		if name == defaultModelName {
			status = http.StatusBadRequest
		}
		writeError(w, status, err.Error())
		return
	}
	a.logger.Printf("model %s unloaded", name)
	writeJSON(w, http.StatusOK, map[string]string{"status": "unloaded", "name": name})
}

// errEmptyBody distinguishes a missing body from malformed JSON.
var errEmptyBody = errors.New("empty request body")

// decodeStrict decodes exactly one JSON value from r into v: unknown
// fields and trailing garbage are errors, as is an empty body.
func decodeStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		if errors.Is(err, io.EOF) {
			return errEmptyBody
		}
		return err
	}
	if dec.More() {
		return errors.New("trailing data after JSON value")
	}
	return nil
}

// checkArity validates both sides against the model schema and reports
// each offending side.
func checkArity(sys *wym.System, req pairRequest) []sideError {
	n := len(sys.Schema())
	var bad []sideError
	if len(req.Left) != n {
		bad = append(bad, sideError{Side: "left", Want: n, Got: len(req.Left)})
	}
	if len(req.Right) != n {
		bad = append(bad, sideError{Side: "right", Want: n, Got: len(req.Right)})
	}
	return bad
}

// decodePair parses and validates a pair request; on failure it writes
// the error response and returns ok=false.
func decodePair(w http.ResponseWriter, r *http.Request, sys *wym.System) (wym.Pair, bool) {
	var req pairRequest
	if err := decodeStrict(r.Body, &req); err != nil {
		writeDecodeError(w, err)
		return wym.Pair{}, false
	}
	if bad := checkArity(sys, req); len(bad) > 0 {
		writeJSON(w, http.StatusBadRequest, errorResponse{
			Error:    fmt.Sprintf("wrong attribute count (schema %v)", sys.Schema()),
			BadSides: bad,
		})
		return wym.Pair{}, false
	}
	return wym.Pair{Left: req.Left, Right: req.Right}, true
}

// writeDecodeError maps body-decoding failures to statuses: an
// over-limit body is 413, everything else 400.
func writeDecodeError(w http.ResponseWriter, err error) {
	var maxErr *http.MaxBytesError
	if errors.As(err, &maxErr) {
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("request body exceeds %d bytes", maxErr.Limit))
		return
	}
	if errors.Is(err, errEmptyBody) {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	writeError(w, http.StatusBadRequest, "invalid JSON: "+err.Error())
}

// writeJSON delegates to serve.WriteJSON, which buffers the encoding so
// a marshal failure yields a clean 500 rather than a 200 status line
// with a truncated body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	serve.WriteJSON(w, status, v)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	serve.WriteError(w, status, msg)
}
