// Command iqserver exposes improvement queries as an HTTP JSON API — the
// "analytic tool integrated with the DBMS" (Section 6.1) as a network
// service. One server hosts one dataset/workload; clients load data, issue
// Min-Cost and Max-Hit IQs, evaluate what-if strategies, and commit chosen
// improvements.
//
// Endpoints:
//
//	POST /v1/load        {objects, queries}            -> {objects, queries}
//	GET  /v1/stats                                     -> index statistics
//	POST /v1/mincost     {target, tau, cost?, frozen?, timeout_ms?}
//	POST /v1/maxhit      {target, budget, cost?, frozen?, timeout_ms?}
//	POST /v1/solve/batch {items: [{op, target, tau|budget, ...}], timeout_ms?}
//	POST /v1/evaluate    {target, strategy}            -> {hits}
//	POST /v1/commit      {target, strategy}            -> {hits}
//	POST /v1/objects     {attrs}                       -> {id}
//	POST /v1/queries     {k, point}                    -> {index}
//	POST /v1/topk        {k, point}                    -> {ids}
//	GET  /healthz                                      -> process liveness
//	GET  /readyz                                       -> dataset loaded?
//	GET  /metrics                                      -> Prometheus text exposition (iq_* + go_* runtime families)
//	GET  /debug/traces   (unless -debug-traces=false)  -> flight recorder: recent + slowest captured request traces
//	GET  /debug/pprof/*  (only with -pprof)            -> net/http/pprof profiles
//
// Any /v1 request sent with the X-IQ-Trace: 1 header (or trace=1 query
// parameter, or server-wide with -trace-all) is captured by the flight
// recorder: the engine records a span tree of the request's solve, the
// response carries its ID in X-IQ-Trace-ID, and /debug/traces?id=<id> serves
// it as Chrome trace_event JSON for Perfetto / chrome://tracing
// (&format=tree for a plain-text span tree).
//
// Cost selectors: "l2" (default), "l1", {"weighted": [α...]}, or
// {"expr": "sqrt(s1^2+...)"}.
//
// Failure model: every solver request runs under a deadline (the server-wide
// -request-timeout, optionally tightened per request with timeout_ms) and is
// admitted through a bounded in-flight semaphore (-max-inflight; overflow
// answers 429 with Retry-After instead of queueing). Bodies are capped
// (-max-body-bytes → 413), handler panics surface as JSON 500s, and a
// deadline or client disconnect cancels the solve inside the engine — the
// partial greedy state is discarded, never committed.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"net/http/pprof"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"iq"
	"iq/internal/obs"
)

// serverConfig bounds one server's resource envelope. The zero value of a
// field disables that bound (no deadline, unlimited admission); main always
// passes explicit values from flags.
type serverConfig struct {
	// requestTimeout caps every solver request's deadline; a request's
	// timeout_ms may tighten it but never loosen it. 0 = no deadline.
	requestTimeout time.Duration
	// maxInflight bounds concurrently admitted solver requests
	// (/v1/mincost, /v1/maxhit); excess requests are refused with 429
	// rather than queued. 0 = unlimited.
	maxInflight int
	// maxBodyBytes caps request body size; larger bodies answer 413.
	// 0 = unlimited.
	maxBodyBytes int64
	// maxBatchItems caps the number of solves in one /v1/solve/batch
	// request; larger batches answer 400. A batch occupies one admission
	// slot however many items it carries, so the cap bounds how much work a
	// single slot can represent. 0 = unlimited.
	maxBatchItems int
	// enablePprof mounts net/http/pprof under /debug/pprof/. Off by
	// default: the profiling endpoints leak heap contents and must be
	// opted into on trusted networks only.
	enablePprof bool
	// debugTraces enables the flight recorder and its /debug/traces
	// endpoint; individual requests still opt into capture (X-IQ-Trace
	// header or trace=1) unless traceAll is set.
	debugTraces bool
	// traceAll captures every /v1 request without per-request opt-in.
	// Meant for debugging sessions, not steady state: capture is cheap but
	// not free, and the ring only holds the most recent captures anyway.
	traceAll bool
	// slowSolve is the latency threshold past which a completed solve logs
	// a WARN line with its full work profile (and trace ID when captured).
	// 0 disables.
	slowSolve time.Duration
}

func defaultConfig() serverConfig {
	return serverConfig{
		requestTimeout: 30 * time.Second,
		maxInflight:    16,
		maxBodyBytes:   8 << 20, // 8 MiB: a /v1/load of ~100k 3-d objects
		maxBatchItems:  64,
		debugTraces:    true,
	}
}

// Event counters that fire rarely (throttling, timeouts, panics) are package
// vars rather than get-or-created at the event site: registration at init
// keeps the families present in /metrics from the first scrape, so dashboards
// and the DESIGN.md drift test see them without having to provoke a 429.
var (
	mThrottled = obs.Default.Counter("iq_http_throttled_total",
		"Solver requests refused by the admission semaphore.")
	mTimeouts = obs.Default.Counter("iq_http_timeouts_total",
		"Solves that exhausted their deadline.")
	mPanics = obs.Default.Counter("iq_http_panics_total",
		"Handler panics converted to 500s.")
	mBatchItems = obs.Default.Counter("iq_http_batch_items_total",
		"Solve items received via /v1/solve/batch.")
)

// server wraps a System with an HTTP handler. iq.System is itself safe for
// concurrent use (reads run against immutable epoch snapshots; writes
// publish new epochs), so the server's RWMutex only guards the sys pointer
// swap on /v1/load — read handlers fetch the pointer under a momentary
// RLock and then compute WITHOUT holding any lock, so a slow MinCost never
// blocks other requests. Mutating handlers hold the write lock for their
// whole read-modify-write span (never upgrading from RLock), which both
// serialises them against /v1/load and keeps multi-step handlers such as
// commit-then-recount atomic.
type server struct {
	mu  sync.RWMutex
	sys *iq.System
	// store is the durable backing (-data-dir), nil in in-memory mode and
	// while recovery is still replaying the WAL. Guarded by mu like sys.
	store *iq.Store
	// recovering is true from boot until WAL replay completes; /readyz
	// answers 503 while it is set so load balancers hold traffic.
	recovering atomic.Bool
	log        *slog.Logger
	cfg        serverConfig
	// inflight is the admission semaphore for the solver endpoints; nil
	// when admission is unlimited.
	inflight chan struct{}
	// rec is the flight recorder backing /debug/traces; nil when disabled.
	rec *flightRecorder
	// start stamps process boot for /v1/stats' uptime_seconds.
	start time.Time
}

// system returns the current System pointer without holding the lock past
// the fetch; nil when nothing is loaded.
func (s *server) system() *iq.System {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.sys
}

// currentStore returns the durable Store pointer (nil in in-memory mode).
func (s *server) currentStore() *iq.Store {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.store
}

func newServer(logger *slog.Logger, cfg serverConfig) *server {
	s := &server{log: logger, cfg: cfg, start: time.Now()}
	if cfg.maxInflight > 0 {
		s.inflight = make(chan struct{}, cfg.maxInflight)
	}
	if cfg.debugTraces {
		s.rec = newFlightRecorder()
	}
	return s
}

// handler builds the route table. Every route passes through the metrics
// middleware (outermost, so it observes the 500s panic recovery writes) and
// the panic-recovery middleware; the solver endpoints additionally pass
// through the admission semaphore.
func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	s.route(mux, "POST /v1/load", http.HandlerFunc(s.handleLoad))
	s.route(mux, "GET /v1/stats", http.HandlerFunc(s.handleStats))
	s.route(mux, "POST /v1/mincost", s.admit(http.HandlerFunc(s.handleMinCost)))
	s.route(mux, "POST /v1/maxhit", s.admit(http.HandlerFunc(s.handleMaxHit)))
	s.route(mux, "POST /v1/solve/batch", s.admit(http.HandlerFunc(s.handleSolveBatch)))
	s.route(mux, "POST /v1/evaluate", http.HandlerFunc(s.handleEvaluate))
	s.route(mux, "POST /v1/commit", http.HandlerFunc(s.handleCommit))
	s.route(mux, "POST /v1/commit/batch", http.HandlerFunc(s.handleCommitBatch))
	s.route(mux, "POST /v1/objects", http.HandlerFunc(s.handleAddObject))
	s.route(mux, "POST /v1/queries", http.HandlerFunc(s.handleAddQuery))
	s.route(mux, "POST /v1/topk", http.HandlerFunc(s.handleTopK))
	s.route(mux, "GET /healthz", http.HandlerFunc(s.handleHealthz))
	s.route(mux, "GET /readyz", http.HandlerFunc(s.handleReadyz))
	s.route(mux, "GET /metrics", http.HandlerFunc(s.handleMetrics))
	if s.rec != nil {
		s.route(mux, "GET /debug/traces", http.HandlerFunc(s.handleDebugTraces))
	}
	if s.cfg.enablePprof {
		// The pprof mux registrations are package-global; mount the
		// handlers explicitly so the gate actually gates.
		s.route(mux, "/debug/pprof/", http.HandlerFunc(pprof.Index))
		s.route(mux, "/debug/pprof/cmdline", http.HandlerFunc(pprof.Cmdline))
		s.route(mux, "/debug/pprof/profile", http.HandlerFunc(pprof.Profile))
		s.route(mux, "/debug/pprof/symbol", http.HandlerFunc(pprof.Symbol))
		s.route(mux, "/debug/pprof/trace", http.HandlerFunc(pprof.Trace))
	}
	return mux
}

// route mounts one pattern with the standard middleware chain. The metric /
// log / trace label is derived from the pattern by routeName — a fixed set
// of values, never the raw URL path, so label cardinality stays bounded.
func (s *server) route(mux *http.ServeMux, pattern string, h http.Handler) {
	mux.Handle(pattern, s.instrument(routeName(pattern), s.recoverPanics(h)))
}

// statusWriter captures the response status for the metrics middleware.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// instrument is the per-route flight recorder: it assigns (or propagates)
// the request ID, threads it plus the server logger through the context so
// engine-level log lines correlate with the request, and records latency,
// status class, and in-flight depth. The request log line carries
// request_id/route/status/duration; 5xx log at Error.
func (s *server) instrument(route string, next http.Handler) http.Handler {
	dur := obs.Default.Histogram("iq_http_request_duration_seconds",
		"HTTP request latency by route.", nil, "route", route)
	inflight := obs.Default.Gauge("iq_http_inflight",
		"HTTP requests currently being served.")
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rid := r.Header.Get("X-Request-ID")
		if rid == "" {
			rid = obs.NewRequestID()
		}
		ctx := obs.WithRequestID(r.Context(), rid)
		ctx = obs.WithLogger(ctx, s.log)
		w.Header().Set("X-Request-ID", rid)
		// Flight-recorder capture: attach a Trace to the context so every
		// engine stage the handler reaches records spans into it, and
		// return the trace ID so the client can fetch /debug/traces?id=.
		var tr *obs.Trace
		if s.rec != nil && traceable(route) && (s.cfg.traceAll || wantTrace(r)) {
			tr = obs.NewTrace(route, 0)
			ctx = obs.WithTrace(ctx, tr)
			w.Header().Set("X-IQ-Trace-ID", tr.ID())
			obs.Default.Counter("iq_traces_captured_total",
				"Requests captured by the flight recorder.", "route", route).Inc()
		}
		sw := &statusWriter{ResponseWriter: w}
		inflight.Add(1)
		next.ServeHTTP(sw, r.WithContext(ctx))
		inflight.Add(-1)
		status := sw.status
		if status == 0 {
			status = http.StatusOK
		}
		elapsed := time.Since(start)
		if tr != nil {
			s.rec.record(&traceEntry{
				ID: tr.ID(), Route: route, Start: start,
				Duration: elapsed, Status: status, Trace: tr,
			})
		}
		dur.Observe(elapsed.Seconds())
		obs.Default.Counter("iq_http_responses_total",
			"HTTP responses by route and status class.",
			"route", route, "class", fmt.Sprintf("%dxx", status/100)).Inc()
		switch status {
		case http.StatusTooManyRequests:
			mThrottled.Inc()
		case http.StatusGatewayTimeout:
			mTimeouts.Inc()
		}
		lvl := slog.LevelInfo
		if status >= 500 {
			lvl = slog.LevelError
		}
		// request_id is not attached here: the ctx-aware handler stamps it
		// on every line logged under this context, this one included.
		s.log.LogAttrs(ctx, lvl, "request",
			slog.String("method", r.Method),
			slog.String("route", route),
			slog.Int("status", status),
			slog.Duration("duration", elapsed),
		)
	})
}

// recoverPanics converts a handler panic into a JSON 500 on the assumption
// that nothing has been written yet (handlers write exactly once, at the
// end) — without it the connection is just severed mid-air. The stack goes
// to the server log, not the client.
func (s *server) recoverPanics(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if p := recover(); p != nil {
				mPanics.Inc()
				s.log.ErrorContext(r.Context(), "handler panic",
					"method", r.Method,
					"path", r.URL.Path,
					"panic", fmt.Sprint(p),
					"stack", string(debug.Stack()),
				)
				s.writeErr(w, http.StatusInternalServerError, errors.New("internal error"))
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// handleMetrics serves the registry in Prometheus text exposition format,
// followed by the runtime/metrics bridge (go_* families: heap, GC pauses,
// goroutines, scheduling latency) so one scrape covers both the engine and
// the process hosting it.
func (s *server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	// Scrape-time refresh of the Store's on-disk footprint gauges (cold path).
	if st := s.currentStore(); st != nil {
		st.DurabilityStatus()
	}
	w.Header().Set("Content-Type", obs.ContentType)
	if err := obs.Default.WritePrometheus(w); err != nil {
		s.log.Error("metrics exposition failed", "err", err)
		return
	}
	if err := obs.WriteRuntimeMetrics(w); err != nil {
		s.log.Error("runtime metrics exposition failed", "err", err)
	}
}

// warnIfSlow logs a completed solve that blew the -slow-solve-threshold at
// WARN with its target and full work profile, plus the flight-recorder trace
// ID when the request was captured — the log line names the slow target and
// links straight to the span tree explaining where the time went.
func (s *server) warnIfSlow(ctx context.Context, op string, target int, st iq.SolveStats) {
	if s.cfg.slowSolve <= 0 || st.Wall < s.cfg.slowSolve {
		return
	}
	obs.Default.Counter("iq_slow_solves_total",
		"Completed solves slower than -slow-solve-threshold.", "op", op).Inc()
	attrs := []slog.Attr{
		slog.String("op", op),
		slog.Int("target", target),
		slog.Duration("wall", st.Wall),
		slog.Duration("threshold", s.cfg.slowSolve),
		slog.Int("rounds", st.Rounds),
		slog.Int("probes", st.Probes),
		slog.Int("pruned", st.Pruned),
		slog.Int("candidates", st.Candidates),
		slog.Int("counted", st.Counted),
		slog.Duration("solve_hit_wall", st.SolveHitWall),
		slog.Duration("eval_wall", st.EvalWall),
	}
	if tr := obs.TraceFrom(ctx); tr != nil {
		attrs = append(attrs, slog.String("trace_id", tr.ID()))
	}
	s.log.LogAttrs(ctx, slog.LevelWarn, "slow solve", attrs...)
}

// admit bounds the number of concurrently running solver requests. The
// refusal is immediate — no queueing — so under overload clients get a fast
// 429 + Retry-After and can back off, instead of piling onto a server that
// is already saturated (stacking solves beyond the cores only adds memory
// pressure and tail latency).
func (s *server) admit(next http.Handler) http.Handler {
	if s.inflight == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case s.inflight <- struct{}{}:
			defer func() { <-s.inflight }()
			next.ServeHTTP(w, r)
		default:
			w.Header().Set("Retry-After", "1")
			s.writeErr(w, http.StatusTooManyRequests,
				fmt.Errorf("solver at capacity (%d in flight); retry later", s.cfg.maxInflight))
		}
	})
}

// --- wire types ---

type queryWire struct {
	ID    int       `json:"id"`
	K     int       `json:"k"`
	Point iq.Vector `json:"point"`
}

type loadRequest struct {
	Objects []iq.Vector `json:"objects"`
	Queries []queryWire `json:"queries"`
}

type costWire struct {
	Name     string    `json:"name,omitempty"`     // "l2" | "l1"
	Weighted iq.Vector `json:"weighted,omitempty"` // α per attribute
	Expr     string    `json:"expr,omitempty"`     // over s1..sd
}

type iqRequest struct {
	Target int       `json:"target"`
	Tau    int       `json:"tau,omitempty"`
	Budget float64   `json:"budget,omitempty"`
	Cost   *costWire `json:"cost,omitempty"`
	Frozen []int     `json:"frozen,omitempty"`
	// TimeoutMS tightens the server's request timeout for this solve; it
	// is capped at (never extends) the -request-timeout flag.
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

type iqResponse struct {
	Strategy   iq.Vector     `json:"strategy"`
	Cost       float64       `json:"cost"`
	Hits       int           `json:"hits"`
	BaseHits   int           `json:"base_hits"`
	Iterations int           `json:"iterations"`
	Stats      iq.SolveStats `json:"stats"`
}

// batchItemWire is one solve of a /v1/solve/batch request. Op selects the
// solver ("mincost" uses Tau, "maxhit" uses Budget); the remaining fields
// match the single-solve endpoints. TimeoutMS is intentionally absent — the
// batch shares one deadline, set by batchRequest.TimeoutMS.
type batchItemWire struct {
	Op     string    `json:"op"`
	Target int       `json:"target"`
	Tau    int       `json:"tau,omitempty"`
	Budget float64   `json:"budget,omitempty"`
	Cost   *costWire `json:"cost,omitempty"`
	Frozen []int     `json:"frozen,omitempty"`
}

type batchRequest struct {
	Items []batchItemWire `json:"items"`
	// TimeoutMS tightens the server's request timeout for the whole batch.
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

// batchItemResponse is one item's outcome; exactly one of Error or the
// result fields is meaningful. Per-item failures do not fail the batch.
type batchItemResponse struct {
	Error      string        `json:"error,omitempty"`
	Strategy   iq.Vector     `json:"strategy,omitempty"`
	Cost       float64       `json:"cost,omitempty"`
	Hits       int           `json:"hits,omitempty"`
	BaseHits   int           `json:"base_hits,omitempty"`
	Iterations int           `json:"iterations,omitempty"`
	Stats      iq.SolveStats `json:"stats"`
}

type batchResponse struct {
	Results []batchItemResponse `json:"results"`
}

// mutationWire is one write of a /v1/commit/batch request. Op selects the
// mutation: "commit" (Target, Strategy), "add_object" (Attrs),
// "remove_object" (ID), "add_query" (QueryID, K, Point), "remove_query"
// (Index).
type mutationWire struct {
	Op       string    `json:"op"`
	Target   int       `json:"target,omitempty"`
	Strategy iq.Vector `json:"strategy,omitempty"`
	Attrs    iq.Vector `json:"attrs,omitempty"`
	ID       int       `json:"id,omitempty"`
	QueryID  int       `json:"query_id,omitempty"`
	K        int       `json:"k,omitempty"`
	Point    iq.Vector `json:"point,omitempty"`
	Index    int       `json:"index,omitempty"`
}

type commitBatchRequest struct {
	Mutations []mutationWire `json:"mutations"`
}

// commitBatchResponse reports the ids assigned by add_object/add_query
// mutations (-1 for the others) and the single epoch the batch published.
type commitBatchResponse struct {
	Results []mutationResultWire `json:"results"`
	Epoch   uint64               `json:"epoch"`
}

type mutationResultWire struct {
	ID int `json:"id"`
}

type strategyRequest struct {
	Target   int       `json:"target"`
	Strategy iq.Vector `json:"strategy"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// writeJSON writes v as the response. Encoding failures can no longer
// produce a half-written body silently: they are logged, which is all that
// can be done once the status line is on the wire.
func (s *server) writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		s.log.Error("response encoding failed", "type", fmt.Sprintf("%T", v), "err", err)
	}
}

func (s *server) writeErr(w http.ResponseWriter, status int, err error) {
	s.writeJSON(w, status, errorResponse{Error: err.Error()})
}

// decode parses the request body into v, enforcing the body-size cap (413),
// rejecting unknown fields and malformed JSON (400), and rejecting trailing
// data after the JSON value (400) — previously `{"target":0}{"target":9}`
// silently dropped the second object. On failure the error response has
// already been written and decode returns false.
func (s *server) decode(w http.ResponseWriter, r *http.Request, v interface{}) bool {
	body := r.Body
	if s.cfg.maxBodyBytes > 0 {
		body = http.MaxBytesReader(w, r.Body, s.cfg.maxBodyBytes)
	}
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			s.writeErr(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("request body exceeds %d bytes", tooLarge.Limit))
			return false
		}
		s.writeErr(w, http.StatusBadRequest, err)
		return false
	}
	if dec.More() {
		s.writeErr(w, http.StatusBadRequest, errors.New("unexpected data after JSON body"))
		return false
	}
	return true
}

// solveContext derives the context a solver request runs under: the client's
// connection context (cancelled when the client disconnects), bounded by the
// server-wide request timeout, optionally tightened — never loosened — by
// the request's timeout_ms. A timeout_ms too large for a Duration (about
// 292 years) tightens nothing and is ignored rather than left to overflow.
func (s *server) solveContext(r *http.Request, timeoutMS int) (context.Context, context.CancelFunc) {
	timeout := s.cfg.requestTimeout
	if ms := int64(timeoutMS); ms > 0 && ms <= math.MaxInt64/int64(time.Millisecond) {
		if d := time.Duration(ms) * time.Millisecond; timeout == 0 || d < timeout {
			timeout = d
		}
	}
	if timeout <= 0 {
		return r.Context(), func() {}
	}
	return context.WithTimeout(r.Context(), timeout)
}

// statusFor maps library errors to HTTP codes.
func statusFor(err error) int {
	switch {
	case errors.Is(err, iq.ErrGoalUnreachable):
		return http.StatusUnprocessableEntity
	case errors.Is(err, iq.ErrDeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, iq.ErrCanceled):
		// The client is usually gone (disconnect) when this fires; the
		// status is for the log and the rare proxy still listening.
		return http.StatusServiceUnavailable
	default:
		return http.StatusBadRequest
	}
}

// --- handlers ---

func (s *server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s.writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReadyz reports readiness: the process is only useful once a dataset
// is loaded, so load balancers should route solver traffic elsewhere until
// then. While WAL replay is in progress the answer is 503 "recovering" —
// the state that will shortly be published must not be shadowed by an
// accidental fresh /v1/load racing the recovery.
func (s *server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if s.recovering.Load() {
		s.writeErr(w, http.StatusServiceUnavailable, errors.New("recovering: WAL replay in progress"))
		return
	}
	if s.system() == nil {
		s.writeErr(w, http.StatusServiceUnavailable, errors.New("no dataset loaded"))
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

func (s *server) handleLoad(w http.ResponseWriter, r *http.Request) {
	var req loadRequest
	if !s.decode(w, r, &req) {
		return
	}
	if len(req.Objects) == 0 {
		s.writeErr(w, http.StatusBadRequest, errors.New("no objects"))
		return
	}
	queries := make([]iq.Query, len(req.Queries))
	for i, q := range req.Queries {
		queries[i] = iq.Query{ID: q.ID, K: q.K, Point: q.Point}
	}
	sys, err := iq.NewWithOptionsCtx(r.Context(),
		iq.LinearSpace{D: len(req.Objects[0])}, req.Objects, queries,
		iq.IndexOptions{})
	if err != nil {
		s.writeErr(w, http.StatusBadRequest, err)
		return
	}
	if s.recovering.Load() {
		// A fresh load mid-replay would start a new WAL generation and
		// discard the state recovery is about to publish.
		s.writeErr(w, http.StatusServiceUnavailable, errors.New("recovering: WAL replay in progress"))
		return
	}
	s.mu.Lock()
	if s.store != nil {
		// Attach before publishing: the dataset starts its own WAL
		// generation (checkpoint of the loaded state + empty log), so every
		// subsequent mutation is durable from the first acknowledged write.
		if err := s.store.Attach(r.Context(), sys); err != nil {
			s.mu.Unlock()
			s.writeErr(w, http.StatusInternalServerError,
				fmt.Errorf("attaching dataset to durable store: %w", err))
			return
		}
	}
	s.sys = sys
	s.mu.Unlock()
	s.log.InfoContext(r.Context(), "dataset loaded",
		"objects", len(req.Objects), "queries", len(queries))
	s.writeJSON(w, http.StatusOK, map[string]int{
		"objects": sys.NumObjects(),
		"queries": sys.NumQueries(),
	})
}

// withSystem runs fn against the current System without holding any server
// lock during the computation: fn reads from the epoch snapshot the System
// hands it, so arbitrarily many reads proceed in parallel with each other
// and with commits.
func (s *server) withSystem(w http.ResponseWriter, fn func(*iq.System)) {
	sys := s.system()
	if sys == nil {
		s.writeErr(w, http.StatusConflict, errors.New("no dataset loaded; POST /v1/load first"))
		return
	}
	fn(sys)
}

// withSystemExclusive runs fn under the server write lock, held for the
// handler's full read-modify-write span.
func (s *server) withSystemExclusive(w http.ResponseWriter, fn func(*iq.System)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sys == nil {
		s.writeErr(w, http.StatusConflict, errors.New("no dataset loaded; POST /v1/load first"))
		return
	}
	fn(s.sys)
}

func (s *server) handleStats(w http.ResponseWriter, _ *http.Request) {
	s.withSystem(w, func(sys *iq.System) {
		// Not IndexStats: every call runs Algorithm 1.
		payload := map[string]any{
			"objects":        sys.NumObjects(),
			"queries":        sys.NumQueries(),
			"candidates":     len(sys.Index().Candidates()),
			"epoch":          int(sys.Epoch()),
			"uptime_seconds": time.Since(s.start).Seconds(),
			"version":        iq.Version,
			"go_version":     iq.GoVersion(),
			// Every registered series, flattened name{labels} -> value:
			// the /metrics content for clients that prefer JSON.
			"counters": obs.Default.Snapshot(),
		}
		if store := s.currentStore(); store != nil {
			payload["recovery"] = store.RecoveryStats()
			payload["durability"] = store.DurabilityStatus()
		}
		s.writeJSON(w, http.StatusOK, payload)
	})
}

func (s *server) buildCost(sys *iq.System, cw *costWire) (iq.Cost, error) {
	if cw == nil || (cw.Name == "" && cw.Weighted == nil && cw.Expr == "") {
		return iq.L2Cost{}, nil
	}
	switch {
	case cw.Expr != "":
		d := len(sys.Attrs(0))
		return iq.NewExprCost(cw.Expr, d)
	case cw.Weighted != nil:
		if len(cw.Weighted) != len(sys.Attrs(0)) {
			return nil, fmt.Errorf("weighted cost needs %d weights", len(sys.Attrs(0)))
		}
		return iq.WeightedL2Cost{Alpha: cw.Weighted}, nil
	case cw.Name == "l2":
		return iq.L2Cost{}, nil
	case cw.Name == "l1":
		return iq.L1Cost{}, nil
	default:
		return nil, fmt.Errorf("unknown cost %q", cw.Name)
	}
}

func (s *server) buildBounds(sys *iq.System, frozen []int) (*iq.Bounds, error) {
	if len(frozen) == 0 {
		return nil, nil
	}
	d := len(sys.Attrs(0))
	for _, i := range frozen {
		if i < 0 || i >= d {
			return nil, fmt.Errorf("frozen attribute %d out of range", i)
		}
	}
	return iq.Frozen(d, frozen...), nil
}

func (s *server) handleMinCost(w http.ResponseWriter, r *http.Request) {
	var req iqRequest
	if !s.decode(w, r, &req) {
		return
	}
	s.withSystem(w, func(sys *iq.System) {
		cost, err := s.buildCost(sys, req.Cost)
		if err != nil {
			s.writeErr(w, http.StatusBadRequest, err)
			return
		}
		bounds, err := s.buildBounds(sys, req.Frozen)
		if err != nil {
			s.writeErr(w, http.StatusBadRequest, err)
			return
		}
		ctx, cancel := s.solveContext(r, req.TimeoutMS)
		defer cancel()
		res, err := sys.MinCostCtx(ctx, iq.MinCostRequest{
			Target: req.Target, Tau: req.Tau, Cost: cost, Bounds: bounds,
		})
		if err != nil {
			s.writeErr(w, statusFor(err), err)
			return
		}
		s.warnIfSlow(ctx, "mincost", req.Target, res.Stats)
		s.writeJSON(w, http.StatusOK, iqResponse{
			Strategy: res.Strategy, Cost: res.Cost, Hits: res.Hits,
			BaseHits: res.BaseHits, Iterations: res.Iterations, Stats: res.Stats,
		})
	})
}

func (s *server) handleMaxHit(w http.ResponseWriter, r *http.Request) {
	var req iqRequest
	if !s.decode(w, r, &req) {
		return
	}
	s.withSystem(w, func(sys *iq.System) {
		cost, err := s.buildCost(sys, req.Cost)
		if err != nil {
			s.writeErr(w, http.StatusBadRequest, err)
			return
		}
		bounds, err := s.buildBounds(sys, req.Frozen)
		if err != nil {
			s.writeErr(w, http.StatusBadRequest, err)
			return
		}
		ctx, cancel := s.solveContext(r, req.TimeoutMS)
		defer cancel()
		res, err := sys.MaxHitCtx(ctx, iq.MaxHitRequest{
			Target: req.Target, Budget: req.Budget, Cost: cost, Bounds: bounds,
		})
		if err != nil {
			s.writeErr(w, statusFor(err), err)
			return
		}
		s.warnIfSlow(ctx, "maxhit", req.Target, res.Stats)
		s.writeJSON(w, http.StatusOK, iqResponse{
			Strategy: res.Strategy, Cost: res.Cost, Hits: res.Hits,
			BaseHits: res.BaseHits, Iterations: res.Iterations, Stats: res.Stats,
		})
	})
}

// handleSolveBatch answers N independent solves against one epoch snapshot
// in a single request. The batch passes through the same admission semaphore
// as the single-solve endpoints and occupies exactly one slot; inside it,
// items run on SolveBatchCtx's worker pool (min(GOMAXPROCS, items)) and share
// the snapshot's hit tables, which is what makes a batch cheaper than N
// separate requests. Item failures are reported per item; only
// malformed requests fail the batch as a whole.
func (s *server) handleSolveBatch(w http.ResponseWriter, r *http.Request) {
	var req batchRequest
	if !s.decode(w, r, &req) {
		return
	}
	if len(req.Items) == 0 {
		s.writeErr(w, http.StatusBadRequest, errors.New("empty batch"))
		return
	}
	if s.cfg.maxBatchItems > 0 && len(req.Items) > s.cfg.maxBatchItems {
		s.writeErr(w, http.StatusBadRequest,
			fmt.Errorf("batch has %d items; limit is %d", len(req.Items), s.cfg.maxBatchItems))
		return
	}
	s.withSystem(w, func(sys *iq.System) {
		items := make([]iq.BatchItem, len(req.Items))
		resp := batchResponse{Results: make([]batchItemResponse, len(req.Items))}
		// Build every item up front so a malformed item is a 400 before any
		// solving starts, not a partial batch.
		for i, it := range req.Items {
			cost, err := s.buildCost(sys, it.Cost)
			if err != nil {
				s.writeErr(w, http.StatusBadRequest, fmt.Errorf("item %d: %w", i, err))
				return
			}
			bounds, err := s.buildBounds(sys, it.Frozen)
			if err != nil {
				s.writeErr(w, http.StatusBadRequest, fmt.Errorf("item %d: %w", i, err))
				return
			}
			switch it.Op {
			case "mincost":
				items[i].MinCost = &iq.MinCostRequest{
					Target: it.Target, Tau: it.Tau, Cost: cost, Bounds: bounds,
				}
			case "maxhit":
				items[i].MaxHit = &iq.MaxHitRequest{
					Target: it.Target, Budget: it.Budget, Cost: cost, Bounds: bounds,
				}
			default:
				s.writeErr(w, http.StatusBadRequest,
					fmt.Errorf("item %d: op must be \"mincost\" or \"maxhit\", got %q", i, it.Op))
				return
			}
		}
		ctx, cancel := s.solveContext(r, req.TimeoutMS)
		defer cancel()
		mBatchItems.Add(int64(len(items)))
		for i, br := range sys.SolveBatchCtx(ctx, items) {
			if br.Err != nil {
				resp.Results[i] = batchItemResponse{Error: br.Err.Error()}
				continue
			}
			res := br.Result
			s.warnIfSlow(ctx, req.Items[i].Op, req.Items[i].Target, res.Stats)
			resp.Results[i] = batchItemResponse{
				Strategy: res.Strategy, Cost: res.Cost, Hits: res.Hits,
				BaseHits: res.BaseHits, Iterations: res.Iterations, Stats: res.Stats,
			}
		}
		s.writeJSON(w, http.StatusOK, resp)
	})
}

func (s *server) handleEvaluate(w http.ResponseWriter, r *http.Request) {
	var req strategyRequest
	if !s.decode(w, r, &req) {
		return
	}
	s.withSystem(w, func(sys *iq.System) {
		hits, err := sys.EvaluateStrategyCtx(r.Context(), req.Target, req.Strategy)
		if err != nil {
			s.writeErr(w, statusFor(err), err)
			return
		}
		s.writeJSON(w, http.StatusOK, map[string]int{"hits": hits})
	})
}

func (s *server) handleCommit(w http.ResponseWriter, r *http.Request) {
	var req strategyRequest
	if !s.decode(w, r, &req) {
		return
	}
	s.withSystemExclusive(w, func(sys *iq.System) {
		// Commit and recount in one atomic step: the reported hit count
		// is from exactly the epoch this commit published.
		hits, err := sys.CommitAndCountCtx(r.Context(), req.Target, req.Strategy)
		if err != nil {
			s.writeErr(w, http.StatusBadRequest, err)
			return
		}
		s.log.InfoContext(r.Context(), "strategy committed", "target", req.Target)
		s.writeJSON(w, http.StatusOK, map[string]int{"hits": hits})
	})
}

// handleCommitBatch applies several mutations as one atomic epoch via
// iq.(*System).ApplyBatch: one clone, one publish.
// Malformed items are a 400 before anything is applied; an error from any
// mutation rolls the whole batch back (ApplyBatch is all-or-nothing), so
// the response either carries every result or none.
func (s *server) handleCommitBatch(w http.ResponseWriter, r *http.Request) {
	var req commitBatchRequest
	if !s.decode(w, r, &req) {
		return
	}
	if len(req.Mutations) == 0 {
		s.writeErr(w, http.StatusBadRequest, errors.New("empty batch"))
		return
	}
	if s.cfg.maxBatchItems > 0 && len(req.Mutations) > s.cfg.maxBatchItems {
		s.writeErr(w, http.StatusBadRequest,
			fmt.Errorf("batch has %d mutations; limit is %d", len(req.Mutations), s.cfg.maxBatchItems))
		return
	}
	muts := make([]iq.Mutation, len(req.Mutations))
	for i, m := range req.Mutations {
		switch m.Op {
		case "commit":
			muts[i].Commit = &iq.CommitMutation{Target: m.Target, Strategy: m.Strategy}
		case "add_object":
			muts[i].AddObject = &iq.AddObjectMutation{Attrs: m.Attrs}
		case "remove_object":
			muts[i].RemoveObject = &iq.RemoveObjectMutation{ID: m.ID}
		case "add_query":
			muts[i].AddQuery = &iq.AddQueryMutation{Query: iq.Query{ID: m.QueryID, K: m.K, Point: m.Point}}
		case "remove_query":
			muts[i].RemoveQuery = &iq.RemoveQueryMutation{Index: m.Index}
		default:
			s.writeErr(w, http.StatusBadRequest,
				fmt.Errorf("mutation %d: unknown op %q", i, m.Op))
			return
		}
	}
	s.withSystemExclusive(w, func(sys *iq.System) {
		results, err := sys.ApplyBatchCtx(r.Context(), muts)
		if err != nil {
			s.writeErr(w, http.StatusBadRequest, err)
			return
		}
		resp := commitBatchResponse{
			Results: make([]mutationResultWire, len(results)),
			Epoch:   sys.Epoch(),
		}
		for i, res := range results {
			resp.Results[i].ID = res.ID
		}
		s.log.InfoContext(r.Context(), "mutation batch committed",
			"mutations", len(muts), "epoch", resp.Epoch)
		s.writeJSON(w, http.StatusOK, resp)
	})
}

func (s *server) handleAddObject(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Attrs iq.Vector `json:"attrs"`
	}
	if !s.decode(w, r, &req) {
		return
	}
	s.withSystemExclusive(w, func(sys *iq.System) {
		id, err := sys.AddObjectCtx(r.Context(), req.Attrs)
		if err != nil {
			s.writeErr(w, http.StatusBadRequest, err)
			return
		}
		s.writeJSON(w, http.StatusOK, map[string]int{"id": id})
	})
}

func (s *server) handleAddQuery(w http.ResponseWriter, r *http.Request) {
	var req queryWire
	if !s.decode(w, r, &req) {
		return
	}
	s.withSystemExclusive(w, func(sys *iq.System) {
		idx, err := sys.AddQueryCtx(r.Context(), iq.Query{ID: req.ID, K: req.K, Point: req.Point})
		if err != nil {
			s.writeErr(w, http.StatusBadRequest, err)
			return
		}
		s.writeJSON(w, http.StatusOK, map[string]int{"index": idx})
	})
}

func (s *server) handleTopK(w http.ResponseWriter, r *http.Request) {
	var req queryWire
	if !s.decode(w, r, &req) {
		return
	}
	s.withSystem(w, func(sys *iq.System) {
		ids, err := sys.EvaluateCtx(r.Context(), iq.Query{K: req.K, Point: req.Point})
		if err != nil {
			s.writeErr(w, statusFor(err), err)
			return
		}
		s.writeJSON(w, http.StatusOK, map[string][]int{"ids": ids})
	})
}
