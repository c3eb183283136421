// Span tracing: per-solve trace trees recorded into bounded per-trace
// buffers carried through context.Context. Metrics (obs.go) answer "how much
// work, on aggregate"; a trace answers "where did THIS solve's 900ms go" —
// one tree of named, timed, attributed spans per traced request, exportable
// as a Chrome trace_event file (Perfetto / chrome://tracing) or a compact
// text tree (see traceexport.go).
//
// The design is capture-on-request: nothing is recorded unless the caller
// attaches a Trace to the context (WithTrace), so the steady-state cost in
// the solver hot path is one context.Value lookup that misses. Span counts
// are bounded per trace — a pathological solve drops spans rather than
// growing without limit.
package obs

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultMaxSpans bounds a trace's span buffer when NewTrace is given no
// explicit limit: enough for a large greedy solve (rounds × probes) without
// letting an exhaustive enumeration allocate without bound.
const DefaultMaxSpans = 4096

// Attr is one span attribute. Values are kept as supplied (int, int64,
// float64, string, bool, time.Duration) and rendered by the exporters.
type Attr struct {
	Key   string
	Value any
}

// Span is one timed node of a trace tree. Spans are created with StartSpan,
// annotated with SetAttr, and closed with End; all methods are nil-safe so
// instrumented code needs no "is tracing on" branches. A span is owned by
// the goroutine that started it until End, which hands it to the trace.
type Span struct {
	tr     *Trace
	id     int64
	parent int64 // 0 = top-level span of the trace
	name   string
	start  time.Time
	dur    time.Duration
	attrs  []Attr
}

// SetAttr attaches a key/value attribute to the span. Call before End; the
// value is rendered by the exporters (numbers, strings, bools, durations).
func (s *Span) SetAttr(key string, value any) {
	if s == nil {
		return
	}
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
}

// End closes the span, fixing its duration and committing it to the trace
// buffer. End must be called exactly once per non-nil span; a second End
// would record a duplicate.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.dur = time.Since(s.start)
	s.tr.commit(s)
}

// Trace is one bounded buffer of spans, safe for concurrent recording, such
// as from the items of a solve batch. Build one with NewTrace, attach it
// with WithTrace, and read it back — after the traced work completed —
// through the exporters.
type Trace struct {
	id    string
	name  string
	start time.Time
	max   int

	started atomic.Int64 // spans admitted (slot reservation, = id source)
	dropped atomic.Int64 // spans refused by the buffer bound

	mu    sync.Mutex
	spans []*Span
}

// NewTrace creates an empty trace. maxSpans bounds the buffer
// (DefaultMaxSpans when <= 0); the trace ID is a fresh random identifier in
// the same format as request IDs.
func NewTrace(name string, maxSpans int) *Trace {
	if maxSpans <= 0 {
		maxSpans = DefaultMaxSpans
	}
	return &Trace{id: NewRequestID(), name: name, start: time.Now(), max: maxSpans}
}

// ID returns the trace's unique identifier.
func (t *Trace) ID() string { return t.id }

// Name returns the label the trace was created with (e.g. the route).
func (t *Trace) Name() string { return t.name }

// Start returns the trace's creation instant; exported timestamps are
// relative to it.
func (t *Trace) Start() time.Time { return t.start }

// SpanCount returns the number of committed spans.
func (t *Trace) SpanCount() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// Dropped returns how many spans the buffer bound refused.
func (t *Trace) Dropped() int64 { return t.dropped.Load() }

// Duration returns the span of wall time the trace covers: the latest
// committed span end relative to the trace start (zero when empty).
func (t *Trace) Duration() time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var end time.Time
	for _, s := range t.spans {
		if e := s.start.Add(s.dur); e.After(end) {
			end = e
		}
	}
	if end.IsZero() {
		return 0
	}
	return end.Sub(t.start)
}

// startSpan reserves a slot and allocates the span; nil when the bound is
// hit. Children of a refused span attach to its parent instead — the tree
// stays connected, just coarser.
func (t *Trace) startSpan(parent int64, name string) *Span {
	n := t.started.Add(1)
	if n > int64(t.max) {
		t.dropped.Add(1)
		return nil
	}
	return &Span{tr: t, id: n, parent: parent, name: name, start: time.Now()}
}

// commit appends an ended span to the buffer.
func (t *Trace) commit(s *Span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// snapshot returns the committed spans ordered for export: by start time,
// longer span first on ties (a parent that started the same instant as its
// child sorts before it), span ID as the final deterministic tie-break.
func (t *Trace) snapshot() []*Span {
	t.mu.Lock()
	spans := append([]*Span(nil), t.spans...)
	t.mu.Unlock()
	sortSpans(spans)
	return spans
}

func sortSpans(spans []*Span) {
	sort.Slice(spans, func(i, j int) bool {
		a, b := spans[i], spans[j]
		if !a.start.Equal(b.start) {
			return a.start.Before(b.start)
		}
		if a.dur != b.dur {
			return a.dur > b.dur
		}
		return a.id < b.id
	})
}

// spanRef is the context payload: which trace to record into and which span
// is the current parent.
type spanRef struct {
	tr     *Trace
	parent int64
}

const ctxKeyTrace ctxKey = 100 // offset away from the log.go keys

// WithTrace returns a context that records spans into t. Spans started under
// the returned context are top-level; StartSpan re-scopes the context so
// descendants nest.
func WithTrace(ctx context.Context, t *Trace) context.Context {
	return context.WithValue(ctx, ctxKeyTrace, spanRef{tr: t})
}

// TraceFrom returns the trace the context records into, or nil.
func TraceFrom(ctx context.Context) *Trace {
	if ref, ok := ctx.Value(ctxKeyTrace).(spanRef); ok {
		return ref.tr
	}
	return nil
}

// StartSpan begins a span named name under ctx's current span and returns a
// context under which further spans nest inside it. When no trace is
// attached or the trace's buffer is full, it returns ctx unchanged and a nil
// span — and every Span method is nil-safe, so the instrumentation site
// needs no branches. The fast path (no trace) is one context lookup.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	ref, ok := ctx.Value(ctxKeyTrace).(spanRef)
	if !ok || ref.tr == nil {
		return ctx, nil
	}
	sp := ref.tr.startSpan(ref.parent, name)
	if sp == nil {
		return ctx, nil
	}
	return context.WithValue(ctx, ctxKeyTrace, spanRef{tr: ref.tr, parent: sp.id}), sp
}
