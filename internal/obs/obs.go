// Package obs is the engine's stdlib-only observability core: atomic
// counters, gauges and fixed-bucket histograms collected in a named registry
// with Prometheus text-format exposition, plus log/slog plumbing that
// propagates request IDs through context.Context (see log.go).
//
// Metrics are cheap enough for solver hot paths — a counter increment is one
// atomic add — and get-or-create access makes a series addressable by name
// from any package:
//
//	var probes = obs.Default.Counter("iq_solve_probes_total", "Candidate probes attempted.")
//	probes.Inc()
//
// Series are identified by metric name plus an optional fixed label set
// ("key", "value" pairs). Families (same name, different labels) share one
// HELP/TYPE declaration in the exposition. All of it is process-global state
// by design: one process serves one engine, and /metrics reports the sum of
// everything it did.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// DurationBuckets is the default histogram layout for latencies in seconds:
// half a millisecond through 30 s, roughly logarithmic. It covers both a
// cached ESE probe and a full greedy solve under the server's 30 s deadline.
var DurationBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30,
}

// SolveDurationBuckets extends DurationBuckets downward with 50µs/100µs/250µs
// bounds for the solve-duration families: a warm cached solve completes in
// 0.2–0.6ms, so with the default layout the entire warm path collapses into
// the bottom two buckets and quantile estimates lose all resolution exactly
// where production traffic lives.
var SolveDurationBuckets = append([]float64{
	0.00005, 0.0001, 0.00025,
}, DurationBuckets...)

// Counter is a monotonically increasing integer series.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (negative deltas are ignored: counters only go up).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an integer series that can go up and down (e.g. in-flight
// requests, index footprint).
type Gauge struct{ v atomic.Int64 }

// Set replaces the gauge value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add moves the gauge by n (may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current gauge reading.
func (g *Gauge) Value() int64 { return g.v.Load() }

// FloatGauge is a gauge holding a float64. It shares the integer Gauge's
// TYPE (gauge) in the exposition; the value is stored as float bits in one
// atomic word. No code registers one; it stays until the benchmark's
// host probe leaves the engine's binary (ROADMAP, ledger step 1): removing
// it moves the probe and the engine code in the benchmark binary, and the
// probe's readings depend on where its code lies.
type FloatGauge struct{ bits atomic.Uint64 }

// Set replaces the gauge value.
func (g *FloatGauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current gauge reading.
func (g *FloatGauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket latency/size distribution. Buckets hold
// non-cumulative per-bucket counts; exposition renders them cumulative with
// the trailing +Inf bucket, as the Prometheus text format requires.
type Histogram struct {
	uppers  []float64 // sorted ascending upper bounds (exclusive of +Inf)
	counts  []atomic.Int64
	overflo atomic.Int64 // observations above the last bound
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 bits, CAS-accumulated
}

func newHistogram(uppers []float64) *Histogram {
	for i := 1; i < len(uppers); i++ {
		if uppers[i] <= uppers[i-1] {
			panic(fmt.Sprintf("obs: histogram buckets not strictly increasing: %v", uppers))
		}
	}
	h := &Histogram{uppers: append([]float64(nil), uppers...)}
	h.counts = make([]atomic.Int64, len(h.uppers))
	return h
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	placed := false
	for i, up := range h.uppers {
		if v <= up {
			h.counts[i].Add(1)
			placed = true
			break
		}
	}
	if !placed {
		h.overflo.Add(1)
	}
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// metricKind tags a family's type for exposition and mismatch checks.
type metricKind string

const (
	kindCounter   metricKind = "counter"
	kindGauge     metricKind = "gauge"
	kindHistogram metricKind = "histogram"
)

// series is one (labels, metric) pair within a family.
type series struct {
	labels string // rendered `{k="v",...}` or ""
	c      *Counter
	g      *Gauge
	fg     *FloatGauge
	h      *Histogram
}

// family groups every series sharing one metric name.
type family struct {
	name   string
	help   string
	kind   metricKind
	series map[string]*series
}

// Registry is a named collection of metric families. The zero value is not
// usable; call NewRegistry. Most code uses the process-wide Default.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// Default is the process-wide registry served by iqserver's /metrics.
var Default = NewRegistry()

// NewRegistry returns an empty registry (tests use private ones).
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// Counter returns the counter series for name + labels, creating family and
// series on first use. labels are "key", "value" pairs. Panics on malformed
// names/labels or on a kind clash with an existing family — both programmer
// errors, caught by the first test that touches the series.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	s := r.lookup(name, help, kindCounter, labels)
	return s.c
}

// Gauge returns the gauge series for name + labels, creating it on first use.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	s := r.lookup(name, help, kindGauge, labels)
	if s.g == nil {
		panic(fmt.Sprintf("obs: gauge %q%s registered as float gauge, requested as integer", name, renderLabels(labels)))
	}
	return s.g
}

// FloatGauge returns the float-valued gauge series for name + labels,
// creating it on first use. A family may not mix integer and float series
// under one name — the first creation fixes the representation.
func (r *Registry) FloatGauge(name, help string, labels ...string) *FloatGauge {
	s := r.getOrCreate(name, help, kindGauge, labels, nil, true)
	if s.fg == nil {
		panic(fmt.Sprintf("obs: gauge %q%s registered as integer gauge, requested as float", name, renderLabels(labels)))
	}
	return s.fg
}

// Histogram returns the histogram series for name + labels, creating it on
// first use with the given bucket upper bounds (DurationBuckets when nil).
// Bucket layouts are fixed per family: the first creation wins.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...string) *Histogram {
	if buckets == nil {
		buckets = DurationBuckets
	}
	s := r.lookupHist(name, help, labels, buckets)
	return s.h
}

func (r *Registry) lookup(name, help string, kind metricKind, labels []string) *series {
	return r.getOrCreate(name, help, kind, labels, nil, false)
}

func (r *Registry) lookupHist(name, help string, labels []string, buckets []float64) *series {
	return r.getOrCreate(name, help, kindHistogram, labels, buckets, false)
}

func (r *Registry) getOrCreate(name, help string, kind metricKind, labels []string, buckets []float64, float bool) *series {
	if !validName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	key := renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind, series: map[string]*series{}}
		r.families[name] = f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q registered as %s, requested as %s", name, f.kind, kind))
	}
	s := f.series[key]
	if s == nil {
		s = &series{labels: key}
		switch kind {
		case kindCounter:
			s.c = &Counter{}
		case kindGauge:
			if float {
				s.fg = &FloatGauge{}
			} else {
				s.g = &Gauge{}
			}
		case kindHistogram:
			s.h = newHistogram(buckets)
		}
		f.series[key] = s
	}
	return s
}

// validName enforces the Prometheus metric-name grammar
// [a-zA-Z_:][a-zA-Z0-9_:]*.
func validName(name string) bool {
	if name == "" {
		return false
	}
	for i, r := range name {
		alpha := (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || r == '_' || r == ':'
		if !alpha && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return true
}

// renderLabels canonicalises "k", "v" pairs into `{k="v",...}` with keys
// sorted, so the same label set always maps to the same series.
func renderLabels(kv []string) string {
	if len(kv) == 0 {
		return ""
	}
	if len(kv)%2 != 0 {
		panic(fmt.Sprintf("obs: odd label list %v", kv))
	}
	type pair struct{ k, v string }
	pairs := make([]pair, 0, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		if !validName(kv[i]) || strings.ContainsRune(kv[i], ':') {
			panic(fmt.Sprintf("obs: invalid label name %q", kv[i]))
		}
		pairs = append(pairs, pair{kv[i], kv[i+1]})
	}
	sort.Slice(pairs, func(a, b int) bool { return pairs[a].k < pairs[b].k })
	var b strings.Builder
	b.WriteByte('{')
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.k)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(p.v))
		b.WriteString(`"`)
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabel applies the text-format label escapes: backslash, quote,
// newline.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return strings.ReplaceAll(v, "\n", `\n`)
}
