package obs

import (
	"strings"
	"sync"
	"testing"
)

// TestExpositionGolden pins the exact text-format output for a registry with
// one family of each kind: stable ordering (families by name, series by
// label string), cumulative histogram buckets with +Inf, HELP/TYPE headers.
func TestExpositionGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_requests_total", "Requests served.", "route", "/b").Add(3)
	r.Counter("test_requests_total", "Requests served.", "route", "/a").Add(1)
	r.Gauge("test_inflight", "In-flight requests.").Set(2)
	h := r.Histogram("test_latency_seconds", "Request latency.", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(0.5)
	h.Observe(5) // overflow bucket

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	want := `# HELP test_inflight In-flight requests.
# TYPE test_inflight gauge
test_inflight 2
# HELP test_latency_seconds Request latency.
# TYPE test_latency_seconds histogram
test_latency_seconds_bucket{le="0.1"} 1
test_latency_seconds_bucket{le="1"} 3
test_latency_seconds_bucket{le="+Inf"} 4
test_latency_seconds_sum 6.05
test_latency_seconds_count 4
# HELP test_requests_total Requests served.
# TYPE test_requests_total counter
test_requests_total{route="/a"} 1
test_requests_total{route="/b"} 3
`
	if got := sb.String(); got != want {
		t.Errorf("exposition mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
	// The engine's own output must satisfy the engine's own parser.
	if err := ValidateExposition(strings.NewReader(sb.String())); err != nil {
		t.Errorf("own exposition rejected by parser: %v", err)
	}
}

// TestGetOrCreateStable: the same (name, labels) always resolves to the same
// series regardless of label pair order, and values accumulate across
// lookups.
func TestGetOrCreateStable(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "", "k1", "v1", "k2", "v2")
	b := r.Counter("x_total", "", "k2", "v2", "k1", "v1")
	if a != b {
		t.Fatal("label order changed series identity")
	}
	a.Inc()
	b.Inc()
	if a.Value() != 2 {
		t.Fatalf("value %d, want 2", a.Value())
	}
}

func TestKindClashPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("clash_total", "")
	defer func() {
		if recover() == nil {
			t.Fatal("gauge lookup of a counter family did not panic")
		}
	}()
	r.Gauge("clash_total", "")
}

// TestConcurrentHammer drives counters, gauges, and histograms from many
// goroutines; run under -race in CI. Final values must be exact — atomic
// increments lose nothing.
func TestConcurrentHammer(t *testing.T) {
	r := NewRegistry()
	const workers = 16
	const perWorker = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Exercise get-or-create concurrently too, not just the adds.
			c := r.Counter("hammer_total", "", "shard", string(rune('a'+w%4)))
			g := r.Gauge("hammer_gauge", "")
			h := r.Histogram("hammer_seconds", "", []float64{0.001, 0.01, 0.1})
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Add(1)
				g.Add(-1)
				h.Observe(float64(i%200) / 1000.0)
			}
		}(w)
	}
	wg.Wait()
	total := int64(0)
	for _, shard := range []string{"a", "b", "c", "d"} {
		total += r.Counter("hammer_total", "", "shard", shard).Value()
	}
	if total != workers*perWorker {
		t.Errorf("counter total %d, want %d", total, workers*perWorker)
	}
	if v := r.Gauge("hammer_gauge", "").Value(); v != 0 {
		t.Errorf("gauge %d, want 0", v)
	}
	h := r.Histogram("hammer_seconds", "", []float64{0.001, 0.01, 0.1})
	if h.Count() != workers*perWorker {
		t.Errorf("histogram count %d, want %d", h.Count(), workers*perWorker)
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if err := ValidateExposition(strings.NewReader(sb.String())); err != nil {
		t.Errorf("post-hammer exposition invalid: %v", err)
	}
}

// TestParseRejects enumerates malformed expositions the CI gate must fail.
func TestParseRejects(t *testing.T) {
	cases := map[string]string{
		"undeclared series":  "no_type_series 1\n",
		"bad value":          "# TYPE x counter\nx one\n",
		"duplicate series":   "# TYPE x counter\nx 1\nx 2\n",
		"duplicate TYPE":     "# TYPE x counter\n# TYPE x counter\nx 1\n",
		"unknown type":       "# TYPE x widget\nx 1\n",
		"malformed labels":   "# TYPE x counter\nx{a=b} 1\n",
		"histogram sans inf": "# TYPE h histogram\nh_bucket{le=\"1\"} 0\nh_sum 0\nh_count 0\n",
	}
	for name, input := range cases {
		if err := ValidateExposition(strings.NewReader(input)); err == nil {
			t.Errorf("%s: accepted %q", name, input)
		}
	}
	if err := ValidateExposition(strings.NewReader("")); err == nil {
		t.Error("empty exposition accepted")
	}
}
