package history

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"iq/internal/obs"
)

func TestRingBounds(t *testing.T) {
	r := NewRing(0, 3)
	for i := 1; i <= 5; i++ {
		r.Append(Sample{UnixMs: int64(i * 1000)})
	}
	got := r.Samples(time.Time{})
	if len(got) != 3 || got[0].UnixMs != 3000 || got[2].UnixMs != 5000 {
		t.Fatalf("capacity eviction wrong: %+v", got)
	}
	// Out-of-order and duplicate appends drop.
	r.Append(Sample{UnixMs: 4000})
	r.Append(Sample{UnixMs: 5000})
	if r.Len() != 3 {
		t.Fatalf("out-of-order append was accepted")
	}
}

func TestRingRetention(t *testing.T) {
	r := NewRing(10*time.Second, 1000)
	for i := 0; i < 30; i++ {
		r.Append(Sample{UnixMs: int64(i) * 1000})
	}
	got := r.Samples(time.Time{})
	// Newest is t=29000; retention floor is 19000.
	if got[0].UnixMs < 19000 {
		t.Fatalf("retention kept a sample at %d, floor 19000", got[0].UnixMs)
	}
	if got[len(got)-1].UnixMs != 29000 {
		t.Fatalf("retention evicted the newest sample")
	}
	// Windowed read.
	win := r.Samples(time.UnixMilli(25000))
	for _, s := range win {
		if s.UnixMs < 25000 {
			t.Fatalf("Samples(since) returned %d < 25000", s.UnixMs)
		}
	}
}

func TestQuantile(t *testing.T) {
	uppers := []float64{0.1, 0.2, 0.4}
	// 10 observations in [0.1, 0.2), none elsewhere, none overflowing.
	buckets := []int64{0, 10, 0, 0}
	if p50 := Quantile(0.5, uppers, buckets); p50 <= 0.1 || p50 > 0.2 {
		t.Fatalf("p50 = %v, want inside (0.1, 0.2]", p50)
	}
	// Every observation overflows: pinned to the last finite bound.
	if p := Quantile(0.99, uppers, []int64{0, 0, 0, 7}); p != 0.4 {
		t.Fatalf("overflow quantile = %v, want 0.4", p)
	}
	// Empty interval.
	if p := Quantile(0.5, uppers, []int64{0, 0, 0, 0}); p != 0 {
		t.Fatalf("empty-interval quantile = %v, want 0", p)
	}
	// Uniform spread: p50 lands in the middle bucket.
	if p := Quantile(0.5, uppers, []int64{5, 5, 5, 0}); p < 0.1 || p > 0.2 {
		t.Fatalf("uniform p50 = %v, want within the middle bucket", p)
	}
}

// fakeClock drives deterministic ticks.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func newTestSampler(t *testing.T, reg *obs.Registry, path string) (*Sampler, *fakeClock) {
	t.Helper()
	clk := &fakeClock{t: time.UnixMilli(1_700_000_000_000)}
	s, err := New(Config{
		Registry: reg,
		Interval: time.Second,
		Path:     path,
		Now:      clk.now,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return s, clk
}

func TestSamplerDeltas(t *testing.T) {
	reg := obs.NewRegistry()
	c := reg.Counter("test_requests_total", "t", "class", "2xx")
	g := reg.Gauge("test_depth", "t")
	h := reg.Histogram("test_latency_seconds", "t", []float64{0.001, 0.01, 0.1})

	s, clk := newTestSampler(t, reg, "")
	var samples []Sample
	s.cfg.OnSample = func(sm Sample) { samples = append(samples, sm) }

	s.TickNow() // baseline
	c.Add(10)
	g.Set(7)
	h.Observe(0.005)
	h.Observe(0.005)
	clk.advance(time.Second)
	s.TickNow()

	if len(samples) != 1 {
		t.Fatalf("expected 1 sample, got %d", len(samples))
	}
	sm := samples[0]
	if sm.Dur != 1.0 {
		t.Fatalf("dt = %v, want 1s", sm.Dur)
	}
	byName := map[string]Point{}
	for _, p := range sm.Points {
		byName[p.Name] = p
	}
	if p := byName["test_requests_total"]; p.Delta != 10 || p.Rate != 10 {
		t.Fatalf("counter point wrong: %+v", p)
	}
	if p := byName["test_depth"]; p.Value != 7 {
		t.Fatalf("gauge point wrong: %+v", p)
	}
	p := byName["test_latency_seconds"]
	if p.Count != 2 || len(p.Buckets) != 4 || p.Buckets[1] != 2 {
		t.Fatalf("histogram point wrong: %+v", p)
	}
	if p.P99 <= 0.001 || p.P99 > 0.01 {
		t.Fatalf("interval p99 = %v, want inside (0.001, 0.01]", p.P99)
	}

	// An idle interval emits no counter/histogram points, and the unchanged
	// gauge is not re-emitted (it already appeared once this run).
	clk.advance(time.Second)
	s.TickNow()
	sm = samples[len(samples)-1]
	for _, p := range sm.Points {
		if p.Name == "test_requests_total" || p.Name == "test_latency_seconds" || p.Name == "test_depth" {
			t.Fatalf("idle interval emitted %q: %+v", p.Name, p)
		}
	}
}

func TestSamplerGaugeEmittedOncePerRun(t *testing.T) {
	reg := obs.NewRegistry()
	g := reg.Gauge("test_constant", "t")
	g.Set(42)
	s, clk := newTestSampler(t, reg, "")
	s.TickNow() // baseline
	clk.advance(time.Second)
	s.TickNow()
	found := false
	for _, sm := range s.Ring().Samples(time.Time{}) {
		for _, p := range sm.Points {
			if p.Name == "test_constant" && p.Value == 42 {
				found = true
			}
		}
	}
	if !found {
		t.Fatalf("constant gauge never appeared in history")
	}
}

func TestJournalRestartRoundTrip(t *testing.T) {
	// Property: for a random workload, closing the sampler and reopening over
	// the same path yields a ring whose recovered prefix is byte-identical to
	// what the first process recorded.
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 5; trial++ {
		path := filepath.Join(t.TempDir(), "history.jsonl")
		reg := obs.NewRegistry()
		c := reg.Counter("test_total", "t")
		h := reg.Histogram("test_lat", "t", []float64{0.01, 0.1})
		s, clk := newTestSampler(t, reg, path)
		s.TickNow() // baseline
		ticks := 2 + rng.Intn(8)
		for i := 0; i < ticks; i++ {
			c.Add(int64(1 + rng.Intn(50)))
			if rng.Intn(2) == 0 {
				h.Observe(rng.Float64() * 0.2)
			}
			clk.advance(time.Second)
			s.TickNow()
		}
		before := s.Ring().Samples(time.Time{})
		if err := s.Close(); err != nil {
			t.Fatalf("trial %d: Close: %v", trial, err)
		}

		// "Restart": fresh registry (counters reset to zero), same journal.
		s2, _ := newTestSampler(t, obs.NewRegistry(), path)
		after := s2.Ring().Samples(time.Time{})
		if len(after) != len(before) {
			t.Fatalf("trial %d: recovered %d samples, want %d", trial, len(after), len(before))
		}
		for i := range before {
			want, _ := json.Marshal(before[i])
			got, _ := json.Marshal(after[i])
			if string(want) != string(got) {
				t.Fatalf("trial %d: sample %d diverged after restart:\n want %s\n got  %s", trial, i, want, got)
			}
		}
		if err := s2.Close(); err != nil {
			t.Fatalf("trial %d: second Close: %v", trial, err)
		}
	}
}

func TestJournalTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "history.jsonl")
	reg := obs.NewRegistry()
	c := reg.Counter("test_total", "t")
	s, clk := newTestSampler(t, reg, path)
	s.TickNow()
	for i := 0; i < 3; i++ {
		c.Inc()
		clk.advance(time.Second)
		s.TickNow()
	}
	intact := s.Ring().Len()
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Simulate a crash mid-append: a partial JSON line at the tail.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"t":99999,"dt":1,"poi`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2, _ := newTestSampler(t, obs.NewRegistry(), path)
	defer s2.Close()
	if got := s2.Ring().Len(); got != intact {
		t.Fatalf("torn tail: recovered %d samples, want %d", got, intact)
	}
}

func TestJournalUnsupportedVersionSetAside(t *testing.T) {
	path := filepath.Join(t.TempDir(), "history.jsonl")
	if err := os.WriteFile(path, []byte(`{"v":999,"format":"iq-history"}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, _ := newTestSampler(t, obs.NewRegistry(), path)
	defer s.Close()
	if s.Ring().Len() != 0 {
		t.Fatalf("unsupported journal yielded samples")
	}
	if _, err := os.Stat(path + ".unsupported"); err != nil {
		t.Fatalf("unsupported journal was not set aside: %v", err)
	}
}

func TestJournalCompaction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "history.jsonl")
	reg := obs.NewRegistry()
	c := reg.Counter("test_total", "t")
	clk := &fakeClock{t: time.UnixMilli(1_700_000_000_000)}
	s, err := New(Config{
		Registry:        reg,
		Interval:        time.Second,
		MaxSamples:      4,
		Path:            path,
		MaxJournalBytes: 512, // force frequent compaction
		Now:             clk.now,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.TickNow()
	for i := 0; i < 50; i++ {
		c.Inc()
		clk.advance(time.Second)
		s.TickNow()
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	// After close the journal holds at most the ring (4 samples) + header.
	if st.Size() > 2048 {
		t.Fatalf("journal did not compact: %d bytes", st.Size())
	}
	// And it still loads: the compacted journal holds the ring's tail.
	s2, _ := newTestSampler(t, obs.NewRegistry(), path)
	defer s2.Close()
	if got := s2.Ring().Len(); got == 0 || got > 4 {
		t.Fatalf("compacted journal recovered %d samples, want 1..4", got)
	}
}

func TestSamplerConcurrentHammer(t *testing.T) {
	// Run with -race: concurrent metric writes, ticks, ring reads, and
	// compactions must be safe together.
	path := filepath.Join(t.TempDir(), "history.jsonl")
	reg := obs.NewRegistry()
	s, err := New(Config{
		Registry: reg,
		Interval: time.Millisecond,
		Path:     path,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := reg.Counter("hammer_total", "t", "worker", fmt.Sprint(w))
			h := reg.Histogram("hammer_lat", "t", nil, "worker", fmt.Sprint(w))
			for {
				select {
				case <-stop:
					return
				default:
					c.Inc()
					h.Observe(0.001)
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			s.Ring().Samples(time.Time{})
			s.Compact()
			time.Sleep(100 * time.Microsecond)
		}
	}()
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}
