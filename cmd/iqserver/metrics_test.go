package main

import (
	"bytes"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"iq/internal/core"
	"iq/internal/obs"
)

// scrape fetches /metrics and parses the exposition into name{labels} ->
// value, failing the test on any malformed output — every scrape doubles as
// a format check.
func scrape(t *testing.T, baseURL string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != obs.ContentType {
		t.Fatalf("/metrics Content-Type %q, want %q", ct, obs.ContentType)
	}
	vals, err := obs.ParseExposition(resp.Body)
	if err != nil {
		t.Fatalf("exposition does not parse: %v", err)
	}
	return vals
}

// TestMetricsEndpoint: after a load and a solve, /metrics serves valid
// Prometheus text covering the HTTP, solver, hit-table, and index series.
func TestMetricsEndpoint(t *testing.T) {
	ts := testServer(t)
	loadDataset(t, ts, 100, 40)
	if resp, body := postRaw(t, ts.URL+"/v1/mincost", `{"target":5,"tau":6}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("solve: %d %s", resp.StatusCode, body)
	}
	vals := scrape(t, ts.URL)
	for _, want := range []string{
		`iq_http_responses_total{class="2xx",route="/v1/mincost"}`,
		`iq_http_request_duration_seconds_count{route="/v1/mincost"}`,
		"iq_http_inflight",
		`iq_solve_total{op="mincost",outcome="ok"}`,
		`iq_solve_duration_seconds_count{op="mincost"}`,
		`iq_solve_probes_total{op="mincost"}`,
		"iq_threshold_cache_misses_total",
		"iq_index_builds_total",
		"iq_index_build_seconds_count",
		"iq_index_subdomains",
	} {
		if _, ok := vals[want]; !ok {
			t.Errorf("series %s missing from /metrics", want)
		}
	}
	if v := vals[`iq_solve_total{op="mincost",outcome="ok"}`]; v < 1 {
		t.Errorf("mincost ok count %v, want >= 1", v)
	}
}

// TestThrottleIncrementsCounters: a 429 from the admission semaphore must
// bump iq_http_throttled_total and the 4xx class for the route.
func TestThrottleIncrementsCounters(t *testing.T) {
	ts := testServerCfg(t, serverConfig{
		requestTimeout: time.Minute, maxInflight: 1, maxBodyBytes: 1 << 20,
	})
	loadDataset(t, ts, 100, 40)
	before := scrape(t, ts.URL)

	started, release := blockSolve(t, "mincost")
	done := make(chan struct{})
	go func() {
		defer close(done)
		resp, err := http.Post(ts.URL+"/v1/mincost", "application/json",
			strings.NewReader(`{"target":5,"tau":6}`))
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	<-started
	resp, _ := postRaw(t, ts.URL+"/v1/mincost", `{"target":2,"tau":3}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow status %d, want 429", resp.StatusCode)
	}
	release()
	<-done

	after := scrape(t, ts.URL)
	if d := after["iq_http_throttled_total"] - before["iq_http_throttled_total"]; d != 1 {
		t.Errorf("iq_http_throttled_total advanced by %v, want 1", d)
	}
	key := `iq_http_responses_total{class="4xx",route="/v1/mincost"}`
	if d := after[key] - before[key]; d < 1 {
		t.Errorf("%s advanced by %v, want >= 1", key, d)
	}
}

// TestTimeoutIncrementsCounters: a 504 from a blown deadline must bump
// iq_http_timeouts_total and the deadline outcome of iq_solve_total.
func TestTimeoutIncrementsCounters(t *testing.T) {
	ts := testServer(t)
	loadDataset(t, ts, 100, 40)
	before := scrape(t, ts.URL)

	restore := core.SetIterationHook(func(op string, iter int) {
		if op == "mincost" && iter == 1 {
			time.Sleep(50 * time.Millisecond)
		}
	})
	defer restore()
	resp, _ := postRaw(t, ts.URL+"/v1/mincost", `{"target":5,"tau":6,"timeout_ms":1}`)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", resp.StatusCode)
	}

	after := scrape(t, ts.URL)
	if d := after["iq_http_timeouts_total"] - before["iq_http_timeouts_total"]; d != 1 {
		t.Errorf("iq_http_timeouts_total advanced by %v, want 1", d)
	}
	key := `iq_solve_total{op="mincost",outcome="deadline"}`
	if d := after[key] - before[key]; d != 1 {
		t.Errorf("%s advanced by %v, want 1", key, d)
	}
}

// TestPanicIncrementsCounters: a recovered handler panic must bump
// iq_http_panics_total and count as a 5xx response for the route.
func TestPanicIncrementsCounters(t *testing.T) {
	ts := testServer(t)
	loadDataset(t, ts, 100, 40)
	before := scrape(t, ts.URL)

	restore := core.SetIterationHook(func(op string, iter int) {
		if op == "mincost" && iter == 1 {
			panic("injected fault")
		}
	})
	defer restore()
	resp, _ := postRaw(t, ts.URL+"/v1/mincost", `{"target":5,"tau":6}`)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", resp.StatusCode)
	}

	after := scrape(t, ts.URL)
	if d := after["iq_http_panics_total"] - before["iq_http_panics_total"]; d != 1 {
		t.Errorf("iq_http_panics_total advanced by %v, want 1", d)
	}
	key := `iq_http_responses_total{class="5xx",route="/v1/mincost"}`
	if d := after[key] - before[key]; d != 1 {
		t.Errorf("%s advanced by %v, want 1", key, d)
	}
}

// syncBuffer is a mutex-guarded bytes.Buffer: the slog handler writes from
// request goroutines while the test reads.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestRequestIDFlowsToSolverLogs: a client-supplied X-Request-ID must be
// echoed on the response, stamped on the middleware's request line, and —
// via the context — on the engine's own "solve finished" debug line.
func TestRequestIDFlowsToSolverLogs(t *testing.T) {
	var buf syncBuffer
	logger := slog.New(obs.NewCtxHandler(
		slog.NewJSONHandler(&buf, &slog.HandlerOptions{Level: slog.LevelDebug})))
	ts := httptest.NewServer(newServer(logger, defaultConfig()).handler())
	t.Cleanup(ts.Close)
	loadDataset(t, ts, 100, 40)

	const rid = "rid-test-42"
	req, err := http.NewRequest("POST", ts.URL+"/v1/mincost",
		strings.NewReader(`{"target":5,"tau":6}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-ID", rid)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Request-ID"); got != rid {
		t.Errorf("response X-Request-ID %q, want %q", got, rid)
	}

	// Both the engine's "solve finished" debug line and the middleware's
	// request line for the mincost route must carry the caller's ID. The
	// request line lands just after the response body, so poll briefly.
	ridAttr := fmt.Sprintf(`"request_id":%q`, rid)
	want := []string{`"msg":"solve finished"`, `"msg":"request","method":"POST","route":"/v1/mincost"`}
	deadline := time.Now().Add(2 * time.Second)
	for {
		logs := buf.String()
		missing := ""
		for _, w := range want {
			found := false
			for _, line := range strings.Split(strings.TrimSpace(logs), "\n") {
				if strings.Contains(line, w) && strings.Contains(line, ridAttr) {
					found = true
					break
				}
			}
			if !found {
				missing = w
				break
			}
		}
		if missing == "" {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("no log line matching %s with %s; logs:\n%s", missing, ridAttr, logs)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
