package main

import (
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"iq/internal/obs"
)

func TestRouteName(t *testing.T) {
	cases := map[string]string{
		"POST /v1/mincost":      "/v1/mincost",
		"GET /metrics":          "/metrics",
		"GET /debug/traces":     "/debug/traces",
		"/debug/pprof/":         "/debug/pprof",
		"/debug/pprof/profile":  "/debug/pprof",
		"/debug/pprof/cmdline":  "/debug/pprof",
		"/healthz":              "/healthz",
		"DELETE /v1/objects/42": "/v1/objects/42",
	}
	for pattern, want := range cases {
		if got := routeName(pattern); got != want {
			t.Errorf("routeName(%q) = %q, want %q", pattern, got, want)
		}
	}
}

// tracedSolve issues a mincost solve with capture requested and returns the
// trace ID from the response header.
func tracedSolve(t *testing.T, ts *httptest.Server, body string) string {
	t.Helper()
	req, err := http.NewRequest("POST", ts.URL+"/v1/mincost", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-IQ-Trace", "1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve: %d %s", resp.StatusCode, data)
	}
	id := resp.Header.Get("X-IQ-Trace-ID")
	if id == "" {
		t.Fatal("no X-IQ-Trace-ID on traced request")
	}
	return id
}

// TestFlightRecorderEndToEnd: a solve requested with X-IQ-Trace: 1 shows up
// at /debug/traces, downloads as valid trace_event JSON with the full
// solve → round → probe nesting, and renders as a span tree.
func TestFlightRecorderEndToEnd(t *testing.T) {
	ts := testServer(t)
	loadDataset(t, ts, 100, 40)
	id := tracedSolve(t, ts, `{"target":5,"tau":6}`)

	// Summary page lists the capture.
	resp, err := http.Get(ts.URL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	page, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/traces status %d", resp.StatusCode)
	}
	if !strings.Contains(string(page), id) {
		t.Fatalf("summary page does not list trace %s:\n%s", id, page)
	}
	if !strings.Contains(string(page), "/v1/mincost") {
		t.Error("summary page missing route column")
	}

	// Download as trace_event JSON and validate shape + nesting depth.
	resp, err = http.Get(ts.URL + "/debug/traces?id=" + id)
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("trace download Content-Type %q", ct)
	}
	parsed, err := obs.ValidateTraceEvent(data,
		[]string{"solve/mincost", "round", "probe"}, 3)
	if err != nil {
		t.Fatalf("downloaded trace invalid: %v", err)
	}
	if parsed.TraceID != id {
		t.Errorf("trace id %q, want %q", parsed.TraceID, id)
	}

	// Tree rendering names the root span.
	resp, err = http.Get(ts.URL + "/debug/traces?id=" + id + "&format=tree")
	if err != nil {
		t.Fatal(err)
	}
	tree, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(tree), "solve/mincost") {
		t.Errorf("tree output missing root span:\n%s", tree)
	}

	// Unknown IDs answer 404.
	resp, err = http.Get(ts.URL + "/debug/traces?id=doesnotexist")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown trace id: status %d, want 404", resp.StatusCode)
	}
}

// TestUntracedRequestNotCaptured: without opt-in there is no trace header
// and nothing reaches the recorder.
func TestUntracedRequestNotCaptured(t *testing.T) {
	ts := testServer(t)
	loadDataset(t, ts, 60, 20)
	resp, body := postRaw(t, ts.URL+"/v1/mincost", `{"target":1,"tau":3}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve: %d %s", resp.StatusCode, body)
	}
	if id := resp.Header.Get("X-IQ-Trace-ID"); id != "" {
		t.Errorf("untraced request got trace id %q", id)
	}
	page, _ := http.Get(ts.URL + "/debug/traces")
	data, _ := io.ReadAll(page.Body)
	page.Body.Close()
	if !strings.Contains(string(data), "none captured yet") {
		t.Errorf("recorder not empty after untraced request:\n%s", data)
	}
}

// TestTraceAllCaptures: with traceAll set, capture needs no per-request
// opt-in; with debugTraces off, /debug/traces is not mounted at all.
func TestTraceAllCaptures(t *testing.T) {
	cfg := defaultConfig()
	cfg.traceAll = true
	ts := testServerCfg(t, cfg)
	loadDataset(t, ts, 60, 20)
	resp, body := postRaw(t, ts.URL+"/v1/mincost", `{"target":1,"tau":3}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve: %d %s", resp.StatusCode, body)
	}
	if resp.Header.Get("X-IQ-Trace-ID") == "" {
		t.Error("trace-all request got no trace id")
	}

	off := defaultConfig()
	off.debugTraces = false
	ts2 := testServerCfg(t, off)
	resp2, err := http.Get(ts2.URL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Errorf("/debug/traces with recorder disabled: status %d, want 404", resp2.StatusCode)
	}
}

// TestConcurrentTraceCapture hammers the recorder from parallel traced
// requests; run under -race this doubles as the data-race check on capture.
func TestConcurrentTraceCapture(t *testing.T) {
	ts := testServer(t)
	loadDataset(t, ts, 100, 40)
	const workers = 8
	ids := make([]string, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ids[i] = tracedSolve(t, ts, fmt.Sprintf(`{"target":%d,"tau":4}`, i))
		}(i)
	}
	wg.Wait()
	for _, id := range ids {
		resp, err := http.Get(ts.URL + "/debug/traces?id=" + id)
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("trace %s: status %d", id, resp.StatusCode)
		}
		if _, err := obs.ValidateTraceEvent(data, []string{"solve/mincost"}, 2); err != nil {
			t.Errorf("trace %s invalid: %v", id, err)
		}
	}
}

// TestSlowSolveWarnLog: with -slow-solve-threshold set below any real solve
// time, a completed solve logs a WARN line carrying the work profile and the
// capture's trace id.
func TestSlowSolveWarnLog(t *testing.T) {
	var buf syncBuffer
	logger := slog.New(obs.NewCtxHandler(
		slog.NewJSONHandler(&buf, &slog.HandlerOptions{Level: slog.LevelInfo})))
	cfg := defaultConfig()
	cfg.slowSolve = time.Nanosecond
	ts := httptest.NewServer(newServer(logger, cfg).handler())
	t.Cleanup(ts.Close)
	loadDataset(t, ts, 100, 40)
	id := tracedSolve(t, ts, `{"target":5,"tau":6}`)

	out := buf.String()
	if !strings.Contains(out, "slow solve") {
		t.Fatalf("no WARN slow-solve line:\n%s", out)
	}
	for _, want := range []string{`"level":"WARN"`, `"target":5`, `"rounds"`, `"probes"`, `"trace_id":"` + id + `"`} {
		if !strings.Contains(out, want) {
			t.Errorf("slow-solve log missing %s:\n%s", want, out)
		}
	}
}

// TestMetricsIncludeRuntimeFamilies: the /metrics response carries the
// runtime bridge (go_*) alongside the engine registry and still parses as
// one valid exposition (scrape validates it).
func TestMetricsIncludeRuntimeFamilies(t *testing.T) {
	ts := testServer(t)
	vals := scrape(t, ts.URL)
	for _, want := range []string{"go_goroutines", "go_heap_objects_bytes", "go_gc_pause_seconds_count"} {
		if _, ok := vals[want]; !ok {
			t.Errorf("metrics missing %s", want)
		}
	}
}
