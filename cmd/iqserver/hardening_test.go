package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"iq"
	"iq/internal/core"
	"iq/internal/dataset"
)

// postRaw sends a raw (possibly malformed) body and returns the response
// plus its bytes — unlike post it never json.Marshals.
func postRaw(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// mustErrorBody asserts a response body is well-formed errorResponse JSON
// with a non-empty message — the API contract for every refusal path.
func mustErrorBody(t *testing.T, label string, body []byte) {
	t.Helper()
	var er errorResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatalf("%s: body %q is not errorResponse JSON: %v", label, body, err)
	}
	if er.Error == "" {
		t.Fatalf("%s: empty error message in %q", label, body)
	}
}

// blockSolve installs a fault hook that parks the first matching solver
// iteration until release is called. started is closed once the solve is
// parked inside the engine; release is idempotent and also runs at cleanup,
// so a failing test cannot deadlock the parked goroutine.
func blockSolve(t *testing.T, op string) (started chan struct{}, release func()) {
	t.Helper()
	started = make(chan struct{})
	gate := make(chan struct{})
	var startOnce, relOnce sync.Once
	restore := core.SetIterationHook(func(gotOp string, iter int) {
		if gotOp == op && iter == 1 {
			startOnce.Do(func() { close(started) })
			<-gate
		}
	})
	release = func() { relOnce.Do(func() { close(gate) }) }
	t.Cleanup(func() {
		release()
		restore()
	})
	return started, release
}

// TestErrorSurfaceTable walks the API's refusal paths and asserts both the
// status code and that every error body is valid errorResponse JSON.
func TestErrorSurfaceTable(t *testing.T) {
	// A loaded server for most cases, a tiny-body-cap server for 413, and a
	// fresh server for 409.
	loaded := testServer(t)
	loadDataset(t, loaded, 100, 40)
	tinyBody := testServerCfg(t, serverConfig{requestTimeout: 30 * time.Second, maxBodyBytes: 64})
	empty := testServer(t)

	cases := []struct {
		name   string
		url    string
		body   string
		status int
	}{
		{"malformed JSON", loaded.URL + "/v1/mincost", `{nope`, http.StatusBadRequest},
		{"unknown field", loaded.URL + "/v1/mincost", `{"target":0,"tau":1,"bogus":true}`, http.StatusBadRequest},
		{"removed workers field", loaded.URL + "/v1/mincost", `{"target":0,"tau":1,"workers":2}`, http.StatusBadRequest},
		{"trailing object", loaded.URL + "/v1/mincost", `{"target":0,"tau":1}{"target":9,"tau":1}`, http.StatusBadRequest},
		{"trailing garbage", loaded.URL + "/v1/commit", `{"target":0,"strategy":[0,0,0]} [1,2]`, http.StatusBadRequest},
		{"oversized body", tinyBody.URL + "/v1/mincost",
			`{"target":0,"tau":1,"frozen":[` + strings.Repeat("0,", 100) + `0]}`, http.StatusRequestEntityTooLarge},
		{"no dataset", empty.URL + "/v1/mincost", `{"target":0,"tau":1}`, http.StatusConflict},
		{"unreachable tau", loaded.URL + "/v1/mincost", `{"target":5,"tau":999}`, http.StatusUnprocessableEntity},
		{"bad cost name", loaded.URL + "/v1/mincost", `{"target":5,"tau":1,"cost":{"name":"bogus"}}`, http.StatusBadRequest},
		{"zero cost weight", loaded.URL + "/v1/mincost", `{"target":5,"tau":6,"cost":{"weighted":[0,1,1]}}`, http.StatusBadRequest},
		{"topk wrong dimension", loaded.URL + "/v1/topk", `{"k":1,"point":[0.5]}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp, body := postRaw(t, tc.url, tc.body)
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d (body %s)", tc.name, resp.StatusCode, tc.status, body)
		}
		mustErrorBody(t, tc.name, body)
	}
}

// TestAdmissionControl floods a capacity-1 server: the parked solve holds
// the only slot, the next solver request gets an immediate 429 with
// Retry-After and an errorResponse body, non-solver endpoints stay
// unaffected, and once the slot frees the endpoint admits again.
func TestAdmissionControl(t *testing.T) {
	ts := testServerCfg(t, serverConfig{
		requestTimeout: time.Minute, maxInflight: 1, maxBodyBytes: 1 << 20,
	})
	loadDataset(t, ts, 100, 40)

	started, release := blockSolve(t, "mincost")
	solveDone := make(chan int, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/mincost", "application/json",
			strings.NewReader(`{"target":5,"tau":6}`))
		if err != nil {
			solveDone <- -1
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		solveDone <- resp.StatusCode
	}()
	<-started

	// The slot is held: overflow is refused immediately, not queued.
	resp, body := postRaw(t, ts.URL+"/v1/mincost", `{"target":2,"tau":3}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow status %d, body %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Errorf("429 without Retry-After header")
	}
	mustErrorBody(t, "over-admission", body)

	// The semaphore only guards solver endpoints: reads are still served
	// while the solver is saturated.
	if resp, body := postRaw(t, ts.URL+"/v1/topk", `{"k":2,"point":[0.4,0.3,0.3]}`); resp.StatusCode != http.StatusOK {
		t.Errorf("topk during solver saturation: %d %s", resp.StatusCode, body)
	}

	release()
	if status := <-solveDone; status != http.StatusOK {
		t.Fatalf("parked solve finished with %d, want 200", status)
	}
	// Capacity released: a fresh solve is admitted again.
	if resp, body := postRaw(t, ts.URL+"/v1/mincost", `{"target":5,"tau":6}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("post-release solve: %d %s", resp.StatusCode, body)
	}
}

// TestPanicRecoveryMiddleware injects a panic inside the engine via the
// fault hook and asserts the client sees a JSON 500 — not a severed
// connection — and that the server keeps serving afterwards.
func TestPanicRecoveryMiddleware(t *testing.T) {
	ts := testServer(t)
	loadDataset(t, ts, 100, 40)
	restore := core.SetIterationHook(func(op string, iter int) {
		if op == "mincost" && iter == 1 {
			panic("injected fault")
		}
	})
	defer restore()

	resp, body := postRaw(t, ts.URL+"/v1/mincost", `{"target":5,"tau":6}`)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500 (body %s)", resp.StatusCode, body)
	}
	mustErrorBody(t, "panic", body)

	restore()
	if resp, body := postRaw(t, ts.URL+"/v1/mincost", `{"target":5,"tau":6}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("server unhealthy after recovered panic: %d %s", resp.StatusCode, body)
	}
}

// TestRequestTimeoutMS pins the timeout_ms plumbing end to end: a 1ms budget
// with the engine held past it surfaces as 504 Gateway Timeout with an
// errorResponse body, while the same solve under a generous budget succeeds.
func TestRequestTimeoutMS(t *testing.T) {
	ts := testServer(t)
	loadDataset(t, ts, 100, 40)
	restore := core.SetIterationHook(func(op string, iter int) {
		if op == "mincost" && iter == 1 {
			time.Sleep(50 * time.Millisecond) // outlive the 1ms budget below
		}
	})
	defer restore()

	resp, body := postRaw(t, ts.URL+"/v1/mincost", `{"target":5,"tau":6,"timeout_ms":1}`)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504 (body %s)", resp.StatusCode, body)
	}
	mustErrorBody(t, "timeout", body)

	restore()
	if resp, body := postRaw(t, ts.URL+"/v1/mincost", `{"target":5,"tau":6,"timeout_ms":60000}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("generous timeout_ms: %d %s", resp.StatusCode, body)
	}
}

// TestExprCostSolveAnswers: a non-convex expression cost drives the numeric
// minimiser's line search out to where float64 spacing exceeds its
// tolerance, and the search must still end, or the solve runs past its
// deadline and keeps its admission slot. The handler runs in-process on its
// own goroutine, so a regression fails on the timer instead of hanging the
// test binary (an httptest server's Close would wait for it).
func TestExprCostSolveAnswers(t *testing.T) {
	h := newServer(slog.New(slog.NewTextHandler(io.Discard, nil)), defaultConfig()).handler()
	if rec := serveRecorded(h, "/v1/load", datasetJSON(t, 60, 30)); rec.Code != http.StatusOK {
		t.Fatalf("load: %d %s", rec.Code, rec.Body)
	}
	done := make(chan int, 1)
	go func() {
		done <- serveRecorded(h, "/v1/mincost",
			[]byte(`{"target":5,"tau":6,"cost":{"expr":"s1*s2*s2+s3*s3"},"timeout_ms":500}`)).Code
	}()
	select {
	case code := <-done:
		switch code {
		case http.StatusOK, http.StatusUnprocessableEntity, http.StatusGatewayTimeout:
		default:
			t.Fatalf("status %d, want 200, 422 or 504", code)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("expression-cost solve did not answer within 5s of a 500ms timeout_ms")
	}
}

// TestSolveContextCap is a unit check of the deadline arithmetic: timeout_ms
// can only tighten the server-wide cap, never extend it, and with no cap
// configured the request context passes through untouched.
func TestSolveContextCap(t *testing.T) {
	s := newServer(slog.New(slog.NewTextHandler(io.Discard, nil)), serverConfig{requestTimeout: 100 * time.Millisecond})
	r, err := http.NewRequest("POST", "/v1/mincost", nil)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := s.solveContext(r, 60_000) // asks for a minute
	defer cancel()
	dl, ok := ctx.Deadline()
	if !ok || time.Until(dl) > 150*time.Millisecond {
		t.Fatalf("timeout_ms extended the server cap: deadline in %s", time.Until(dl))
	}

	ctx2, cancel2 := s.solveContext(r, 1)
	defer cancel2()
	if dl2, ok := ctx2.Deadline(); !ok || dl2.After(dl) {
		t.Fatalf("timeout_ms=1 failed to tighten the deadline")
	}

	// A timeout_ms whose Duration overflows int64 must not wrap into "no
	// deadline".
	ctx4, cancel4 := s.solveContext(r, 9_300_000_000_000)
	defer cancel4()
	if dl4, ok := ctx4.Deadline(); !ok || time.Until(dl4) > 150*time.Millisecond {
		t.Fatalf("overflowing timeout_ms removed or extended the server cap")
	}

	s0 := newServer(slog.New(slog.NewTextHandler(io.Discard, nil)), serverConfig{})
	ctx3, cancel3 := s0.solveContext(r, 0)
	defer cancel3()
	if _, ok := ctx3.Deadline(); ok {
		t.Fatalf("deadline appeared with no cap configured")
	}
}

// TestHealthAndReadiness: /healthz is always live; /readyz flips from 503 to
// 200 once a dataset loads.
func TestHealthAndReadiness(t *testing.T) {
	ts := testServer(t)
	get := func(path string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp, data
	}
	if resp, _ := get("/healthz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz before load: %d", resp.StatusCode)
	}
	resp, body := get("/readyz")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz before load: %d", resp.StatusCode)
	}
	mustErrorBody(t, "readyz", body)
	loadDataset(t, ts, 30, 10)
	if resp, _ := get("/readyz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz after load: %d", resp.StatusCode)
	}
}

// TestGracefulShutdownDrainsInflight is the signal-level drain test: SIGTERM
// lands while a solve is parked inside the engine. The listener must close
// (fresh connections refused) while the parked solve still completes with
// 200, and run() must return nil only after the drain.
func TestGracefulShutdownDrainsInflight(t *testing.T) {
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	cfg := appConfig{
		requestTimeout: time.Minute,
		maxInflight:    4,
		maxBodyBytes:   8 << 20,
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv, _ := newHTTPServer(cfg, logger)
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM)
	defer stop()
	runDone := make(chan error, 1)
	go func() { runDone <- run(ctx, srv, ln, 30*time.Second, logger) }()

	base := "http://" + ln.Addr().String()
	resp, err := http.Post(base+"/v1/load", "application/json", bytes.NewReader(datasetJSON(t, 100, 40)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("load over the wire: %d", resp.StatusCode)
	}

	started, release := blockSolve(t, "mincost")
	solveDone := make(chan int, 1)
	go func() {
		c := &http.Client{Transport: &http.Transport{}}
		resp, err := c.Post(base+"/v1/mincost", "application/json",
			strings.NewReader(`{"target":5,"tau":6}`))
		if err != nil {
			solveDone <- -1
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		solveDone <- resp.StatusCode
	}()
	<-started

	// Deliver a real SIGTERM to ourselves; signal.NotifyContext intercepts
	// it and cancels run()'s context, exactly as in production.
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}

	// Shutdown must close the listener while the solve is still parked:
	// poll fresh connections until they are refused. The wait is one-sided —
	// it only ever delays the test, never flakes it.
	deadline := time.Now().Add(10 * time.Second)
	for {
		c := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}, Timeout: time.Second}
		r, err := c.Get(base + "/healthz")
		if err != nil {
			break // refused: shutdown reached the listener
		}
		io.Copy(io.Discard, r.Body)
		r.Body.Close()
		if time.Now().After(deadline) {
			release()
			t.Fatal("listener still accepting 10s after SIGTERM")
		}
		time.Sleep(10 * time.Millisecond)
	}
	select {
	case err := <-runDone:
		t.Fatalf("run() returned (%v) before the in-flight solve drained", err)
	default:
	}

	release()
	if status := <-solveDone; status != http.StatusOK {
		t.Fatalf("in-flight solve finished with %d, want 200", status)
	}
	select {
	case err := <-runDone:
		if err != nil {
			t.Fatalf("run() after clean drain: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run() did not return after the drain completed")
	}
}

// datasetJSON builds a /v1/load body for tests that talk to a real listener
// or call the handler directly rather than through an httptest server.
func datasetJSON(t testing.TB, n, m int) []byte {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	var req loadRequest
	for _, o := range dataset.Objects(dataset.Independent, n, 3, rng) {
		req.Objects = append(req.Objects, iq.Vector(o))
	}
	for _, q := range dataset.UNQueries(m, 3, 5, true, rng) {
		req.Queries = append(req.Queries, queryWire{ID: q.ID, K: q.K, Point: q.Point})
	}
	buf, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// TestMetricsAndPprofSmoke: /metrics always serves parseable exposition;
// /debug/pprof/ serves only when the -pprof gate is on and 404s otherwise
// (the profiling endpoints leak heap contents, so default-off matters).
func TestMetricsAndPprofSmoke(t *testing.T) {
	plain := testServer(t)
	if resp, body := postRaw(t, plain.URL+"/v1/load", "{}"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty load: %d %s", resp.StatusCode, body)
	}
	resp, err := http.Get(plain.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: %d", resp.StatusCode)
	}
	if resp, _ := http.Get(plain.URL + "/debug/pprof/"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("pprof served without the gate: %d", resp.StatusCode)
	}

	cfg := defaultConfig()
	cfg.enablePprof = true
	gated := testServerCfg(t, cfg)
	resp, err = http.Get(gated.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "pprof") {
		t.Errorf("gated pprof index: %d %.80s", resp.StatusCode, body)
	}
}
