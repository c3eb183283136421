package main

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// fuzzRoutes are the /v1 POST routes FuzzHandlers drives; the fuzzed route
// byte picks one modulo their count.
var fuzzRoutes = []string{
	"/v1/load",         // 0
	"/v1/mincost",      // 1
	"/v1/maxhit",       // 2
	"/v1/solve/batch",  // 3
	"/v1/evaluate",     // 4
	"/v1/commit",       // 5
	"/v1/commit/batch", // 6
	"/v1/objects",      // 7
	"/v1/queries",      // 8
	"/v1/topk",         // 9
}

// serveRecorded runs one POST through h in-process and returns the recorded
// response.
func serveRecorded(h http.Handler, route string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, route, bytes.NewReader(body)))
	return rec
}

// FuzzHandlers POSTs a fuzzed body to one /v1 route of a freshly loaded
// small server and checks the contract every handler shares: no 500, a
// refused request leaves the published epoch untouched, and every 2xx body
// is JSON. The request timeout is short so a slow solve answers 504; a
// handler that ignores it fails on the watchdog instead of hanging the
// fuzzer. The seed corpus in testdata/fuzz/FuzzHandlers holds one valid body
// per route plus past failures, and plain `go test` replays it.
func FuzzHandlers(f *testing.F) {
	load := datasetJSON(f, 30, 20)
	cfg := defaultConfig()
	cfg.requestTimeout = time.Second
	cfg.maxBodyBytes = 64 << 10 // keeps a fuzzed /v1/load small enough to index quickly
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	f.Fuzz(func(t *testing.T, routeIdx uint8, body []byte) {
		s := newServer(logger, cfg)
		h := s.handler()
		if rec := serveRecorded(h, "/v1/load", load); rec.Code != http.StatusOK {
			t.Fatalf("load: %d %s", rec.Code, rec.Body)
		}
		sys := s.system()
		epoch := sys.Epoch()
		route := fuzzRoutes[int(routeIdx)%len(fuzzRoutes)]

		done := make(chan *httptest.ResponseRecorder, 1)
		go func() { done <- serveRecorded(h, route, body) }()
		var rec *httptest.ResponseRecorder
		select {
		case rec = <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("POST %s %q: no answer within 10s under a %s request timeout", route, body, cfg.requestTimeout)
		}

		switch ok := rec.Code >= 200 && rec.Code < 300; {
		case rec.Code == http.StatusInternalServerError:
			t.Fatalf("POST %s %q: 500 %s", route, body, rec.Body)
		case !ok && (s.system() != sys || sys.Epoch() != epoch):
			t.Fatalf("POST %s %q: %d changed the published state", route, body, rec.Code)
		case ok && !json.Valid(rec.Body.Bytes()):
			t.Fatalf("POST %s %q: %d with a body that is not JSON: %q", route, body, rec.Code, rec.Body)
		}
	})
}
