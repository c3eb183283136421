package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"iq"
	"iq/internal/ese"
	"iq/internal/subdomain"
)

// serveSpec sizes the open-loop serving workload.
type serveSpec struct {
	shape         shape
	hot           int     // hot targets, each with one Min-Cost and one Max-Hit goal
	rate          float64 // scheduled requests per second
	minDominators int     // commit objects are dominated by at least this many others
}

// serve is the serving workload. Its rate is a small share of what the
// server sustains on this mix, which every run measures after its timed
// phase (see capacity).
var serve = serveSpec{
	shape: shape{Objects: 1000, Queries: 200, Dim: 3, KMax: 10, ObjDist: "IN", QueryDist: "UN"},
	hot:   6, rate: 60, minDominators: 50,
}

// The capacity phase sends capacityPasses closed-loop passes of
// capacityWork of schedule (in scheduled seconds at serve.rate) each, and
// reports the median pass, which one stalled pass leaves alone.
const (
	capacityPasses = 3
	capacityWork   = 16 * time.Second
)

// serveMix is the share of each scheduled request kind. A commit is
// followed, as soon as it is acknowledged, by a Min-Cost re-query of a hot
// goal on the same connection.
var serveMix = []struct {
	Kind  string  `json:"kind"`
	Share float64 `json:"share"`
}{
	{"mincost", 0.30}, {"maxhit", 0.20}, {"evaluate", 0.15}, {"topk", 0.15}, {"commit", 0.20},
}

// serverFlags are the iqserver flags besides -addr and -data-dir: the
// defaults plus a WAL that fsyncs every commit.
var serverFlags = []string{"-fsync", "always"}

// serveWork is the serving workload's fixed inputs.
type serveWork struct {
	data       *dataset
	hot        []loopTarget
	commitPool []int // objects far outside the skyband, never hot
}

func newServeWork() *serveWork {
	d := generate(serve.shape, dataSeed)
	rng := rand.New(rand.NewSource(dataSeed + 2))
	taken := map[int]bool{}
	hot := drawTargets(d, rng, serve.hot, taken)
	var pool []int
	for i, n := range d.dominators {
		if !taken[i] && n >= serve.minDominators {
			pool = append(pool, i)
		}
	}
	return &serveWork{data: d, hot: hot, commitPool: pool}
}

// request is one scheduled operation.
type request struct {
	Due      time.Duration // since the start of the timed phase
	Kind     string
	Hot      int       // hot goal: read target, what-if base, or the commit's re-query
	Scale    float64   // evaluate: scales the hot Min-Cost strategy
	Object   int       // commit target
	Strategy iq.Vector // commit strategy
	Query    iq.Query  // topk
}

// serveSchedule draws the open-loop schedule: rate×seconds arrivals at
// uniformly random times (a Poisson process conditioned on its count), with
// exact per-kind counts from serveMix and every hot goal used equally. The
// seed decides the times and the order; every run sends the same number of
// each kind of request.
func serveSchedule(w *serveWork, seed int64, seconds time.Duration) []request {
	rng := rand.New(rand.NewSource(seed))
	n := int(serve.rate * seconds.Seconds())
	out := make([]request, 0, n)
	for _, m := range serveMix {
		count := int(math.Round(m.Share * float64(n)))
		for i := 0; i < count; i++ {
			r := request{Kind: m.Kind, Hot: i % len(w.hot)}
			switch r.Kind {
			case "evaluate":
				r.Scale = 0.5 + rng.Float64()
			case "topk":
				r.Query = iq.Query{K: 1 + rng.Intn(serve.shape.KMax), Point: make(iq.Vector, serve.shape.Dim)}
				for k := range r.Query.Point {
					r.Query.Point[k] = rng.Float64()
				}
			case "commit":
				r.Object = w.commitPool[rng.Intn(len(w.commitPool))]
				r.Strategy = make(iq.Vector, serve.shape.Dim)
				for k := range r.Strategy {
					r.Strategy[k] = -0.001 - 0.003*rng.Float64()
				}
			}
			out = append(out, r)
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	due := make([]time.Duration, len(out))
	for i := range due {
		due[i] = time.Duration(rng.Int63n(int64(seconds)))
	}
	sort.Slice(due, func(i, j int) bool { return due[i] < due[j] })
	for i := range out {
		out[i].Due = due[i]
	}
	return out
}

// --- the server child process ---

type serverProc struct {
	cmd    *exec.Cmd
	base   string
	args   []string
	client *http.Client
	done   chan error
	once   sync.Once
}

// startServer boots iqserver on a free local port with its data in dir and
// waits until it answers /healthz.
func startServer(bin, dir string, conns int) (*serverProc, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	ln.Close()
	logf, err := os.Create(dir + ".log")
	if err != nil {
		return nil, err
	}
	args := append([]string{"-addr", addr, "-data-dir", dir}, serverFlags...)
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting iqserver: %w", err)
	}
	s := &serverProc{
		cmd: cmd, base: "http://" + addr, args: args, done: make(chan error, 1),
		client: &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{
			MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true,
		}},
	}
	go func() { s.done <- cmd.Wait(); logf.Close() }()
	deadline := time.Now().Add(20 * time.Second)
	for {
		if _, err := s.call("GET", "/healthz", nil, nil); err == nil {
			return s, nil
		}
		select {
		case err := <-s.done:
			s.done <- err
			return nil, fmt.Errorf("iqserver exited during boot: %v (log %s.log)", err, dir)
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, errors.New("iqserver did not answer /healthz within 20s")
		}
	}
}

// stop sends SIGTERM and waits for the process to exit, killing it if the
// drain takes longer than ten seconds.
func (s *serverProc) stop() {
	s.once.Do(func() {
		s.client.CloseIdleConnections()
		_ = s.cmd.Process.Signal(syscall.SIGTERM) // it may already have exited; Wait reports that
		select {
		case <-s.done:
		case <-time.After(10 * time.Second):
			_ = s.cmd.Process.Kill()
			<-s.done
		}
	})
}

// httpError is a non-2xx answer.
type httpError struct {
	status int
	body   string
}

func (e *httpError) Error() string { return fmt.Sprintf("HTTP %d: %s", e.status, e.body) }

// call sends one request and decodes a 200 answer into out.
func (s *serverProc) call(method, path string, body, out any) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return nil, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, s.base+path, rd)
	if err != nil {
		return nil, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return data, &httpError{resp.StatusCode, string(bytes.TrimSpace(data))}
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return data, fmt.Errorf("decoding %s answer: %w", path, err)
		}
	}
	return data, nil
}

type solveWire struct {
	Strategy iq.Vector     `json:"strategy"`
	Cost     float64       `json:"cost"`
	Hits     int           `json:"hits"`
	Stats    iq.SolveStats `json:"stats"`
}

type queryWire struct {
	ID    int       `json:"id"`
	K     int       `json:"k"`
	Point iq.Vector `json:"point"`
}

func (s *serverProc) minCost(t loopTarget, tau int) (*solveWire, error) {
	var r solveWire
	_, err := s.call("POST", "/v1/mincost", map[string]any{"target": t.Target, "tau": tau}, &r)
	if err == nil && r.Hits < tau {
		err = fmt.Errorf("mincost target %d: %d hits below tau %d", t.Target, r.Hits, tau)
	}
	return &r, err
}

func (s *serverProc) maxHit(t loopTarget) (*solveWire, error) {
	var r solveWire
	_, err := s.call("POST", "/v1/maxhit", map[string]any{"target": t.Target, "budget": t.Beta}, &r)
	if err == nil && r.Cost > t.Beta*(1+1e-9) {
		err = fmt.Errorf("maxhit target %d: cost %g over budget %g", t.Target, r.Cost, t.Beta)
	}
	return &r, err
}

// hotAnswer is a hot target's warm-up answers.
type hotAnswer struct{ minCost, maxHit *solveWire }

// bootAndWarm is one set-up: boot, load the dataset, and solve every hot
// goal once so the timed phase finds them warm.
func bootAndWarm(cfg runConfig, w *serveWork, dir string, load []byte) (*serverProc, []hotAnswer, error) {
	srv, err := startServer(cfg.serverBin, dir, runtime.NumCPU())
	if err != nil {
		return nil, nil, err
	}
	var loaded map[string]int
	for tries := 0; ; tries++ {
		_, err = srv.call("POST", "/v1/load", json.RawMessage(load), &loaded)
		var he *httpError
		if err == nil || !errors.As(err, &he) || he.status != http.StatusServiceUnavailable || tries == 1000 {
			break
		}
		time.Sleep(5 * time.Millisecond) // recovery of the empty data dir still running
	}
	if err != nil {
		srv.stop()
		return nil, nil, fmt.Errorf("loading dataset: %w", err)
	}
	answers := make([]hotAnswer, len(w.hot))
	for i, t := range w.hot {
		if answers[i].minCost, err = srv.minCost(t, t.Tau); err == nil {
			answers[i].maxHit, err = srv.maxHit(t)
		}
		if err != nil {
			srv.stop()
			return nil, nil, fmt.Errorf("warming hot target %d: %w", t.Target, err)
		}
	}
	return srv, answers, nil
}

// sample is one completed request. A re-query's cycle is when the commit
// it follows was due.
type sample struct {
	kind                  string
	due, sent, end, cycle time.Time
	stats                 *iq.SolveStats
	err                   error
}

func (s sample) latency() time.Duration { return s.end.Sub(s.due) }

// ackedCommit is a commit the server acknowledged, in acknowledgement order.
type ackedCommit struct {
	target   int
	strategy iq.Vector
	hits     int
}

// client runs the schedule against the server.
type client struct {
	srv      *serverProc
	w        *serveWork
	answers  []hotAnswer
	rec      *recorder // nil when untraced
	mu       sync.Mutex
	samples  []sample
	traced   []int      // indexes into samples of the traced requests
	start    time.Time  // when the last run began
	commitMu sync.Mutex // one commit in flight, so acknowledgement order is apply order
	acked    []ackedCommit
}

// run dispatches the schedule to conns workers, one connection each.
// Requests about one hot target always share a worker, as one client's
// session would, so two solves of the same target never run at once. Open,
// each request is dispatched at its due time, and one waiting for its
// worker is late: its latency counts from its due time, so stalls show in
// the figures. Closed, every request is dispatched at once and each worker
// sends its next as soon as the previous one is answered.
func (c *client) run(sched []request, conns int, open bool) time.Duration {
	queues := make([]chan int, conns)
	start := time.Now()
	c.start = start
	var wg sync.WaitGroup
	for w := range queues {
		queues[w] = make(chan int, len(sched)) // never blocks the dispatcher
		wg.Add(1)
		go func(queue chan int) {
			defer wg.Done()
			for i := range queue {
				c.do(i, sched[i], start.Add(sched[i].Due))
			}
		}(queues[w])
	}
	for i, r := range sched {
		if open {
			time.Sleep(time.Until(start.Add(r.Due)))
		}
		w := r.Hot % conns
		if r.Kind == "topk" {
			w = i % conns
		}
		queues[w] <- i
	}
	for _, q := range queues {
		close(q)
	}
	wg.Wait()
	return time.Since(start)
}

// do executes one scheduled request; traced runs trace every other one.
func (c *client) do(i int, r request, due time.Time) {
	var rec *recorder
	if i%2 == 1 {
		rec = c.rec
	}
	h := c.w.hot[r.Hot]
	s := sample{kind: r.Kind, due: due, sent: time.Now()}
	switch r.Kind {
	case "mincost":
		var res *solveWire
		res, s.err = c.srv.minCost(h, h.Tau)
		s.stats = &res.Stats
	case "maxhit":
		var res *solveWire
		res, s.err = c.srv.maxHit(h)
		s.stats = &res.Stats
	case "evaluate":
		base := c.answers[r.Hot].minCost.Strategy
		strategy := make(iq.Vector, len(base))
		for k := range base {
			strategy[k] = base[k] * r.Scale
		}
		var res struct{ Hits int }
		_, s.err = c.srv.call("POST", "/v1/evaluate", map[string]any{"target": h.Target, "strategy": strategy}, &res)
		if s.err == nil && (res.Hits < 0 || res.Hits > serve.shape.Queries) {
			s.err = fmt.Errorf("evaluate target %d: %d hits", h.Target, res.Hits)
		}
	case "topk":
		var res struct{ IDs []int }
		_, s.err = c.srv.call("POST", "/v1/topk", queryWire{K: r.Query.K, Point: r.Query.Point}, &res)
		if s.err == nil {
			s.err = checkTopK(res.IDs, r.Query.K, serve.shape.Objects)
		}
	case "commit":
		c.commitMu.Lock()
		var res struct{ Hits int }
		_, s.err = c.srv.call("POST", "/v1/commit", map[string]any{"target": r.Object, "strategy": r.Strategy}, &res)
		if s.err == nil {
			c.acked = append(c.acked, ackedCommit{target: r.Object, strategy: r.Strategy, hits: res.Hits})
		}
		c.commitMu.Unlock()
	}
	s.end = time.Now()
	c.record(rec, s)
	if r.Kind == "commit" && s.err == nil {
		// The re-query is due the moment the commit is acknowledged.
		q := sample{kind: "requery", due: s.end, sent: time.Now(), cycle: s.due}
		var res *solveWire
		res, q.err = c.srv.minCost(h, h.Tau)
		q.stats = &res.Stats
		q.end = time.Now()
		c.record(rec, q)
	}
}

// record keeps a sample and, when traced, its spans: the request from due
// to answer, split into the wait for a free connection and the HTTP round
// trip. The solve time the server reports with its answer feeds
// iqserver.overhead_p50_us rather than a span, since its start is unknown.
func (c *client) record(rec *recorder, s sample) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.samples = append(c.samples, s)
	if rec == nil {
		return
	}
	root := rec.add("request."+s.kind, 0, s.due, s.end)
	rec.add("client.queue", root, s.due, s.sent)
	rec.add("http."+s.kind, root, s.sent, s.end)
	c.traced = append(c.traced, len(c.samples)-1)
}

// capacity sends sched closed loop and returns the requests answered per
// second and the time taken. Its requests count as operations and are
// checked like the timed ones, but stay out of the timed samples and spans.
func (c *client) capacity(lg *ledger, sched []request, conns int) (perSec float64, elapsed time.Duration) {
	timed, traced, rec := c.samples, c.traced, c.rec
	c.samples, c.traced, c.rec = nil, nil, nil
	elapsed = c.run(sched, conns, false)
	served := 0
	for _, s := range c.samples {
		if lg.attempt("capacity."+s.kind, s.err) {
			served++
		}
	}
	c.samples, c.traced, c.rec = timed, traced, rec
	return float64(served) / elapsed.Seconds(), elapsed
}

func checkTopK(ids []int, k, n int) error {
	if len(ids) != k {
		return fmt.Errorf("topk: %d ids for k=%d", len(ids), k)
	}
	seen := map[int]bool{}
	for _, id := range ids {
		if id < 0 || id >= n || seen[id] {
			return fmt.Errorf("topk: bad id list %v", ids)
		}
		seen[id] = true
	}
	return nil
}

// runServe runs serve-mixed: three timed set-ups (the last server stays up),
// the open-loop schedule, the closed-loop capacity phase, then the checks
// against an in-process twin.
func runServe(ctx context.Context, cfg runConfig) (*outcome, error) {
	if cfg.serverBin == "" {
		return nil, errors.New("serve-mixed needs --server-bin")
	}
	w := newServeWork()
	lg := newLedger()
	runDir, err := os.MkdirTemp(cfg.workDir, "serve-")
	if err != nil {
		return nil, err
	}
	conns := runtime.NumCPU()
	load, err := json.Marshal(loadBody(w.data))
	if err != nil {
		return nil, err
	}

	var srv *serverProc
	var answers []hotAnswer
	var setups []float64
	for rep := 0; rep < 3; rep++ {
		if srv != nil {
			srv.stop()
		}
		start := time.Now()
		srv, answers, err = bootAndWarm(cfg, w, filepath.Join(runDir, fmt.Sprintf("data-%d", rep)), load)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer srv.stop()

	sched := serveSchedule(w, cfg.seed, cfg.seconds)
	c := &client{srv: srv, w: w, answers: answers}
	if cfg.trace {
		c.rec = newRecorder()
	}
	before, err := scrape(srv)
	if err != nil {
		return nil, err
	}
	elapsed := c.run(sched, conns, true)
	after, err := scrape(srv)
	if err != nil {
		return nil, err
	}
	rss, err := peakRSSMiB(srv.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}

	lat := map[string][]float64{}
	windows := map[string]map[int][]float64{"read": {}, "commit": {}}
	var lags, overheads, cycles []float64
	var solves []iq.SolveStats
	rejected := 0
	for _, s := range c.samples {
		if !lg.attempt(s.kind, s.err) {
			var he *httpError
			var ue *url.Error
			if errors.As(s.err, &ue) || errors.As(s.err, &he) && (he.status == http.StatusTooManyRequests || he.status >= 500) {
				rejected++
			}
			continue
		}
		lat[s.kind] = append(lat[s.kind], ms(s.latency()))
		if s.kind == "requery" {
			cycles = append(cycles, ms(s.end.Sub(s.cycle)))
		}
		win := int(s.due.Sub(c.start) / tailWindow)
		if s.kind == "commit" {
			windows["commit"][win] = append(windows["commit"][win], ms(s.latency()))
		} else {
			windows["read"][win] = append(windows["read"][win], ms(s.latency()))
		}
		lags = append(lags, ms(s.sent.Sub(s.due)))
		if s.stats != nil {
			solves = append(solves, *s.stats)
			overheads = append(overheads, float64(s.end.Sub(s.sent)-s.stats.Wall)/float64(time.Microsecond))
		}
	}
	var reads []float64
	for _, k := range []string{"mincost", "maxhit", "evaluate", "topk", "requery"} {
		reads = append(reads, lat[k]...)
	}
	offered := float64(len(c.samples)) / elapsed.Seconds()
	var rates, passes []float64
	for i := 0; i < capacityPasses; i++ {
		perSec, took := c.capacity(lg, serveSchedule(w, cfg.seed+1+int64(i), capacityWork), conns)
		rates = append(rates, perSec)
		passes = append(passes, took.Seconds())
	}
	capacity := median(rates)

	out := &outcome{lg: lg, rec: c.rec, metrics: map[string]float64{
		"setup_s":        median(setups),
		"mincost_p50_ms": median(lat["mincost"]),
		"requery_p50_ms": median(lat["requery"]),
		"maxhit_p50_ms":  median(lat["maxhit"]),
		"commit_p50_ms":  median(lat["commit"]),
		"iter_per_min":   60000 / median(cycles),
		"read_p50_ms":    median(reads),
		"rss_peak_mb":    rss,
	}}
	out.record = map[string]any{
		"shape": serve.shape, "data_seed": dataSeed, "server_flags": srv.args[4:], "connections": conns,
		"rate_per_s": serve.rate, "mix": serveMix, "hot_set": w.hot, "hot_set_size": len(w.hot),
		"commit_pool": len(w.commitPool), "scheduled": len(sched), "elapsed_s": elapsed.Seconds(),
		"offered_req_per_s": offered,
		"capacity": map[string]any{
			"req_per_s": capacity, "pass_s": passes, "scheduled_s_per_pass": capacityWork.Seconds(),
			"offered_share": offered / capacity,
		},
		"samples":       map[string]int{"reads": len(reads), "commits": len(lat["commit"]), "cycles": len(cycles)},
		"tail_window_s": tailWindow.Seconds(),
		"windowed_p99_ms": map[string]float64{
			"read": windowedP99(windows["read"]), "commit": windowedP99(windows["commit"]),
		},
		"whole_run_p99_ms": map[string]float64{
			"read": quantile(reads, 0.99), "commit": quantile(lat["commit"], 0.99),
		},
	}

	// Checks: the acknowledged epoch, then an in-process twin that replays
	// the acknowledged commits and must answer every hot goal identically.
	var stats struct{ Epoch int }
	_, err = srv.call("GET", "/v1/stats", nil, &stats)
	if err == nil && stats.Epoch != len(c.acked) {
		err = fmt.Errorf("server epoch %d after %d acknowledged commits", stats.Epoch, len(c.acked))
	}
	lg.attempt("check.epoch", err)
	tw, err := c.checkTwin(ctx, lg)
	if err != nil {
		return nil, err
	}

	// The layer figures are the server's own: SolveStats in its answers and
	// /metrics deltas over the timed phase. It reports no UpdateObject or
	// evaluator-build timing and no intersection count; those come from the
	// twin (run record: twin_replay).
	if cfg.trace {
		layers := solveLayerMetrics(solves)
		delta := func(name string) float64 { return after[name] - before[name] }
		var evalWall time.Duration
		evaluations := 0
		for _, s := range solves {
			evalWall += s.EvalWall
			evaluations += s.Candidates
		}
		builds := delta("iq_evaluator_cache_misses_total") / math.Max(1, float64(len(solves)+len(lat["evaluate"])))
		layers["iqserver.overhead_p50_us"] = median(overheads)
		layers["iqserver.lag_p99_ms"] = quantile(lags, 0.99)
		layers["iqserver.rejected"] = float64(rejected)
		layers["wal.fsync_p50_ms"] = 1000 * histogramQuantile(before, after, "iq_wal_fsync_duration_seconds", 0.5)
		layers["wal.fsyncs_per_commit"] = delta("iq_wal_fsyncs_total") / math.Max(1, float64(len(lat["commit"])))
		layers["subdomain.build_ms"] = 1000 * before["iq_index_build_seconds_sum"] / math.Max(1, before["iq_index_build_seconds_count"])
		layers["subdomain.clone_ms"] = 1000 * delta("iq_index_clone_seconds_sum") / math.Max(1, delta("iq_index_clone_seconds_count"))
		layers["subdomain.update_ms"] = tw.UpdateMS
		layers["subdomain.candidates"] = after["iq_index_candidates"]
		layers["subdomain.subdomains"] = after["iq_index_subdomains"]
		layers["subdomain.intersections"] = float64(tw.Intersections)
		layers["ese.builds"] = builds
		layers["ese.build_ms"] = builds * tw.BuildMS
		layers["ese.hits_us"] = float64(evalWall) / float64(time.Microsecond) / math.Max(1, float64(evaluations))
		layers["trace.overhead_pct"] = c.traceOverhead()
		out.layers = layers
		out.record["twin_replay"] = tw
	}
	srv.stop()
	if lg.ops["check.epoch"].Failed == 0 && lg.ops["check.twin"].Failed == 0 {
		os.RemoveAll(runDir)
	}
	return out, nil
}

// tailWindow is the span of due times over which serve-mixed takes each
// 99th percentile; see windowedP99. The tails go to the run record, not the
// end-to-end metrics: even windowed, they swung by half or more between
// runs of identical work on a shared 2-vCPU host.
const tailWindow = time.Second

// windowedP99 returns the median, over the run's tailWindow-long windows,
// of each window's 99th percentile latency: with about 60 reads or 12
// commits a window, the median of the windows' slowest. A shared host's
// disk or CPU stalls now and then for up to a second; every request due
// meanwhile waits, which is enough to move a whole-run 99th percentile by
// two orders of magnitude in one run and not the next. A stall lands in one
// or two of the thirty windows and leaves this figure alone, while a tail
// present in most windows moves it. The whole-run percentiles are kept in
// the run record.
func windowedP99(byWindow map[int][]float64) float64 {
	var p99s []float64
	for _, xs := range byWindow {
		p99s = append(p99s, quantile(xs, 0.99))
	}
	return median(p99s)
}

func loadBody(d *dataset) map[string]any {
	qs := make([]queryWire, len(d.queries))
	for i, q := range d.queries {
		qs[i] = queryWire{ID: q.ID, K: q.K, Point: q.Point}
	}
	return map[string]any{"objects": d.objects, "queries": qs}
}

// traceOverhead compares the median read latency of traced and untraced
// requests, in percent.
func (c *client) traceOverhead() float64 {
	tracedSet := map[int]bool{}
	for _, i := range c.traced {
		tracedSet[i] = true
	}
	var on, off []float64
	for i, s := range c.samples {
		if s.err != nil || s.kind == "commit" {
			continue
		}
		if tracedSet[i] {
			on = append(on, ms(s.latency()))
		} else {
			off = append(off, ms(s.latency()))
		}
	}
	return 100 * (median(on)/median(off) - 1)
}

// twinFigures are the layer figures the server does not report, timed on
// the twin's snapshots, which match the server's.
type twinFigures struct {
	UpdateMS      float64 `json:"subdomain_update_ms"`
	CloneMS       float64 `json:"subdomain_clone_ms"`
	BuildMS       float64 `json:"ese_build_ms"` // one cold evaluator build of a hot target
	Intersections int     `json:"subdomain_intersections"`
}

// checkTwin replays the acknowledged commits, in order, on an in-process
// System built from the same dataset: each must report the hits the server
// acknowledged, and afterwards every hot goal must get the same answer from
// both. Traced runs also time on the twin's snapshots what the server does
// not time: each commit's index clone and UpdateObject, and a cold
// evaluator build per hot target.
func (c *client) checkTwin(ctx context.Context, lg *ledger) (*twinFigures, error) {
	d := c.w.data
	rec := c.rec
	layers := perKey{}
	replay := func(name string, parent int, fn func() error) {
		var err error
		dur := rec.timed(name, parent, func() { err = fn() })
		if lg.attempt("replay", err) {
			layers.add(name, ms(dur))
		}
	}
	twin, err := iq.NewLinear(d.objects, d.queries)
	if err != nil {
		return nil, err
	}
	for i, a := range c.acked {
		pre := twin.Index()
		root := rec.open("twin.commit", 0)
		h, err := twin.CommitAndCount(a.target, a.strategy)
		if err == nil && h != a.hits {
			err = fmt.Errorf("commit %d on object %d: server acknowledged %d hits, twin counts %d", i, a.target, a.hits, h)
		}
		lg.attempt("check.twin", err)
		if rec != nil {
			w := pre.Workload().Clone()
			var clone *subdomain.Index
			replay("subdomain.clone", root, func() error { clone = pre.CloneCtx(ctx, w); return nil })
			attrs := make(iq.Vector, len(a.strategy))
			for k, x := range w.Attrs(a.target) {
				attrs[k] = x + a.strategy[k]
			}
			replay("subdomain.update", root, func() error { return clone.UpdateObjectCtx(ctx, a.target, attrs) })
		}
		rec.close(root)
	}
	for _, t := range c.w.hot {
		got, err := c.srv.minCost(t, t.Tau)
		if err == nil {
			var want *iq.Result
			want, err = twin.MinCost(iq.MinCostRequest{Target: t.Target, Tau: t.Tau, Cost: iq.L2Cost{}})
			err = sameAnswer("mincost", t, got, want, err)
		}
		lg.attempt("check.twin", err)
		got, err = c.srv.maxHit(t)
		if err == nil {
			var want *iq.Result
			want, err = twin.MaxHit(iq.MaxHitRequest{Target: t.Target, Budget: t.Beta, Cost: iq.L2Cost{}})
			err = sameAnswer("maxhit", t, got, want, err)
		}
		lg.attempt("check.twin", err)
		if rec != nil {
			root := rec.open("twin.ese", 0)
			replay("ese.build", root, func() error { _, err := ese.NewCtx(ctx, twin.Index(), t.Target); return err })
			rec.close(root)
		}
	}
	return &twinFigures{
		UpdateMS: median(layers["subdomain.update"]), CloneMS: median(layers["subdomain.clone"]),
		BuildMS: median(layers["ese.build"]), Intersections: twin.Index().Stats().Intersections,
	}, nil
}

// sameAnswer requires the server's answer to equal the twin's bit for bit.
func sameAnswer(op string, t loopTarget, got *solveWire, want *iq.Result, err error) error {
	if err != nil {
		return err
	}
	same := got.Hits == want.Hits && got.Cost == want.Cost && len(got.Strategy) == len(want.Strategy)
	for i := 0; same && i < len(got.Strategy); i++ {
		same = got.Strategy[i] == want.Strategy[i]
	}
	if !same {
		return fmt.Errorf("%s target %d: server answered hits %d cost %v, twin hits %d cost %v",
			op, t.Target, got.Hits, got.Cost, want.Hits, want.Cost)
	}
	return nil
}

// scrape reads the server's /metrics as series name (with labels) → value.
func scrape(s *serverProc) (map[string]float64, error) {
	body, err := s.call("GET", "/metrics", nil, nil)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err == nil {
			out[line[:i]] = v
		}
	}
	return out, sc.Err()
}

// histogramQuantile estimates quantile q of the observations a Prometheus
// histogram gained between two scrapes, interpolating inside the bucket.
func histogramQuantile(before, after map[string]float64, name string, q float64) float64 {
	type bucket struct{ le, n float64 }
	var bs []bucket
	prefix := name + `_bucket{le="`
	for k, v := range after {
		if !strings.HasPrefix(k, prefix) {
			continue
		}
		le, err := strconv.ParseFloat(strings.TrimSuffix(k[len(prefix):], `"}`), 64)
		if err != nil {
			continue
		}
		bs = append(bs, bucket{le, v - before[k]})
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	if len(bs) == 0 || bs[len(bs)-1].n == 0 {
		return 0
	}
	rank := q * bs[len(bs)-1].n
	lo, prev := 0.0, 0.0
	for _, b := range bs {
		if b.n >= rank {
			if math.IsInf(b.le, 1) {
				return lo
			}
			return lo + (b.le-lo)*(rank-prev)/math.Max(b.n-prev, 1)
		}
		lo, prev = b.le, b.n
	}
	return lo
}
