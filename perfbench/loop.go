package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"time"

	"iq"
	"iq/internal/ese"
	"iq/internal/obs"
	"iq/internal/subdomain"
)

// loopShapes are the in-process improve→commit→re-query workloads.
var loopShapes = map[string]shape{
	"loop-in": {Objects: 1000, Queries: 200, Dim: 3, KMax: 10, ObjDist: "IN", QueryDist: "UN"},
	"loop-ac": {Objects: 300, Queries: 150, Dim: 3, KMax: 10, ObjDist: "AC", QueryDist: "CL", Clusters: 5},
}

const (
	poolSize    = 6  // timed targets per loop workload
	warmSize    = 3  // warm-up targets, disjoint from the pool
	requeryStep = 10 // the re-query asks for τ+requeryStep
)

// loopWork is a loop workload's fixed inputs: the dataset, the timed target
// pool and the warm-up targets, all drawn from dataSeed.
type loopWork struct {
	shape      shape
	data       *dataset
	pool, warm []loopTarget
}

func newLoopWork(s shape) *loopWork {
	d := generate(s, dataSeed)
	rng := rand.New(rand.NewSource(dataSeed + 1))
	taken := map[int]bool{}
	warm := drawTargets(d, rng, warmSize, taken)
	pool := drawTargets(d, rng, poolSize, taken)
	return &loopWork{shape: s, data: d, pool: pool, warm: warm}
}

// loopSequence is the order in which a run visits the pool: one seeded
// permutation per pass. Every pass visits every target, so runs with any
// seed measure the same iterations.
func loopSequence(pool []loopTarget, seed int64, passes int) [][]loopTarget {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]loopTarget, passes)
	for p := range out {
		for _, i := range rng.Perm(len(pool)) {
			out[p] = append(out[p], pool[i])
		}
	}
	return out
}

// maxPasses bounds a run's passes over the pool; time runs out long before.
const maxPasses = 1000

// loopTimes collects one run's timings (ms), each keyed by target.
type loopTimes struct {
	cold, commit, requery, maxhit, iter perKey
}

func newLoopTimes() loopTimes {
	return loopTimes{perKey{}, perKey{}, perKey{}, perKey{}, perKey{}}
}

func (lt loopTimes) add(t loopTarget, it iterTimes) {
	k := t.String()
	lt.cold.add(k, ms(it.cold))
	lt.commit.add(k, ms(it.commit))
	lt.requery.add(k, ms(it.requery))
	lt.maxhit.add(k, ms(it.maxhit))
	lt.iter.add(k, ms(it.total()))
}

// iterTimes is one iteration's System build, its four timed facade calls,
// and the host probe readings (ms) taken between them: before the cold
// Min-Cost, before the commit, before the Max-Hit and after it.
type iterTimes struct {
	build, cold, commit, requery, maxhit time.Duration
	probes                               [4]float64
}

func (t iterTimes) total() time.Duration { return t.cold + t.commit + t.requery + t.maxhit }

// loopRunner runs iterations and accumulates what they report.
type loopRunner struct {
	work   *loopWork
	lg     *ledger
	probe  *probe
	solves []iq.SolveStats
	layers perKey // per-layer replay timings (ms) by layer name
	cands  []subdomain.Stats
	// builds counts the evaluators built by the tracedSolves traced solves.
	builds, tracedSolves float64
}

// iteration runs one improve→commit→re-query→Max-Hit iteration on a fresh
// System built from the base dataset, so every iteration starts from the
// same state and the same caches (none) whatever ran before it. Only the
// build and the four facade calls are timed, with the host probed between
// the calls. With a recorder, each call's layers are replayed afterwards
// on the snapshot the call used, inside child spans.
func (lr *loopRunner) iteration(ctx context.Context, t loopTarget, rec *recorder) (iterTimes, bool) {
	var it iterTimes
	d := lr.work.data
	start := time.Now()
	sys, err := iq.NewLinear(d.objects, d.queries)
	it.build = time.Since(start)
	if !lr.lg.attempt("build", err) {
		return it, false
	}
	// Collect the previous iteration's System now, untimed, so that no
	// iteration pays for another's garbage.
	runtime.GC()
	root := rec.open("loop.iteration", 0)
	defer rec.close(root)
	if rec != nil {
		lr.replay(rec, "subdomain.build", root, func() error {
			idx, err := subdomain.BuildCtx(ctx, sys.Workload(), iq.IndexOptions{})
			if err == nil {
				lr.cands = append(lr.cands, idx.Stats())
			}
			return err
		})
	}

	pre := sys.Index()
	it.probes[0] = lr.probeHost(rec, root)
	var cold *iq.Result
	it.cold = lr.solve(rec, "iq.MinCost", root, func() {
		cold, err = sys.MinCostCtx(ctx, iq.MinCostRequest{Target: t.Target, Tau: t.Tau, Cost: iq.L2Cost{}})
	})
	// This check counts hits on the pre-commit snapshot, whose evaluators
	// the commit retires, so it warms nothing that a later call uses.
	if !lr.lg.attempt("mincost", checkMinCost(sys, t.Target, t.Tau, cold, err)) {
		return it, false
	}
	lr.solves = append(lr.solves, cold.Stats)
	if rec != nil {
		lr.replayESE(ctx, rec, root, pre, t.Target, cold.Strategy)
	}

	it.probes[1] = lr.probeHost(rec, root)
	epoch := sys.Epoch()
	it.commit = rec.timed("iq.Commit", root, func() { err = sys.CommitCtx(ctx, t.Target, cold.Strategy) })
	if !lr.lg.attempt("commit", checkEpoch(sys, epoch, err)) {
		return it, false
	}
	if rec != nil {
		w := pre.Workload().Clone()
		var clone *subdomain.Index
		lr.replay(rec, "subdomain.clone", root, func() error { clone = pre.CloneCtx(ctx, w); return nil })
		attrs := make(iq.Vector, len(cold.Strategy))
		for i, x := range w.Attrs(t.Target) {
			attrs[i] = x + cold.Strategy[i]
		}
		lr.replay(rec, "subdomain.update", root, func() error { return clone.UpdateObjectCtx(ctx, t.Target, attrs) })
	}

	post := sys.Index()
	tau := t.Tau + requeryStep
	var re *iq.Result
	var reErr error
	it.requery = lr.solve(rec, "iq.MinCost.requery", root, func() {
		re, reErr = sys.MinCostCtx(ctx, iq.MinCostRequest{Target: t.Target, Tau: tau, Cost: iq.L2Cost{}})
	})
	if rec != nil && reErr == nil {
		lr.replayESE(ctx, rec, root, post, t.Target, re.Strategy)
	}

	var mh *iq.Result
	it.probes[2] = lr.probeHost(rec, root)
	it.maxhit = lr.solve(rec, "iq.MaxHit", root, func() {
		mh, err = sys.MaxHitCtx(ctx, iq.MaxHitRequest{Target: t.Target, Budget: t.Beta, Cost: iq.L2Cost{}})
	})
	it.probes[3] = lr.probeHost(rec, root)

	// The checks on the committed snapshot run after its timed calls:
	// counting hits there builds or reuses the evaluator that the re-query
	// and the Max-Hit would otherwise build themselves.
	okRe := lr.lg.attempt("requery", checkMinCost(sys, t.Target, tau, re, reErr))
	okMh := lr.lg.attempt("maxhit", checkMaxHit(sys, t.Target, t.Beta, mh, err))
	okHits := lr.lg.attempt("commit.hits", checkCommitHits(sys, t.Target, cold.Hits))
	if !okRe || !okMh || !okHits {
		return it, false
	}
	lr.solves = append(lr.solves, re.Stats, mh.Stats)
	return it, true
}

// probeHost reads the host probe (fastest of two runs) inside a span of
// parent, so traced iterations show its time apart from the calls'.
func (lr *loopRunner) probeHost(rec *recorder, parent int) float64 {
	var v float64
	rec.timed("host.probe", parent, func() { v = lr.probe.time(2) })
	return v
}

// solve times one facade solve inside a span of parent. Traced, it also
// counts the evaluators the solve built, reading the count outside the
// timed interval.
func (lr *loopRunner) solve(rec *recorder, name string, parent int, fn func()) time.Duration {
	if rec == nil {
		return rec.timed(name, parent, fn)
	}
	before := evaluatorBuilds()
	d := rec.timed(name, parent, fn)
	lr.builds += evaluatorBuilds() - before
	lr.tracedSolves++
	return d
}

// evaluatorBuilds reads the engine's count of evaluators built for solves
// and what-ifs: the misses of its evaluator cache, which iqserver exports
// at /metrics under the same name.
func evaluatorBuilds() float64 {
	return obs.Default.Snapshot()["iq_evaluator_cache_misses_total"]
}

// replay times one layer call inside a child span of parent.
func (lr *loopRunner) replay(rec *recorder, layer string, parent int, fn func() error) {
	var err error
	d := rec.timed(layer, parent, func() { err = fn() })
	if lr.lg.attempt("replay", err) {
		lr.layers.add(layer, ms(d))
	}
}

// replayESE builds the target's evaluator on idx and counts the hits of
// strategy with it: the two ESE steps a solve on idx starts from.
func (lr *loopRunner) replayESE(ctx context.Context, rec *recorder, parent int, idx *subdomain.Index, target int, strategy iq.Vector) {
	var ev *ese.Evaluator
	lr.replay(rec, "ese.build", parent, func() error {
		var err error
		ev, err = ese.NewCtx(ctx, idx, target)
		return err
	})
	if ev != nil {
		lr.replay(rec, "ese.hits", parent, func() error { _, err := ev.Hits(strategy); return err })
	}
}

// checkMinCost re-checks a Min-Cost answer: it must reach τ, and the hits
// it reports must be what EvaluateStrategy counts for its strategy.
func checkMinCost(sys *iq.System, target, tau int, r *iq.Result, err error) error {
	if err != nil {
		return err
	}
	if r.Hits < tau {
		return fmt.Errorf("target %d: %d hits below tau %d", target, r.Hits, tau)
	}
	return checkHits(sys, target, r)
}

// checkMaxHit re-checks a Max-Hit answer: its cost stays within β and its
// hits are what EvaluateStrategy counts.
func checkMaxHit(sys *iq.System, target int, beta float64, r *iq.Result, err error) error {
	if err != nil {
		return err
	}
	if r.Cost > beta*(1+1e-9) {
		return fmt.Errorf("target %d: cost %g over budget %g", target, r.Cost, beta)
	}
	return checkHits(sys, target, r)
}

func checkHits(sys *iq.System, target int, r *iq.Result) error {
	h, err := sys.EvaluateStrategy(target, r.Strategy)
	if err != nil {
		return err
	}
	if h != r.Hits {
		return fmt.Errorf("target %d: solver reports %d hits, EvaluateStrategy counts %d", target, r.Hits, h)
	}
	return nil
}

// checkEpoch checks that a commit published exactly one epoch.
func checkEpoch(sys *iq.System, before uint64, err error) error {
	if err != nil {
		return err
	}
	if e := sys.Epoch(); e != before+1 {
		return fmt.Errorf("commit moved epoch %d to %d, want +1", before, e)
	}
	return nil
}

// checkCommitHits checks that the committed target hits what the solve
// promised.
func checkCommitHits(sys *iq.System, target, want int) error {
	h, err := sys.Hits(target)
	if err != nil {
		return err
	}
	if h != want {
		return fmt.Errorf("target %d hits %d after commit, solve promised %d", target, h, want)
	}
	return nil
}

// runLoop runs a loop workload: set-up repeated three times (a System
// build plus one warm-up iteration on a warm-up target; setup_s is the
// median of their build and call times), then passes over the pool until
// the time is up.
func runLoop(ctx context.Context, name string, cfg runConfig) (*outcome, error) {
	work := newLoopWork(loopShapes[name])
	lg := newLedger()
	lr := &loopRunner{work: work, lg: lg, probe: newProbe(), layers: perKey{}}
	out := &outcome{lg: lg, record: map[string]any{
		"shape": work.shape, "data_seed": dataSeed, "pool": work.pool, "warm_up": work.warm,
		"requery_step": requeryStep,
	}}

	var setups, probes []float64
	for i, w := range loopSequence(work.warm, cfg.seed+1, 1)[0] {
		it, ok := lr.iteration(ctx, w, nil)
		if !ok {
			return nil, fmt.Errorf("warm-up iteration %d on %s failed: %v", i, w, lg.failures)
		}
		setups = append(setups, (it.build + it.total()).Seconds())
		probes = append(probes, it.probes[:]...)
	}
	lr.solves = nil

	untraced, traced := newLoopTimes(), newLoopTimes()
	var rec *recorder
	if cfg.trace {
		rec = newRecorder()
	}
	seq := loopSequence(work.pool, cfg.seed, maxPasses)
	start := time.Now()
	passes := 0
	for ; passes < maxPasses && time.Since(start) < cfg.seconds; passes++ {
		for j, t := range seq[passes] {
			if time.Since(start) >= cfg.seconds {
				break
			}
			// Traced runs alternate traced and untraced iterations, flipping
			// every pass, so each target is measured both ways.
			var r *recorder
			if cfg.trace && (j+passes)%2 == 0 {
				r = rec
			}
			it, ok := lr.iteration(ctx, t, r)
			if !ok {
				continue
			}
			probes = append(probes, it.probes[:]...)
			if r != nil {
				traced.add(t, it)
			} else {
				untraced.add(t, it)
			}
		}
	}
	out.record["passes"] = passes
	iterations := 0
	for _, xs := range untraced.iter {
		iterations += len(xs)
	}
	for _, xs := range traced.iter {
		iterations += len(xs)
	}
	out.record["iterations"] = iterations
	rss, err := peakRSSMiB(os.Getpid())
	if err != nil {
		return nil, err
	}

	scale := probeRefMS / mean(probes)
	out.metrics = untraced.metrics(scale)
	out.metrics["setup_s"] = median(setups) * scale
	out.metrics["rss_peak_mb"] = rss
	raw := untraced.metrics(1)
	raw["setup_s"] = median(setups)
	out.record["host_probe_ms"] = map[string]any{
		"ref": probeRefMS, "readings": len(probes), "min": slices.Min(probes), "median": median(probes), "mean": mean(probes), "max": slices.Max(probes),
	}
	out.record["unscaled_end_to_end"] = raw
	if rec != nil {
		out.rec = rec
		out.layers = lr.layerMetrics()
		out.layers["trace.overhead_pct"] = overheadPct(traced.iter, untraced.iter)
		out.record["traced_end_to_end"] = traced.metrics(scale)
	}
	return out, nil
}

// metrics reduces the timings to the end-to-end metrics, with every time
// multiplied by scale (see probeRefMS). Each target's repeats reduce to
// their mean; a latency is then the geometric mean over the pool's
// targets, the typical target's time. The pool's times for one call span
// two orders of magnitude (Max-Hit: 2 ms to 500 ms), so a median over six
// targets would average the third and fourth across that gap and swing
// with either one; the geometric mean weighs every target's relative
// change alike.
func (lt loopTimes) metrics(scale float64) map[string]float64 {
	reads := append(append(lt.cold.means(), lt.requery.means()...), lt.maxhit.means()...)
	perMin := 0.0
	if it := mean(lt.iter.means()); it > 0 {
		perMin = 60000 / (it * scale)
	}
	return map[string]float64{
		"mincost_p50_ms": geomean(lt.cold.means()) * scale,
		"requery_p50_ms": geomean(lt.requery.means()) * scale,
		"maxhit_p50_ms":  geomean(lt.maxhit.means()) * scale,
		"commit_p50_ms":  geomean(lt.commit.means()) * scale,
		"iter_per_min":   perMin,
		"read_p50_ms":    geomean(reads) * scale,
	}
}

// overheadPct compares traced and untraced iteration times of the targets
// measured both ways, in percent.
func overheadPct(traced, untraced perKey) float64 {
	var on, off float64
	for k, xs := range traced {
		if ys, ok := untraced[k]; ok {
			on += mean(xs)
			off += mean(ys)
		}
	}
	if off == 0 {
		return 0
	}
	return 100 * (on/off - 1)
}

// layerMetrics turns the replay timings and solve statistics of a traced
// run into the per-layer metrics. The loops bypass HTTP and the WAL, so
// those layers read zero.
func (lr *loopRunner) layerMetrics() map[string]float64 {
	m := solveLayerMetrics(lr.solves)
	m["subdomain.build_ms"] = median(lr.layers["subdomain.build"])
	m["subdomain.clone_ms"] = median(lr.layers["subdomain.clone"])
	m["subdomain.update_ms"] = median(lr.layers["subdomain.update"])
	builds := lr.builds / math.Max(1, lr.tracedSolves)
	m["ese.builds"] = builds
	m["ese.build_ms"] = builds * median(lr.layers["ese.build"])
	m["ese.hits_us"] = 1000 * median(lr.layers["ese.hits"])
	if len(lr.cands) > 0 {
		st := lr.cands[0]
		m["subdomain.candidates"] = float64(st.Candidates)
		m["subdomain.subdomains"] = float64(st.Subdomains)
		m["subdomain.intersections"] = float64(st.Intersections)
	}
	for _, k := range []string{"iqserver.overhead_p50_us", "iqserver.lag_p99_ms", "iqserver.rejected", "wal.fsync_p50_ms", "wal.fsyncs_per_commit"} {
		m[k] = 0
	}
	return m
}

// solveLayerMetrics derives the core.* metrics from the SolveStats the
// solves returned.
func solveLayerMetrics(solves []iq.SolveStats) map[string]float64 {
	var rounds, probes, cands []float64
	var wall, eval, solveHit time.Duration
	hits, misses, warm := 0, 0, 0
	for _, s := range solves {
		rounds = append(rounds, float64(s.Rounds))
		probes = append(probes, float64(s.Probes))
		cands = append(cands, float64(s.Candidates))
		wall += s.Wall
		eval += s.EvalWall
		solveHit += s.SolveHitWall
		hits += s.ThresholdCacheHits
		misses += s.ThresholdCacheMisses
		if s.ThresholdCacheMisses == 0 {
			warm++
		}
	}
	share := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	return map[string]float64{
		"core.rounds":              median(rounds),
		"core.probes":              median(probes),
		"core.candidates":          median(cands),
		"core.eval_share":          share(float64(eval), float64(wall)),
		"core.solvehit_share":      share(float64(solveHit), float64(wall)),
		"core.threshold_hit_ratio": share(float64(hits), float64(hits+misses)),
		"core.threshold_lookups":   float64(hits + misses),
		"core.warm_share":          share(float64(warm), float64(len(solves))),
		"core.solves":              float64(len(solves)),
	}
}
