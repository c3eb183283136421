// Command perfbench is the repository's benchmark. It runs one named
// workload against the engine, checks every answer, and prints the run's
// metrics as the last line of its output:
//
//	perfbench --workload loop-in --seed 1 --seconds 30 --trace 0
//
// Workloads:
//
//	loop-in      the paper's improve→commit→re-query loop on IN×UN data, in process
//	loop-ac      the same loop on AC×CL data, whose skyband is nearly every object
//	serve-mixed  an open-loop mixed read/commit schedule against a live iqserver
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the same work with
// a span recorder and prints the per-layer metrics instead. BENCHMARK.json
// at the repository root lists both sets. run.sh builds this command and
// iqserver from source and runs it.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"iq"
)

// metricDef is one metric's name, unit and direction, as BENCHMARK.json
// declares it.
type metricDef struct {
	Name   string
	Unit   string
	Better string
}

// endToEnd are printed by untraced runs, on every workload. Some belong to
// one side and restate other figures on the other: on the loops,
// read_p50_ms pools the targets' Min-Cost, re-query and Max-Hit times; on
// serve-mixed, requery_p50_ms is the Min-Cost each acknowledged commit
// triggers and iter_per_min is 60000 over the median commit→re-query cycle
// (commit due to re-query answered), the rate of one caller that waits for
// each reply. The loops report their times at a reference host speed (see
// probeRefMS and loopTimes.metrics); serve-mixed reports them as measured.
// serve-mixed's 99th percentiles are in its run record only (see
// tailWindow).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"mincost_p50_ms", "ms", "lower"},
	{"requery_p50_ms", "ms", "lower"},
	{"maxhit_p50_ms", "ms", "lower"},
	{"commit_p50_ms", "ms", "lower"},
	{"iter_per_min", "1/min", "higher"},
	{"read_p50_ms", "ms", "lower"},
	{"rss_peak_mb", "MiB", "lower"},
}

// perLayer are printed by traced runs, on every workload. A layer a
// workload bypasses reads 0. Each comment names the end-to-end metric the
// layer metric should move, and on which workload. On serve-mixed each
// figure is the server's own, from its answers and /metrics, except
// subdomain.update_ms, subdomain.intersections and the price of one
// evaluator build in ese.build_ms: the server does not report those, and
// the twin times them on identical snapshots.
var perLayer = []metricDef{
	{"iqserver.overhead_p50_us", "us", "lower"}, // client latency minus the server's stats.wall_ns: read_p50_ms, mincost_p50_ms on serve-mixed
	{"iqserver.lag_p99_ms", "ms", "lower"},      // how late requests were sent: read_p50_ms and the run record's tails on serve-mixed
	{"iqserver.rejected", "count", "lower"},     // 429s, 5xx and transport errors: attempted/failed on serve-mixed
	{"wal.fsync_p50_ms", "ms", "lower"},         // /metrics delta: commit_p50_ms on serve-mixed
	{"wal.fsyncs_per_commit", "ratio", "lower"}, // /metrics delta: commit_p50_ms on serve-mixed
	{"subdomain.build_ms", "ms", "lower"},       // BuildCtx: setup_s on every workload
	{"subdomain.clone_ms", "ms", "lower"},       // Index.CloneCtx: commit_p50_ms on every workload
	{"subdomain.update_ms", "ms", "lower"},      // UpdateObjectCtx: commit_p50_ms on every workload
	{"subdomain.candidates", "count", "lower"},  // IndexStats: why loop-ac differs from loop-in
	{"subdomain.subdomains", "count", "lower"},
	{"subdomain.intersections", "count", "lower"},
	{"ese.builds", "count", "lower"},                // evaluators built per solve (evaluator-cache misses): mincost_p50_ms, requery_p50_ms on the loops; about 0 on serve-mixed
	{"ese.build_ms", "ms", "lower"},                 // ese.builds × one cold ese.NewCtx: the same
	{"ese.hits_us", "us", "lower"},                  // loops: first Evaluator.Hits on the final strategy; serve-mixed: the server's EvalWall per evaluation
	{"core.rounds", "count", "lower"},               // per solve, from SolveStats: the loops' solve metrics
	{"core.probes", "count", "lower"},               // per solve
	{"core.candidates", "count", "lower"},           // per solve
	{"core.eval_share", "ratio", "lower"},           // EvalWall/Wall: the loops' solve metrics
	{"core.solvehit_share", "ratio", "lower"},       // SolveHitWall/Wall: the loops' solve metrics
	{"core.threshold_hit_ratio", "ratio", "higher"}, // requery_p50_ms on the loops, read_p50_ms on serve-mixed
	{"core.threshold_lookups", "count", "lower"},    // the base of the ratio above
	{"core.warm_share", "ratio", "higher"},          // solves with no threshold miss: read_p50_ms on serve-mixed
	{"core.solves", "count", "higher"},              // the base of the core.* metrics
	{"trace.overhead_pct", "%", "lower"},            // traced minus untraced operations, same run
}

// runConfig is one invocation's settings.
type runConfig struct {
	workload  string
	seed      int64
	seconds   time.Duration
	trace     bool
	serverBin string
	workDir   string
}

// outcome is what a workload hands back for printing.
type outcome struct {
	lg      *ledger
	metrics map[string]float64 // end to end
	layers  map[string]float64 // per layer (traced runs)
	record  map[string]any     // workload-specific run record entries
	rec     *recorder
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var cfg runConfig
	var seconds, trace int
	flag.StringVar(&cfg.workload, "workload", "", "loop-in, loop-ac or serve-mixed")
	flag.Int64Var(&cfg.seed, "seed", 1, "orders the workload's operations")
	flag.IntVar(&seconds, "seconds", 30, "how long the timed phase runs")
	flag.IntVar(&trace, "trace", 0, "1 records spans and prints the per-layer metrics")
	flag.StringVar(&cfg.serverBin, "server-bin", "", "iqserver binary (serve-mixed)")
	flag.StringVar(&cfg.workDir, "work-dir", ".bench_build/perfbench", "scratch directory for server data, logs and spans")
	flag.Parse()
	cfg.seconds = time.Duration(seconds) * time.Second
	cfg.trace = trace == 1
	if seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	res, err := run(context.Background(), cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
	if !res.Correct {
		os.Exit(1)
	}
}

// run executes the workload, prints its run record and returns the result
// line.
func run(ctx context.Context, cfg runConfig) (*result, error) {
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return nil, err
	}
	var out *outcome
	var err error
	switch {
	case loopShapes[cfg.workload].Objects > 0:
		out, err = runLoop(ctx, cfg.workload, cfg)
	case cfg.workload == "serve-mixed":
		out, err = runServe(ctx, cfg)
	default:
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if err != nil {
		return nil, err
	}
	defs, values := endToEnd, out.metrics
	if cfg.trace {
		defs, values = perLayer, out.layers
	}
	res := &result{Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			return nil, fmt.Errorf("workload %s did not measure %s", cfg.workload, d.Name)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	res.Attempted, res.Failed = out.lg.totals()
	res.Correct = res.Failed == 0 && res.Attempted > 0

	record := runRecord(cfg)
	for k, v := range out.record {
		record[k] = v
	}
	record["ops"] = out.lg.ops
	if len(out.lg.failures) > 0 {
		record["failures"] = out.lg.failures
	}
	if cfg.trace {
		record["end_to_end"] = out.metrics
	}
	if out.rec != nil {
		path := filepath.Join(cfg.workDir, fmt.Sprintf("spans-%s-seed%d.json", cfg.workload, cfg.seed))
		if err := out.rec.write(path); err != nil {
			return nil, err
		}
		record["spans_file"] = path
		record["spans"] = out.rec.summary()
	}
	b, err := json.Marshal(record)
	if err != nil {
		return nil, err
	}
	fmt.Println("run_record", string(b))
	return res, nil
}

// runRecord describes the machine and build a run measured.
func runRecord(cfg runConfig) map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return map[string]any{
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds.Seconds(),
		"trace":      cfg.trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"iq_version": iq.Version,
		"git_commit": commit,
	}
}
