// Command iqbench regenerates the paper's experimental figures (Section 6)
// and the additional ablation studies. Results print as aligned text tables,
// one per figure panel, mirroring the paper's plot series.
//
// Usage:
//
//	iqbench -list
//	iqbench -exp fig7
//	iqbench -exp all [-full] [-seed 7] [-quiet]
//
// The default configuration is a reduced scale that finishes in minutes and
// preserves every comparison; -full runs the paper's Table 2 scale (hours).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"iq/internal/bench"
)

func main() {
	var (
		exp            = flag.String("exp", "all", "experiment to run (see -list), or 'all'")
		full           = flag.Bool("full", false, "run at the paper's Table 2 scale (hours)")
		seed           = flag.Int64("seed", 1, "random seed")
		list           = flag.Bool("list", false, "list available experiments and exit")
		quiet          = flag.Bool("quiet", false, "suppress progress output")
		sizes          = flag.String("sizes", "", "override the object-count sweep, e.g. 1000,2000,4000")
		iqs            = flag.Int("iqs", 0, "override IQs per test point")
		jsonO          = flag.String("json", "", "write the observability benchmark report (solver ns/op, allocs/op, metrics overhead, stage breakdown) to this path and exit")
		traceO         = flag.String("trace-json", "", "write the tracing-overhead report (solver ns/op with tracing off / enabled-idle / capturing) to this path and exit")
		cacheO         = flag.String("cache-json", "", "write the solve-cache benchmark report (warm-cache vs uncached ns/op, allocs/op, batch throughput) to this path and exit")
		cacheCheck     = flag.Bool("cache-check", false, "run the reduced-scale solve-cache A/B and exit non-zero on an allocation regression (the scripts/benchcheck.sh gate)")
		writeO         = flag.String("write-json", "", "write the write-path benchmark report (post-mutation warm-solve latency and threshold-cache profile, dirty-set vs whole-epoch invalidation, by mutation locality) to this path and exit")
		writeCheck     = flag.Bool("write-check", false, "run the deterministic write-path gate and exit non-zero when a non-overlapping mutation cold-starts the warm path (the scripts/benchcheck.sh gate)")
		walO           = flag.String("wal-json", "", "write the durability benchmark report (commit ns/op: in-memory vs WAL under each fsync policy, interleaved A/B) to this path and exit")
		walCheck       = flag.Bool("wal-check", false, "run the reduced-scale durability A/B and exit non-zero when -fsync interval commits exceed 110% of the in-memory path (the scripts/benchcheck.sh gate)")
		analyticsO     = flag.String("analytics-json", "", "write the workload-analytics benchmark report (solver ns/op with per-region attribution on/off, metrics on throughout) to this path and exit")
		analyticsCheck = flag.Bool("analytics-check", false, "run the workload-analytics A/B and exit non-zero when attribution overhead exceeds 2% (the scripts/benchcheck.sh gate)")
		healthO        = flag.String("health-json", "", "write the health-subsystem benchmark report (solver ns/op with the history sampler + SLO evaluator live vs disabled) to this path and exit")
		healthCheck    = flag.Bool("health-check", false, "run the health-subsystem A/B and exit non-zero when its overhead exceeds 2% (the scripts/benchcheck.sh gate)")
		trend          = flag.Bool("trend", false, "print the cross-PR BENCH_PR*.json performance trajectory and exit non-zero when the newest ledger regresses >10% against the best known same-keyed value")
		trendDir       = flag.String("trend-dir", ".", "directory holding the BENCH_PR*.json ledgers for -trend")
	)
	flag.Parse()

	if *jsonO != "" {
		if err := runObsBench(*jsonO, *seed); err != nil {
			fmt.Fprintf(os.Stderr, "iqbench: -json: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *traceO != "" {
		if err := runTraceBench(*traceO, *seed); err != nil {
			fmt.Fprintf(os.Stderr, "iqbench: -trace-json: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *cacheO != "" {
		if err := runCacheBench(*cacheO, *seed); err != nil {
			fmt.Fprintf(os.Stderr, "iqbench: -cache-json: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *cacheCheck {
		if err := runCacheCheck(*seed); err != nil {
			fmt.Fprintf(os.Stderr, "iqbench: -cache-check: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *writeO != "" {
		if err := runWriteBench(*writeO, *seed); err != nil {
			fmt.Fprintf(os.Stderr, "iqbench: -write-json: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *writeCheck {
		if err := runWriteCheck(*seed); err != nil {
			fmt.Fprintf(os.Stderr, "iqbench: -write-check: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *walO != "" {
		if err := runWALBench(*walO, *seed); err != nil {
			fmt.Fprintf(os.Stderr, "iqbench: -wal-json: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *walCheck {
		if err := runWALCheck(*seed); err != nil {
			fmt.Fprintf(os.Stderr, "iqbench: -wal-check: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *analyticsO != "" {
		if err := runAnalyticsBench(*analyticsO, *seed); err != nil {
			fmt.Fprintf(os.Stderr, "iqbench: -analytics-json: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *analyticsCheck {
		if err := runAnalyticsCheck(*seed); err != nil {
			fmt.Fprintf(os.Stderr, "iqbench: -analytics-check: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *healthO != "" {
		if err := runHealthBench(*healthO, *seed); err != nil {
			fmt.Fprintf(os.Stderr, "iqbench: -health-json: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *healthCheck {
		if err := runHealthCheck(*seed); err != nil {
			fmt.Fprintf(os.Stderr, "iqbench: -health-check: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *trend {
		if err := runTrend(*trendDir); err != nil {
			fmt.Fprintf(os.Stderr, "iqbench: -trend: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *list {
		fmt.Println("available experiments:")
		for _, name := range bench.Names() {
			fmt.Printf("  %s\n", name)
		}
		return
	}

	cfg := bench.Quick()
	if *full {
		cfg = bench.PaperScale()
	}
	cfg.Seed = *seed
	if *sizes != "" {
		var override []int
		for _, part := range strings.Split(*sizes, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || n < 1 {
				fmt.Fprintf(os.Stderr, "iqbench: bad -sizes entry %q\n", part)
				os.Exit(2)
			}
			override = append(override, n)
		}
		cfg.ObjectSizes = override
	}
	if *iqs > 0 {
		cfg.IQsPerPoint = *iqs
	}

	var names []string
	if *exp == "all" {
		names = bench.Names()
	} else {
		for _, name := range strings.Split(*exp, ",") {
			name = strings.TrimSpace(name)
			if _, ok := bench.Registry[name]; !ok {
				fmt.Fprintf(os.Stderr, "iqbench: unknown experiment %q (use -list)\n", name)
				os.Exit(2)
			}
			names = append(names, name)
		}
	}

	var progress io.Writer = os.Stderr
	if *quiet {
		progress = nil
	}
	for _, name := range names {
		start := time.Now()
		fig, err := bench.Registry[name](cfg, progress)
		if err != nil {
			fmt.Fprintf(os.Stderr, "iqbench: %s: %v\n", name, err)
			os.Exit(1)
		}
		bench.Print(os.Stdout, fig)
		if !*quiet {
			fmt.Fprintf(os.Stderr, "%s finished in %v\n", name, time.Since(start).Round(time.Millisecond))
		}
	}
}
