package main

import (
	"flag"
	"fmt"
	"os"
	"time"
)

func main() {
	seed := flag.Int64("seed", 1, "random seed for generated workloads")
	scrapeURL := flag.String("scrape-metrics", "",
		"fetch this /metrics URL (retrying until the server is up), validate the Prometheus exposition, and exit")
	scrapeWait := flag.Duration("scrape-timeout", 15*time.Second,
		"how long -scrape-metrics keeps retrying before giving up")
	traceOut := flag.String("trace", "",
		"run a demo Min-Cost solve under a trace, write Perfetto-loadable trace_event JSON to this file, and exit")
	traceSrv := flag.String("trace-server", "",
		"drive a live iqserver at this base URL: load a demo dataset, capture a traced solve, download and validate it from /debug/traces")
	walDumpDir := flag.String("wal-dump", "",
		"print every WAL record in this data directory (epoch, op, payload size, CRC status) and exit")
	walVerifyDir := flag.String("wal-verify", "",
		"verify every WAL segment in this data directory; exit nonzero on any corruption")
	crashDriveURL := flag.String("crash-drive", "",
		"load the demo dataset into the iqserver at this base URL, apply a deterministic history, and print the reference {epoch, solve} JSON (scripts/crashcheck.sh)")
	crashSprayURL := flag.String("crash-spray", "",
		"commit solve-neutral mutations against this iqserver until it dies, recording acknowledged epochs to -crash-state")
	crashVerifyURL := flag.String("crash-verify", "",
		"wait for the restarted iqserver at this base URL to finish recovery and assert the epoch and solve from -crash-ref / -crash-state survived")
	crashRef := flag.String("crash-ref", "crash-ref.json",
		"reference JSON written by -crash-drive and read by -crash-verify")
	crashStateFile := flag.String("crash-state", "crash-acked.txt",
		"acknowledged-epoch log written by -crash-spray and read by -crash-verify")
	crashFar := flag.Int("crash-far", 0, "far-object id for -crash-spray (from -crash-drive output)")
	watchURL := flag.String("watch", "",
		"poll this iqserver base URL and redraw a terminal health dashboard (SLO posture + history sparklines)")
	watchInterval := flag.Duration("watch-interval", 2*time.Second, "refresh period for -watch")
	watchCount := flag.Int("watch-count", 0, "number of -watch frames to draw before exiting (0 = forever)")
	healthDriveURL := flag.String("health-drive", "",
		"load the demo dataset into the iqserver at this base URL, drive solves until a burn-rate alert fires, and print the reference JSON (scripts/healthcheck.sh)")
	healthVerifyURL := flag.String("health-verify", "",
		"assert the restarted iqserver at this base URL still serves the pre-kill telemetry history from -health-ref")
	healthRefFile := flag.String("health-ref", "health-ref.json",
		"reference JSON written by -health-drive and read by -health-verify")
	analyze := flag.Bool("analyze", false,
		"drive a skewed demo workload in-process and print the per-region workload report")
	analyzeSrv := flag.String("analyze-server", "",
		"drive a live iqserver at this base URL with the skewed demo, then fetch and validate /v1/stats/workload (scripts/analyzecheck.sh)")
	flag.Parse()
	if *watchURL != "" {
		if err := healthWatch(os.Stdout, *watchURL, *watchInterval, *watchCount, *scrapeWait); err != nil {
			fmt.Fprintf(os.Stderr, "iqtool: watch %s: %v\n", *watchURL, err)
			os.Exit(1)
		}
		return
	}
	if *healthDriveURL != "" {
		if err := healthDrive(os.Stdout, *healthDriveURL, *seed, *scrapeWait); err != nil {
			fmt.Fprintf(os.Stderr, "iqtool: health-drive: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *healthVerifyURL != "" {
		if err := healthVerify(*healthVerifyURL, *healthRefFile, *scrapeWait); err != nil {
			fmt.Fprintf(os.Stderr, "iqtool: health-verify: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *analyzeSrv != "" {
		if err := analyzeServer(os.Stdout, *analyzeSrv, *seed, *scrapeWait); err != nil {
			fmt.Fprintf(os.Stderr, "iqtool: analyze-server %s: %v\n", *analyzeSrv, err)
			os.Exit(1)
		}
		return
	}
	if *analyze {
		if err := analyzeLocal(os.Stdout, *seed); err != nil {
			fmt.Fprintf(os.Stderr, "iqtool: analyze: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *crashDriveURL != "" {
		if err := crashDrive(os.Stdout, *crashDriveURL, *seed, *scrapeWait); err != nil {
			fmt.Fprintf(os.Stderr, "iqtool: crash-drive: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *crashSprayURL != "" {
		if err := crashSpray(*crashSprayURL, *crashStateFile, *crashFar); err != nil {
			fmt.Fprintf(os.Stderr, "iqtool: crash-spray: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *crashVerifyURL != "" {
		if err := crashVerify(*crashVerifyURL, *crashRef, *crashStateFile, *scrapeWait); err != nil {
			fmt.Fprintf(os.Stderr, "iqtool: crash-verify: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *walDumpDir != "" {
		if err := walDump(os.Stdout, *walDumpDir); err != nil {
			fmt.Fprintf(os.Stderr, "iqtool: wal-dump %s: %v\n", *walDumpDir, err)
			os.Exit(1)
		}
		return
	}
	if *walVerifyDir != "" {
		if err := walVerify(os.Stdout, *walVerifyDir); err != nil {
			fmt.Fprintf(os.Stderr, "iqtool: wal-verify %s: %v\n", *walVerifyDir, err)
			os.Exit(1)
		}
		return
	}
	if *scrapeURL != "" {
		n, err := scrapeMetrics(*scrapeURL, *scrapeWait)
		if err != nil {
			fmt.Fprintf(os.Stderr, "iqtool: scrape %s: %v\n", *scrapeURL, err)
			os.Exit(1)
		}
		fmt.Printf("scraped %s: %d series, exposition valid\n", *scrapeURL, n)
		return
	}
	if *traceSrv != "" {
		out := *traceOut
		if out == "" {
			out = "server.trace.json"
		}
		if err := traceServer(*traceSrv, out, *seed, *scrapeWait); err != nil {
			fmt.Fprintf(os.Stderr, "iqtool: trace-server %s: %v\n", *traceSrv, err)
			os.Exit(1)
		}
		return
	}
	if *traceOut != "" {
		if err := traceLocal(*traceOut, *seed); err != nil {
			fmt.Fprintf(os.Stderr, "iqtool: trace: %v\n", err)
			os.Exit(1)
		}
		return
	}
	run(os.Stdin, os.Stdout, *seed)
}
