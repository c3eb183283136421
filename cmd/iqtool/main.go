package main

import (
	"flag"
	"fmt"
	"os"
	"time"
)

func main() {
	seed := flag.Int64("seed", 1, "random seed for generated workloads")
	scrapeWait := flag.Duration("scrape-timeout", 15*time.Second,
		"how long -crash-drive waits for the server to answer and -crash-verify waits for it to finish recovery")
	traceOut := flag.String("trace", "",
		"run a demo Min-Cost solve under a trace, write Perfetto-loadable trace_event JSON to this file, and exit")
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
	flag.Parse()
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
	if *traceOut != "" {
		if err := traceLocal(*traceOut, *seed); err != nil {
			fmt.Fprintf(os.Stderr, "iqtool: trace: %v\n", err)
			os.Exit(1)
		}
		return
	}
	run(os.Stdin, os.Stdout, *seed)
}
