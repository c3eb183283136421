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
		exp   = flag.String("exp", "all", "experiment to run (see -list), or 'all'")
		full  = flag.Bool("full", false, "run at the paper's Table 2 scale (hours)")
		seed  = flag.Int64("seed", 1, "random seed")
		list  = flag.Bool("list", false, "list available experiments and exit")
		quiet = flag.Bool("quiet", false, "suppress progress output")
		sizes = flag.String("sizes", "", "override the object-count sweep, e.g. 1000,2000,4000")
		iqs   = flag.Int("iqs", 0, "override IQs per test point")
	)
	flag.Parse()

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
