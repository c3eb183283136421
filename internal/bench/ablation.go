package bench

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"time"

	"iq/internal/baseline"
	"iq/internal/dataset"
	"iq/internal/ese"
	"iq/internal/rta"
	"iq/internal/subdomain"
	"iq/internal/vec"
)

// Ablation studies for the design choices DESIGN.md calls out. These go
// beyond the paper's own figures: they quantify how much each index
// ingredient contributes.

// AblationFanout measures indexing time — the skyband, the rows and
// Algorithm 1's partition — and the time of one ESE hit count across
// R-tree fan-outs. ESE's affected-subspace searches are the tree's only
// reader, so every fan-out evaluates the same strategies for the same
// targets.
func AblationFanout(cfg Config, progress io.Writer) (*Figure, error) {
	rng := rand.New(rand.NewSource(cfg.Seed + 40))
	fig := &Figure{ID: "ablation-fanout", Title: "Ablation: R-tree fan-out"}
	buildPanel := Panel{Title: "(a) Indexing time", XLabel: "fan-out", YLabel: "seconds"}
	evalPanel := Panel{Title: "(b) Time per H(p+s) evaluation", XLabel: "fan-out", YLabel: "ms"}

	objs := dataset.Objects(dataset.Independent, cfg.DefaultObjects, cfg.Dim, rng)
	queries := dataset.UNQueries(cfg.DefaultQueries, cfg.Dim, cfg.KMax, false, rng)
	targets := make([]int, cfg.IQsPerPoint)
	for i := range targets {
		targets[i] = rng.Intn(len(objs))
	}
	strategies := drawStrategies(rng, 60, cfg.Dim)
	for _, fanout := range []int{4, 8, 16, 32, 64} {
		w, err := buildLinearWorkload(objs, queries)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		idx, err := subdomain.BuildCtx(context.Background(), w, subdomain.Options{})
		if err != nil {
			return nil, err
		}
		part := subdomain.NewPartition(context.Background(), idx, subdomain.PartitionOptions{TreeFanout: fanout})
		buildPanel.addPoint("Efficient-IQ", float64(fanout), time.Since(start).Seconds())

		var total time.Duration
		count := 0
		for _, target := range targets {
			ev, err := ese.New(part, target)
			if err != nil {
				return nil, err
			}
			evalStart := time.Now()
			for _, s := range strategies {
				if _, err := ev.Hits(s); err != nil {
					return nil, err
				}
			}
			total += time.Since(evalStart)
			count += len(strategies)
		}
		if count > 0 {
			evalPanel.addPoint("ESE", float64(fanout), float64(total.Microseconds())/1000/float64(count))
		}
		if progress != nil {
			fmt.Fprintf(progress, "ablation-fanout: %d done\n", fanout)
		}
	}
	fig.Panels = []Panel{buildPanel, evalPanel}
	return fig, nil
}

// drawStrategies draws n improvement strategies in dim attributes whose
// scales span tiny tweaks to near-dominating improvements: the paper notes
// RTA "will drop significantly" as H(p+s) grows, so a probe set must cover
// high-hit strategies too.
func drawStrategies(rng *rand.Rand, n, dim int) []vec.Vector {
	strategies := make([]vec.Vector, n)
	for i := range strategies {
		scale := 0.8 * float64(i+1) / float64(n)
		s := make(vec.Vector, dim)
		for d := range s {
			s[d] = -rng.Float64() * scale
		}
		strategies[i] = s
	}
	return strategies
}

// AblationIntersectionCap measures how capping Algorithm 1's intersection
// budget trades indexing time (the split loop) for subdomain count (the
// refinement does more work and result sharing coarsens).
func AblationIntersectionCap(cfg Config, progress io.Writer) (*Figure, error) {
	rng := rand.New(rand.NewSource(cfg.Seed + 41))
	fig := &Figure{ID: "ablation-cap", Title: "Ablation: Algorithm 1 intersection budget"}
	timePanel := Panel{Title: "(a) Indexing time", XLabel: "intersection cap (0=all)", YLabel: "seconds"}
	subPanel := Panel{Title: "(b) Subdomains", XLabel: "intersection cap (0=all)", YLabel: "count"}

	objs := dataset.Objects(dataset.Independent, cfg.DefaultObjects, cfg.Dim, rng)
	queries := dataset.UNQueries(cfg.DefaultQueries, cfg.Dim, cfg.KMax, false, rng)
	for _, cap := range []int{1, 16, 64, 256, 0} {
		w, err := buildLinearWorkload(objs, queries)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		idx, err := subdomain.BuildCtx(context.Background(), w, subdomain.Options{})
		if err != nil {
			return nil, err
		}
		subs := subdomain.NewPartition(context.Background(), idx, subdomain.PartitionOptions{MaxIntersections: cap}).NumSubdomains()
		x := float64(cap)
		timePanel.addPoint("Efficient-IQ", x, time.Since(start).Seconds())
		subPanel.addPoint("Efficient-IQ", x, float64(subs))
		if progress != nil {
			fmt.Fprintf(progress, "ablation-cap: %d done\n", cap)
		}
	}
	fig.Panels = []Panel{timePanel, subPanel}
	return fig, nil
}

// EvaluatorCost isolates the paper's central mechanism claim (Section 4.1):
// computing H(p_i + s) with Efficient Strategy Evaluation versus the Reverse
// top-k Threshold Algorithm versus brute-force re-evaluation, as the object
// count grows. This is the comparison underneath Figures 7–12's query times,
// measured without the surrounding strategy search.
func EvaluatorCost(cfg Config, progress io.Writer) (*Figure, error) {
	rng := rand.New(rand.NewSource(cfg.Seed + 43))
	fig := &Figure{ID: "eval-cost", Title: "Strategy evaluation cost: ESE vs RTA vs brute force"}
	timePanel := Panel{Title: "(a) Time per H(p+s) evaluation", XLabel: "objects", YLabel: "ms"}
	prepPanel := Panel{Title: "(b) One-time setup per target", XLabel: "objects", YLabel: "ms"}

	const probes = 60
	for _, n := range cfg.ObjectSizes {
		objs := dataset.Objects(dataset.Independent, n, cfg.Dim, rng)
		queries := dataset.UNQueries(cfg.DefaultQueries, cfg.Dim, cfg.KMax, true, rng)
		w, err := buildLinearWorkload(objs, queries)
		if err != nil {
			return nil, err
		}
		idx, err := subdomain.BuildCtx(context.Background(), w, subdomain.Options{})
		if err != nil {
			return nil, err
		}
		// The partition is index build work, not evaluator setup.
		part := subdomain.NewPartition(context.Background(), idx, subdomain.PartitionOptions{})
		target := rng.Intn(n)

		// Pre-draw the probe strategies so every evaluator sees the same
		// inputs.
		strategies := drawStrategies(rng, probes, cfg.Dim)

		// ESE: setup (evaluator construction) + per-evaluation cost.
		start := time.Now()
		ev, err := ese.New(part, target)
		if err != nil {
			return nil, err
		}
		setupESE := time.Since(start)
		start = time.Now()
		for _, s := range strategies {
			if _, err := ev.Hits(s); err != nil {
				return nil, err
			}
		}
		eseTime := time.Since(start)

		// RTA.
		start = time.Now()
		rtaEval, err := rta.New(w)
		if err != nil {
			return nil, err
		}
		setupRTA := time.Since(start)
		start = time.Now()
		for _, s := range strategies {
			if _, err := rtaEval.Hits(vec.Add(w.Attrs(target), s), target); err != nil {
				return nil, err
			}
		}
		rtaTime := time.Since(start)

		// Brute force.
		brute := baseline.BruteForce{W: w}
		start = time.Now()
		for _, s := range strategies {
			if _, err := brute.Hits(vec.Add(w.Attrs(target), s), target); err != nil {
				return nil, err
			}
		}
		bruteTime := time.Since(start)

		perMs := func(d time.Duration) float64 {
			return float64(d.Microseconds()) / 1000 / probes
		}
		timePanel.addPoint("ESE", float64(n), perMs(eseTime))
		timePanel.addPoint("RTA", float64(n), perMs(rtaTime))
		timePanel.addPoint("BruteForce", float64(n), perMs(bruteTime))
		prepPanel.addPoint("ESE", float64(n), float64(setupESE.Microseconds())/1000)
		prepPanel.addPoint("RTA", float64(n), float64(setupRTA.Microseconds())/1000)
		if progress != nil {
			fmt.Fprintf(progress, "eval-cost: n=%d done\n", n)
		}
	}
	fig.Panels = []Panel{timePanel, prepPanel}
	return fig, nil
}

// AblationSkybandSlack measures the candidate-set growth and indexing cost
// as the skyband slack widens.
func AblationSkybandSlack(cfg Config, progress io.Writer) (*Figure, error) {
	rng := rand.New(rand.NewSource(cfg.Seed + 42))
	fig := &Figure{ID: "ablation-slack", Title: "Ablation: skyband slack"}
	candPanel := Panel{Title: "(a) Candidates", XLabel: "slack", YLabel: "count"}
	timePanel := Panel{Title: "(b) Indexing time", XLabel: "slack", YLabel: "seconds"}

	objs := dataset.Objects(dataset.Independent, cfg.DefaultObjects, cfg.Dim, rng)
	queries := dataset.UNQueries(cfg.DefaultQueries, cfg.Dim, cfg.KMax, false, rng)
	for _, slack := range []int{1, 2, 4, 8} {
		w, err := buildLinearWorkload(objs, queries)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		idx, err := subdomain.BuildCtx(context.Background(), w, subdomain.Options{Slack: slack})
		if err != nil {
			return nil, err
		}
		subdomain.NewPartition(context.Background(), idx, subdomain.PartitionOptions{})
		candPanel.addPoint("Efficient-IQ", float64(slack), float64(len(idx.Candidates())))
		timePanel.addPoint("Efficient-IQ", float64(slack), time.Since(start).Seconds())
		if progress != nil {
			fmt.Fprintf(progress, "ablation-slack: %d done\n", slack)
		}
	}
	fig.Panels = []Panel{candPanel, timePanel}
	return fig, nil
}
