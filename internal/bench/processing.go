package bench

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"iq/internal/baseline"
	"iq/internal/core"
	"iq/internal/dataset"
	"iq/internal/rta"
	"iq/internal/subdomain"
	"iq/internal/topk"
	"iq/internal/vec"
)

// This file reproduces the query-processing experiments: Figures 7–9 (object
// scalability on IN/CO/AC), Figures 10–11 (query scalability on UN/CL),
// Figure 12 (real-world data) and Figure 13 (dimensionality). Each test
// point issues a batch of Min-Cost and Max-Hit IQs with randomly drawn
// parameters (Table 2 ranges, scaled by Config) and reports the average
// query processing time and the average cost per hit query for the four
// schemes of Section 6.1.

// SchemeNames lists the compared schemes in the paper's order.
var SchemeNames = []string{"Efficient-IQ", "RTA-IQ", "Greedy", "Random"}

type schemeAccum struct {
	duration time.Duration
	costHits float64
	count    int // timed runs
	quality  int // runs that produced a hitting strategy
}

// runPoint issues cfg.IQsPerPoint improvement queries (half Min-Cost, half
// Max-Hit) through every scheme over the given workload and returns per-
// scheme averages: (milliseconds per IQ, cost per hit query).
func runPoint(cfg Config, w *topk.Workload, rng *rand.Rand) (map[string]schemeAccum, error) {
	idx, err := subdomain.Build(w, subdomain.Options{})
	if err != nil {
		return nil, err
	}
	rtaCounter, err := rta.New(w)
	if err != nil {
		return nil, err
	}
	brute := baseline.BruteForce{W: w}
	acc := map[string]schemeAccum{}
	record := func(name string, d time.Duration, cost float64, hits int) {
		a := acc[name]
		a.duration += d
		if hits > 0 {
			a.costHits += cost / float64(hits)
			a.quality++
		}
		a.count++
		acc[name] = a
	}

	iqs := cfg.IQsPerPoint
	if iqs < 2 {
		iqs = 2
	}
	targets := pickTargets(rng, w.NumObjects(), iqs)
	for i, target := range targets {
		minCost := i%2 == 0
		tau := cfg.randTau(rng, w.NumQueries())
		beta := cfg.randBeta(rng)

		// Efficient-IQ (the proposed technique).
		start := time.Now()
		if minCost {
			res, err := core.MinCostIQ(idx, core.MinCostRequest{Target: target, Tau: tau, Cost: core.L2Cost{}})
			if err == nil {
				record("Efficient-IQ", time.Since(start), res.Cost, res.Hits)
			} else {
				record("Efficient-IQ", time.Since(start), 0, 0)
			}
		} else {
			res, err := core.MaxHitIQ(idx, core.MaxHitRequest{Target: target, Budget: beta, Cost: core.L2Cost{}})
			if err == nil {
				record("Efficient-IQ", time.Since(start), res.Cost, res.Hits)
			} else {
				record("Efficient-IQ", time.Since(start), 0, 0)
			}
		}

		// RTA-IQ (same search, RTA evaluation) — linear spaces only.
		req := baseline.Request{W: w, Target: target, Cost: core.L2Cost{}, Tau: tau, Budget: beta}
		start = time.Now()
		if minCost {
			res, err := baseline.RatioSearchMinCost(req, rtaCounter)
			if err == nil {
				record("RTA-IQ", time.Since(start), res.Cost, res.Hits)
			} else {
				record("RTA-IQ", time.Since(start), 0, 0)
			}
		} else {
			res, err := baseline.RatioSearchMaxHit(req, rtaCounter)
			if err == nil {
				record("RTA-IQ", time.Since(start), res.Cost, res.Hits)
			} else {
				record("RTA-IQ", time.Since(start), 0, 0)
			}
		}

		// Simple greedy.
		start = time.Now()
		if minCost {
			res, err := baseline.GreedyMinCost(req, brute)
			if err == nil {
				record("Greedy", time.Since(start), res.Cost, res.Hits)
			} else {
				record("Greedy", time.Since(start), 0, 0)
			}
		} else {
			res, err := baseline.GreedyMaxHit(req, brute)
			if err == nil {
				record("Greedy", time.Since(start), res.Cost, res.Hits)
			} else {
				record("Greedy", time.Since(start), 0, 0)
			}
		}

		// Random.
		start = time.Now()
		if minCost {
			res, err := baseline.RandomMinCost(req, brute, rng, cfg.RandomAttempts)
			if err == nil {
				record("Random", time.Since(start), res.Cost, res.Hits)
			} else {
				record("Random", time.Since(start), 0, 0)
			}
		} else {
			res, err := baseline.RandomMaxHit(req, brute, rng, cfg.RandomAttempts)
			if err == nil {
				record("Random", time.Since(start), res.Cost, res.Hits)
			} else {
				record("Random", time.Since(start), 0, 0)
			}
		}
	}
	return acc, nil
}

func addSchemePoints(timePanel, costPanel *Panel, x float64, acc map[string]schemeAccum) {
	for _, name := range SchemeNames {
		a := acc[name]
		if a.count == 0 {
			continue
		}
		timePanel.addPoint(name, x, float64(a.duration.Microseconds())/1000/float64(a.count))
		if a.quality > 0 {
			costPanel.addPoint(name, x, a.costHits/float64(a.quality))
		}
	}
}

// objectScalabilityFigure is the shared driver of Figures 7–9.
func objectScalabilityFigure(cfg Config, id string, dist dataset.Distribution, progress io.Writer) (*Figure, error) {
	rng := rand.New(rand.NewSource(cfg.Seed + int64(len(id))))
	fig := &Figure{ID: id, Title: fmt.Sprintf("Query processing on the %s object dataset", dist)}
	timePanel := Panel{Title: "(a) Query processing time", XLabel: "objects", YLabel: "ms"}
	costPanel := Panel{Title: "(b) Cost per hit query", XLabel: "objects", YLabel: "cost/hit"}
	for _, n := range cfg.ObjectSizes {
		objs := dataset.Objects(dist, n, cfg.Dim, rng)
		queries := dataset.UNQueries(cfg.DefaultQueries, cfg.Dim, cfg.KMax, true, rng)
		w, err := buildLinearWorkload(objs, queries)
		if err != nil {
			return nil, err
		}
		acc, err := runPoint(cfg, w, rng)
		if err != nil {
			return nil, err
		}
		addSchemePoints(&timePanel, &costPanel, float64(n), acc)
		if progress != nil {
			fmt.Fprintf(progress, "%s: n=%d done\n", id, n)
		}
	}
	fig.Panels = []Panel{timePanel, costPanel}
	return fig, nil
}

// Fig7 reproduces Figure 7 (IN dataset).
func Fig7(cfg Config, progress io.Writer) (*Figure, error) {
	return objectScalabilityFigure(cfg, "fig7", dataset.Independent, progress)
}

// Fig8 reproduces Figure 8 (CO dataset).
func Fig8(cfg Config, progress io.Writer) (*Figure, error) {
	return objectScalabilityFigure(cfg, "fig8", dataset.Correlated, progress)
}

// Fig9 reproduces Figure 9 (AC dataset).
func Fig9(cfg Config, progress io.Writer) (*Figure, error) {
	return objectScalabilityFigure(cfg, "fig9", dataset.AntiCorrelated, progress)
}

// queryScalabilityFigure is the shared driver of Figures 10–11.
func queryScalabilityFigure(cfg Config, id string, clustered bool, progress io.Writer) (*Figure, error) {
	rng := rand.New(rand.NewSource(cfg.Seed + int64(len(id)) + 100))
	name := "UN"
	if clustered {
		name = "CL"
	}
	fig := &Figure{ID: id, Title: fmt.Sprintf("Query processing on the %s query dataset", name)}
	timePanel := Panel{Title: "(a) Query processing time", XLabel: "queries", YLabel: "ms"}
	costPanel := Panel{Title: "(b) Cost per hit query", XLabel: "queries", YLabel: "cost/hit"}
	objs := dataset.Objects(dataset.Independent, cfg.DefaultObjects, cfg.Dim, rng)
	for _, m := range cfg.QuerySizes {
		var queries []topk.Query
		if clustered {
			queries = dataset.CLQueries(m, cfg.Dim, cfg.KMax, 5, true, rng)
		} else {
			queries = dataset.UNQueries(m, cfg.Dim, cfg.KMax, true, rng)
		}
		w, err := buildLinearWorkload(objs, queries)
		if err != nil {
			return nil, err
		}
		acc, err := runPoint(cfg, w, rng)
		if err != nil {
			return nil, err
		}
		addSchemePoints(&timePanel, &costPanel, float64(m), acc)
		if progress != nil {
			fmt.Fprintf(progress, "%s: m=%d done\n", id, m)
		}
	}
	fig.Panels = []Panel{timePanel, costPanel}
	return fig, nil
}

// Fig10 reproduces Figure 10 (UN query set).
func Fig10(cfg Config, progress io.Writer) (*Figure, error) {
	return queryScalabilityFigure(cfg, "fig10", false, progress)
}

// Fig11 reproduces Figure 11 (CL query set).
func Fig11(cfg Config, progress io.Writer) (*Figure, error) {
	return queryScalabilityFigure(cfg, "fig11", true, progress)
}

// Fig12 reproduces Figure 12: query processing on the real-world stand-ins,
// with query sets one third of the data size.
func Fig12(cfg Config, progress io.Writer) (*Figure, error) {
	rng := rand.New(rand.NewSource(cfg.Seed + 12))
	fig := &Figure{ID: "fig12", Title: "Query processing on the real-world datasets"}
	timePanel := Panel{Title: "(a) Query processing time", XLabel: "dataset", YLabel: "ms"}
	costPanel := Panel{Title: "(b) Cost per hit query", XLabel: "dataset", YLabel: "cost/hit"}
	real := []struct {
		name string
		objs []vec.Vector
	}{
		{"VEHICLE", dataset.VehicleObjects(cfg.RealVehicle, rng)},
		{"HOUSE", dataset.HouseObjects(cfg.RealHouse, rng)},
	}
	for si, s := range real {
		d := len(s.objs[0])
		// The paper uses a query set one third of the data size; the quick
		// configuration caps it at the default workload size because the
		// baseline schemes scan |Q|·|D| per evaluation.
		m := len(s.objs) / 3
		if m > cfg.DefaultQueries {
			m = cfg.DefaultQueries
		}
		queries := dataset.UNQueries(m, d, cfg.KMax, true, rng)
		w, err := buildLinearWorkload(s.objs, queries)
		if err != nil {
			return nil, err
		}
		acc, err := runPoint(cfg, w, rng)
		if err != nil {
			return nil, err
		}
		addSchemePoints(&timePanel, &costPanel, float64(si), acc)
		if progress != nil {
			fmt.Fprintf(progress, "fig12: %s done\n", s.name)
		}
	}
	fig.Panels = []Panel{timePanel, costPanel}
	return fig, nil
}

// Fig13 reproduces Figure 13: Efficient-IQ scalability with the number of
// variables in the interpreted functions (1–5), polynomial utilities.
func Fig13(cfg Config, progress io.Writer) (*Figure, error) {
	rng := rand.New(rand.NewSource(cfg.Seed + 13))
	fig := &Figure{ID: "fig13", Title: "Scalability to the number of variables in functions"}
	timePanel := Panel{Title: "(a) Query processing time", XLabel: "variables", YLabel: "ms"}
	costPanel := Panel{Title: "(b) Cost per hit query", XLabel: "variables", YLabel: "cost/hit"}
	for dim := 1; dim <= 5; dim++ {
		space, err := dataset.PolynomialSpace(dim, 5, rng)
		if err != nil {
			return nil, err
		}
		objs := dataset.Objects(dataset.Independent, cfg.DefaultObjects, dim, rng)
		// Keep attributes strictly positive so odd/even powers stay
		// monotone and embeddings well-defined.
		for _, o := range objs {
			for i := range o {
				o[i] = 0.05 + 0.95*o[i]
			}
		}
		queries := dataset.UNQueries(cfg.DefaultQueries, space.QueryDim(), cfg.KMax, false, rng)
		w, err := topk.NewWorkload(space, objs, queries)
		if err != nil {
			return nil, err
		}
		idx, err := subdomain.Build(w, subdomain.Options{})
		if err != nil {
			return nil, err
		}
		var total time.Duration
		var costHits float64
		count := 0
		for i := 0; i < cfg.IQsPerPoint; i++ {
			target := rng.Intn(w.NumObjects())
			tau := cfg.randTau(rng, w.NumQueries())
			start := time.Now()
			res, err := core.MinCostIQ(idx, core.MinCostRequest{Target: target, Tau: tau, Cost: core.L2Cost{}})
			total += time.Since(start)
			count++
			if err == nil && res.Hits > 0 {
				costHits += res.Cost / float64(res.Hits)
			}
		}
		timePanel.addPoint("Efficient-IQ", float64(dim), float64(total.Microseconds())/1000/float64(count))
		costPanel.addPoint("Efficient-IQ", float64(dim), costHits/float64(count))
		if progress != nil {
			fmt.Fprintf(progress, "fig13: dim=%d done\n", dim)
		}
	}
	fig.Panels = []Panel{timePanel, costPanel}
	return fig, nil
}
