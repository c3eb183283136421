package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"iq/internal/subdomain"
	"iq/internal/topk"
	"iq/internal/vec"
)

// This file is the greedy solvers' reference oracle: Algorithms 3 and 4 as
// the paper states them, serial, with no stored table, no index rows, no hit
// bounds and no scratch reuse. A table scanned from the whole skyband for the
// call (refTable) serves only the per-query thresholds (Equations 13–14);
// every candidate's hits are counted by brute force
// (topk.Workload.HitsExact), and each round's pick scans all candidates.

// refCandidates returns one greedy round's candidates: for every live query
// the target improved by cur does not hit, the min-cost strategy hitting it
// and its exact hit count, pruned as the engine prunes.
func refCandidates(t *testing.T, w *topk.Workload, tab *hitTable, cur vec.Vector, cost Cost, bounds *Bounds) []Candidate {
	t.Helper()
	attrs := w.Attrs(tab.target)
	hitNow, err := w.HitSet(vec.Add(attrs, cur), tab.target)
	if err != nil {
		t.Fatal(err)
	}
	hit := map[int]bool{}
	for _, j := range hitNow {
		hit[j] = true
	}
	var cands []Candidate
	for j := 0; j < w.NumQueries(); j++ {
		if hit[j] || w.IsQueryRemoved(j) {
			continue
		}
		score := 0.0
		if w.Space().Linear() {
			score = vec.Dot(vec.Add(w.Coeff(tab.target), cur), w.Query(j).Point)
		}
		u := vec.New(len(cur))
		if err := solveHit(u, w, tab, cur, j, score, cost, bounds, nil); err != nil || !bounds.Contains(u) {
			continue
		}
		c := cost.Of(u)
		if !finiteStep(u, c) {
			continue
		}
		h, err := w.HitsExact(vec.Add(attrs, u), tab.target)
		if err != nil {
			continue // the improved target does not embed
		}
		cands = append(cands, Candidate{Query: j, Strategy: u, Cost: c, Hits: h})
	}
	return cands
}

// refBestRatio is Algorithm 3/4 line 9 over every candidate: the least cost
// per hit among those gaining hits, ties by lower cost, then lower query.
func refBestRatio(cands []Candidate, baseHits int) (Candidate, bool) {
	best := Candidate{}
	bestVal := 0.0
	found := false
	for _, c := range cands {
		if c.Hits <= baseHits {
			continue
		}
		ratio := c.Cost / float64(c.Hits)
		if !found || ratio < bestVal ||
			(ratio == bestVal && (c.Cost < best.Cost || (c.Cost == best.Cost && c.Query < best.Query))) {
			best, bestVal, found = c, ratio, true
		}
	}
	return best, found
}

// refCheapest is the minimum (Cost, Query) candidate with at least minHits
// hits and cost at most maxCost, over every candidate.
func refCheapest(cands []Candidate, minHits int, maxCost float64) (Candidate, bool) {
	best, found := Candidate{}, false
	for _, c := range cands {
		if c.Hits < minHits || c.Cost > maxCost {
			continue
		}
		if !found || c.Cost < best.Cost || (c.Cost == best.Cost && c.Query < best.Query) {
			best, found = c, true
		}
	}
	return best, found
}

// refTable scans target's hit table from the whole skyband: row j is the
// K-th best band member other than the target at q_j, and always-hit when
// there are fewer than K. It is the oracle of the tables the solvers derive
// from the index rows.
func refTable(idx *subdomain.Index, target int) *hitTable {
	w := idx.Workload()
	tab := newHitTable(idx, target)
	var competitors []int
	for _, c := range idx.Candidates() {
		if c != target && !w.IsRemoved(c) {
			competitors = append(competitors, c)
		}
	}
	type competitor struct {
		score float64
		id    int
	}
	// No row keeps more than every competitor, however large its K.
	best := make([]competitor, 0, min(w.MaxK(), len(competitors)))
	for j := range tab.state {
		if w.IsQueryRemoved(j) {
			continue
		}
		// best holds the K best competitors seen so far in topk.Better
		// order.
		q := w.Query(j)
		best = best[:0]
		for _, c := range competitors {
			score := w.Score(c, q.Point)
			if n := len(best); n == q.K && !topk.Better(score, c, best[n-1].score, best[n-1].id) {
				continue
			} else if n < q.K {
				best = append(best, competitor{})
			}
			// Insert in order; a full buffer drops its K-th.
			i := len(best) - 1
			for ; i > 0 && topk.Better(score, c, best[i-1].score, best[i-1].id); i-- {
				best[i] = best[i-1]
			}
			best[i] = competitor{score, c}
		}
		if len(best) < q.K {
			tab.state[j] = rowAlways
		} else {
			tab.state[j] = rowBounded
			tab.kth[j], tab.kthID[j] = best[q.K-1].score, best[q.K-1].id
		}
	}
	tab.index(w)
	return tab
}

func refApply(res *Result, c Candidate, cost Cost) {
	res.Strategy = vec.Clone(c.Strategy)
	res.Cost = cost.Of(c.Strategy)
	res.Hits = c.Hits
}

// refMinCost is Algorithm 3 with the anti-overshoot rule.
func refMinCost(t *testing.T, idx *subdomain.Index, req MinCostRequest) (*Result, error) {
	t.Helper()
	w := idx.Workload()
	if req.Tau > w.LiveQueries() {
		return nil, ErrGoalUnreachable
	}
	tab := refTable(idx, req.Target)
	cur := vec.New(len(w.Attrs(req.Target)))
	base, err := w.HitsExact(w.Attrs(req.Target), req.Target)
	if err != nil {
		t.Fatal(err)
	}
	res := &Result{Strategy: vec.Clone(cur), BaseHits: base, Hits: base}
	for res.Hits < req.Tau {
		res.Iterations++
		cands := refCandidates(t, w, tab, cur, req.Cost, req.Bounds)
		best, ok := refBestRatio(cands, res.Hits)
		if !ok {
			return res, ErrGoalUnreachable
		}
		if best.Hits > req.Tau {
			best, _ = refCheapest(cands, req.Tau, math.Inf(1))
		}
		cur = best.Strategy
		refApply(res, best, req.Cost)
		if res.Iterations > w.NumQueries()+req.Tau+8 {
			return res, ErrGoalUnreachable
		}
	}
	return res, nil
}

// refMaxHit is Algorithm 4 with the fill pass.
func refMaxHit(t *testing.T, idx *subdomain.Index, req MaxHitRequest) *Result {
	t.Helper()
	w := idx.Workload()
	tab := refTable(idx, req.Target)
	cur := vec.New(len(w.Attrs(req.Target)))
	base, err := w.HitsExact(w.Attrs(req.Target), req.Target)
	if err != nil {
		t.Fatal(err)
	}
	res := &Result{Strategy: vec.Clone(cur), BaseHits: base, Hits: base}
	for {
		res.Iterations++
		if res.Iterations > w.NumQueries()+8 {
			return res
		}
		cands := refCandidates(t, w, tab, cur, req.Cost, req.Bounds)
		best, ok := refBestRatio(cands, res.Hits)
		if !ok {
			return res
		}
		if best.Cost > req.Budget {
			if best, ok = refCheapest(cands, res.Hits+1, req.Budget); !ok {
				return res
			}
		}
		cur = best.Strategy
		refApply(res, best, req.Cost)
	}
}

// sameAnswer reports how got differs from the reference want, or "".
func sameAnswer(got, want *Result, gotErr, wantErr error) string {
	switch {
	case (gotErr == nil) != (wantErr == nil):
		return fmt.Sprintf("error %v, reference %v", gotErr, wantErr)
	case gotErr != nil:
		return ""
	case !vec.Equal(got.Strategy, want.Strategy) || math.Float64bits(got.Cost) != math.Float64bits(want.Cost):
		return fmt.Sprintf("strategy %v cost %v, reference %v cost %v", got.Strategy, got.Cost, want.Strategy, want.Cost)
	case got.Hits != want.Hits || got.BaseHits != want.BaseHits || got.Iterations != want.Iterations:
		return fmt.Sprintf("hits %d base %d rounds %d, reference %d %d %d",
			got.Hits, got.BaseHits, got.Iterations, want.Hits, want.BaseHits, want.Iterations)
	}
	return ""
}

// commitTarget is the core-layer Commit: a clone of idx with target moved by
// s, its rows kept current by the update as the System's write path keeps
// them.
func commitTarget(t *testing.T, idx *subdomain.Index, target int, s vec.Vector) *subdomain.Index {
	t.Helper()
	next := idx.CloneCtx(context.Background(), idx.Workload().Clone())
	if err := next.UpdateObjectCtx(context.Background(), target, vec.Add(idx.Workload().Attrs(target), s)); err != nil {
		t.Fatal(err)
	}
	return next
}

// rebuilt builds a from-scratch index over a clone of idx's workload: its
// band and rows are computed whole, not maintained mutation by mutation, and
// it has no stored tables.
func rebuilt(t *testing.T, idx *subdomain.Index) *subdomain.Index {
	t.Helper()
	fresh, err := subdomain.BuildCtx(context.Background(), idx.Workload().Clone(), subdomain.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return fresh
}

// greedyTargets picks two skyband objects that already hit a query or two,
// with goals a few rounds away: τ a few hits above the base, and budgets
// that buy a few rounds.
func greedyTargets(t *testing.T, rng *rand.Rand, idx *subdomain.Index) (targets, taus []int, budgets []float64) {
	t.Helper()
	w := idx.Workload()
	for _, c := range idx.Candidates() {
		h, err := w.HitsExact(w.Attrs(c), c)
		if err != nil {
			t.Fatal(err)
		}
		if h >= 1 && 2*h <= w.LiveQueries() {
			targets = append(targets, c)
			taus = append(taus, h+3+rng.Intn(4))
			budgets = append(budgets, 0.05+0.1*rng.Float64())
		}
		if len(targets) == 2 {
			return targets, taus, budgets
		}
	}
	t.Fatal("no skyband object with a few hits")
	return nil, nil, nil
}

// unboundedL2 is the L2 cost as a user type: a greedy round has no probe
// bounds for it, so every open row waits under the key −Inf and best solves
// every probe, one at a time in query order.
type unboundedL2 struct{ L2Cost }

// greedySpace is one fixture of the greedy oracle tests, with costs,
// strategy bounds and a commit move sized to its attribute dimension.
type greedySpace struct {
	name   string
	build  func(rng *rand.Rand) *subdomain.Index
	costs  []namedCost
	bounds []*Bounds
	move   vec.Vector // committed when the first target has no Min-Cost answer
}

type namedCost struct {
	name string
	cost Cost
}

// greedySpaces returns the greedy oracle tests' fixtures: 2-d and 3-d linear
// spaces, whose rounds have probe bounds, and a polynomial space with 3
// coefficients over 2 attributes, which has none. Each space has L2, L1,
// weighted L2, L2 as a user cost with no probe bounds and an expression
// cost that goes negative, and runs without and with strategy bounds.
func greedySpaces(t *testing.T) []greedySpace {
	t.Helper()
	costs := func(alpha vec.Vector, negative string) []namedCost {
		c, err := NewExprCost(negative, len(alpha))
		if err != nil {
			t.Fatal(err)
		}
		return []namedCost{{"L2", L2Cost{}}, {"L1", L1Cost{}}, {"WeightedL2", WeightedL2Cost{Alpha: alpha}},
			{"unboundedL2", unboundedL2{}}, {"expr", c}}
	}
	costs2 := costs(vec.Vector{1, 3}, "s1^2 + s2^2 + 0.01*s1")
	bounds2 := []*Bounds{nil, {Lo: vec.Vector{-0.4, -0.25}, Hi: vec.Vector{0.05, 0.05}}}
	return []greedySpace{
		{"linear", func(rng *rand.Rand) *subdomain.Index { return fixture(t, rng, 60, 36, 2, 3) },
			costs2, bounds2, vec.Vector{-0.05, -0.02}},
		{"poly", func(rng *rand.Rand) *subdomain.Index { return polyFixture(t, rng, 30, 16) },
			costs2, bounds2, vec.Vector{-0.05, -0.02}},
		{"linear3", func(rng *rand.Rand) *subdomain.Index { return fixture(t, rng, 60, 36, 3, 3) },
			costs(vec.Vector{1, 3, 2}, "s1^2 + s2^2 + s3^2 + 0.01*s1"),
			[]*Bounds{nil, {Lo: vec.Vector{-0.4, -0.25, -0.3}, Hi: vec.Vector{0.05, 0.05, 0.05}}},
			vec.Vector{-0.05, -0.02, -0.03}},
	}
}

// TestGreedyMatchesReference is the greedy solvers' differential matrix:
// MinCostIQCtx and MaxHitIQCtx against the reference Algorithms 3/4 above, over
// the greedySpaces fixtures and their costs, without and with bounds; on the
// solved snapshot, whose tables are stored across the solves, and on a
// from-scratch rebuild of it; before and after a commit. Strategy and cost
// bits, hits, base hits and rounds must be identical. It subsumes the
// pairwise stored-vs-rebuilt checks.
func TestGreedyMatchesReference(t *testing.T) {
	for si, sp := range greedySpaces(t) {
		for _, cst := range sp.costs {
			for _, b := range sp.bounds {
				name := fmt.Sprintf("%s/%s/bounds=%v", sp.name, cst.name, b != nil)
				t.Run(name, func(t *testing.T) {
					rng := rand.New(rand.NewSource(int64(100 + si)))
					idx := sp.build(rng)
					targets, taus, budgets := greedyTargets(t, rng, idx)
					if testing.Short() {
						// The expression cost's numeric minimiser makes the
						// poly cases slow under the race detector.
						targets = targets[:1]
					}
					refs := map[string]*Result{}
					refErrs := map[string]error{}
					for _, fresh := range []bool{false, true} {
						func() {
							at := idx
							for phase := 0; phase < 2; phase++ {
								if phase == 1 {
									// Commit the first target's Min-Cost
									// answer (a small fixed move when it has
									// none) after the tables were stored on
									// idx, so the solves run on rows the
									// update maintained.
									move := sp.move
									if refErrs["mc0/0"] == nil {
										move = refs["mc0/0"].Strategy
									}
									at = commitTarget(t, idx, targets[0], move)
								}
								if fresh {
									at = rebuilt(t, at)
								}
								for i, target := range targets {
									mc := MinCostRequest{Target: target, Tau: taus[i], Cost: cst.cost, Bounds: b}
									mh := MaxHitRequest{Target: target, Budget: budgets[i], Cost: cst.cost, Bounds: b}
									key := fmt.Sprintf("%d/%d", phase, i)
									if _, ok := refs["mc"+key]; !ok {
										refs["mc"+key], refErrs["mc"+key] = refMinCost(t, at, mc)
										refs["mh"+key] = refMaxHit(t, at, mh)
									}
									got, err := MinCostIQCtx(context.Background(), at, mc)
									if d := sameAnswer(got, refs["mc"+key], err, refErrs["mc"+key]); d != "" {
										t.Errorf("fresh=%v phase=%d target=%d tau=%d MinCost: %s",
											fresh, phase, target, mc.Tau, d)
									}
									got, err = MaxHitIQCtx(context.Background(), at, mh)
									if d := sameAnswer(got, refs["mh"+key], err, nil); d != "" {
										t.Errorf("fresh=%v phase=%d target=%d budget=%v MaxHit: %s",
											fresh, phase, target, mh.Budget, d)
									}
								}
							}
						}()
					}
				})
			}
		}
	}
}

// TestLazySelectionMatchesEager drives the greedy rounds of the
// TestGreedyMatchesReference fixtures twice: lazily, as the solvers do, and
// with every probe of each round solved before selection. In every round,
// best, the anti-overshoot cheapest pass and the Max-Hit fill pass must pick
// the same candidate, and the round must count the same slots, while the
// lazy round solves no more probes than the eager one.
func TestLazySelectionMatchesEager(t *testing.T) {
	ctx := context.Background()
	for si, sp := range greedySpaces(t) {
		for _, cst := range sp.costs {
			for _, b := range sp.bounds {
				rng := rand.New(rand.NewSource(int64(100 + si)))
				idx := sp.build(rng)
				w := idx.Workload()
				targets, taus, budgets := greedyTargets(t, rng, idx)
				for i, target := range targets {
					name := fmt.Sprintf("%s/%s bounds=%v target %d", sp.name, cst.name, b != nil, target)
					tab := hitTableFor(ctx, idx, target, nil)
					lazy := &roundScratch{tab: tab, rec: newRecorder()}
					eager := &roundScratch{tab: tab, rec: newRecorder()}
					cur := vec.New(len(w.Attrs(target)))
					at := w.Coeff(target)
					hits := tab.hits(at)
					for round := 1; hits < taus[i]; round++ {
						generateCandidates(ctx, w, cur, at, cst.cost, b, lazy)
						generateCandidates(ctx, w, cur, at, cst.cost, b, eager)
						solveAll(t, eager)
						picks := []struct {
							pass string
							run  func(rs *roundScratch) (Candidate, bool, error)
						}{
							{"best", func(rs *roundScratch) (Candidate, bool, error) { return rs.best(ctx, hits) }},
							{"anti-overshoot", func(rs *roundScratch) (Candidate, bool, error) {
								return rs.cheapest(ctx, taus[i], math.Inf(1))
							}},
							{"fill", func(rs *roundScratch) (Candidate, bool, error) {
								return rs.cheapest(ctx, hits+1, budgets[i])
							}},
						}
						var pick Candidate
						found := false
						for _, p := range picks {
							got, gotOK, err := p.run(lazy)
							if err != nil {
								t.Fatal(err)
							}
							want, wantOK, _ := p.run(eager)
							samePick(t, fmt.Sprintf("%s round %d %s", name, round, p.pass), got, want, gotOK, wantOK)
							if p.pass == "best" {
								pick, found = got, gotOK
							}
						}
						if l, e := countedSlots(lazy), countedSlots(eager); !slices.Equal(l, e) {
							t.Fatalf("%s round %d: lazy round counted slots %v, eager %v", name, round, l, e)
						}
						if l, e := lazy.rec.probes, eager.rec.probes; l > e {
							t.Fatalf("%s round %d: lazy rounds solved %d probes, eager %d", name, round, l, e)
						}
						if !found {
							break
						}
						cur = vec.Clone(pick.Strategy)
						var err error
						if at, err = w.Space().Embed(vec.Add(w.Attrs(target), cur)); err != nil {
							t.Fatal(err)
						}
						hits = pick.Hits
					}
				}
			}
		}
	}
}
