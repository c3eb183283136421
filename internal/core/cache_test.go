package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"iq/internal/subdomain"
	"iq/internal/topk"
	"iq/internal/vec"
)

func sameResult(a, b *Result) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	return vec.Equal(a.Strategy, b.Strategy) && a.Cost == b.Cost &&
		a.Hits == b.Hits && a.BaseHits == b.BaseHits
}

// TestSolveCacheBitIdentical: across seeds and targets, a solve served from
// stored tables must return bit-identical results to a solve on a
// from-scratch rebuild of the snapshot — same strategy vector, same cost,
// same hit counts, same error outcome.
func TestSolveCacheBitIdentical(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		idx := fixture(t, rng, 90, 60, 3, 3)
		for trial := 0; trial < 3; trial++ {
			target := rng.Intn(idx.Workload().NumObjects())
			tau := 4 + rng.Intn(10)
			budget := 0.2 + rng.Float64()*0.6
			mcReq := MinCostRequest{Target: target, Tau: tau, Cost: L2Cost{}}
			mhReq := MaxHitRequest{Target: target, Budget: budget, Cost: L2Cost{}}

			fresh := rebuilt(t, idx)
			coldMC, coldMCErr := MinCostIQ(fresh, mcReq)
			coldMH, coldMHErr := MaxHitIQ(fresh, mhReq)
			// Twice: the first solve may derive the table, the second reads
			// it stored.
			for pass := 0; pass < 2; pass++ {
				mc, err := MinCostIQ(idx, mcReq)
				if (err == nil) != (coldMCErr == nil) {
					t.Fatalf("seed %d trial %d pass %d: MinCost error diverged: stored=%v rebuilt=%v",
						seed, trial, pass, err, coldMCErr)
				}
				if !sameResult(coldMC, mc) {
					t.Fatalf("seed %d trial %d pass %d: MinCost diverged\n rebuilt %v cost=%v hits=%d\n stored  %v cost=%v hits=%d",
						seed, trial, pass,
						coldMC.Strategy, coldMC.Cost, coldMC.Hits,
						mc.Strategy, mc.Cost, mc.Hits)
				}
				mh, err := MaxHitIQ(idx, mhReq)
				if (err == nil) != (coldMHErr == nil) {
					t.Fatalf("seed %d trial %d pass %d: MaxHit error diverged: stored=%v rebuilt=%v",
						seed, trial, pass, err, coldMHErr)
				}
				if !sameResult(coldMH, mh) {
					t.Fatalf("seed %d trial %d pass %d: MaxHit diverged", seed, trial, pass)
				}
			}
		}
	}
}

// A repeat solve against the same (index, target) must be served from the
// stored table: zero misses, and every lookup a hit. The per-solve
// SolveStats expose the split so operators can see cache health per request.
func TestThresholdCacheWarmStats(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	idx := fixture(t, rng, 80, 50, 3, 3)
	first, err := MinCostIQ(idx, MinCostRequest{Target: 3, Tau: 8, Cost: L2Cost{}})
	if err != nil {
		t.Fatal(err)
	}
	if first.Stats.ThresholdCacheMisses == 0 {
		t.Fatalf("cold solve recorded no threshold misses: %+v", first.Stats)
	}
	if first.Stats.Rounds > 1 && first.Stats.ThresholdCacheHits == 0 {
		t.Errorf("multi-round solve reused no thresholds across rounds: %+v", first.Stats)
	}
	second, err := MinCostIQ(idx, MinCostRequest{Target: 3, Tau: 8, Cost: L2Cost{}})
	if err != nil {
		t.Fatal(err)
	}
	if second.Stats.ThresholdCacheMisses != 0 {
		t.Errorf("warm solve missed the threshold cache %d times", second.Stats.ThresholdCacheMisses)
	}
	if second.Stats.ThresholdCacheHits == 0 {
		t.Error("warm solve recorded no threshold cache hits")
	}
	if !sameResult(first, second) {
		t.Error("warm solve changed the result")
	}
}

// In-place mutations (UpdateObject, AddQuery, RemoveQuery) advance the index
// epoch; tables stored at the old epoch must not leak into results.
// Oracle: a solve on a from-scratch rebuild of the mutated index.
func TestThresholdCacheInvalidationOnMutation(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	idx := fixture(t, rng, 80, 50, 3, 3)
	req := MinCostRequest{Target: 4, Tau: 7, Cost: L2Cost{}}

	mutate := []struct {
		name string
		do   func(t *testing.T)
	}{
		{"update-object", func(t *testing.T) {
			// Move a competitor: most thresholds involving it change.
			if err := idx.UpdateObject(11, vec.Vector{0.9, 0.9, 0.9}); err != nil {
				t.Fatal(err)
			}
		}},
		{"add-query", func(t *testing.T) {
			// Grow the workload: stored tables are now the wrong length.
			q := topk.Query{ID: 9000, K: 2, Point: vec.Vector{0.2, 0.3, 0.5}}
			if _, err := idx.AddQuery(q); err != nil {
				t.Fatal(err)
			}
		}},
		{"remove-query", func(t *testing.T) {
			if err := idx.RemoveQuery(2); err != nil {
				t.Fatal(err)
			}
		}},
	}

	if _, err := MinCostIQ(idx, req); err != nil { // store the table
		t.Fatal(err)
	}
	for _, m := range mutate {
		epoch := idx.Epoch()
		m.do(t)
		if idx.Epoch() == epoch {
			t.Fatalf("%s did not advance the epoch", m.name)
		}
		stored, storedErr := MinCostIQ(idx, req)
		fresh, freshErr := MinCostIQ(rebuilt(t, idx), req)
		if (storedErr == nil) != (freshErr == nil) {
			t.Fatalf("%s: error diverged: stored=%v rebuilt=%v", m.name, storedErr, freshErr)
		}
		if !sameResult(fresh, stored) {
			t.Fatalf("%s: stale table leaked into result\n rebuilt %+v\n stored  %+v", m.name, fresh, stored)
		}
	}
}

// The exhaustive verifier reads the same stored hit tables as the greedy
// solvers; every threshold one serves — on the deriving lookup and on the
// stored one — must equal the k-th competitor score among all other live
// objects, computed directly.
func TestCachedThresholdMatchesUncached(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	idx := fixture(t, rng, 50, 30, 3, 3)
	w := idx.Workload()
	for target := 0; target < 5; target++ {
		var others []int
		for i := 0; i < w.NumObjects(); i++ {
			if i != target {
				others = append(others, i)
			}
		}
		first := hitTableFor(context.Background(), idx, target, nil)
		for pass := 0; pass < 2; pass++ {
			tab := hitTableFor(context.Background(), idx, target, nil)
			if tab != first {
				t.Fatalf("target %d pass %d: the stored table was derived again", target, pass)
			}
			for j := 0; j < w.NumQueries(); j++ {
				res := w.EvaluateAmong(others, w.Query(j))
				wantOK := len(res.Ordered) >= w.Query(j).K
				got, ok := tab.threshold(j)
				if ok != wantOK || (ok && got != res.KthScore) {
					t.Fatalf("target %d query %d pass %d: table (%v,%v) != direct (%v,%v)",
						target, j, pass, got, ok, res.KthScore, wantOK)
				}
			}
		}
	}
}

// Concurrent first uses of one (snapshot, target) table share one
// derivation: every caller gets the same table, and its rows are derived
// once.
func TestHitTableConcurrentFirstUse(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	idx := fixture(t, rng, 80, 50, 3, 3)
	const callers = 8
	tabs := make([]*hitTable, callers)
	recs := make([]*recorder, callers)
	var wg sync.WaitGroup
	for i := range tabs {
		recs[i] = newRecorder()
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tabs[i] = hitTableFor(context.Background(), idx, 3, recs[i])
		}(i)
	}
	wg.Wait()
	misses := 0
	for i, tab := range tabs {
		if tab != tabs[0] {
			t.Fatalf("caller %d got a different table", i)
		}
		misses += int(recs[i].thrMisses)
	}
	if want := idx.Workload().NumQueries(); misses != want {
		t.Fatalf("%d rows derived across %d concurrent first uses, want %d (one derivation)", misses, callers, want)
	}
}

// farAttrs builds an attribute vector strictly worse than every live object
// on every axis: such an object is dominated by the whole candidate skyband,
// never becomes a candidate, and enters no row.
func farAttrs(idx *subdomain.Index) vec.Vector {
	w := idx.Workload()
	d := len(w.Attrs(0))
	far := make(vec.Vector, d)
	for id := 0; id < w.NumObjects(); id++ {
		if w.IsRemoved(id) {
			continue
		}
		for i, a := range w.Attrs(id) {
			if a > far[i] {
				far[i] = a
			}
		}
	}
	for i := range far {
		far[i] += 1000
	}
	return far
}

// sameRows reports the first live query whose row differs between a and b
// in ids or score bits, or -1.
func sameRows(a, b *subdomain.Index) int {
	for j := 0; j < a.Workload().NumQueries(); j++ {
		ra, rb := a.Row(j), b.Row(j)
		if len(ra) != len(rb) {
			return j
		}
		for i := range ra {
			if ra[i].ID != rb[i].ID || math.Float64bits(ra[i].Score) != math.Float64bits(rb[i].Score) {
				return j
			}
		}
	}
	return -1
}

// A commit to an object every live object dominates changes no row: the
// new snapshot's rows equal the parent's, and its solve is bit-identical to
// the parent's.
func TestFarCommitKeepsRows(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	idx := fixture(t, rng, 80, 50, 3, 3)
	farID, err := idx.AddObject(farAttrs(idx))
	if err != nil {
		t.Fatal(err)
	}
	req := MinCostRequest{Target: rng.Intn(40), Tau: 5, Cost: L2Cost{}}
	warm, err := MinCostIQ(idx, req)
	if err != nil {
		t.Fatal(err)
	}
	next := commitTarget(t, idx, farID, vec.Vector{50, 0, 0})
	if j := sameRows(idx, next); j >= 0 {
		t.Fatalf("far-object commit changed query %d's row: %v -> %v", j, idx.Row(j), next.Row(j))
	}
	res, err := MinCostIQ(next, req)
	if err != nil {
		t.Fatal(err)
	}
	if !sameResult(warm, res) {
		t.Fatalf("post-commit result diverged: %v cost=%v vs %v cost=%v",
			warm.Strategy, warm.Cost, res.Strategy, res.Cost)
	}
}

// gridIndex builds a tie-heavy linear index: coordinates on levels grid
// steps (the integers 0..4 for 5 levels, i/127 for 127) and small integer
// query weights, zero included, so scores tie at the k-th place.
func gridIndex(t *testing.T, rng *rand.Rand, levels int) (*subdomain.Index, func() vec.Vector, func() topk.Query) {
	t.Helper()
	d := 2 + rng.Intn(2)
	point := func() vec.Vector {
		p := make(vec.Vector, d)
		for i := range p {
			if levels == 5 {
				p[i] = float64(rng.Intn(5))
			} else {
				p[i] = float64(rng.Intn(127)) / 127
			}
		}
		return p
	}
	query := func() topk.Query {
		q := topk.Query{ID: rng.Int(), K: 1 + rng.Intn(4), Point: make(vec.Vector, d)}
		for i := range q.Point {
			q.Point[i] = float64(rng.Intn(4))
		}
		return q
	}
	attrs := make([]vec.Vector, 12+rng.Intn(20))
	for i := range attrs {
		attrs[i] = point()
	}
	queries := make([]topk.Query, 4+rng.Intn(8))
	for j := range queries {
		queries[j] = query()
	}
	w, err := topk.NewWorkload(topk.LinearSpace{D: d}, attrs, queries)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := subdomain.Build(w, subdomain.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return idx, point, query
}

// checkDerivedTables compares every live target's table on idx with the
// band scan: state, kth bits and kthID per query.
func checkDerivedTables(t *testing.T, idx *subdomain.Index, step string) {
	t.Helper()
	w := idx.Workload()
	for target := 0; target < w.NumObjects(); target++ {
		if w.IsRemoved(target) {
			continue
		}
		got := hitTableFor(context.Background(), idx, target, nil)
		want := refTable(idx, target)
		for j := range want.state {
			if got.state[j] != want.state[j] || got.kthID[j] != want.kthID[j] ||
				math.Float64bits(got.kth[j]) != math.Float64bits(want.kth[j]) {
				t.Fatalf("%s: target %d query %d: derived state %d kth %v id %d, band scan %d %v %d",
					step, target, j, got.state[j], got.kth[j], got.kthID[j], want.state[j], want.kth[j], want.kthID[j])
			}
		}
	}
}

// TestDerivedTablesMatchBandScan is the derived-table oracle: tie-heavy grid
// workloads go through every mutation kind, each on a clone as the System's
// write path applies it, and after each one every target's table derived
// from the rows equals the band scan, on the clone and on its untouched
// parent.
func TestDerivedTablesMatchBandScan(t *testing.T) {
	seeds := 40
	if testing.Short() {
		seeds = 10
	}
	for _, levels := range []int{5, 127} {
		t.Run(fmt.Sprintf("levels=%d", levels), func(t *testing.T) {
			for seed := 0; seed < seeds; seed++ {
				rng := rand.New(rand.NewSource(int64(seed)))
				idx, point, query := gridIndex(t, rng, levels)
				checkDerivedTables(t, idx, fmt.Sprintf("seed %d build", seed))
				for op := 0; op < 40; op++ {
					next := idx.Clone(idx.Workload().Clone())
					w := next.Workload()
					id := rng.Intn(w.NumObjects())
					var name string
					var err error
					switch rng.Intn(6) {
					case 0, 1: // commits dominate: improving and degrading moves
						if w.IsRemoved(id) {
							continue
						}
						name = fmt.Sprintf("update %d", id)
						err = next.UpdateObject(id, point())
					case 2:
						name = "add object"
						_, err = next.AddObject(point())
					case 3:
						if w.IsRemoved(id) || w.LiveObjects() < 3 {
							continue
						}
						name = fmt.Sprintf("remove object %d", id)
						err = next.RemoveObject(id)
					case 4:
						q := query()
						if rng.Intn(4) == 0 {
							q.K = w.MaxK() + 1 // deepens the band
						}
						name = fmt.Sprintf("add query k=%d", q.K)
						_, err = next.AddQuery(q)
					default:
						j := rng.Intn(w.NumQueries())
						if w.IsQueryRemoved(j) || w.LiveQueries() < 2 {
							continue
						}
						name = fmt.Sprintf("remove query %d", j)
						err = next.RemoveQuery(j)
					}
					if err != nil {
						t.Fatal(err)
					}
					step := fmt.Sprintf("seed %d op %d (%s)", seed, op, name)
					checkDerivedTables(t, next, step)
					checkDerivedTables(t, idx, step+", parent")
					idx = next
				}
			}
		})
	}
}
