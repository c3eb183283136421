package subdomain

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"iq/internal/topk"
	"iq/internal/vec"
)

// thresholdOracle computes, for every (target, query) pair, what the core
// layer caches: the K-th best score among the live candidates excluding the
// target, and whether it exists (false = fewer than K competitors, any score
// hits). This mirrors a row of core's hit table exactly.
func thresholdOracle(x *Index) map[[2]int][2]float64 {
	w := x.Workload()
	out := map[[2]int][2]float64{}
	cands := x.Candidates()
	for target := 0; target < w.NumObjects(); target++ {
		eval := cands
		if x.IsCandidate(target) {
			eval = make([]int, 0, len(cands))
			for _, c := range cands {
				if c != target {
					eval = append(eval, c)
				}
			}
		}
		for j := 0; j < w.NumQueries(); j++ {
			if w.IsQueryRemoved(j) {
				continue
			}
			q := w.Query(j)
			res := w.EvaluateAmong(eval, q)
			if len(res.Ordered) < q.K {
				out[[2]int{target, j}] = [2]float64{math.Inf(-1), 0}
			} else {
				out[[2]int{target, j}] = [2]float64{res.KthScore, 1}
			}
		}
	}
	return out
}

// TestDirtySetSoundness is the core guarantee behind dirty-set cache
// migration: after any mutation, every (target, query) pair the dirty set
// calls clean must have a bit-identical hit threshold. It fuzzes every
// mutation kind over several seeds and checks the full oracle each step.
func TestDirtySetSoundness(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			idx := buildRandom(t, rng, 40, 30, 3, 3, Options{})
			idx.TakeDirty() // discard build-time state (none expected)
			for step := 0; step < 25; step++ {
				before := thresholdOracle(idx)
				op := applyRandomMutation(t, rng, idx)
				ds := idx.TakeDirty()
				after := thresholdOracle(idx)
				w := idx.Workload()
				for target := 0; target < w.NumObjects(); target++ {
					for j := 0; j < w.NumQueries(); j++ {
						if ds.QueryDirtyFor(j, target) {
							continue
						}
						key := [2]int{target, j}
						b, okB := before[key]
						a, okA := after[key]
						if !okB || !okA {
							continue // query added this step (dirty anyway) or removed
						}
						if a != b {
							t.Fatalf("seed %d step %d (%s): clean query %d target %d changed threshold: %v -> %v (dirty queries %d)",
								seed, step, op, j, target, b, a, ds.QueryCount())
						}
					}
				}
				if err := idx.CheckInvariant(); err != nil {
					t.Fatalf("seed %d step %d (%s): %v", seed, step, op, err)
				}
			}
		})
	}
}

// applyRandomMutation performs one random mutation and returns its name.
func applyRandomMutation(t *testing.T, rng *rand.Rand, idx *Index) string {
	t.Helper()
	w := idx.Workload()
	for {
		switch rng.Intn(6) {
		case 0: // update a random live object (commit-style improvement)
			id := rng.Intn(w.NumObjects())
			if w.IsRemoved(id) {
				continue
			}
			attrs := vec.Clone(w.Attrs(id))
			for i := range attrs {
				attrs[i] += (rng.Float64() - 0.6) * 0.3
			}
			if err := idx.UpdateObject(id, attrs); err != nil {
				t.Fatal(err)
			}
			return "update-object"
		case 1: // degrade a random object (can demote candidates)
			id := rng.Intn(w.NumObjects())
			if w.IsRemoved(id) {
				continue
			}
			attrs := vec.Clone(w.Attrs(id))
			for i := range attrs {
				attrs[i] += rng.Float64() * 0.5
			}
			if err := idx.UpdateObject(id, attrs); err != nil {
				t.Fatal(err)
			}
			return "degrade-object"
		case 2:
			if _, err := idx.AddObject(randVec(rng, len(w.Attrs(0)))); err != nil {
				t.Fatal(err)
			}
			return "add-object"
		case 3:
			id := rng.Intn(w.NumObjects())
			if w.IsRemoved(id) || w.LiveObjects() < 10 {
				continue
			}
			if err := idx.RemoveObject(id); err != nil {
				t.Fatal(err)
			}
			return "remove-object"
		case 4:
			q := topk.Query{ID: 1000 + rng.Intn(100000), K: 1 + rng.Intn(3), Point: randVec(rng, len(w.Query(0).Point))}
			if _, err := idx.AddQuery(q); err != nil {
				t.Fatal(err)
			}
			return "add-query"
		default:
			j := rng.Intn(w.NumQueries())
			if idx.SubdomainOf(j) == nil {
				continue
			}
			if err := idx.RemoveQuery(j); err != nil {
				t.Fatal(err)
			}
			return "remove-query"
		}
	}
}

// TestDirtySetCleanMutations asserts the headline cases: mutations that
// cannot touch any top-k leave the dirty set completely empty, so every
// cache survives.
func TestDirtySetCleanMutations(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	idx := buildRandom(t, rng, 60, 40, 3, 3, Options{})

	// A globally dominated object: worse than everything on every axis. It
	// can never enter a skyband and dominates nothing.
	worst := make(vec.Vector, 3)
	for i := range worst {
		worst[i] = 100
	}
	id, err := idx.AddObject(worst)
	if err != nil {
		t.Fatal(err)
	}
	ds := idx.TakeDirty()
	if !ds.Empty() {
		t.Fatalf("adding a dominated object dirtied state: %d queries, candChanged=%v", ds.QueryCount(), ds.CandidatesChanged())
	}
	if idx.IsCandidate(id) {
		t.Fatal("dominated object became a candidate")
	}

	// Updating it (still dominated) dirties only the object itself.
	if err := idx.UpdateObject(id, vec.Vector{90, 95, 92}); err != nil {
		t.Fatal(err)
	}
	ds = idx.TakeDirty()
	if ds.QueryCount() != 0 || ds.CandidatesChanged() {
		t.Fatalf("updating a dominated object dirtied queries=%d candChanged=%v", ds.QueryCount(), ds.CandidatesChanged())
	}
	if !ds.ObjectDirty(id) {
		t.Fatal("updated object not marked dirty")
	}

	// Removing it likewise.
	if err := idx.RemoveObject(id); err != nil {
		t.Fatal(err)
	}
	ds = idx.TakeDirty()
	if ds.QueryCount() != 0 || ds.CandidatesChanged() {
		t.Fatal("removing a dominated object dirtied shared state")
	}
	if !ds.ObjectDirty(id) {
		t.Fatal("removed object not marked dirty")
	}
}

// TestDirtySetMergeAndAttribution covers the sole-source bookkeeping.
func TestDirtySetMergeAndAttribution(t *testing.T) {
	a := newDirtySet()
	a.markQuery(3, 7)
	a.markQuery(4, 7)
	b := newDirtySet()
	b.markQuery(4, 9)
	b.markQuery(5, -1)
	b.markObject(9)
	b.markCandidatesChanged()
	a.merge(b)
	if !a.QueryDirtyFor(3, 0) || a.QueryDirtyFor(3, 7) {
		t.Fatal("sole-source query 3 misattributed")
	}
	if !a.QueryDirtyFor(4, 7) || !a.QueryDirtyFor(4, 9) {
		t.Fatal("query 4 with two sources must be dirty for both")
	}
	if !a.QueryDirty(5) || !a.ObjectDirty(9) || !a.CandidatesChanged() {
		t.Fatal("merge lost state")
	}
	a.markAll()
	if !a.All() || !a.QueryDirtyFor(99, 99) {
		t.Fatal("markAll must degrade to whole-epoch invalidation")
	}
}
