package iq

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sync"
	"testing"

	"iq/internal/core"
	"iq/internal/subdomain"
	"iq/internal/vec"
)

// identicalResults is bit-level equality over everything a caller can see.
func identicalResults(a, b *Result) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	return vec.Equal(a.Strategy, b.Strategy) && a.Cost == b.Cost &&
		a.Hits == b.Hits && a.BaseHits == b.BaseHits
}

// rebuiltSystem returns a System over a from-scratch index built on a clone
// of sys's current workload: its band and rows are computed whole rather
// than maintained mutation by mutation, and it has no stored tables.
func rebuiltSystem(t *testing.T, sys *System) *System {
	t.Helper()
	st := sys.view()
	w := st.w.Clone()
	idx, err := subdomain.Build(w, st.opts)
	if err != nil {
		t.Fatal(err)
	}
	return newSystem(w, idx, st.opts)
}

// rowsOf deep-copies every query's row of idx.
func rowsOf(idx *subdomain.Index) [][]subdomain.Entry {
	rows := make([][]subdomain.Entry, idx.Workload().NumQueries())
	for j := range rows {
		rows[j] = append([]subdomain.Entry(nil), idx.Row(j)...)
	}
	return rows
}

// sameRow reports whether two rows hold the same ids with the same score
// bits, in the same order.
func sameRow(a, b []subdomain.Entry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID || math.Float64bits(a[i].Score) != math.Float64bits(b[i].Score) {
			return false
		}
	}
	return true
}

// randomMutation applies one random System mutation and reports its name.
func randomMutation(t *testing.T, rng *rand.Rand, sys *System) string {
	t.Helper()
	for {
		switch rng.Intn(6) {
		case 0, 1: // commits dominate real write traffic
			target := rng.Intn(sys.NumObjects())
			if sys.Workload().IsRemoved(target) {
				continue
			}
			strategy := Vector{0, 0, 0}
			strategy[rng.Intn(3)] = (rng.Float64() - 0.7) * 0.2
			if err := sys.Commit(target, strategy); err != nil {
				t.Fatal(err)
			}
			return "commit"
		case 2:
			if _, err := sys.AddObject(Vector{rng.Float64(), rng.Float64(), rng.Float64()}); err != nil {
				t.Fatal(err)
			}
			return "add-object"
		case 3:
			id := rng.Intn(sys.NumObjects())
			if sys.Workload().IsRemoved(id) || sys.Workload().LiveObjects() < 10 {
				continue
			}
			if err := sys.RemoveObject(id); err != nil {
				t.Fatal(err)
			}
			return "remove-object"
		case 4:
			q := Query{ID: 10000 + rng.Intn(1<<20), K: 1 + rng.Intn(3),
				Point: Vector{0.05 + 0.95*rng.Float64(), 0.05 + 0.95*rng.Float64(), 0.05 + 0.95*rng.Float64()}}
			if _, err := sys.AddQuery(q); err != nil {
				t.Fatal(err)
			}
			return "add-query"
		default:
			j := rng.Intn(sys.NumQueries())
			if sys.Workload().IsQueryRemoved(j) {
				continue
			}
			if err := sys.RemoveQuery(j); err != nil {
				t.Fatal(err)
			}
			return "remove-query"
		}
	}
}

// TestInvalidationBitIdentical is the write path's correctness bar: across
// seeds, interleaving mutations with two solves each, the System —
// whose rows each mutation maintained and whose tables are stored across
// solves — must answer bit-identically to a from-scratch rebuild of the same
// epoch. A row the maintenance got wrong shows up here as a stale threshold
// changing a greedy decision.
func TestInvalidationBitIdentical(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sys := stressFixture(t, 500+seed)
		for step := 0; step < 8; step++ {
			op := randomMutation(t, rng, sys)
			for solve := 0; solve < 2; solve++ {
				target := rng.Intn(sys.NumObjects())
				if sys.Workload().IsRemoved(target) {
					continue
				}
				req := MinCostRequest{Target: target, Tau: 3 + rng.Intn(6), Cost: L2Cost{}}

				// Two passes: the first may derive the table, the second
				// reads it stored. Both must match the rebuild.
				warm1, err1 := sys.MinCost(req)
				warm2, err2 := sys.MinCost(req)
				cold, coldErr := rebuiltSystem(t, sys).MinCost(req)

				if (err1 == nil) != (coldErr == nil) || (err2 == nil) != (coldErr == nil) {
					t.Fatalf("seed %d step %d (%s) solve %d: error mismatch warm1=%v warm2=%v rebuilt=%v",
						seed, step, op, solve, err1, err2, coldErr)
				}
				if !identicalResults(cold, warm1) || !identicalResults(cold, warm2) {
					t.Fatalf("seed %d step %d (%s) solve %d target %d: maintained diverged from rebuilt\n rebuilt %+v\n warm1   %+v\n warm2   %+v",
						seed, step, op, solve, target, cold, warm1, warm2)
				}
			}
		}
	}
}

// TestCommitKeepsWarmPath drives row maintenance through the real write
// path (Commit → mutateCtx → publish): commits to an object that every live
// object dominates change no query's top-k, so every row of the published
// snapshot equals the parent's and the repeat solve is bit-identical.
func TestCommitKeepsWarmPath(t *testing.T) {
	sys := stressFixture(t, 61)
	far := Vector{0, 0, 0}
	for id := 0; id < sys.NumObjects(); id++ {
		for i, a := range sys.Attrs(id) {
			far[i] = max(far[i], a+1000)
		}
	}
	farID, err := sys.AddObject(far)
	if err != nil {
		t.Fatal(err)
	}
	req := MinCostRequest{Target: 3, Tau: 5, Cost: L2Cost{}}
	before, err := sys.MinCost(req)
	if err != nil {
		t.Fatal(err)
	}
	rows := rowsOf(sys.Index())
	for _, step := range []Vector{{1, 0, 0}, {-1, 0, 0}} {
		if err := sys.Commit(farID, step); err != nil {
			t.Fatal(err)
		}
	}
	for j, r := range rowsOf(sys.Index()) {
		if !sameRow(r, rows[j]) {
			t.Fatalf("far-object commits changed query %d's row: %v -> %v", j, rows[j], r)
		}
	}
	res, err := sys.MinCost(req)
	if err != nil {
		t.Fatal(err)
	}
	if !identicalResults(before, res) {
		t.Fatalf("repeat solve after far-object commits diverged: %+v vs %+v", res, before)
	}
}

// TestApplyBatchMatchesSequential drives the same mutation list through
// ApplyBatch on one System and one-at-a-time on another, then requires both
// to agree on every solve — the batched path (one clone for every mutation)
// must be observationally identical.
func TestApplyBatchMatchesSequential(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(700 + seed))
		batched := stressFixture(t, 900+seed)
		sequential := stressFixture(t, 900+seed)

		var muts []Mutation
		for i := 0; i < 6; i++ {
			switch rng.Intn(4) {
			case 0:
				s := Vector{0, 0, 0}
				s[rng.Intn(3)] = -rng.Float64() * 0.1
				muts = append(muts, Mutation{Commit: &CommitMutation{Target: rng.Intn(batched.NumObjects()), Strategy: s}})
			case 1:
				muts = append(muts, Mutation{AddObject: &AddObjectMutation{Attrs: Vector{rng.Float64(), rng.Float64(), rng.Float64()}}})
			case 2:
				muts = append(muts, Mutation{AddQuery: &AddQueryMutation{Query: Query{
					ID: 20000 + i, K: 1 + rng.Intn(3),
					Point: Vector{0.05 + 0.95*rng.Float64(), 0.05 + 0.95*rng.Float64(), 0.05 + 0.95*rng.Float64()}}}})
			default:
				muts = append(muts, Mutation{RemoveQuery: &RemoveQueryMutation{Index: rng.Intn(batched.NumQueries())}})
			}
		}

		epochBefore := batched.Epoch()
		results, err := batched.ApplyBatch(muts)
		if err != nil {
			t.Fatal(err)
		}
		if batched.Epoch() != epochBefore+1 {
			t.Fatalf("seed %d: batch published %d epochs, want exactly 1", seed, batched.Epoch()-epochBefore)
		}
		for i, m := range muts {
			var id int
			var err error
			switch {
			case m.Commit != nil:
				id, err = -1, sequential.Commit(m.Commit.Target, m.Commit.Strategy)
			case m.AddObject != nil:
				id, err = sequential.AddObject(m.AddObject.Attrs)
			case m.AddQuery != nil:
				id, err = sequential.AddQuery(m.AddQuery.Query)
			default:
				id, err = -1, sequential.RemoveQuery(m.RemoveQuery.Index)
			}
			if err != nil {
				t.Fatal(err)
			}
			if results[i].ID != id {
				t.Fatalf("seed %d mutation %d: batch assigned id %d, sequential %d", seed, i, results[i].ID, id)
			}
		}
		if err := checkPartition(batched.Index()); err != nil {
			t.Fatalf("seed %d: batched index invariant: %v", seed, err)
		}
		for trial := 0; trial < 4; trial++ {
			target := rng.Intn(batched.NumObjects())
			if batched.Workload().IsRemoved(target) {
				continue
			}
			req := MinCostRequest{Target: target, Tau: 4, Cost: L2Cost{}}
			a, errA := batched.MinCost(req)
			b, errB := sequential.MinCost(req)
			if (errA == nil) != (errB == nil) {
				t.Fatalf("seed %d target %d: error mismatch batched=%v sequential=%v", seed, target, errA, errB)
			}
			if !identicalResults(a, b) {
				t.Fatalf("seed %d target %d: batched and sequential Systems diverged\n batched    %+v\n sequential %+v", seed, target, a, b)
			}
		}
	}
}

// TestApplyBatchRejectsMalformed pins the all-or-nothing contract for input
// errors: a bad operation anywhere in the batch publishes nothing.
func TestApplyBatchRejectsMalformed(t *testing.T) {
	sys := stressFixture(t, 31)
	epoch := sys.Epoch()
	for _, muts := range [][]Mutation{
		{{}}, // no operation set
		{{Commit: &CommitMutation{Target: 0, Strategy: Vector{0, 0, 0}},
			AddObject: &AddObjectMutation{Attrs: Vector{1, 1, 1}}}}, // two set
		{{Commit: &CommitMutation{Target: 0, Strategy: Vector{0, 0, 0}}},
			{Commit: &CommitMutation{Target: -1, Strategy: Vector{0, 0, 0}}}}, // bad target after good op
		{{Commit: &CommitMutation{Target: 0, Strategy: Vector{0, 0}}}}, // bad dimension
	} {
		if _, err := sys.ApplyBatch(muts); err == nil {
			t.Fatalf("malformed batch %+v accepted", muts)
		}
	}
	if sys.Epoch() != epoch {
		t.Fatal("failed batches must not publish an epoch")
	}
	if res, err := sys.ApplyBatch(nil); err != nil || res != nil {
		t.Fatalf("empty batch: got (%v, %v), want (nil, nil)", res, err)
	}
	if sys.Epoch() != epoch {
		t.Fatal("empty batch must not publish an epoch")
	}
}

// TestBatchCancelDiscardsDirtySet is the cancel-path audit: a batch
// cancelled between mutations must discard the clone with every row it
// changed — the published System keeps its epoch, its attributes and its
// rows — and a retry succeeds.
func TestBatchCancelDiscardsDirtySet(t *testing.T) {
	sys := stressFixture(t, 41)
	epoch := sys.Epoch()
	attrs := sys.Attrs(5)
	rows := rowsOf(sys.Index())

	muts := []Mutation{
		{Commit: &CommitMutation{Target: 5, Strategy: Vector{-0.05, 0, 0}}},
		{Commit: &CommitMutation{Target: 6, Strategy: Vector{0, -0.05, 0}}},
		{Commit: &CommitMutation{Target: 7, Strategy: Vector{0, 0, -0.05}}},
		{Commit: &CommitMutation{Target: 8, Strategy: Vector{-0.05, 0, 0}}},
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	restore := core.SetIterationHook(func(op string, iteration int) {
		if op == "mutation" && iteration == 2 {
			cancel() // two mutations already applied to the clone
		}
	})
	results, err := sys.ApplyBatchCtx(ctx, muts)
	restore()
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled batch returned %v, want ErrCanceled wrapping context.Canceled", err)
	}
	if results != nil {
		t.Fatal("cancelled batch must not return results")
	}
	if sys.Epoch() != epoch {
		t.Fatalf("cancelled batch published epoch %d -> %d", epoch, sys.Epoch())
	}
	if !vec.Equal(sys.Attrs(5), attrs) {
		t.Fatal("cancelled batch leaked a mutation into the published workload")
	}
	for j, r := range rowsOf(sys.Index()) {
		if !sameRow(r, rows[j]) {
			t.Fatalf("cancelled batch changed query %d's published row: %v -> %v", j, rows[j], r)
		}
	}

	// The retry (no cancellation) applies cleanly.
	if _, err := sys.ApplyBatch(muts); err != nil {
		t.Fatal(err)
	}
	if sys.Epoch() != epoch+1 {
		t.Fatalf("retry published epoch %d, want %d", sys.Epoch(), epoch+1)
	}
	if vec.Equal(sys.Attrs(5), attrs) {
		t.Fatal("retried batch did not apply")
	}
}

// TestStressSolvesDuringBatchedCommits races concurrent warm solves against
// batched commits under the race detector: every solve must complete without
// error and the final index must satisfy the grouping invariant and answer
// bit-identically to a from-scratch rebuild.
func TestStressSolvesDuringBatchedCommits(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping concurrency stress test in -short mode")
	}
	sys := stressFixture(t, 83)
	const readers, solvesPerG, batches = 4, 25, 12
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < solvesPerG; i++ {
				target := rng.Intn(40)
				if _, err := sys.MinCost(MinCostRequest{Target: target, Tau: 3, Cost: L2Cost{}}); err != nil {
					t.Errorf("reader solve failed: %v", err)
					return
				}
			}
		}(int64(100 + r))
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(999))
		for b := 0; b < batches; b++ {
			muts := make([]Mutation, 0, 3)
			for i := 0; i < 3; i++ {
				s := Vector{0, 0, 0}
				s[rng.Intn(3)] = (rng.Float64() - 0.6) * 0.1
				muts = append(muts, Mutation{Commit: &CommitMutation{Target: rng.Intn(40), Strategy: s}})
			}
			if _, err := sys.ApplyBatch(muts); err != nil {
				t.Errorf("batch %d failed: %v", b, err)
				return
			}
		}
	}()
	wg.Wait()

	if err := checkPartition(sys.Index()); err != nil {
		t.Fatal(err)
	}
	req := MinCostRequest{Target: 11, Tau: 4, Cost: L2Cost{}}
	warm, err := sys.MinCost(req)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := rebuiltSystem(t, sys).MinCost(req)
	if err != nil {
		t.Fatal(err)
	}
	if !identicalResults(cold, warm) {
		t.Fatalf("post-stress warm solve diverged from the rebuild: %+v vs %+v", warm, cold)
	}
}
