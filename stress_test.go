package iq

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"iq/internal/core"
	"iq/internal/vec"
)

// stressFixture builds a small System sized for the stress tests: big enough
// for interesting subdomain structure, small enough that commits are cheap.
func stressFixture(t *testing.T, seed int64) *System {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	const n, m, d = 40, 30, 3
	objects := make([]Vector, n)
	for i := range objects {
		objects[i] = Vector{rng.Float64(), rng.Float64(), rng.Float64()}
	}
	queries := make([]Query, m)
	for j := range queries {
		queries[j] = Query{ID: j, K: 1 + rng.Intn(3),
			Point: Vector{0.05 + 0.95*rng.Float64(), 0.05 + 0.95*rng.Float64(), 0.05 + 0.95*rng.Float64()}}
	}
	sys, err := NewLinear(objects, queries)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestStressReadersWriters hammers one System with concurrent readers
// (EvaluateStrategy, Evaluate, Hits) and writers (Commit, AddObject,
// AddQuery). Beyond surviving the race detector, every read whose
// surrounding epoch did not change is checked against a brute-force recount
// on that pinned snapshot — i.e. each answer is consistent with *some*
// published epoch.
func TestStressReadersWriters(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping concurrency stress test in -short mode")
	}
	sys := stressFixture(t, 60)

	const (
		readers    = 4
		writers    = 2
		readsPerG  = 60
		writesPerG = 15
	)
	var pinned atomic.Int64 // reads verified against a stable snapshot
	var wg sync.WaitGroup

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed)) // per-goroutine RNG: no shared state
			for it := 0; it < readsPerG; it++ {
				target := rng.Intn(sys.NumObjects())
				s := Vector{-0.2 * rng.Float64(), -0.2 * rng.Float64(), -0.2 * rng.Float64()}

				// Pin the epoch around the read: identical workload
				// pointers before and after mean no write was published
				// mid-read, so the answer must match brute force on that
				// exact snapshot.
				w1 := sys.Workload()
				got, err := sys.EvaluateStrategy(target, s)
				w2 := sys.Workload()
				if err != nil {
					// A concurrent writer may have tombstoned the target;
					// anything else is a real failure.
					if w1.IsRemoved(target) || w2.IsRemoved(target) {
						continue
					}
					t.Errorf("EvaluateStrategy(%d): %v", target, err)
					continue
				}
				if w1 == w2 {
					want, werr := w1.HitsExact(vec.Add(w1.Attrs(target), s), target)
					if werr != nil {
						t.Errorf("HitsExact(%d): %v", target, werr)
						continue
					}
					if got != want {
						t.Errorf("pinned epoch: EvaluateStrategy(%d)=%d, brute force=%d", target, got, want)
					}
					pinned.Add(1)
				}

				// Plain top-k reads and hit counts must never error or
				// observe torn state regardless of writer activity.
				q := Query{ID: 1000 + it, K: 1 + rng.Intn(3),
					Point: Vector{0.1 + rng.Float64(), 0.1 + rng.Float64(), 0.1 + rng.Float64()}}
				if res, err := sys.EvaluateCtx(context.Background(), q); err != nil {
					t.Errorf("Evaluate: %v", err)
				} else if len(res) > q.K {
					t.Errorf("Evaluate returned %d > k=%d objects", len(res), q.K)
				}
				if _, err := sys.Hits(target % 10); err != nil { // first 10 objects never tombstoned
					t.Errorf("Hits(%d): %v", target%10, err)
				}
			}
		}(int64(100 + r))
	}

	for wtr := 0; wtr < writers; wtr++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for it := 0; it < writesPerG; it++ {
				switch rng.Intn(3) {
				case 0:
					// Commit a small strategy to a never-removed object.
					target := 10 + rng.Intn(10)
					s := Vector{-0.05 * rng.Float64(), -0.05 * rng.Float64(), -0.05 * rng.Float64()}
					if err := sys.CommitCtx(context.Background(), target, s); err != nil {
						t.Errorf("Commit(%d): %v", target, err)
					}
				case 1:
					if _, err := sys.AddObjectCtx(context.Background(), Vector{rng.Float64(), rng.Float64(), rng.Float64()}); err != nil {
						t.Errorf("AddObject: %v", err)
					}
				default:
					q := Query{ID: 5000 + int(seed)*100 + it, K: 1 + rng.Intn(3),
						Point: Vector{0.05 + 0.95*rng.Float64(), 0.05 + 0.95*rng.Float64(), 0.05 + 0.95*rng.Float64()}}
					if _, err := sys.AddQueryCtx(context.Background(), q); err != nil {
						t.Errorf("AddQuery: %v", err)
					}
				}
			}
		}(int64(200 + wtr))
	}

	wg.Wait()

	// The final epoch must reflect every write and still satisfy the index
	// invariant.
	wantEpoch := uint64(writers * writesPerG)
	if got := sys.Epoch(); got != wantEpoch {
		t.Errorf("final epoch %d, want %d", got, wantEpoch)
	}
	if err := checkPartition(sys.Index()); err != nil {
		t.Errorf("index invariant after stress: %v", err)
	}
	if pinned.Load() == 0 {
		t.Error("no read ever pinned a stable epoch; consistency assertion never exercised")
	}
	t.Logf("verified %d pinned-epoch reads against brute force", pinned.Load())
}

// TestStressMinCostDuringCommits runs full greedy solves (the heaviest read
// path) while commits land, asserting
// each solve is internally consistent with the epoch it started from.
func TestStressMinCostDuringCommits(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping concurrency stress test in -short mode")
	}
	sys := stressFixture(t, 61)
	var wg sync.WaitGroup
	stop := make(chan struct{})

	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(300))
		for {
			select {
			case <-stop:
				return
			default:
			}
			target := 20 + rng.Intn(10)
			if err := sys.CommitCtx(context.Background(), target, Vector{-0.02, -0.02, -0.02}); err != nil {
				t.Errorf("Commit(%d): %v", target, err)
			}
		}
	}()

	rng := rand.New(rand.NewSource(301))
	for it := 0; it < 12; it++ {
		target := rng.Intn(10)
		res, err := sys.MinCost(MinCostRequest{Target: target, Tau: 4, Cost: L2Cost{}})
		if err != nil {
			t.Fatalf("MinCost(%d): %v", target, err)
		}
		if res.Hits < 4 {
			t.Fatalf("MinCost(%d): %d hits < tau 4", target, res.Hits)
		}
		if _, err := sys.MaxHit(MaxHitRequest{Target: target, Budget: 0.5, Cost: L2Cost{}}); err != nil {
			t.Fatalf("MaxHit(%d): %v", target, err)
		}
	}
	close(stop)
	wg.Wait()
	if err := checkPartition(sys.Index()); err != nil {
		t.Errorf("index invariant after stress: %v", err)
	}
}

// TestStressSolvesDuringRecovery pins down the recovery-concurrency
// contract: while WAL replay is still running, Open has not returned (so a
// server admitting solves before then can only be serving 503s), and any
// code holding the checkpoint-loaded System — the server's readiness probe,
// a diagnostic endpoint — sees exactly the checkpoint state or a fully
// published replayed prefix, never a half-applied epoch.
func TestStressSolvesDuringRecovery(t *testing.T) {
	const (
		historyWrites   = 10
		checkpointAfter = 4
	)
	ctx := context.Background()
	dir := t.TempDir()
	store, err := OpenCtx(ctx, dir, quietOpts(FsyncOff))
	if err != nil {
		t.Fatal(err)
	}
	sys := stressFixture(t, 77)
	if err := store.Attach(ctx, sys); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < historyWrites; i++ {
		if i == checkpointAfter {
			if err := store.CheckpointCtx(ctx); err != nil {
				t.Fatal(err)
			}
		}
		target := 10 + i
		if err := sys.CommitCtx(ctx, target, Vector{-0.02, -0.01, -0.015}); err != nil {
			t.Fatal(err)
		}
	}
	preCrash, err := sys.MinCost(MinCostRequest{Target: 0, Tau: 3, Cost: L2Cost{}})
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen with replay paused at its first mutation checkpoint: the hook
	// blocks the replay goroutine while concurrent solves hammer the
	// checkpoint-loaded System.
	var recovered atomic.Pointer[System]
	replayStarted := make(chan struct{})
	release := make(chan struct{})
	var pauseOnce sync.Once
	restore := core.SetIterationHook(func(op string, _ int) {
		if op != "mutation" {
			return
		}
		pauseOnce.Do(func() {
			close(replayStarted)
			<-release
		})
	})
	defer restore()

	type opened struct {
		store *Store
		err   error
	}
	done := make(chan opened, 1)
	go func() {
		st, err := OpenCtx(ctx, dir, OpenOptions{Fsync: FsyncOff, FsyncInterval: time.Hour,
			Logger:           quietLogger(),
			checkpointLoaded: func(s *System) { recovered.Store(s) }})
		done <- opened{st, err}
	}()

	<-replayStarted
	select {
	case <-done:
		t.Fatal("Open returned while replay was paused — solves could see a half-recovered store")
	default:
	}
	rsys := recovered.Load()
	if rsys == nil {
		t.Fatal("checkpoint-loaded System not observed before replay")
	}
	// Replay is parked before publishing its first transaction: the visible
	// epoch must be exactly the checkpoint's, and solves against it must be
	// stable (no publication can land while the replayer is blocked).
	if got := rsys.Epoch(); got != checkpointAfter {
		t.Fatalf("paused-replay epoch %d, want checkpoint epoch %d", got, checkpointAfter)
	}
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(target int) {
			defer wg.Done()
			w1 := rsys.Workload()
			if _, err := rsys.MinCost(MinCostRequest{Target: target, Tau: 2, Cost: L2Cost{}}); err != nil {
				t.Errorf("solve during paused replay: %v", err)
			}
			if w2 := rsys.Workload(); w1 != w2 {
				t.Error("epoch changed under a solve while replay was paused")
			}
		}(r)
	}
	wg.Wait()

	close(release)
	res := <-done
	if res.err != nil {
		t.Fatalf("Open after release: %v", res.err)
	}
	defer res.store.Close()
	if res.store.System() != rsys {
		t.Fatal("Open returned a different System than the checkpoint-loaded one")
	}
	if got := rsys.Epoch(); got != historyWrites {
		t.Fatalf("recovered epoch %d, want %d", got, historyWrites)
	}
	postCrash, err := rsys.MinCost(MinCostRequest{Target: 0, Tau: 3, Cost: L2Cost{}})
	if err != nil {
		t.Fatal(err)
	}
	if postCrash.Cost != preCrash.Cost || postCrash.Hits != preCrash.Hits {
		t.Fatalf("post-recovery solve diverged: %+v vs %+v", postCrash, preCrash)
	}
	for d := range preCrash.Strategy {
		if postCrash.Strategy[d] != preCrash.Strategy[d] {
			t.Fatalf("post-recovery strategy differs at dim %d", d)
		}
	}
}
