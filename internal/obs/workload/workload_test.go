package workload

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// fakeClock is an injectable deterministic clock.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func newTestAgg(window time.Duration, buckets, maxKeys int) (*Aggregator, *fakeClock) {
	clk := &fakeClock{now: time.Unix(1_000_000, 0)}
	return New(Options{Window: window, Buckets: buckets, MaxKeys: maxKeys, Now: clk.Now}), clk
}

func recordOne(a *Aggregator, region uint64, pos float64, loadNS int64) {
	a.RecordSolve("mincost", 1, time.Duration(loadNS), 1, 10, 0, 0,
		[]RegionSample{{Region: region, Pos: pos, Probes: 10}})
}

// TestWindowRotation drives the injected clock across bucket boundaries and
// asserts counts age out of the window exactly.
func TestWindowRotation(t *testing.T) {
	a, clk := newTestAgg(60*time.Second, 6, 64) // 10s buckets

	recordOne(a, 1, 0.5, 1000)
	snap := a.Snapshot()
	if len(snap.Regions) != 1 || snap.Regions[0].LoadNS != 1000 {
		t.Fatalf("fresh record not visible: %+v", snap.Regions)
	}

	// Still inside the window 50s later (5 buckets on).
	clk.Advance(50 * time.Second)
	recordOne(a, 2, 0.9, 500)
	snap = a.Snapshot()
	if len(snap.Regions) != 2 {
		t.Fatalf("want both regions inside the window, got %+v", snap.Regions)
	}

	// 10s more pushes region 1's bucket past the 6-bucket window; region 2
	// (recorded at +50s) stays.
	clk.Advance(10 * time.Second)
	snap = a.Snapshot()
	if len(snap.Regions) != 1 || snap.Regions[0].Region != 2 {
		t.Fatalf("want only region 2 after rotation, got %+v", snap.Regions)
	}

	// A full window later everything is cold.
	clk.Advance(60 * time.Second)
	if snap = a.Snapshot(); len(snap.Regions) != 0 {
		t.Fatalf("want empty window, got %+v", snap.Regions)
	}

	// The ring reuses cells: a record in the same slot as an expired period
	// must not resurrect the old counts.
	recordOne(a, 1, 0.5, 777)
	snap = a.Snapshot()
	if len(snap.Regions) != 1 || snap.Regions[0].LoadNS != 777 {
		t.Fatalf("cell rotation leaked stale counts: %+v", snap.Regions)
	}
}

// TestCardinalityOverflow fills the key budget and asserts excess keys fold
// into the overflow slot with both accounting counters advancing.
func TestCardinalityOverflow(t *testing.T) {
	// Budget 5: one (target, op) slot plus four region slots.
	a, _ := newTestAgg(time.Minute, 6, 5)
	for r := uint64(1); r <= 4; r++ {
		recordOne(a, r, float64(r), 100)
	}
	snap := a.Snapshot()
	if snap.TrackedKeys != 5 || snap.DroppedKeys != 0 {
		t.Fatalf("pre-overflow accounting wrong: tracked=%d dropped=%d", snap.TrackedKeys, snap.DroppedKeys)
	}
	// Keys 5..7 exceed the budget (the target slot takes budget too, but the
	// cap check is on total keys; these must fold).
	for r := uint64(5); r <= 7; r++ {
		recordOne(a, r, float64(r), 900)
	}
	snap = a.Snapshot()
	if snap.DroppedKeys == 0 || snap.OverflowRecs == 0 {
		t.Fatalf("overflow not accounted: dropped=%d overflow=%d", snap.DroppedKeys, snap.OverflowRecs)
	}
	if snap.Overflow.LoadNS == 0 || snap.Overflow.Probes == 0 {
		t.Fatalf("overflow slot recorded nothing: %+v", snap.Overflow)
	}
	for _, r := range snap.Regions {
		if r.Region >= 5 && r.Region <= 7 {
			t.Fatalf("over-budget region %d got its own slot", r.Region)
		}
	}
}

// TestRetireRegions drops a slot and frees its budget for a new key.
func TestRetireRegions(t *testing.T) {
	a, _ := newTestAgg(time.Minute, 6, 64)
	recordOne(a, 1, 0.1, 100)
	recordOne(a, 2, 0.2, 200)
	before := a.Snapshot()
	if len(before.Regions) != 2 {
		t.Fatalf("setup: %+v", before.Regions)
	}
	a.RetireRegions([]uint64{1, 99}) // 99 unknown: no-op
	snap := a.Snapshot()
	if len(snap.Regions) != 1 || snap.Regions[0].Region != 2 {
		t.Fatalf("retire failed: %+v", snap.Regions)
	}
	if snap.RetiredSlots != 1 {
		t.Fatalf("retired accounting: want 1, got %d", snap.RetiredSlots)
	}
	if snap.TrackedKeys != before.TrackedKeys-1 {
		t.Fatalf("budget not freed: %d -> %d", before.TrackedKeys, snap.TrackedKeys)
	}
}

// TestCommitChurnAttribution checks churn lands on the right regions and
// ChurnLeaders re-sorts by it.
func TestCommitChurnAttribution(t *testing.T) {
	a, _ := newTestAgg(time.Minute, 6, 64)
	recordOne(a, 1, 0.1, 5000) // hot by load
	recordOne(a, 2, 0.2, 100)
	a.RecordCommit([]ChurnSample{
		{Region: 2, Pos: 0.2, Dirty: 40},
		{Region: 1, Pos: 0.1, Dirty: 3},
	})
	snap := a.Snapshot()
	leaders := snap.ChurnLeaders()
	if leaders[0].Region != 2 || leaders[0].Churn != 40 || leaders[0].Commits != 1 {
		t.Fatalf("churn leader wrong: %+v", leaders)
	}
	if snap.Regions[0].Region != 1 {
		t.Fatalf("load order disturbed by churn: %+v", snap.Regions)
	}
}

// TestSnapshotRanksHotRegions: in a synthetic 80/20-skewed window (80% of
// load in 4 of 24 regions) the snapshot's head must be exactly the hot set.
func TestSnapshotRanksHotRegions(t *testing.T) {
	a, _ := newTestAgg(time.Minute, 6, 256)
	// 4 hot regions spread across the pos axis, 20% of total load each.
	hot := []struct {
		region uint64
		pos    float64
	}{{10, 0.1}, {20, 0.35}, {30, 0.6}, {40, 0.85}}
	const hotLoad = 200_000
	for _, h := range hot {
		recordOne(a, h.region, h.pos, hotLoad)
	}
	// 20 cold regions share the remaining 20%.
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 20; i++ {
		recordOne(a, uint64(100+i), rng.Float64(), 10_000)
	}
	snap := a.Snapshot()

	var total, hotTotal int64
	for _, r := range snap.Regions {
		total += r.LoadNS
	}
	for i := 0; i < 4 && i < len(snap.Regions); i++ {
		hotTotal += snap.Regions[i].LoadNS
	}
	if float64(hotTotal) < 0.8*float64(total) {
		t.Fatalf("setup: top-4 regions carry %.0f%% of load, want >=80%%", 100*float64(hotTotal)/float64(total))
	}
	// Hot regions identified: the snapshot's head must be exactly the hot set.
	for i := 0; i < 4; i++ {
		found := false
		for _, h := range hot {
			if snap.Regions[i].Region == h.region {
				found = true
			}
		}
		if !found {
			t.Fatalf("hot region not in snapshot head: %+v", snap.Regions[:4])
		}
	}
}

// TestSnapshotJSONDeterminism: two snapshots of an unchanged window encode
// identically (the stable query identity the HTTP endpoint advertises).
func TestSnapshotJSONDeterminism(t *testing.T) {
	a, _ := newTestAgg(time.Minute, 6, 64)
	for r := uint64(1); r <= 9; r++ {
		recordOne(a, r, float64(r)/10, int64(r)*100)
	}
	a.RecordCommit([]ChurnSample{{Region: 3, Pos: 0.3, Dirty: 7}})
	j1, _ := json.Marshal(a.Snapshot())
	j2, _ := json.Marshal(a.Snapshot())
	if string(j1) != string(j2) {
		t.Fatalf("snapshot JSON unstable:\n%s\n%s", j1, j2)
	}
}

// TestConcurrentHammer runs record / snapshot / rotate / retire concurrently
// under -race. Correctness bar: no race, no panic, and accounting stays
// non-negative.
func TestConcurrentHammer(t *testing.T) {
	a, clk := newTestAgg(200*time.Millisecond, 4, 32)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				r := uint64(rng.Intn(40))
				a.RecordSolve(fmt.Sprintf("op%d", w%2), w, time.Duration(rng.Intn(1000)), 1, 5, 1, 1,
					[]RegionSample{{Region: r, Pos: float64(r), Probes: 5, ThrHits: 1, ThrMisses: 1}})
				a.RecordCommit([]ChurnSample{{Region: r, Pos: float64(r), Dirty: 2}})
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			clk.Advance(37 * time.Millisecond)
			_ = a.Snapshot()
			a.RetireRegions([]uint64{uint64(clk.Now().UnixNano() % 40)})
			a.Publish(4)
		}
	}()
	time.Sleep(150 * time.Millisecond)
	close(stop)
	wg.Wait()
	snap := a.Snapshot()
	if snap.TrackedKeys < 0 {
		t.Fatalf("negative tracked keys: %d", snap.TrackedKeys)
	}
}
