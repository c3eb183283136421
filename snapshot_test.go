package iq

import (
	"bytes"
	"encoding/gob"
	"errors"
	"math/rand"
	"strings"
	"testing"
	"time"

	"iq/internal/dataset"
	"iq/internal/expr"
	"iq/internal/vec"
)

func TestSaveLoadRoundTripLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	sys := smallSystem(t, rng, 80, 40)
	// Mutate a bit first: remove an object and a query, commit a strategy.
	if err := sys.RemoveObject(3); err != nil {
		t.Fatal(err)
	}
	if err := sys.RemoveQuery(7); err != nil {
		t.Fatal(err)
	}
	res, err := sys.MinCost(MinCostRequest{Target: 5, Tau: 6, Cost: L2Cost{}})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Commit(5, res.Strategy); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := sys.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}

	// Objects identical (including tombstones).
	if loaded.NumObjects() != sys.NumObjects() {
		t.Fatalf("objects %d vs %d", loaded.NumObjects(), sys.NumObjects())
	}
	for i := 0; i < sys.NumObjects(); i++ {
		a, b := sys.Attrs(i), loaded.Attrs(i)
		for d := range a {
			if a[d] != b[d] {
				t.Fatalf("object %d differs", i)
			}
		}
	}
	// Query slots are preserved verbatim: same count, same IDs per index,
	// with the removal carried as a tombstone rather than compacted away.
	if loaded.NumQueries() != sys.NumQueries() {
		t.Fatalf("queries %d vs %d", loaded.NumQueries(), sys.NumQueries())
	}
	for j := 0; j < sys.NumQueries(); j++ {
		if got, want := loaded.Workload().Query(j).ID, sys.Workload().Query(j).ID; got != want {
			t.Fatalf("query %d: ID %d vs %d — indices shifted across Save/Load", j, got, want)
		}
		if got, want := loaded.Workload().IsQueryRemoved(j), sys.Workload().IsQueryRemoved(j); got != want {
			t.Fatalf("query %d: removed=%v vs %v", j, got, want)
		}
	}
	if !loaded.Workload().IsQueryRemoved(7) {
		t.Fatal("query tombstone lost on reload")
	}
	// Behaviour identical: hit counts agree for several targets.
	for _, target := range []int{0, 5, 10} {
		h1, err := sys.Hits(target)
		if err != nil {
			t.Fatal(err)
		}
		h2, err := loaded.Hits(target)
		if err != nil {
			t.Fatal(err)
		}
		if h1 != h2 {
			t.Fatalf("target %d: hits %d vs %d after reload", target, h1, h2)
		}
	}
	// Removed object still removed.
	if _, err := loaded.Hits(3); err == nil {
		t.Error("tombstone lost on reload")
	}
}

func TestSaveLoadExprSpace(t *testing.T) {
	space, err := NewExprSpace("w1 * sqrt(a) + w2 * (a * b)", []string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	objs := make([]Vector, 40)
	for i := range objs {
		objs[i] = Vector{0.2 + 0.8*rng.Float64(), 0.2 + 0.8*rng.Float64()}
	}
	queries := make([]Query, 20)
	for j := range queries {
		queries[j] = Query{ID: j, K: 1 + rng.Intn(3),
			Point: Vector{rng.Float64(), rng.Float64()}}
	}
	sys, err := New(space, objs, queries)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sys.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for target := 0; target < 10; target++ {
		h1, _ := sys.Hits(target)
		h2, _ := loaded.Hits(target)
		if h1 != h2 {
			t.Fatalf("target %d: %d vs %d", target, h1, h2)
		}
	}
}

func TestSaveLoadHeterogeneous(t *testing.T) {
	u, err := NewExprSpace("w1 * a + w2 * b", []string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	v, err := NewExprSpace("w3 * (a * a) + w4 * b", []string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewHeterogeneousSpace(u, v)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	objs := make([]Vector, 30)
	for i := range objs {
		objs[i] = Vector{rng.Float64(), rng.Float64()}
	}
	var queries []Query
	for j := 0; j < 10; j++ {
		p, _ := h.Lift(j%2, Vector{rng.Float64(), rng.Float64()})
		queries = append(queries, Query{ID: j, K: 2, Point: p})
	}
	sys, err := New(h, objs, queries)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sys.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	h1, _ := sys.Hits(4)
	h2, _ := loaded.Hits(4)
	if h1 != h2 {
		t.Fatalf("hits %d vs %d", h1, h2)
	}
}

func TestLoadErrors(t *testing.T) {
	if _, err := Load(strings.NewReader("garbage")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := Load(strings.NewReader("")); err == nil {
		t.Error("empty input accepted")
	}
}

func TestSnapshotSizeSanity(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	objs := dataset.Objects(dataset.Independent, 500, 3, rng)
	queries := dataset.UNQueries(100, 3, 5, false, rng)
	sys, err := NewLinear(objs, queries)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sys.Save(&buf); err != nil {
		t.Fatal(err)
	}
	// ~500×3 + 100×3 float64s plus overhead: must be in the tens of KB.
	if buf.Len() < 10_000 || buf.Len() > 1_000_000 {
		t.Errorf("snapshot size %d bytes looks wrong", buf.Len())
	}
}

// TestSaveLoadExprCostAnswers round-trips a System over a non-linear
// expression space and asserts the *answers* survive, not just the data:
// MinCost and MaxHit under a custom expression cost must return identical
// strategies, costs and hit counts before save and after load.
func TestSaveLoadExprCostAnswers(t *testing.T) {
	space, err := NewExprSpace("w1 * sqrt(a) + w2 * (a * b)", []string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	objs := make([]Vector, 50)
	for i := range objs {
		objs[i] = Vector{0.2 + 0.8*rng.Float64(), 0.2 + 0.8*rng.Float64()}
	}
	queries := make([]Query, 25)
	for j := range queries {
		queries[j] = Query{ID: j, K: 1 + rng.Intn(3),
			Point: Vector{0.05 + rng.Float64(), 0.05 + rng.Float64()}}
	}
	sys, err := New(space, objs, queries)
	if err != nil {
		t.Fatal(err)
	}
	cost, err := NewExprCost("sqrt(2*s1^2 + s2^2)", 2)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := sys.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}

	for target := 0; target < 8; target++ {
		pre, preErr := sys.MinCost(MinCostRequest{Target: target, Tau: 4, Cost: cost})
		post, postErr := loaded.MinCost(MinCostRequest{Target: target, Tau: 4, Cost: cost})
		if (preErr == nil) != (postErr == nil) {
			t.Fatalf("target %d: MinCost error diverged across reload: %v vs %v", target, preErr, postErr)
		}
		if preErr == nil {
			if pre.Cost != post.Cost || pre.Hits != post.Hits || len(pre.Strategy) != len(post.Strategy) {
				t.Fatalf("target %d: MinCost diverged across reload: cost %v/%v hits %d/%d",
					target, pre.Cost, post.Cost, pre.Hits, post.Hits)
			}
			for d := range pre.Strategy {
				if pre.Strategy[d] != post.Strategy[d] {
					t.Fatalf("target %d: MinCost strategy differs at dim %d: %v vs %v",
						target, d, pre.Strategy, post.Strategy)
				}
			}
		}

		preH, preErr := sys.MaxHit(MaxHitRequest{Target: target, Budget: 0.4, Cost: cost})
		postH, postErr := loaded.MaxHit(MaxHitRequest{Target: target, Budget: 0.4, Cost: cost})
		if (preErr == nil) != (postErr == nil) {
			t.Fatalf("target %d: MaxHit error diverged across reload: %v vs %v", target, preErr, postErr)
		}
		if preErr == nil {
			if preH.Cost != postH.Cost || preH.Hits != postH.Hits {
				t.Fatalf("target %d: MaxHit diverged across reload: cost %v/%v hits %d/%d",
					target, preH.Cost, postH.Cost, preH.Hits, postH.Hits)
			}
			for d := range preH.Strategy {
				if preH.Strategy[d] != postH.Strategy[d] {
					t.Fatalf("target %d: MaxHit strategy differs at dim %d", target, d)
				}
			}
		}
	}
}

// TestLoadVersion1Compat pins backward compatibility: a version-1 snapshot
// (no QueryRemoved vector; removed queries compacted out at save time) must
// still load, with its queries occupying the compacted positions.
func TestLoadVersion1Compat(t *testing.T) {
	snap := snapshot{
		Version: 1,
		Space:   spaceSpec{Kind: "linear", Dim: 2},
		Objects: []Vector{{0.2, 0.3}, {0.5, 0.1}, {0.4, 0.9}},
		Removed: []bool{false, true, false},
		QueryID: []int{10, 11},
		QueryK:  []int{1, 2},
		QueryPt: []Vector{{0.5, 0.5}, {0.8, 0.2}},
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(snap); err != nil {
		t.Fatal(err)
	}
	sys, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if sys.NumObjects() != 3 || sys.NumQueries() != 2 {
		t.Fatalf("loaded %d objects / %d queries", sys.NumObjects(), sys.NumQueries())
	}
	if sys.Workload().Query(1).ID != 11 {
		t.Fatal("v1 query order lost")
	}
	if _, err := sys.Hits(1); err == nil {
		t.Fatal("v1 object tombstone lost")
	}
}

// legacySnapshot is the on-disk layout of checkpoints written by earlier
// versions, field for field: every one carries Options.TreeFanout and
// Options.MaxIntersections, which configured the Algorithm 1 partition the
// index then held, and those of the former in-process sharded engine also
// carry Options.SkipRefinement, Options.Shards and Options.RegionBase.
type legacySnapshot struct {
	Version      int
	Epoch        uint64
	Space        spaceSpec
	Objects      []Vector
	Removed      []bool
	QueryID      []int
	QueryK       []int
	QueryPt      []Vector
	QueryRemoved []bool
	Options      legacyOptions
}

type legacyOptions struct {
	TreeFanout       int
	Slack            int
	MaxIntersections int
	SkipRefinement   bool
	Shards           int
	RegionBase       uint64
}

// TestLoadShardedSnapshot: gob skips fields the decoding type no longer
// has, so a checkpoint in the legacy layout, with every legacy option set,
// must load at the saved epoch and answer exactly like the System it was
// saved from.
func TestLoadShardedSnapshot(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	objs := dataset.Objects(dataset.Independent, 80, 3, rng)
	queries := dataset.UNQueries(60, 3, 5, false, rng)
	sys, err := NewWithOptions(LinearSpace{D: 3}, objs, queries, IndexOptions{Slack: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.AddQuery(Query{ID: 901, K: 2, Point: Vector{0.4, 0.3, 0.3}}); err != nil {
		t.Fatal(err)
	}
	if err := sys.RemoveQuery(5); err != nil {
		t.Fatal(err)
	}
	if err := sys.Commit(1, Vector{-0.02, -0.01, 0}); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := sys.Save(&buf); err != nil {
		t.Fatal(err)
	}
	var legacy legacySnapshot
	if err := gob.NewDecoder(&buf).Decode(&legacy); err != nil {
		t.Fatal(err)
	}
	if legacy.Options.Slack != 2 {
		t.Fatalf("saved Slack %d after writes, want 2", legacy.Options.Slack)
	}
	legacy.Options.TreeFanout = 8
	legacy.Options.MaxIntersections = 64
	legacy.Options.SkipRefinement = true
	legacy.Options.Shards = 4
	legacy.Options.RegionBase = 3 << 40
	buf.Reset()
	if err := gob.NewEncoder(&buf).Encode(legacy); err != nil {
		t.Fatal(err)
	}

	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Epoch() != sys.Epoch() {
		t.Fatalf("restored epoch %d, want %d", got.Epoch(), sys.Epoch())
	}
	for _, target := range []int{0, 1, 17, 42} {
		want, err := sys.Hits(target)
		if err != nil {
			t.Fatal(err)
		}
		have, err := got.Hits(target)
		if err != nil {
			t.Fatal(err)
		}
		if have != want {
			t.Fatalf("target %d: restored Hits %d, want %d", target, have, want)
		}
		req := MinCostRequest{Target: target, Tau: want + 6, Cost: L2Cost{}}
		wantRes, wantErr := sys.MinCost(req)
		haveRes, haveErr := got.MinCost(req)
		if (wantErr == nil) != (haveErr == nil) {
			t.Fatalf("target %d: restored MinCost err %v, want %v", target, haveErr, wantErr)
		}
		if wantErr == nil && (!vec.Equal(haveRes.Strategy, wantRes.Strategy) ||
			haveRes.Cost != wantRes.Cost || haveRes.Hits != wantRes.Hits) {
			t.Fatalf("target %d: restored MinCost %v/%v/%d, want %v/%v/%d", target,
				haveRes.Strategy, haveRes.Cost, haveRes.Hits, wantRes.Strategy, wantRes.Cost, wantRes.Hits)
		}
	}
}

// TestSnapshotRejectsFutureVersion keeps the version gate honest.
func TestSnapshotRejectsFutureVersion(t *testing.T) {
	snap := snapshot{Version: snapshotVersion + 1, Space: spaceSpec{Kind: "linear", Dim: 2}}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(snap); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(&buf); err == nil {
		t.Fatal("future snapshot version accepted")
	}
}

// TestSaveLoadQueryIndexStability is the satellite regression test: a caller
// holding a query index from before Save must address the same query after
// Load, and mutations on the loaded System must behave exactly as on the
// original — including RemoveQuery of a slot that sits after a tombstone.
func TestSaveLoadQueryIndexStability(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	sys := smallSystem(t, rng, 60, 30)
	for _, j := range []int{4, 17, 22} {
		if err := sys.RemoveQuery(j); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := sys.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Removing the same further query index on both sides must remove the
	// same logical query.
	if err := sys.RemoveQuery(23); err != nil {
		t.Fatal(err)
	}
	if err := loaded.RemoveQuery(23); err != nil {
		t.Fatal(err)
	}
	for _, target := range []int{0, 7, 19} {
		h1, err := sys.Hits(target)
		if err != nil {
			t.Fatal(err)
		}
		h2, err := loaded.Hits(target)
		if err != nil {
			t.Fatal(err)
		}
		if h1 != h2 {
			t.Fatalf("target %d: hits diverged after post-load mutation: %d vs %d", target, h1, h2)
		}
	}
}

// TestLoadHostileInputs is the corrupt-snapshot table: garbage, truncation,
// type confusion, inconsistent structures, and absurd declared lengths must
// all return an error — never panic, never allocate without bound.
func TestLoadHostileInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	sys := smallSystem(t, rng, 20, 10)
	var valid bytes.Buffer
	if err := sys.Save(&valid); err != nil {
		t.Fatal(err)
	}

	// Structurally valid gob, semantically corrupt snapshots.
	encodeSnap := func(s snapshot) []byte {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(s); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	mismatchedRemoved := encodeSnap(snapshot{Version: 3,
		Space:   spaceSpec{Kind: "linear", Dim: 2},
		Objects: []Vector{{1, 2}, {3, 4}}, Removed: []bool{false}})
	raggedQueries := encodeSnap(snapshot{Version: 3,
		Space:   spaceSpec{Kind: "linear", Dim: 2},
		Objects: []Vector{{1, 2}}, Removed: []bool{false},
		QueryID: []int{0, 1}, QueryK: []int{1}, QueryPt: []Vector{{1, 1}}})
	raggedObjects := encodeSnap(snapshot{Version: 3,
		Space:   spaceSpec{Kind: "linear", Dim: 2},
		Objects: []Vector{{1, 2}, {3}}, Removed: []bool{false, false}})
	badSpace := encodeSnap(snapshot{Version: 3, Space: spaceSpec{Kind: "quantum"}})
	futureVersion := encodeSnap(snapshot{Version: 99, Space: spaceSpec{Kind: "linear", Dim: 2}})
	wrongType := func() []byte {
		var buf bytes.Buffer
		gob.NewEncoder(&buf).Encode(map[string][]string{"not": {"a", "snapshot"}})
		return buf.Bytes()
	}()

	garbage := make([]byte, 4096)
	rng.Read(garbage)

	cases := []struct {
		name  string
		input []byte
	}{
		{"empty", nil},
		{"random garbage", garbage},
		{"all 0xff", bytes.Repeat([]byte{0xff}, 512)},
		{"truncated header", valid.Bytes()[:3]},
		{"truncated mid-stream", valid.Bytes()[:valid.Len()/2]},
		{"truncated near end", valid.Bytes()[:valid.Len()-4]},
		{"wrong gob type", wrongType},
		{"mismatched removal flags", mismatchedRemoved},
		{"ragged query slices", raggedQueries},
		{"ragged object dims", raggedObjects},
		{"unknown space kind", badSpace},
		{"future version", futureVersion},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("Load panicked: %v", p)
				}
			}()
			if _, err := Load(bytes.NewReader(tc.input)); err == nil {
				t.Fatal("Load accepted hostile input")
			}
		})
	}
}

// Load parses a snapshot's utility again, so expr.Parse's cap on nodes and
// open groups covers it: a snapshot written before the cap with a longer
// utility fails Load as corrupt, naming the utility and wrapping Parse's
// error, and recovery passes over such a checkpoint like any corrupt one.
func TestLoadUtilityOverParseCap(t *testing.T) {
	utility := "w1*a" + strings.Repeat(" + w2*b", 300) // 1,203 nodes
	_, capErr := expr.Parse(utility)
	if capErr == nil {
		t.Fatal("a 1,203-node utility parsed")
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(snapshot{Version: snapshotVersion,
		Space:   spaceSpec{Kind: "expr", Utility: utility, AttrNames: []string{"a", "b"}},
		Objects: []Vector{{1, 2}}, Removed: []bool{false}}); err != nil {
		t.Fatal(err)
	}
	_, err := Load(&buf)
	if !errors.Is(err, ErrCorruptSnapshot) || !errors.Is(err, capErr) || !strings.Contains(err.Error(), "snapshot utility") {
		t.Fatalf("Load error %v, want a corrupt snapshot wrapping the utility's %v", err, capErr)
	}
}

// endlessReader yields the same byte forever — the attack shape where a
// stream keeps promising more data. The decode cap must stop it.
type endlessReader struct{ b byte }

func (r endlessReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = r.b
	}
	return len(p), nil
}

func TestLoadBoundedAgainstEndlessStream(t *testing.T) {
	done := make(chan error, 1)
	go func() {
		_, err := Load(endlessReader{b: 0xff})
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Load accepted an endless stream")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Load did not terminate on an endless stream")
	}
}

func TestSnapshotCarriesEpoch(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	sys := smallSystem(t, rng, 20, 10)
	for i := 0; i < 3; i++ {
		if err := sys.Commit(i, Vector{-0.01, -0.01, -0.01}); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := sys.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got := loaded.Epoch(); got != 3 {
		t.Fatalf("restored epoch %d, want 3", got)
	}
	// The restored System keeps counting from there.
	if err := loaded.Commit(0, Vector{-0.01, -0.01, -0.01}); err != nil {
		t.Fatal(err)
	}
	if got := loaded.Epoch(); got != 4 {
		t.Fatalf("post-restore epoch %d, want 4", got)
	}
}

// erringReader fails every Read with a fixed error — a stand-in for EIO.
type erringReader struct{ err error }

func (r erringReader) Read([]byte) (int, error) { return 0, r.err }

// TestLoadClassifiesCorruptionVsIO: bytes that decode as garbage are tagged
// ErrCorruptSnapshot; a reader that itself fails surfaces its I/O error
// untagged. Recovery relies on the distinction to decide between falling
// back to an older checkpoint and aborting.
func TestLoadClassifiesCorruptionVsIO(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("garbage, not gob"))); !errors.Is(err, ErrCorruptSnapshot) {
		t.Fatalf("garbage input: err = %v, want ErrCorruptSnapshot", err)
	}
	boom := errors.New("simulated EIO")
	_, err := Load(erringReader{err: boom})
	if err == nil || errors.Is(err, ErrCorruptSnapshot) {
		t.Fatalf("reader fault: err = %v, must not be classified as corruption", err)
	}
	if !errors.Is(err, boom) {
		t.Fatalf("reader fault: err = %v, want the underlying I/O error", err)
	}
}

// FuzzLoad feeds arbitrary bytes to Load, the parser recovery runs on every
// checkpoint file. Load must never panic: it either fails as corrupt (a
// bytes.Reader never fails a read, so no failure here is an I/O fault) or
// returns a System that saves, loads again to the same epoch and sizes, and
// saves again to the same bytes. It does not compare Hits with HitsExact:
// zero, negative and tied query weights break that today (ROADMAP.md,
// skyband soundness). The named seeds in testdata/fuzz/FuzzLoad hold a small
// v3 snapshot and its first half, the v1 snapshot of TestLoadVersion1Compat,
// an expression-space snapshot, the corrupt snapshots of
// TestLoadHostileInputs, and object and query tombstone slices longer than
// the slices they flag. Byte mutations rarely lengthen a gob slice (its
// length and the message's both have to change), so named seeds cover
// decodeSnapshot's length checks.
func FuzzLoad(f *testing.F) {
	f.Fuzz(checkLoad)
}

// checkLoad is FuzzLoad's property: Load of in either fails as corrupt or
// returns a System that saves, loads again to the same epoch and sizes, and
// saves again to the same bytes.
func checkLoad(t *testing.T, in []byte) {
	sys, err := Load(bytes.NewReader(in))
	if err != nil {
		if !errors.Is(err, ErrCorruptSnapshot) {
			t.Fatalf("Load error %v does not wrap ErrCorruptSnapshot", err)
		}
		return
	}
	var first, second bytes.Buffer
	if err := sys.Save(&first); err != nil {
		t.Fatalf("Save of a loaded System: %v", err)
	}
	again, err := Load(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatalf("Load of a saved System: %v", err)
	}
	if again.Epoch() != sys.Epoch() || again.NumObjects() != sys.NumObjects() ||
		again.NumQueries() != sys.NumQueries() {
		t.Fatalf("reload: epoch %d, %d objects, %d queries; want %d, %d, %d",
			again.Epoch(), again.NumObjects(), again.NumQueries(),
			sys.Epoch(), sys.NumObjects(), sys.NumQueries())
	}
	if err := again.Save(&second); err != nil {
		t.Fatalf("Save of a reloaded System: %v", err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatalf("a reloaded System saves %d bytes that differ from the %d it loaded",
			second.Len(), first.Len())
	}
}

// FuzzLoadFields checks FuzzLoad's property on snapshots built field by
// field: the fuzzer picks the version, the epoch, the object count and
// dimension, the lengths of both tombstone slices (nil when the length byte
// is 255), and the index options, and vals supplies the attributes, the
// tombstones, and the query ids, Ks and points, each point of dimension
// qdim. The snapshot is gob-encoded in the legacy layout, so the fuzzed
// options include the partition's former TreeFanout and MaxIntersections.
// Lengthening a slice in FuzzLoad's bytes means rewriting two gob length
// prefixes, so byte mutations rarely reach decodeSnapshot's length checks;
// here they are one mutation away.
func FuzzLoadFields(f *testing.F) {
	f.Add(uint8(3), uint64(2), uint8(4), uint8(2), uint8(4), uint8(3), uint8(2), uint8(3), int8(0), int8(1), int8(0),
		[]byte{8, 4, 2, 6, 1, 7, 5, 3, 0b0100, 8, 0, 0, 1, 8, 4, 1, 2, 4, 4, 2, 1, 0b010})
	f.Fuzz(func(t *testing.T, version uint8, epoch uint64, objects, dim, removed, queries, qdim, queryRemoved uint8,
		fanout, slack, maxInter int8, vals []byte) {
		next := func() int8 {
			if len(vals) == 0 {
				return 0
			}
			b := int8(vals[0])
			vals = vals[1:]
			return b
		}
		flags := func(n uint8) []bool {
			if n == 255 {
				return nil
			}
			out := make([]bool, n%12)
			var b uint8
			for i := range out {
				if i%8 == 0 {
					b = uint8(next())
				}
				out[i] = b>>(i%8)&1 == 1
			}
			return out
		}
		d := int(dim % 4)
		snap := legacySnapshot{
			Version: int(version % 5),
			Epoch:   epoch,
			Space:   spaceSpec{Kind: "linear", Dim: d},
			Objects: make([]vec.Vector, objects%9),
			Options: legacyOptions{TreeFanout: int(fanout), Slack: int(slack), MaxIntersections: int(maxInter)},
		}
		for i := range snap.Objects {
			snap.Objects[i] = make(vec.Vector, d)
			for k := range snap.Objects[i] {
				snap.Objects[i][k] = float64(next()) / 8
			}
		}
		snap.Removed = flags(removed)
		for j := 0; j < int(queries%7); j++ {
			pt := make(vec.Vector, qdim%4)
			for k := range pt {
				pt[k] = float64(next()) / 8
			}
			snap.QueryID = append(snap.QueryID, int(next()))
			snap.QueryK = append(snap.QueryK, int(next()))
			snap.QueryPt = append(snap.QueryPt, pt)
		}
		snap.QueryRemoved = flags(queryRemoved)
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(snap); err != nil {
			t.Fatal(err)
		}
		checkLoad(t, buf.Bytes())
	})
}
