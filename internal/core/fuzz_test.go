package core

import (
	"context"
	"fmt"
	"math"
	"slices"
	"testing"

	"iq/internal/subdomain"
	"iq/internal/topk"
	"iq/internal/vec"
)

// boundInput reads FuzzHitBound's bytes; reads past the end return 0.
type boundInput []byte

func (in *boundInput) byte() byte {
	if len(*in) == 0 {
		return 0
	}
	b := (*in)[0]
	*in = (*in)[1:]
	return b
}

// eighth reads a multiple of 1/8 in [-16, 16): small integers make score
// ties and duplicate objects common.
func (in *boundInput) eighth() float64 { return float64(int8(in.byte())) / 8 }

// move reads a probe's strategy component or the round's offset from the
// target: an eighth, or ±1e200 for the extreme byte values. In a probe its
// square overflows D to +Inf; in the round's coefficients it puts the keys
// of the rows that weight that coordinate hundreds of binades above the
// others, so the histogram's buckets turn coarse.
func (in *boundInput) move() float64 {
	switch b := int8(in.byte()); b {
	case math.MaxInt8:
		return 1e200
	case math.MinInt8:
		return -1e200
	default:
		return float64(b) / 8
	}
}

// attr reads an object attribute: an eighth, or ±1e16 for the extreme byte
// values, where a score's rounding error is a whole unit.
func (in *boundInput) attr() float64 {
	switch b := int8(in.byte()); b {
	case math.MaxInt8:
		return 1e16
	case math.MinInt8:
		return -1e16
	default:
		return float64(b) / 8
	}
}

// FuzzHitBound checks the greedy round's bounds and lazy selection against
// brute force on a small linear workload decoded from the input:
//
//	d, objects, queries, target, removed-query mask, base hits, min hits,
//	max cost (127 = +Inf), object attributes, per query k and weights,
//	the round's offset from the target, then probes of (cost, strategy).
//
// Weights may be zero or negative, objects may repeat, and k may exceed the
// competitors (always-hit rows). The skyband holds every object, so the
// table is exact whatever the weights' signs.
//
// Two rounds are opened for L2, L1 and weighted L2 costs, each without and
// with strategy bounds: the solve's first, at the target's own
// coefficients, and one with the target moved by the offset. Each round's
// one pass over the table must agree with its hit counts and vec.Dot
// scores; every probe the pass bounds must, once solved, cost at least its
// lower bound and have a histogram bound at most its cap; and best and
// cheapest must pick, and count, what they pick and count with every probe
// solved first, which must be the pick of a full count. Then the input's own
// probes, ranked around the offset round: each histogram bound must be at
// least its HitsExact count, and best and cheapest must pick what a full
// count picks.
//
// Named seeds cover coarse buckets (keys spread over more than 2⁶⁰ in IEEE
// bits), equal keys, a single key, an infinite D, a probe whose D falls in
// the bucket of the keys it can hit, equal lower-bound keys, a row whose
// gap at the target's own coefficients is zero or negative, scores near
// 1e16, a step bound on a bucket edge, and a d = 3 score near 1e16 whose
// bits depend on the order its terms are summed in.
func FuzzHitBound(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		in := boundInput(data)
		d := 1 + int(in.byte()%3)
		n := 2 + int(in.byte()%7)
		m := 1 + int(in.byte()%6)
		target := int(in.byte()) % n
		removed := in.byte()
		baseHits := int(in.byte()) % (m + 1)
		minHits := 1 + int(in.byte())%(m+1)
		maxCost := math.Inf(1)
		if b := int8(in.byte()); b != math.MaxInt8 {
			maxCost = float64(b) / 8
		}
		attrs := make([]vec.Vector, n)
		for i := range attrs {
			attrs[i] = make(vec.Vector, d)
			for k := range attrs[i] {
				attrs[i][k] = in.attr()
			}
		}
		queries := make([]topk.Query, m)
		for j := range queries {
			queries[j] = topk.Query{ID: j, K: 1 + int(in.byte()%4), Point: make(vec.Vector, d)}
			for k := range queries[j].Point {
				queries[j].Point[k] = in.eighth()
			}
		}
		w, err := topk.NewWorkload(topk.LinearSpace{D: d}, attrs, queries)
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < m; j++ {
			if removed>>j&1 == 1 {
				w.RemoveQuery(j)
			}
		}
		idx, err := subdomain.BuildCtx(context.Background(), w, subdomain.Options{Slack: n})
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		tab, _ := deriveHitTable(ctx, idx, target)
		cur := make(vec.Vector, d)
		for k := range cur {
			cur[k] = in.move()
		}
		// The offset round's coefficients, summed as apply sums them.
		at := vec.Add(w.Attrs(target), cur)
		for _, cost := range []Cost{L2Cost{}, L1Cost{}, WeightedL2Cost{Alpha: vec.Vector{0.5, 4, 2}[:d]}} {
			for _, bounds := range []*Bounds{nil, boxOf(d)} {
				checkLazyRounds(t, w, tab, cost, bounds, cur, at, baseHits, minHits, maxCost)
			}
		}

		// The input's probes, ranked around the offset round.
		rs := &roundScratch{tab: tab, rec: newRecorder(), dim: d}
		tab.round(at, &rs.bound, &probeBounds{}, &unhitRows{})
		var full []Candidate
		for len(in) > 0 && len(full) < 12 {
			c := in.eighth()
			u := make(vec.Vector, d)
			for k := range u {
				u[k] = in.move()
			}
			coeff := vec.Add(w.Attrs(target), u)
			exact, err := w.HitsExact(coeff, target)
			if err != nil {
				t.Fatal(err)
			}
			if got := tab.hits(coeff); got != exact {
				t.Fatalf("probe %v: table counts %d, HitsExact %d", u, got, exact)
			}
			bound := rs.bound.upper(coeff)
			if bound < exact {
				t.Fatalf("probe %v from %v: bound %d below HitsExact %d", u, at, bound, exact)
			}
			cand := ranked(len(full), u, c, bound)
			rs.rows.query = append(rs.rows.query, len(full))
			rs.state = append(rs.state, slotRanked)
			rs.cands = append(rs.cands, cand)
			rs.coeffs = append(rs.coeffs, coeff...)
			cand.Hits = exact
			full = append(full, cand)
		}
		got, gotOK, _ := rs.best(ctx, baseHits)
		want, wantOK := refBestRatio(full, baseHits)
		samePick(t, "probes: best", got, want, gotOK, wantOK)
		got, gotOK, _ = rs.cheapest(ctx, minHits, maxCost)
		want, wantOK = refCheapest(full, minHits, maxCost)
		samePick(t, "probes: cheapest", got, want, gotOK, wantOK)
	})
}

// boxOf is the strategy bounds FuzzHitBound's bounded rounds use: each
// attribute may fall by 2 or rise by 1/2.
func boxOf(d int) *Bounds {
	b := &Bounds{Lo: make(vec.Vector, d), Hi: make(vec.Vector, d)}
	for i := range b.Lo {
		b.Lo[i], b.Hi[i] = -2, 0.5
	}
	return b
}

// samePick fails t unless the pruned pick got equals the full pick want.
func samePick(t *testing.T, pass string, got, want Candidate, gotOK, wantOK bool) {
	t.Helper()
	if gotOK != wantOK || gotOK && (got.Query != want.Query || got.Hits != want.Hits ||
		math.Float64bits(got.Cost) != math.Float64bits(want.Cost)) {
		t.Fatalf("%s: pruned pick %+v (%v), full pick %+v (%v)", pass, got, gotOK, want, wantOK)
	}
}

// checkLazyRounds opens a solve's first round, at the target's own
// coefficients, and a second at at with strategy cur, twice: lazily, and
// with every probe solved before selection. In each round it checks the
// pass against the table, every solved probe against its bounds, and the
// lazy picks and counts against the eager ones and the eager picks against
// a full count.
func checkLazyRounds(t *testing.T, w *topk.Workload, tab *hitTable, cost Cost, bounds *Bounds, cur, at vec.Vector, baseHits, minHits int, maxCost float64) {
	t.Helper()
	ctx := context.Background()
	lazy := &roundScratch{tab: tab, rec: newRecorder()}
	eager := &roundScratch{tab: tab, rec: newRecorder()}
	rounds := []struct{ cur, at vec.Vector }{{make(vec.Vector, len(cur)), w.Coeff(tab.target)}, {cur, at}}
	for ri, r := range rounds {
		name := fmt.Sprintf("%T bounds=%v round %d", cost, bounds != nil, ri+1)
		generateCandidates(ctx, w, r.cur, r.at, cost, bounds, lazy)
		generateCandidates(ctx, w, r.cur, r.at, cost, bounds, eager)
		if hit := tab.hits(r.at); hit+len(lazy.rows.query) != w.LiveQueries() {
			t.Fatalf("%s at %v: %d unhit, table counts %d hits of %d live queries", name, r.at, len(lazy.rows.query), hit, w.LiveQueries())
		}
		for slot, j := range lazy.rows.query {
			if s := vec.Dot(r.at, w.Query(j).Point); math.Float64bits(s) != math.Float64bits(lazy.rows.score[slot]) {
				t.Fatalf("%s at %v: query %d scored %v, vec.Dot %v", name, r.at, j, lazy.rows.score[slot], s)
			}
		}
		solveAll(t, eager)
		var full []Candidate
		for slot, st := range eager.state {
			if st != slotRanked {
				continue
			}
			c := eager.cands[slot]
			if lower := eager.rows.lower[slot]; lower > c.Cost {
				t.Fatalf("%s: query %d's probe %v costs %v, below its lower bound %v", name, c.Query, c.Strategy, c.Cost, lower)
			}
			if hitCap := eager.rows.cap[slot]; c.bound > hitCap {
				t.Fatalf("%s: query %d's probe %v has hit bound %d, above its cap %d", name, c.Query, c.Strategy, c.bound, hitCap)
			}
			exact, err := w.HitsExact(vec.Add(w.Attrs(tab.target), c.Strategy), tab.target)
			if err != nil {
				t.Fatal(err)
			}
			c.Hits = exact
			full = append(full, c)
		}
		lb, lok, err := lazy.best(ctx, baseHits)
		if err != nil {
			t.Fatal(err)
		}
		eb, eok, _ := eager.best(ctx, baseHits)
		samePick(t, name+": lazy best", lb, eb, lok, eok)
		want, wantOK := refBestRatio(full, baseHits)
		samePick(t, name+": best", eb, want, eok, wantOK)
		lc, lok, err := lazy.cheapest(ctx, minHits, maxCost)
		if err != nil {
			t.Fatal(err)
		}
		ec, eok, _ := eager.cheapest(ctx, minHits, maxCost)
		samePick(t, name+": lazy cheapest", lc, ec, lok, eok)
		want, wantOK = refCheapest(full, minHits, maxCost)
		samePick(t, name+": cheapest", ec, want, eok, wantOK)
		if l, e := countedSlots(lazy), countedSlots(eager); !slices.Equal(l, e) {
			t.Fatalf("%s: lazy round counted slots %v, eager %v", name, l, e)
		}
	}
}

// solveAll solves every probe of the round rs opened, before any selection.
func solveAll(t *testing.T, rs *roundScratch) {
	t.Helper()
	for slot := range rs.state {
		if err := rs.solve(context.Background(), slot); err != nil {
			t.Fatal(err)
		}
	}
}

// countedSlots lists the slots whose candidates a round counted exactly.
func countedSlots(rs *roundScratch) []int {
	var out []int
	for slot, st := range rs.state {
		if st == slotRanked && rs.cands[slot].counted {
			out = append(out, slot)
		}
	}
	return out
}
