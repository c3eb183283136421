package core

import (
	"context"
	"math"
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

// FuzzHitBound checks the greedy round's hit bound and lazy selection
// against brute force on a small linear workload decoded from the input:
//
//	d, objects, queries, target, removed-query mask, base hits, min hits,
//	max cost (127 = +Inf), object attributes, per query k and weights,
//	the round's offset from the target, then probes of (cost, strategy).
//
// Weights may be zero or negative, objects may repeat, and k may exceed the
// competitors (always-hit rows). The skyband holds every object, so the
// table is exact whatever the weights' signs. The round's one pass over the
// table must agree with its hit counts, every probe's histogram bound must
// be at least its HitsExact count, and best and cheapest must pick what a
// full count picks. Named seeds cover coarse buckets (keys spread over more
// than 2⁶⁰ in IEEE bits), equal keys, a single key, an infinite D, and a
// probe whose D falls in the bucket of the keys it can hit.
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
				attrs[i][k] = in.eighth()
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
		idx, err := subdomain.Build(w, subdomain.Options{Slack: n})
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		tab, _ := deriveHitTable(ctx, idx, target)
		at := make(vec.Vector, d)
		for k := range at {
			at[k] = w.Coeff(target)[k] + in.move()
		}
		rs := &roundScratch{tab: tab, rec: newRecorder(), dim: d}
		unhit, scores := tab.round(at, &rs.bound, nil, nil)
		if hit := tab.hits(at); hit+len(unhit) != w.LiveQueries() {
			t.Fatalf("round at %v: %d unhit, table counts %d hits of %d live queries", at, len(unhit), hit, w.LiveQueries())
		}
		for slot, j := range unhit {
			if s := vec.Dot(at, w.Query(j).Point); math.Float64bits(s) != math.Float64bits(scores[slot]) {
				t.Fatalf("round at %v: query %d scored %v, vec.Dot %v", at, j, scores[slot], s)
			}
		}
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
			rs.cands = append(rs.cands, cand)
			rs.valid = append(rs.valid, true)
			rs.coeffs = append(rs.coeffs, coeff...)
			cand.Hits = exact
			full = append(full, cand)
		}
		same := func(pass string, got, want Candidate, gotOK, wantOK bool) {
			t.Helper()
			if gotOK != wantOK || gotOK && (got.Query != want.Query || got.Hits != want.Hits ||
				math.Float64bits(got.Cost) != math.Float64bits(want.Cost)) {
				t.Fatalf("%s: pruned pick %+v (%v), full pick %+v (%v)", pass, got, gotOK, want, wantOK)
			}
		}
		got, gotOK := rs.best(ctx, baseHits)
		want, wantOK := refBestRatio(full, baseHits)
		same("best", got, want, gotOK, wantOK)
		got, gotOK = rs.cheapest(ctx, minHits, maxCost)
		want, wantOK = refCheapest(full, minHits, maxCost)
		same("cheapest", got, want, gotOK, wantOK)
	})
}
