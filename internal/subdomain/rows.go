package subdomain

import (
	"iq/internal/obs"
	"iq/internal/topk"
	"iq/internal/vec"
)

// This file keeps one row per live query: the query's best
// min(K+1, |band|) skyband members in topk.Better order. Eq. 6's threshold
// for a target at query j is the K_j-th row entry that is not the target, so
// the solvers derive a target's hit table from the rows in O(queries·K)
// instead of scanning the band at every query. The rows are a materialised
// reverse top-k index over the live queries ("Indexing Reverse Top-k
// Queries", Chester et al.).
//
// Rows are immutable: a mutation replaces each row it changes with a fresh
// slice, so CloneCtx copies only the row headers and a published snapshot's
// rows never change under its readers.

// Entry is one band member's score at a query, summed by vec.Dot exactly as
// topk.Workload.HitsExact sums it.
type Entry struct {
	Score float64
	ID    int
}

// better is topk.Better on entries.
func better(a, b Entry) bool { return topk.Better(a.Score, a.ID, b.Score, b.ID) }

// Row returns query j's row: its best min(K_j+1, |band|) band members in
// topk.Better order, or nil when the query is removed. Callers must not
// modify it.
func (x *Index) Row(j int) []Entry { return x.rows[j] }

// rowLen is the length of a row of a query with k over a band of n members,
// written so that a huge k cannot overflow.
func rowLen(k, n int) int {
	if k < n {
		return k + 1
	}
	return n
}

// scanRow computes query j's row from the band.
func (x *Index) scanRow(j int) []Entry {
	q := x.w.Query(j)
	m := rowLen(q.K, len(x.candidates))
	row := make([]Entry, 0, m)
	for _, c := range x.candidates {
		// vec.Dot's sum in its order, written out so the scan inlines it.
		score := 0.0
		for i, a := range x.w.Coeff(c) {
			score += a * q.Point[i]
		}
		e := Entry{score, c}
		if len(row) == m {
			if !better(e, row[m-1]) {
				continue
			}
		} else {
			row = append(row, Entry{})
		}
		// Insert in order; a full row drops its last entry.
		i := len(row) - 1
		for ; i > 0 && better(e, row[i-1]); i-- {
			row[i] = row[i-1]
		}
		row[i] = e
	}
	return row
}

// buildRows scans every live query's row from the band.
func (x *Index) buildRows() {
	x.rows = make([][]Entry, x.w.NumQueries())
	for j := range x.rows {
		if !x.w.IsQueryRemoved(j) {
			x.rows[j] = x.scanRow(j)
		}
	}
}

// member is a band member with the coefficients it is scored by.
type member struct {
	id    int
	coeff vec.Vector
}

// updateRows replaces the rows an object mutation changed and stamps the
// counts on the mutation's span. oldBand is the band's size before the
// mutation; left are the entries that left the band — the mutated object's
// old entry and the members the mutation demoted — scored by the
// coefficients they held there; entered are the entries that joined it —
// the object's new entry and the promoted objects. Every other member keeps
// its score.
//
// A row that held the whole band takes every change. Otherwise its entries
// are exactly the band members at or before its last entry, so a leaver is in
// it iff it ranks there, and the new band's members before that entry are the
// row's stayers plus the entrants ranking before it. Those are a prefix of
// the new band's order; cut to the row's length they are the new row,
// unless the leavers left fewer, and only then is the band rescanned.
func (x *Index) updateRows(sp *obs.Span, oldBand int, left, entered []member) {
	changed, rescanned := 0, 0
	n := len(x.candidates)
	var out, in []Entry
	for j, row := range x.rows {
		if row == nil {
			continue
		}
		q := x.w.Query(j)
		full := len(row) == oldBand
		var last Entry
		if !full {
			last = row[len(row)-1]
		}
		out, in = out[:0], in[:0]
		for _, m := range left {
			if e := (Entry{vec.Dot(m.coeff, q.Point), m.id}); full || !better(last, e) {
				out = append(out, e)
			}
		}
		for _, m := range entered {
			if e := (Entry{vec.Dot(m.coeff, q.Point), m.id}); full || better(e, last) {
				in = append(in, e)
			}
		}
		if len(out) == 0 && len(in) == 0 {
			continue
		}
		changed++
		want := rowLen(q.K, n)
		next := make([]Entry, 0, max(want, len(row)-len(out)+len(in)))
		for _, e := range row {
			if !leaving(out, e.ID) {
				next = append(next, e)
			}
		}
		for _, e := range in {
			next = append(next, e)
			i := len(next) - 1
			for ; i > 0 && better(e, next[i-1]); i-- {
				next[i] = next[i-1]
			}
			next[i] = e
		}
		if len(next) < want {
			next = x.scanRow(j)
			rescanned++
		}
		x.rows[j] = next[:want]
	}
	sp.SetAttr("rows_changed", changed)
	sp.SetAttr("rows_rescanned", rescanned)
}

// leaving reports whether id is among the leavers out.
func leaving(out []Entry, id int) bool {
	for _, e := range out {
		if e.ID == id {
			return true
		}
	}
	return false
}
