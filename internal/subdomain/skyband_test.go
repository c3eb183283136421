package subdomain

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"iq/internal/geom"
	"iq/internal/topk"
	"iq/internal/vec"
)

// checkBand asserts that the index's skyband, and every object's stored
// dominator count, equal a brute-force recount over the live objects, and
// that its rows equal a brute-force ranking of that band (see checkRows).
func checkBand(t testing.TB, x *Index, step string) {
	t.Helper()
	w := x.Workload()
	if len(x.dominators) != w.NumObjects() {
		t.Fatalf("%s: %d dominator counts for %d objects", step, len(x.dominators), w.NumObjects())
	}
	var ids []int
	var live []vec.Vector
	for i := 0; i < w.NumObjects(); i++ {
		if w.IsRemoved(i) {
			if x.dominators[i] != -1 {
				t.Fatalf("%s: removed object %d has count %d", step, i, x.dominators[i])
			}
			continue
		}
		ids = append(ids, i)
		live = append(live, w.Coeff(i))
	}
	maxK, slack := w.MaxK(), x.opts.Slack
	var want []int
	for i, c := range geom.DominanceCount(live) {
		got := x.dominators[ids[i]]
		// c < MaxK+Slack, written so that a query's huge K cannot overflow.
		if c-slack < maxK {
			want = append(want, ids[i])
			if got != int32(c) {
				t.Fatalf("%s: candidate %d %v has count %d, brute force %d", step, ids[i], live[i], got, c)
			}
		} else if got != -1 {
			t.Fatalf("%s: object %d %v with %d ≥ %d+%d dominators has count %d", step, ids[i], live[i], c, maxK, slack, got)
		}
	}
	if !slices.Equal(x.Candidates(), want) {
		t.Fatalf("%s: skyband %v, brute force %v", step, x.Candidates(), want)
	}
	checkRows(t, x, step)
}

// bruteRow ranks the whole band at query j by topk.Better and keeps the
// best K+1 (all of them when the band is smaller).
func bruteRow(x *Index, j int) []Entry {
	w := x.Workload()
	q := w.Query(j)
	var row []Entry
	for _, c := range x.Candidates() {
		row = append(row, Entry{Score: w.Score(c, q.Point), ID: c})
	}
	slices.SortFunc(row, func(a, b Entry) int {
		if topk.Better(a.Score, a.ID, b.Score, b.ID) {
			return -1
		}
		return 1
	})
	if q.K < len(row) {
		row = row[:q.K+1]
	}
	return row
}

// sameRow reports whether two rows hold the same ids with the same score
// bits, in the same order.
func sameRow(a, b []Entry) bool {
	return slices.EqualFunc(a, b, func(x, y Entry) bool {
		return x.ID == y.ID && math.Float64bits(x.Score) == math.Float64bits(y.Score)
	})
}

// checkRows asserts that every live query's row equals bruteRow, ids and
// score bits, and that removed queries have no row.
func checkRows(t testing.TB, x *Index, step string) {
	t.Helper()
	w := x.Workload()
	if len(x.rows) != w.NumQueries() {
		t.Fatalf("%s: %d rows for %d queries", step, len(x.rows), w.NumQueries())
	}
	for j := range x.rows {
		if w.IsQueryRemoved(j) {
			if x.Row(j) != nil {
				t.Fatalf("%s: removed query %d has row %v", step, j, x.Row(j))
			}
			continue
		}
		if want := bruteRow(x, j); !sameRow(x.Row(j), want) {
			t.Fatalf("%s: query %d (k=%d) row %v, brute force %v", step, j, w.Query(j).K, x.Row(j), want)
		}
	}
}

// copyRows deep-copies the index's rows.
func copyRows(x *Index) [][]Entry {
	rows := make([][]Entry, len(x.rows))
	for j, r := range x.rows {
		rows[j] = slices.Clone(r)
	}
	return rows
}

// bandScript decodes a small linear workload and a mutation sequence from
// bytes; reads past the end yield zero.
type bandScript struct {
	data []byte
	pos  int
}

func (s *bandScript) next() int {
	if s.pos >= len(s.data) {
		s.pos++
		return 0
	}
	s.pos++
	return int(s.data[s.pos-1])
}

func (s *bandScript) done() bool { return s.pos >= len(s.data) }

// coord decodes one attribute: bytes below 0x80 give the tie-heavy integer
// grid 0..4, 0x80–0xFE give 127 levels in [0, 1), and 0xFF gives 1e16, where
// the coordinate sums of points one unit apart round to the same value.
func (s *bandScript) coord() float64 {
	switch v := s.next(); {
	case v < 0x80:
		return float64(v % 5)
	case v < 0xFF:
		return float64(v-0x80) / 127
	default:
		return 1e16
	}
}

func (s *bandScript) point(d int) vec.Vector {
	p := make(vec.Vector, d)
	for i := range p {
		p[i] = s.coord()
	}
	return p
}

// query decodes a query: K is 1..5, except that 0xFE and 0xFF give
// math.MaxInt32 and math.MaxInt, whose MaxK+Slack no int32 (or int) holds.
func (s *bandScript) query(d, id int) topk.Query {
	k := s.next()
	switch k {
	case 0xFE:
		k = math.MaxInt32
	case 0xFF:
		k = math.MaxInt
	default:
		k = 1 + k%5
	}
	q := topk.Query{ID: id, K: k, Point: make(vec.Vector, d)}
	for i := range q.Point {
		q.Point[i] = float64(s.next() % 4)
	}
	return q
}

// runBandScript builds the scripted index and applies every scripted
// mutation — object updates (degrading moves included), adds and removals,
// query adds (deepening the band when they raise MaxK) and query removals —
// to a clone of the index, as the System's write path does. After each it
// checks the clone's skyband and rows against brute force, and that the
// parent's rows did not change.
//
// Layout: dimension, object count, query count; each query (k, weights);
// each object (coordinates); then operations, each an opcode byte and its
// operands: 0 update (id, coordinates), 1 add object (coordinates), 2
// remove object (id), 3 add query (k, weights), 4 remove query (index).
func runBandScript(t testing.TB, data []byte) {
	s := &bandScript{data: data}
	d := 2 + s.next()%2
	n := 1 + s.next()%32
	m := 1 + s.next()%4
	queries := make([]topk.Query, m)
	for j := range queries {
		queries[j] = s.query(d, j)
	}
	attrs := make([]vec.Vector, n)
	for i := range attrs {
		attrs[i] = s.point(d)
	}
	w, err := topk.NewWorkload(topk.LinearSpace{D: d}, attrs, queries)
	if err != nil {
		t.Fatal(err)
	}
	x, err := Build(w, Options{})
	if err != nil {
		t.Fatal(err)
	}
	checkBand(t, x, "build")
	for op := 0; op < 80 && !s.done(); op++ {
		parent, before := x, copyRows(x)
		w = x.Workload().Clone()
		x = x.Clone(w)
		var step string
		switch s.next() % 5 {
		case 0:
			id, p := s.next()%w.NumObjects(), s.point(d)
			if w.IsRemoved(id) {
				continue
			}
			step = fmt.Sprintf("op %d: update %d %v -> %v", op, id, w.Attrs(id), p)
			err = x.UpdateObject(id, p)
		case 1:
			p := s.point(d)
			step = fmt.Sprintf("op %d: add %v", op, p)
			_, err = x.AddObject(p)
		case 2:
			id := s.next() % w.NumObjects()
			if w.IsRemoved(id) || w.LiveObjects() == 1 {
				continue
			}
			step = fmt.Sprintf("op %d: remove %d %v", op, id, w.Attrs(id))
			err = x.RemoveObject(id)
		case 3:
			q := s.query(d, 1000+op)
			step = fmt.Sprintf("op %d: add query k=%d (MaxK %d)", op, q.K, w.MaxK())
			_, err = x.AddQuery(q)
		default:
			j := s.next() % w.NumQueries()
			if w.IsQueryRemoved(j) {
				continue
			}
			step = fmt.Sprintf("op %d: remove query %d", op, j)
			err = x.RemoveQuery(j)
		}
		if err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		checkBand(t, x, step)
		for j, r := range parent.rows {
			if !sameRow(r, before[j]) || (r == nil) != (before[j] == nil) {
				t.Fatalf("%s: the parent's row %d changed from %v to %v", step, j, before[j], r)
			}
		}
	}
}

// FuzzSkybandUpdate checks that per-mutation dominator counting keeps the
// skyband equal to a from-scratch one, and row maintenance every row equal to
// a brute-force ranking of it. Named seeds live in
// testdata/fuzz/FuzzSkybandUpdate.
func FuzzSkybandUpdate(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		// 256 bytes script about 40 mutations; longer inputs only slow the
		// fuzzer's minimization, which is quadratic in the input length.
		if len(data) > 256 {
			return
		}
		runBandScript(t, data)
	})
}

// TestSkybandStaysExact is the exactness oracle: random and tie-heavy
// (integer grid, duplicates) workloads go through every mutation kind, and
// after each one the skyband, every member's count and every row equal a
// brute-force recount.
func TestSkybandStaysExact(t *testing.T) {
	seeds := 300
	if testing.Short() {
		seeds = 60
	}
	for seed := 0; seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		// Even seeds draw coordinates from 127 levels, odd seeds from the
		// 5-level grid, with a rare 1e16.
		coord := func() byte { return byte(0x80 + rng.Intn(127)) }
		if seed%2 == 1 {
			coord = func() byte {
				if rng.Intn(50) == 0 {
					return 0xFF
				}
				return byte(rng.Intn(5))
			}
		}
		d := 2 + rng.Intn(2)
		data := []byte{byte(d - 2), byte(10 + rng.Intn(22)), byte(rng.Intn(4))}
		for j := 0; j <= int(data[2]); j++ {
			data = append(data, byte(rng.Intn(3)))
			for i := 0; i < d; i++ {
				data = append(data, byte(1+rng.Intn(3)))
			}
		}
		for i := 0; i <= int(data[1]); i++ {
			for c := 0; c < d; c++ {
				data = append(data, coord())
			}
		}
		for op := 0; op < 60; op++ {
			code := rng.Intn(5)
			if code == 3 && rng.Intn(3) != 0 {
				code = 0 // keep MaxK raises rarer than object updates
			}
			data = append(data, byte(code))
			switch code {
			case 0:
				data = append(data, byte(rng.Intn(256)))
				for c := 0; c < d; c++ {
					data = append(data, coord())
				}
			case 1:
				for c := 0; c < d; c++ {
					data = append(data, coord())
				}
			case 2, 4:
				data = append(data, byte(rng.Intn(256)))
			case 3:
				data = append(data, byte(rng.Intn(5)))
				for c := 0; c < d; c++ {
					data = append(data, byte(rng.Intn(4)))
				}
			}
		}
		runBandScript(t, data)
	}
}
