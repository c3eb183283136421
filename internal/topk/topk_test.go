package topk

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"iq/internal/vec"
)

func linWorkload(t *testing.T, attrs []vec.Vector, queries []Query) *Workload {
	t.Helper()
	w, err := NewWorkload(LinearSpace{D: len(attrs[0])}, attrs, queries)
	if err != nil {
		t.Fatalf("NewWorkload: %v", err)
	}
	return w
}

func TestEvaluatePaperExample(t *testing.T) {
	// Cameras from the paper's Figure 1, negated prices so lower=better
	// works with "higher resolution preferred": we instead model scores
	// directly: q1 = 5.0*res + 3.5*sto - 0.05*price (higher better in the
	// paper) → we negate weights to get lower-is-better.
	p1 := vec.Vector{10, 2, 250}
	p2 := vec.Vector{12, 4, 340}
	attrs := []vec.Vector{p1, p2}
	q1 := Query{ID: 1, K: 1, Point: vec.Vector{-5.0, -3.5, 0.05}}
	q2 := Query{ID: 2, K: 1, Point: vec.Vector{-2.5, -7.0, 0.08}}
	w := linWorkload(t, attrs, []Query{q1, q2})

	// Before improvement p2 wins both queries.
	r1 := w.Evaluate(q1)
	r2 := w.Evaluate(q2)
	if r1.Ordered[0] != 1 || r2.Ordered[0] != 1 {
		t.Fatalf("expected p2 to win both: %v %v", r1.Ordered, r2.Ordered)
	}

	// Apply the paper's s = {5, 2, -50} to p1 → {15, 4, 200}.
	improved := vec.Add(p1, vec.Vector{5, 2, -50})
	hits, err := w.HitsExact(improved, 0)
	if err != nil {
		t.Fatal(err)
	}
	if hits != 2 {
		t.Errorf("improved p1 should hit both queries, got %d", hits)
	}
}

func TestEvaluateMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 50; iter++ {
		n, d := 2+rng.Intn(100), 2+rng.Intn(4)
		attrs := make([]vec.Vector, n)
		for i := range attrs {
			attrs[i] = randVec(rng, d)
		}
		k := 1 + rng.Intn(10)
		if k > n {
			k = n
		}
		q := Query{ID: 0, K: k, Point: randVec(rng, d)}
		w := linWorkload(t, attrs, []Query{q})
		res := w.Evaluate(q)

		// Reference: full sort.
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		scores := make([]float64, n)
		for i := range attrs {
			scores[i] = vec.Dot(attrs[i], q.Point)
		}
		sort.Slice(idx, func(a, b int) bool {
			return Better(scores[idx[a]], idx[a], scores[idx[b]], idx[b])
		})
		if len(res.Ordered) != k {
			t.Fatalf("iter %d: got %d results want %d", iter, len(res.Ordered), k)
		}
		for i := 0; i < k; i++ {
			if res.Ordered[i] != idx[i] {
				t.Fatalf("iter %d rank %d: got obj %d want %d", iter, i, res.Ordered[i], idx[i])
			}
		}
		if math.Abs(res.KthScore-scores[idx[k-1]]) > 1e-12 {
			t.Fatalf("iter %d: KthScore %v want %v", iter, res.KthScore, scores[idx[k-1]])
		}
	}
}

func randVec(rng *rand.Rand, d int) vec.Vector {
	v := make(vec.Vector, d)
	for i := range v {
		v[i] = rng.Float64()
	}
	return v
}

func TestEvaluateKLargerThanN(t *testing.T) {
	attrs := []vec.Vector{{1, 1}, {2, 2}}
	q := Query{ID: 0, K: 5, Point: vec.Vector{1, 0}}
	w := linWorkload(t, attrs, []Query{q})
	res := w.Evaluate(q)
	if len(res.Ordered) != 2 {
		t.Fatalf("got %d results", len(res.Ordered))
	}
	if res.Ordered[0] != 0 || res.Ordered[1] != 1 {
		t.Errorf("order %v", res.Ordered)
	}
}

func TestTieBreakDeterminism(t *testing.T) {
	attrs := []vec.Vector{{1, 0}, {1, 0}, {1, 0}}
	q := Query{ID: 0, K: 2, Point: vec.Vector{1, 1}}
	w := linWorkload(t, attrs, []Query{q})
	res := w.Evaluate(q)
	if res.Ordered[0] != 0 || res.Ordered[1] != 1 {
		t.Errorf("tie break should prefer lower ids: %v", res.Ordered)
	}
	if !res.Contains(1) || res.Contains(2) {
		t.Error("Contains wrong")
	}
}

func TestRankAmong(t *testing.T) {
	attrs := []vec.Vector{{1, 0}, {2, 0}, {3, 0}}
	q := Query{ID: 0, K: 1, Point: vec.Vector{1, 0}}
	w := linWorkload(t, attrs, []Query{q})
	// Hypothetical object replacing id 2 with score 1.5 → rank 2.
	if r := w.RankAmong(nil, vec.Vector{1.5, 0}, 2, q.Point); r != 2 {
		t.Errorf("rank=%d want 2", r)
	}
	// Restricted to candidates {0}: rank among {0} only.
	if r := w.RankAmong([]int{0, 2}, vec.Vector{1.5, 0}, 2, q.Point); r != 2 {
		t.Errorf("restricted rank=%d want 2", r)
	}
}

func TestHitsExactAndHitSet(t *testing.T) {
	attrs := []vec.Vector{{0.2, 0.2}, {0.5, 0.5}, {0.9, 0.9}}
	queries := []Query{
		{ID: 0, K: 1, Point: vec.Vector{1, 0}},
		{ID: 1, K: 2, Point: vec.Vector{0, 1}},
		{ID: 2, K: 1, Point: vec.Vector{0.5, 0.5}},
	}
	w := linWorkload(t, attrs, queries)
	// Object 1 as-is: rank 2 everywhere → hits only the k=2 query.
	hits, err := w.HitsExact(attrs[1], 1)
	if err != nil {
		t.Fatal(err)
	}
	if hits != 1 {
		t.Errorf("hits=%d want 1", hits)
	}
	set, _ := w.HitSet(attrs[1], 1)
	if len(set) != 1 || set[0] != 1 {
		t.Errorf("hit set %v", set)
	}
	// Improve object 1 to beat object 0 → hits all three.
	hits, _ = w.HitsExact(vec.Vector{0.1, 0.1}, 1)
	if hits != 3 {
		t.Errorf("improved hits=%d want 3", hits)
	}
}

func TestCandidatesSkybandCorrectness(t *testing.T) {
	// Every top-k result must consist solely of candidate objects.
	rng := rand.New(rand.NewSource(7))
	n, d := 200, 3
	attrs := make([]vec.Vector, n)
	for i := range attrs {
		attrs[i] = randVec(rng, d)
	}
	queries := make([]Query, 50)
	for j := range queries {
		queries[j] = Query{ID: j, K: 1 + rng.Intn(5), Point: randVec(rng, d)}
	}
	w := linWorkload(t, attrs, queries)
	cands, _ := w.Candidates(1)
	candSet := map[int]bool{}
	for _, c := range cands {
		candSet[c] = true
	}
	if len(cands) == 0 || len(cands) == n {
		t.Fatalf("unexpected candidate count %d of %d", len(cands), n)
	}
	for _, q := range queries {
		res := w.Evaluate(q)
		for _, id := range res.Ordered {
			if !candSet[id] {
				t.Fatalf("query %d result contains non-candidate %d", q.ID, id)
			}
		}
		// Restricted evaluation must agree with the full one.
		restricted := w.EvaluateAmong(cands, q)
		for i := range res.Ordered {
			if res.Ordered[i] != restricted.Ordered[i] {
				t.Fatalf("query %d: restricted eval diverges at rank %d", q.ID, i)
			}
		}
	}
}

func TestUpdateAddObjectQuery(t *testing.T) {
	attrs := []vec.Vector{{1, 1}}
	w := linWorkload(t, attrs, []Query{{ID: 0, K: 1, Point: vec.Vector{1, 0}}})
	id, err := w.AddObject(vec.Vector{0.5, 0.5})
	if err != nil || id != 1 {
		t.Fatalf("AddObject: %v %d", err, id)
	}
	if err := w.UpdateObject(0, vec.Vector{0.1, 0.1}); err != nil {
		t.Fatal(err)
	}
	if !vec.Equal(w.Coeff(0), vec.Vector{0.1, 0.1}) {
		t.Error("UpdateObject did not re-embed")
	}
	qi, err := w.AddQuery(Query{ID: 9, K: 3, Point: vec.Vector{0, 1}})
	if err != nil || qi != 1 {
		t.Fatalf("AddQuery: %v %d", err, qi)
	}
	if w.MaxK() != 3 {
		t.Errorf("MaxK=%d", w.MaxK())
	}
	if _, err := w.AddQuery(Query{K: 0, Point: vec.Vector{0, 1}}); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := w.AddQuery(Query{K: 1, Point: vec.Vector{1}}); err == nil {
		t.Error("bad dim accepted")
	}
	if _, err := w.AddObject(vec.Vector{1}); err == nil {
		t.Error("bad object dim accepted")
	}
}

func TestNewWorkloadValidation(t *testing.T) {
	if _, err := NewWorkload(LinearSpace{D: 2}, []vec.Vector{{1}}, nil); err == nil {
		t.Error("bad attr dim accepted")
	}
	if _, err := NewWorkload(LinearSpace{D: 2}, nil, []Query{{K: 1, Point: vec.Vector{1}}}); err == nil {
		t.Error("bad query dim accepted")
	}
	if _, err := NewWorkload(LinearSpace{D: 2}, nil, []Query{{K: 0, Point: vec.Vector{1, 2}}}); err == nil {
		t.Error("k=0 accepted")
	}
}

func TestKthResult(t *testing.T) {
	attrs := []vec.Vector{{1, 0}, {2, 0}, {3, 0}}
	q := Query{ID: 0, K: 2, Point: vec.Vector{1, 0}}
	w := linWorkload(t, attrs, []Query{q})
	obj, score := w.KthResult(nil, 0)
	if obj != 1 || score != 2 {
		t.Errorf("KthResult=(%d,%v)", obj, score)
	}
}

func TestScoreAndQueriesAccessors(t *testing.T) {
	attrs := []vec.Vector{{1, 2}}
	q := Query{ID: 0, K: 1, Point: vec.Vector{0.5, 0.5}}
	w := linWorkload(t, attrs, []Query{q})
	if got := w.Score(0, q.Point); got != 1.5 {
		t.Errorf("Score=%v", got)
	}
	if qs := w.Queries(); len(qs) != 1 || qs[0].K != 1 {
		t.Errorf("Queries=%v", qs)
	}
	if w.Space().QueryDim() != 2 {
		t.Error("Space accessor")
	}
	w.RemoveQuery(0)
	if !w.IsQueryRemoved(0) {
		t.Error("query tombstone")
	}
	if h, _ := w.HitsExact(attrs[0], 0); h != 0 {
		t.Errorf("removed query still counted: %d", h)
	}
}
