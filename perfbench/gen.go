package main

import (
	"fmt"
	"math/rand"
	"sort"

	"iq"
	ds "iq/internal/dataset"
)

// dataSeed fixes every dataset and work pool. The run's --seed orders the
// work (see loopSequence and serveSchedule); it never changes which
// operations are measured, so runs with different seeds replay the same
// work and their figures are comparable.
const dataSeed = 20170321

// shape describes one dataset in the paper's Section 6 vocabulary.
type shape struct {
	Objects   int    `json:"objects"`
	Queries   int    `json:"queries"`
	Dim       int    `json:"dim"`
	KMax      int    `json:"k_max"`
	ObjDist   string `json:"object_dist"` // "IN" or "AC"
	QueryDist string `json:"query_dist"`  // "UN" or "CL"
	Clusters  int    `json:"clusters,omitempty"`
}

// dataset is a generated workload plus the benchmark's own brute-force view
// of it, used to pick targets without asking the program.
type dataset struct {
	objects    []iq.Vector
	queries    []iq.Query
	baseHits   []int // H(p) per object, by exhaustive top-k
	dominators []int // objects that dominate each object
}

// generate builds the dataset for s from a fixed seed, with the generators
// of the paper's experiments (internal/dataset).
func generate(s shape, seed int64) *dataset {
	rng := rand.New(rand.NewSource(seed))
	dist := ds.Independent
	if s.ObjDist == "AC" {
		dist = ds.AntiCorrelated
	}
	d := &dataset{objects: ds.Objects(dist, s.Objects, s.Dim, rng)}
	if s.QueryDist == "CL" {
		d.queries = ds.CLQueries(s.Queries, s.Dim, s.KMax, s.Clusters, false, rng)
	} else {
		d.queries = ds.UNQueries(s.Queries, s.Dim, s.KMax, false, rng)
	}
	d.baseHits = make([]int, s.Objects)
	for _, q := range d.queries {
		for _, i := range topK(d.objects, q) {
			d.baseHits[i]++
		}
	}
	d.dominators = make([]int, s.Objects)
	for i, a := range d.objects {
		for _, b := range d.objects {
			if dominates(b, a) {
				d.dominators[i]++
			}
		}
	}
	return d
}

// topK is the exhaustive linear top-k: ascending score, ties by index, as
// the engine orders them.
func topK(objects []iq.Vector, q iq.Query) []int {
	ids := make([]int, len(objects))
	scores := make([]float64, len(objects))
	for i, o := range objects {
		ids[i] = i
		scores[i] = dot(o, q.Point)
	}
	sort.Slice(ids, func(a, b int) bool {
		sa, sb := scores[ids[a]], scores[ids[b]]
		if sa != sb {
			return sa < sb
		}
		return ids[a] < ids[b]
	})
	return ids[:q.K]
}

func dot(a, b iq.Vector) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// dominates reports whether a is at least as good as b everywhere and
// strictly better somewhere (lower is better).
func dominates(a, b iq.Vector) bool {
	strict := false
	for i := range a {
		if a[i] > b[i] {
			return false
		}
		if a[i] < b[i] {
			strict = true
		}
	}
	return strict
}

// loopTarget is one improve→commit→re-query iteration's input.
type loopTarget struct {
	Target int     `json:"target"`
	Tau    int     `json:"tau"`
	Beta   float64 `json:"beta"`
}

func (t loopTarget) String() string {
	return fmt.Sprintf("t%d/tau%d/beta%.4f", t.Target, t.Tau, t.Beta)
}

// Every workload draws its Min-Cost goals τ from [tauLo, tauHi] and its
// Max-Hit budgets β from [betaLo, betaHi]. At β of 0.1 and more one Max-Hit
// takes seconds on loop-in, too few per run to measure steadily.
const (
	tauLo, tauHi   = 10, 40
	betaLo, betaHi = 0.01, 0.04
)

// drawTargets picks n distinct targets outside exclude, each with a goal τ
// it does not already meet (so no timed Min-Cost is a no-op) and a Max-Hit
// budget.
func drawTargets(d *dataset, rng *rand.Rand, n int, exclude map[int]bool) []loopTarget {
	var out []loopTarget
	for len(out) < n {
		t := rng.Intn(len(d.objects))
		tau := tauLo + rng.Intn(tauHi-tauLo+1)
		beta := betaLo + (betaHi-betaLo)*rng.Float64()
		if exclude[t] || d.baseHits[t] >= tau {
			continue
		}
		exclude[t] = true
		out = append(out, loopTarget{Target: t, Tau: tau, Beta: beta})
	}
	return out
}
