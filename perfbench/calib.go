package main

import (
	"math/rand"
	"slices"
	"time"
)

// probeRefMS is about what probe.time reads on a quiet 2-vCPU Intel Xeon
// VM with Go 1.24, the host the bounds in BENCHMARK.json were set on. The
// loop workloads report their times at the speed that reading stands for.
//
// A shared host's speed drifts by a fifth or more, for seconds to minutes
// at a time: the probe read 8.3 to 16.5 ms within single 30-s runs there,
// and runs' median readings ranged from 9.2 to 15.0 ms. The loops' calls
// are single-threaded like the probe and slow down with it: over ten runs,
// log call time against log median reading had a slope of 0.9 to 1.2 and
// a correlation of 0.96 to 0.98. So a loop run probes the host four times
// an iteration, between its calls, and multiplies every time it reports by
// probeRefMS over the mean of its readings: the times are means over the
// run, and the host flips between a fast and a slow state, so the mean
// reading follows the share of the run spent in each where the median
// jumps from one to the other. That removes most of the host's drift and
// leaves whatever the program itself changed; the unscaled figures and
// the readings stay in the run record.
const probeRefMS = 10.0

// probe is a fixed piece of CPU work that runs no code of the program: an
// exhaustive reverse top-k count at the loop workloads' size (1000 points,
// 200 weight vectors, k ≤ 10), over data drawn once from a fixed seed. Its
// time tracks how fast the host runs single-threaded, cache-resident work
// at the moment, and nothing a change to the program does.
type probe struct {
	points  [][3]float64
	weights [][3]float64
	ks      []int
	scores  []float64
}

func newProbe() *probe {
	rng := rand.New(rand.NewSource(7))
	p := &probe{points: make([][3]float64, 1000), weights: make([][3]float64, 200), scores: make([]float64, 1000)}
	for i := range p.points {
		p.points[i] = [3]float64{rng.Float64(), rng.Float64(), rng.Float64()}
	}
	for i := range p.weights {
		p.weights[i] = [3]float64{rng.Float64(), rng.Float64(), rng.Float64()}
		p.ks = append(p.ks, 1+rng.Intn(10))
	}
	return p
}

// work counts, over every weight vector, the points that rank within its
// k. It allocates nothing.
func (p *probe) work() int {
	hits := 0
	for j, w := range p.weights {
		for i, o := range p.points {
			p.scores[i] = o[0]*w[0] + o[1]*w[1] + o[2]*w[2]
		}
		k := p.ks[j]
		for _, s := range p.scores {
			better := 0
			for _, t := range p.scores {
				if t < s {
					if better++; better == k {
						break
					}
				}
			}
			if better < k {
				hits++
			}
		}
	}
	return hits
}

// time returns the fastest of reps runs of work, in milliseconds.
func (p *probe) time(reps int) float64 {
	ts := make([]float64, reps)
	for r := range ts {
		start := time.Now()
		p.work()
		ts[r] = ms(time.Since(start))
	}
	return slices.Min(ts)
}
