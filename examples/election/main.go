// Campaign strategy: the presidential-election scenario from the paper's
// introduction. Candidates are objects whose attributes are positions on
// policy axes (distance from each voter bloc's ideal, lower = closer);
// voters are top-1 queries weighting the axes by how much they care. A
// candidate evaluates campaign adjustments ("improvement strategies") to
// appeal to more voters — under the real-world constraint that some
// positions cannot move (frozen attributes) and with a Max-Hit budget
// modelling limited campaign time.
//
// Run with: go run ./examples/election
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"iq"
)

const (
	axisEconomy = iota
	axisHealthcare
	axisClimate
	axisSecurity
	numAxes
)

var axisNames = [numAxes]string{"economy", "healthcare", "climate", "security"}

func main() {
	rng := rand.New(rand.NewSource(11))

	// Five candidates. Attribute = how far the candidate's platform sits
	// from the electorate's centre on each axis (lower = more aligned).
	candidates := []iq.Vector{
		{0.55, 0.70, 0.40, 0.35}, // our candidate: weak on healthcare
		{0.30, 0.35, 0.60, 0.50},
		{0.45, 0.40, 0.30, 0.65},
		{0.60, 0.30, 0.55, 0.30},
		{0.35, 0.60, 0.45, 0.45},
	}

	// 200 voters; each cares about the axes differently and "votes" for
	// the candidate with the best weighted alignment (top-1).
	voters := make([]iq.Query, 200)
	for i := range voters {
		w := make(iq.Vector, numAxes)
		for a := range w {
			w[a] = rng.Float64()
		}
		// Normalise attention to sum 1.
		sum := w[0] + w[1] + w[2] + w[3]
		for a := range w {
			w[a] /= sum
		}
		voters[i] = iq.Query{ID: i, K: 1, Point: w}
	}

	sys, err := iq.NewLinear(candidates, voters)
	if err != nil {
		log.Fatal(err)
	}

	us := 0
	fmt.Println("current poll (voters won per candidate):")
	for c := range candidates {
		h, err := sys.Hits(c)
		if err != nil {
			log.Fatal(err)
		}
		marker := ""
		if c == us {
			marker = "  <- us"
		}
		fmt.Printf("  candidate %d: %3d voters%s\n", c, h, marker)
	}

	// Strategy review 1: what is the cheapest platform shift that wins 80
	// voters? The economy position is locked in (a signature policy), so
	// that axis is frozen.
	bounds := iq.Frozen(numAxes, axisEconomy)
	res, err := sys.MinCost(iq.MinCostRequest{
		Target: us,
		Tau:    80,
		Cost:   iq.L2Cost{},
		Bounds: bounds,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nto win 80 voters (economy position frozen):\n")
	for a, d := range res.Strategy {
		if d != 0 {
			fmt.Printf("  move %-11s by %+0.4f\n", axisNames[a], d)
		}
	}
	fmt.Printf("  political capital spent %.4f → %d voters\n", res.Cost, res.Hits)

	// Strategy review 2: six weeks before the election there is only a
	// small budget of capital left — where does it help most?
	mh, err := sys.MaxHit(iq.MaxHitRequest{
		Target: us,
		Budget: 0.15,
		Cost:   iq.L2Cost{},
		Bounds: bounds,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nbest use of remaining capital 0.15:\n")
	for a, d := range mh.Strategy {
		if d != 0 {
			fmt.Printf("  move %-11s by %+0.4f\n", axisNames[a], d)
		}
	}
	fmt.Printf("  wins %d voters (was %d)\n", mh.Hits, mh.BaseHits)

	// The electorate shifts: a new voter bloc appears mid-campaign and an
	// incumbent drops out. The index updates incrementally (Section 4.3).
	for i := 0; i < 20; i++ {
		w := iq.Vector{0.1, 0.2, 0.6, 0.1} // climate-first bloc
		if _, err := sys.AddQueryCtx(context.Background(), iq.Query{ID: 1000 + i, K: 1, Point: w}); err != nil {
			log.Fatal(err)
		}
	}
	if err := sys.RemoveObjectCtx(context.Background(), 3); err != nil {
		log.Fatal(err)
	}
	h, err := sys.Hits(us)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nafter a climate bloc joins and candidate 3 drops out, we poll at %d of %d voters\n",
		h, sys.NumQueries())
}
