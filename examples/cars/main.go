// Non-linear and heterogeneous utilities: the Car example of Sections
// 5.2–5.3 (Table 1). Two user populations rank the same cars with
// differently-shaped utility functions:
//
//	u(c) = w1·sqrt(price) + w2·(capacity / mpg)     (Equation 19)
//	v(c) = w3·(mpg / price) + w4·capacity²           (Equation 26)
//
// Both are linearised by variable substitution (each attribute term becomes
// an augmented attribute computed on the fly) and unified into one generic
// function space, exactly as the paper prescribes, so one subdomain index
// serves the heterogeneous workload. An improvement query then works
// unchanged on top.
//
// Run with: go run ./examples/cars
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"iq"
)

func main() {
	rng := rand.New(rand.NewSource(3))

	// Car attributes (normalised, lower-is-better scores):
	// price, mpg score (fuel hunger), capacity score (cramped-ness).
	attrNames := []string{"price", "mpg", "capacity"}
	cars := make([]iq.Vector, 150)
	for i := range cars {
		cars[i] = iq.Vector{
			0.2 + 0.8*rng.Float64(),
			0.2 + 0.8*rng.Float64(),
			0.2 + 0.8*rng.Float64(),
		}
	}

	// Family u: price-sensitive commuters (Equation 19's shape).
	u, err := iq.NewExprSpace("w1 * sqrt(price) + w2 * (capacity / mpg)", attrNames)
	if err != nil {
		log.Fatal(err)
	}
	// Family v: efficiency-focused drivers (Equation 26's shape).
	v, err := iq.NewExprSpace("w3 * (mpg / price) + w4 * capacity^2", attrNames)
	if err != nil {
		log.Fatal(err)
	}
	// One generic function space covering both (Section 5.3): a family-u
	// query zeroes w3, w4 and vice versa.
	space, err := iq.NewHeterogeneousSpace(u, v)
	if err != nil {
		log.Fatal(err)
	}

	var queries []iq.Query
	for i := 0; i < 60; i++ {
		point, err := space.Lift(0, iq.Vector{0.3 + 0.7*rng.Float64(), 0.3 + 0.7*rng.Float64()})
		if err != nil {
			log.Fatal(err)
		}
		queries = append(queries, iq.Query{ID: i, K: 1 + rng.Intn(3), Point: point})
	}
	for i := 0; i < 60; i++ {
		point, err := space.Lift(1, iq.Vector{0.3 + 0.7*rng.Float64(), 0.3 + 0.7*rng.Float64()})
		if err != nil {
			log.Fatal(err)
		}
		queries = append(queries, iq.Query{ID: 100 + i, K: 1 + rng.Intn(3), Point: point})
	}

	sys, err := iq.NewWithOptionsCtx(context.Background(), space, cars, queries, iq.IndexOptions{})
	if err != nil {
		log.Fatal(err)
	}
	st := sys.IndexStats()
	fmt.Printf("unified index: %d queries from 2 utility families, %d subdomains, %d candidate cars\n",
		st.Queries, st.Subdomains, st.Candidates)

	// Improve a mid-pack car to reach 25 buyers across BOTH populations.
	target := 42
	base, err := sys.Hits(target)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ncar %d currently wins %d of %d buyers\n", target, base, sys.NumQueries())

	res, err := sys.MinCost(iq.MinCostRequest{
		Target: target,
		Tau:    25,
		Cost:   iq.L2Cost{},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\ncheapest redesign reaching 25 buyers:")
	for i, d := range res.Strategy {
		if d != 0 {
			fmt.Printf("  adjust %-9s score by %+0.4f\n", attrNames[i], d)
		}
	}
	fmt.Printf("  cost %.4f → %d buyers\n", res.Cost, res.Hits)

	// The redesign must keep attributes physically meaningful (scores
	// cannot go below 0.05): bounded improvement.
	bounds := &iq.Bounds{
		Lo: iq.Vector{0.05 - cars[target][0], 0.05 - cars[target][1], 0.05 - cars[target][2]},
		Hi: iq.Vector{1, 1, 1},
	}
	mh, err := sys.MaxHit(iq.MaxHitRequest{
		Target: target,
		Budget: 0.4,
		Cost:   iq.L2Cost{},
		Bounds: bounds,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nbounded redesign with budget 0.40: %d buyers (cost %.4f)\n", mh.Hits, mh.Cost)
}
