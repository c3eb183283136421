// Product marketing at scale: the camera-manufacturer scenario from the
// paper's introduction. A synthetic camera market (hundreds of models) is
// scored by a large customer panel of top-k preference queries. The
// manufacturer:
//
//  1. selects its own product line with a SQL SELECT over the catalogue
//     (the paper's tool lets targets be chosen "via an SQL select
//     statement"),
//  2. asks a Min-Cost IQ how to reach a market-share goal,
//  3. asks a combinatorial Max-Hit IQ how to split a fixed engineering
//     budget across the whole product line, and
//  4. commits the chosen strategy and verifies the new market position.
//
// Run with: go run ./examples/cameras
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"iq"
	"iq/internal/dataset"
	"iq/internal/sqlmini"
)

func main() {
	rng := rand.New(rand.NewSource(7))

	// The market: 400 cameras with correlated attributes (good sensors
	// come with high prices). Scores are lower-is-better.
	market := dataset.Objects(dataset.Correlated, 400, 3, rng)
	attrNames := []string{"resolution", "storage", "price"}

	// The customer panel: 300 preference queries, clustered — customer
	// tastes come in segments (enthusiasts, casual, budget).
	panel := dataset.CLQueries(300, 3, 8, 3, true, rng)

	sys, err := iq.NewLinear(market, panel)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("market: %d cameras, %d customer preference queries\n",
		sys.NumObjects(), sys.NumQueries())

	// Load the catalogue into the relational engine and pick "our"
	// product line: mid-range cameras that are currently overpriced.
	db := sqlmini.NewDB()
	tab, err := db.Create("cameras", attrNames)
	if err != nil {
		log.Fatal(err)
	}
	for _, c := range market {
		if _, err := tab.Insert(c); err != nil {
			log.Fatal(err)
		}
	}
	rs, err := db.Select(
		"SELECT id, resolution, price FROM cameras " +
			"WHERE resolution < 0.6 AND price > 0.55 ORDER BY price DESC LIMIT 3")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nour product line (SQL-selected):\n%s", rs.String())
	targets := rs.RowIDs

	// Cost model: changing the sensor (resolution) is 4x as expensive per
	// unit as changing storage, and price changes are cheapest.
	cost := iq.WeightedL2Cost{Alpha: iq.Vector{4, 2, 1}}

	// Question 1: what does it cost the flagship to win 40 customers?
	flagship := targets[0]
	res, err := sys.MinCost(iq.MinCostRequest{Target: flagship, Tau: 40, Cost: cost})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nflagship camera %d, goal: 40 customers\n", flagship)
	for i, d := range res.Strategy {
		fmt.Printf("  adjust %-10s by %+0.4f\n", attrNames[i], d)
	}
	fmt.Printf("  cost %.4f, wins %d customers (was %d)\n", res.Cost, res.Hits, res.BaseHits)

	// Question 2: split an engineering budget of 3.0 across the whole
	// product line to maximise combined customer wins (each customer
	// counted once even if several of our cameras would win them).
	specs := make([]iq.TargetSpec, len(targets))
	for i, t := range targets {
		specs[i] = iq.TargetSpec{Target: t, Cost: cost}
	}
	multi, err := sys.MaxHitMultiCtx(context.Background(), specs, 3.0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nbudget 3.00 across %d products:\n", len(targets))
	for _, t := range targets {
		fmt.Printf("  camera %3d: strategy %v\n", t, multi.Strategies[t])
	}
	fmt.Printf("  total cost %.4f, combined customers won %d\n", multi.TotalCost, multi.TotalHits)

	// Commit the flagship improvement and confirm the market moved.
	if err := sys.CommitCtx(context.Background(), flagship, res.Strategy); err != nil {
		log.Fatal(err)
	}
	after, err := sys.Hits(flagship)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nafter shipping the flagship update it wins %d customers\n", after)
}
