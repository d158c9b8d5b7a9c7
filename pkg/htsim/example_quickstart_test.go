package htsim_test

import (
	"context"
	"fmt"
	"log"

	"repro/pkg/htsim"
)

// Example_quickstart assembles the Table I chip with the SDK, implants 12
// hardware Trojans near the global manager, runs one attack campaign
// against mix-1, and prints the paper's headline measurements (infection
// rate, per-app Θ, attack effect Q).
//
// Run with:
//
//	go test ./pkg/htsim -run Example_quickstart -v
func Example_quickstart() {
	// The Table I chip, shrunk to 64 cores so the example runs in seconds.
	// Every axis is a named option; htsim.Axes() lists the alternatives.
	sim, err := htsim.New(
		htsim.WithCores(64),
		htsim.WithMemTraffic(false), // budget-protocol-only: plenty for a first look
	)
	if err != nil {
		log.Fatal(err)
	}

	// The Table III mix-1 workload: barnes+canneal attack
	// blackscholes+raytrace, 8 threads each.
	scenario, err := htsim.MixScenario("mix-1", 8)
	if err != nil {
		log.Fatal(err)
	}

	// Implant 12 Trojans in a ring around the global manager — the
	// highest-impact region (Section IV-B).
	placement, err := sim.Trojans("ring", 12, 1)
	if err != nil {
		log.Fatal(err)
	}
	scenario.Trojans = placement

	// Run the campaign and its clean baseline.
	attacked, baseline, err := sim.RunPair(context.Background(), scenario)
	if err != nil {
		log.Fatal(err)
	}
	cmp, err := htsim.Compare(attacked, baseline)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("global manager at node %d, %d Trojans implanted\n", sim.ManagerNode(), placement.Size())
	fmt.Printf("infection rate: %.2f (predicted %.2f)\n",
		attacked.InfectionMeasured, attacked.InfectionPredicted)
	for _, app := range cmp.PerApp {
		fmt.Printf("  %-14s %-9s Θ = %.2f\n", app.Name, app.Role, app.Change)
	}
	fmt.Printf("attack effect Q = %.2f  (> 1 means the attack worked)\n", cmp.Q)
	// Output:
	// global manager at node 27, 12 Trojans implanted
	// infection rate: 0.91 (predicted 0.91)
	//   barnes         attacker  Θ = 1.10
	//   canneal        attacker  Θ = 1.04
	//   blackscholes   victim    Θ = 0.39
	//   raytrace       victim    Θ = 0.54
	// attack effect Q = 2.30  (> 1 means the attack worked)
}
