package htsim_test

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"repro/internal/attack"
	"repro/pkg/htsim"
)

// defenseFleets random Trojan fleets of defenseFleetSize implants each
// are averaged per architecture in Example_defenseStudy.
const (
	defenseFleets    = 6
	defenseFleetSize = 10
)

// Example_defenseStudy shows that the same SDK the attacker uses also
// quantifies countermeasures. It evaluates two architectural knobs the
// paper's analysis suggests matter — where the global manager sits
// (Fig 3: a corner manager's longer request paths are easier to
// intercept than a central one's) and which routing algorithm forwards
// the requests (deterministic XY paths are predictable for the attacker;
// adaptive west-first routing perturbs paths when the network is
// loaded). Both knobs are options resolving registered plugin names.
//
// Infection rates are averaged over several independent random fleets so
// the comparison reflects the architecture, not one lucky placement.
//
// Run with:
//
//	go test ./pkg/htsim -run Example_defenseStudy -v
func Example_defenseStudy() {
	fmt.Println("defense study: mean infection rate and Q over", defenseFleets, "random Trojan fleets")
	fmt.Printf("%10s %12s %12s %10s\n", "manager", "routing", "infection", "Q")

	for _, gm := range []string{"corner", "center"} {
		for _, routing := range []string{"xy", "west-first"} {
			infection, q, err := evaluateDefense(gm, routing)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%10s %12s %12.3f %10.3f\n", gm, routing, infection, q)
		}
	}
	fmt.Println("\na centrally placed manager shortens request paths and lowers the")
	fmt.Println("interception probability. under light control-plane load adaptive")
	fmt.Println("west-first routing follows the same minimal paths as XY — route")
	fmt.Println("randomisation only pays off once the network is congested.")
	// Output:
	// defense study: mean infection rate and Q over 6 random Trojan fleets
	//    manager      routing    infection          Q
	//     corner           xy        0.476      1.262
	//     corner   west-first        0.476      1.262
	//     center           xy        0.403      1.173
	//     center   west-first        0.403      1.173
	//
	// a centrally placed manager shortens request paths and lowers the
	// interception probability. under light control-plane load adaptive
	// west-first routing follows the same minimal paths as XY — route
	// randomisation only pays off once the network is congested.
}

// evaluateDefense averages infection and Q over the random fleets on a
// chip with the given manager placement and routing.
func evaluateDefense(gm, routing string) (infection, q float64, err error) {
	sim, err := htsim.New(
		htsim.WithCores(64),
		htsim.WithMemTraffic(true), // background traffic creates the congestion
		// that lets adaptive routing diverge from XY
		htsim.WithEpochs(6),
		htsim.WithWarmupEpochs(1),
		htsim.WithEpochCycles(500),
		htsim.WithGMPlacement(gm),
		htsim.WithRouting(routing),
	)
	if err != nil {
		return 0, 0, err
	}
	scenario := htsim.Scenario{
		Apps: []htsim.AppSpec{
			{Name: "freqmine", Threads: 16, Role: htsim.RoleAttacker},
			{Name: "vips", Threads: 16, Role: htsim.RoleVictim},
			{Name: "dedup", Threads: 16, Role: htsim.RoleVictim},
		},
	}
	ctx := context.Background()
	baseline, err := sim.Run(ctx, scenario.WithoutTrojans())
	if err != nil {
		return 0, 0, err
	}
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < defenseFleets; i++ {
		// The defender moves the manager; the attacker's implants are
		// random and never sit in either candidate manager router.
		placement, err := attack.RandomPlacement(sim.Mesh(), defenseFleetSize, rng,
			sim.Mesh().Center(), sim.Mesh().Corner())
		if err != nil {
			return 0, 0, err
		}
		scenario.Trojans = placement
		attacked, err := sim.Run(ctx, scenario)
		if err != nil {
			return 0, 0, err
		}
		cmp, err := htsim.Compare(attacked, baseline)
		if err != nil {
			return 0, 0, err
		}
		infection += attacked.InfectionMeasured / defenseFleets
		q += cmp.Q / defenseFleets
	}
	return infection, q, nil
}
