package htsim_test

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"repro/internal/attack"
	"repro/pkg/htsim"
)

// Example_placementOpt is the attacker-side workflow of Section IV-C and
// Eqns 9–11, driven through the SDK. It samples random Trojan fleets,
// measures the attack effect Q of each by simulation, fits the linear
// model
//
//	Q ≈ a1·ρ + a2·η + a3·m + Σ bj·Φγj + Σ ck·Φδk + a0,
//
// then enumerates candidate placements exhaustively (the paper's own
// solving strategy) and verifies the winner by simulation.
//
// Run with:
//
//	go test ./pkg/htsim -run Example_placementOpt -v
func Example_placementOpt() {
	sim, err := htsim.New(htsim.WithCores(64), htsim.WithMemTraffic(false))
	if err != nil {
		log.Fatal(err)
	}
	scenario, err := htsim.MixScenario("mix-2", 8)
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	baseline, err := sim.Run(ctx, scenario.WithoutTrojans())
	if err != nil {
		log.Fatal(err)
	}

	// 1. Training: simulate random fleets of varying size so the model can
	// identify the a3·m coefficient.
	const maxFleet = 10
	rng := rand.New(rand.NewSource(5))
	var samples []attack.Sample
	fmt.Println("training campaigns (random placements):")
	for i := 0; i < 12; i++ {
		placement, err := attack.RandomPlacement(sim.Mesh(), 2+(i%maxFleet), rng, sim.ManagerNode())
		if err != nil {
			log.Fatal(err)
		}
		scenario.Trojans = placement
		attacked, err := sim.Run(ctx, scenario)
		if err != nil {
			log.Fatal(err)
		}
		cmp, err := htsim.Compare(attacked, baseline)
		if err != nil {
			log.Fatal(err)
		}
		f := cmp.Features
		fmt.Printf("  ρ=%5.2f η=%5.2f m=%2d → Q=%.3f\n", f.Rho, f.Eta, f.M, cmp.Q)
		samples = append(samples, attack.Sample{Features: f, Q: cmp.Q})
	}

	// 2. Fit Eqn 9.
	model, err := attack.FitEffectModel(samples)
	if err != nil {
		log.Fatal(err)
	}
	a1, a2, a3, _, _, a0 := model.Coefficients()
	fmt.Printf("\nEqn 9 fit: Q ≈ %.3f·ρ + %.3f·η + %.3f·m + %.3f   (R²=%.2f)\n",
		a1, a2, a3, a0, model.R2())

	// 3. Solve Eqn 10 by exhaustive enumeration.
	last := samples[len(samples)-1].Features
	best, evaluated, err := attack.OptimizePlacement(sim.Mesh(), sim.ManagerNode(), model, attack.OptimizeOptions{
		MaxHTs:      maxFleet,
		VictimPhi:   last.VictimPhi,
		AttackerPhi: last.AttackerPhi,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("enumerated %d placements; best predicted Q = %.3f at ρ=%.2f η=%.2f m=%d\n",
		evaluated, best.PredictedQ, best.Features.Rho, best.Features.Eta, best.Features.M)

	// 4. Verify the optimised placement by simulation.
	scenario.Trojans = best.Placement
	attacked, err := sim.Run(ctx, scenario)
	if err != nil {
		log.Fatal(err)
	}
	cmp, err := htsim.Compare(attacked, baseline)
	if err != nil {
		log.Fatal(err)
	}
	mean := 0.0
	for _, s := range samples {
		mean += s.Q / float64(len(samples))
	}
	fmt.Printf("\nsimulated Q of optimised placement: %.3f (random mean was %.3f, %+.0f%%)\n",
		cmp.Q, mean, (cmp.Q-mean)/mean*100)
	// Output:
	// training campaigns (random placements):
	//   ρ= 1.50 η= 2.50 m= 2 → Q=1.036
	//   ρ= 1.33 η= 4.89 m= 3 → Q=1.016
	//   ρ= 1.00 η= 4.00 m= 4 → Q=1.115
	//   ρ= 1.40 η= 3.68 m= 5 → Q=1.646
	//   ρ= 1.67 η= 3.17 m= 6 → Q=1.114
	//   ρ= 2.29 η= 2.98 m= 7 → Q=1.749
	//   ρ= 0.62 η= 4.12 m= 8 → Q=1.749
	//   ρ= 1.89 η= 2.96 m= 9 → Q=1.749
	//   ρ= 1.50 η= 3.64 m=10 → Q=1.749
	//   ρ= 1.45 η= 4.13 m=11 → Q=1.269
	//   ρ= 3.50 η= 3.50 m= 2 → Q=1.000
	//   ρ= 0.67 η= 3.56 m= 3 → Q=1.178
	//
	// Eqn 9 fit: Q ≈ -0.043·ρ + -0.113·η + 0.073·m + 1.414   (R²=0.52)
	// enumerated 3200 placements; best predicted Q = 1.933 at ρ=0.40 η=1.68 m=10
	//
	// simulated Q of optimised placement: 3.119 (random mean was 1.364, +129%)
}
