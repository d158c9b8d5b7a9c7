package metrics_test

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/noc"
)

// The paper's Definition 3: two attackers sped up to 1.2×, two victims cut
// to 0.6× gives an attack effect of 2.
func ExampleAttackEffectQ() {
	q := metrics.AttackEffectQ(
		[]float64{1.2, 1.2}, // attacker Θ values
		[]float64{0.6, 0.6}, // victim Θ values
	)
	fmt.Printf("Q = %.1f\n", q)
	// Output: Q = 2.0
}

// An HT in the only router column between the sources and the manager
// intercepts every request.
func ExampleInfectionRateXY() {
	mesh := noc.Mesh{Width: 4, Height: 1}
	gm := mesh.ID(noc.Coord{X: 0, Y: 0})
	covers := metrics.NewCovers(mesh, gm) // once per chip and manager
	var infected noc.NodeSet
	infected.Add(mesh.ID(noc.Coord{X: 1, Y: 0}))
	rate := metrics.InfectionRateXY(covers, &infected, nil)
	fmt.Printf("infection rate = %.2f\n", rate)
	// Output: infection rate = 1.00
}

// Definitions 6-8 for a two-Trojan fleet.
func ExampleDistanceRho() {
	mesh := noc.Mesh{Width: 8, Height: 8}
	gm := mesh.ID(noc.Coord{X: 0, Y: 0})
	fleet := []noc.NodeID{
		mesh.ID(noc.Coord{X: 2, Y: 2}),
		mesh.ID(noc.Coord{X: 4, Y: 4}),
	}
	rho, _ := metrics.DistanceRho(mesh, gm, fleet)
	eta, _ := metrics.DensityEta(mesh, fleet)
	fmt.Printf("rho = %.0f, eta = %.0f\n", rho, eta)
	// Output: rho = 6, eta = 2
}
