// Package metrics implements the paper's Section IV measures that are
// formulas over simulation outputs: performance change Θ (Definition 2),
// attack effect Q (Definition 3), the Trojan fleet's virtual center ω, its
// distance ρ to the global manager and its density η (Definitions 6–8),
// and the infection rate of power-request traffic. Application
// performance θ (Definition 1) is summed per application in core's run
// report; power-budget sensitivity φ (Definition 4) is
// workload.Profile.Sensitivity, and an application's Φ (Definition 5) is
// its profile's φ, since all of its cores share one profile.
package metrics

import (
	"errors"
	"math"

	"repro/internal/noc"
)

// ErrNoNodes is returned when a geometric measure is requested for an empty
// node set.
var ErrNoNodes = errors.New("metrics: empty node set")

// PerformanceChange is Definition 2: Θ_k = θ_k / Λ_k, the application's
// performance with Trojans over its performance without. It returns 0 when
// the baseline is zero.
func PerformanceChange(withHT, withoutHT float64) float64 {
	if withoutHT == 0 {
		return 0
	}
	return withHT / withoutHT
}

// AttackEffectQ is Definition 3:
//
//	Q(Δ,Γ) = (V · Σ_{a∈Δ} Θ_a) / (A · Σ_{v∈Γ} Θ_v)
//
// where Δ are the attacker applications' performance changes and Γ the
// victims'. V and A are the victim and attacker counts. It returns +Inf
// when the victims' performance collapsed to zero and 0 for empty inputs.
func AttackEffectQ(attackerChanges, victimChanges []float64) float64 {
	a := float64(len(attackerChanges))
	v := float64(len(victimChanges))
	if a == 0 || v == 0 {
		return 0
	}
	var sumA, sumV float64
	for _, x := range attackerChanges {
		sumA += x
	}
	for _, x := range victimChanges {
		sumV += x
	}
	if sumV == 0 {
		return math.Inf(1)
	}
	return (v * sumA) / (a * sumV)
}

// VirtualCenter is Definition 6: the mean coordinate (ω_X, ω_Y) of the
// malicious nodes.
func VirtualCenter(m noc.Mesh, nodes []noc.NodeID) (ox, oy float64, err error) {
	if len(nodes) == 0 {
		return 0, 0, ErrNoNodes
	}
	for _, id := range nodes {
		c := m.Coord(id)
		ox += float64(c.X)
		oy += float64(c.Y)
	}
	n := float64(len(nodes))
	return ox / n, oy / n, nil
}

// DistanceRho is Definition 7: ρ = MD(O, Ω), the Manhattan distance between
// the global manager O and the Trojans' virtual center Ω (real-valued).
func DistanceRho(m noc.Mesh, gm noc.NodeID, nodes []noc.NodeID) (float64, error) {
	ox, oy, err := VirtualCenter(m, nodes)
	if err != nil {
		return 0, err
	}
	c := m.Coord(gm)
	return math.Abs(float64(c.X)-ox) + math.Abs(float64(c.Y)-oy), nil
}

// DensityEta is Definition 8: η = Σ_i MD(Ω, M_i) / m, the mean Manhattan
// distance between the virtual center and each malicious node. Despite the
// paper's name, smaller η means a tighter (denser) cluster.
func DensityEta(m noc.Mesh, nodes []noc.NodeID) (float64, error) {
	ox, oy, err := VirtualCenter(m, nodes)
	if err != nil {
		return 0, err
	}
	s := 0.0
	for _, id := range nodes {
		c := m.Coord(id)
		s += math.Abs(float64(c.X)-ox) + math.Abs(float64(c.Y)-oy)
	}
	return s / float64(len(nodes)), nil
}
