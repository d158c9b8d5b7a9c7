package core

import (
	"fmt"

	"repro/internal/attack"
	"repro/internal/metrics"
	"repro/internal/noc"
	"repro/internal/trojan"
)

// EpochRecord is one budgeting epoch's trace entry.
type EpochRecord struct {
	// Epoch is the zero-based epoch index.
	Epoch int
	// TrojanActive reports whether the fleet's activation signal was ON.
	TrojanActive bool
	// RequestsReceived and RequestsTampered are the manager's deltas for
	// this epoch.
	RequestsReceived, RequestsTampered uint64
	// AttackerMeanLevel and VictimMeanLevel are the mean DVFS level
	// indices over each role's cores at epoch end.
	AttackerMeanLevel, VictimMeanLevel float64
	// MemLatencyNs is the epoch-end memory latency estimate.
	MemLatencyNs float64
}

// AppResult is one application's measured outcome in a campaign.
type AppResult struct {
	// Name and Role echo the scenario.
	Name string
	Role Role
	// Cores is the number of cores the application actually received.
	Cores int
	// Theta is Definition 1: the application's summed core throughput in
	// instructions per nanosecond, averaged over measured epochs.
	Theta float64
	// Phi is Definition 5: the application's power-budget sensitivity.
	Phi float64
	// AvgLevel is the mean DVFS level index over measured epochs.
	AvgLevel float64
}

// Report is the outcome of one campaign.
type Report struct {
	// Apps are the per-application results, in scenario order.
	Apps []AppResult
	// GM is the manager's node.
	GM noc.NodeID
	// ChipBudgetMW is the allocated chip power budget.
	ChipBudgetMW uint64
	// InfectionMeasured is the realised infection rate: tampered POWER_REQ
	// deliveries over all POWER_REQ deliveries at the manager.
	InfectionMeasured float64
	// InfectionPredicted is the closed-form XY predictor over the
	// application cores.
	InfectionPredicted float64
	// AvgMemLatencyNs is the final memory-latency estimate.
	AvgMemLatencyNs float64
	// Net is the NoC statistics snapshot.
	Net noc.Stats
	// Trojan sums the fleet's counters (zero without Trojans).
	Trojan trojan.Stats
	// FlaggedRequests and RepairedTampered count the request-integrity
	// filter's verdicts (zero without a configured defense).
	FlaggedRequests  uint64
	RepairedTampered uint64
	// Epochs is the per-epoch trace, one record per budgeting epoch.
	Epochs []EpochRecord
	// DualPathPairs, DualPathMismatches, and DualPathUnpaired report the
	// route-diverse voter's verdicts (zero unless DualPathRequests).
	DualPathPairs, DualPathMismatches, DualPathUnpaired uint64
	// TrojanFeatures are the placement's Eqn 9 geometric features with the
	// Φ vectors filled from victim/attacker roles (zero without Trojans).
	TrojanFeatures attack.Features
}

// report assembles the Report after a campaign finished. The report
// takes the trace over and copies everything else, so it aliases nothing
// the run's next reset rewrites.
func (r *run) report(sc Scenario) (*Report, error) {
	cfg := r.sys.cfg
	rep := &Report{
		GM:                r.sys.gm,
		ChipBudgetMW:      cfg.ChipBudgetMW(),
		InfectionMeasured: r.infection.Rate(),
		AvgMemLatencyNs:   r.memLatNs,
		Net:               r.net.Stats(),
		FlaggedRequests:   r.manager.FlaggedTotal,
		RepairedTampered:  r.manager.RepairedTampered,
		Epochs:            r.trace,
	}
	r.trace = nil
	if r.voter != nil {
		rep.DualPathPairs = r.voter.Pairs
		rep.DualPathMismatches = r.voter.Mismatches
		rep.DualPathUnpaired = r.voter.Unpaired
	}
	rep.Apps = make([]AppResult, 0, len(r.apps))
	sources := r.sources[:0]
	for _, app := range r.apps {
		theta := 0.0
		avgLevel := 0.0
		for _, cid := range app.cores {
			cs := &r.cores[cid]
			if cs.samples > 0 {
				// Per-core mean throughput over measured epochs.
				theta += cs.instrs / (float64(cs.samples) * float64(cfg.EpochCycles))
				avgLevel += cs.levels / float64(cs.samples)
			}
		}
		avgLevel /= float64(len(app.cores))
		phi := app.profile.Sensitivity(r.freqs, r.memLatNs)
		rep.Apps = append(rep.Apps, AppResult{
			Name:     app.spec.Name,
			Role:     app.spec.Role,
			Cores:    len(app.cores),
			Theta:    theta,
			Phi:      phi,
			AvgLevel: avgLevel,
		})
		sources = append(sources, app.cores...)
	}
	r.sources = sources
	if r.fleet != nil {
		rep.Trojan = r.fleet.TotalStats()
		sc.Trojans.Infected(&r.infected)
		rep.InfectionPredicted = metrics.InfectionRateXY(r.sys.routeCovers(), &r.infected, sources)
		f, err := attack.FeaturesFor(r.sys.mesh, r.sys.gm, sc.Trojans)
		if err != nil {
			return nil, err
		}
		for _, a := range rep.Apps {
			switch a.Role {
			case RoleVictim:
				f.VictimPhi = append(f.VictimPhi, a.Phi)
			case RoleAttacker:
				f.AttackerPhi = append(f.AttackerPhi, a.Phi)
			}
		}
		rep.TrojanFeatures = f
	}
	return rep, nil
}

// AppChange is one application's performance change between an attacked
// run and its clean baseline.
type AppChange struct {
	Name string
	Role Role
	// ThetaAttacked and ThetaBaseline are the Definition 1 values.
	ThetaAttacked, ThetaBaseline float64
	// Change is Definition 2: Θ = θ/Λ.
	Change float64
}

// Comparison is the attacked-vs-baseline evaluation of a campaign.
type Comparison struct {
	// PerApp lists each application's Θ, in scenario order.
	PerApp []AppChange
	// Q is Definition 3 over the attacker and victim applications.
	Q float64
	// InfectionMeasured echoes the attacked run's realised infection rate.
	InfectionMeasured float64
	// Features are the attacked run's Eqn 9 features.
	Features attack.Features
}

// Compare evaluates an attacked run against its clean baseline. Both
// reports must come from the same scenario shape.
func Compare(attacked, baseline *Report) (*Comparison, error) {
	if len(attacked.Apps) != len(baseline.Apps) {
		return nil, fmt.Errorf("core: compare: %d vs %d apps", len(attacked.Apps), len(baseline.Apps))
	}
	cmp := &Comparison{
		InfectionMeasured: attacked.InfectionMeasured,
		Features:          attacked.TrojanFeatures,
	}
	var attackers, victims []float64
	for i, a := range attacked.Apps {
		b := baseline.Apps[i]
		if a.Name != b.Name || a.Role != b.Role {
			return nil, fmt.Errorf("core: compare: app %d is %s/%v vs %s/%v", i, a.Name, a.Role, b.Name, b.Role)
		}
		change := metrics.PerformanceChange(a.Theta, b.Theta)
		cmp.PerApp = append(cmp.PerApp, AppChange{
			Name: a.Name, Role: a.Role,
			ThetaAttacked: a.Theta, ThetaBaseline: b.Theta,
			Change: change,
		})
		switch a.Role {
		case RoleAttacker:
			attackers = append(attackers, change)
		case RoleVictim:
			victims = append(victims, change)
		}
	}
	cmp.Q = metrics.AttackEffectQ(attackers, victims)
	return cmp, nil
}
