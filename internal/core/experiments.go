package core

import (
	"context"
	"fmt"

	"repro/internal/attack"
	"repro/internal/exp"
	"repro/internal/mathx"
	"repro/internal/noc"
	"repro/internal/results"
	"repro/internal/workload"
)

// This file drives the cycle-simulated part of the paper's evaluation
// (Section V): each function regenerates the data behind one figure. The
// analytic Fig 3/4 infection curves live in shard.go.

// QVsInfection regenerates the Fig 5 curve (and Fig 6 data) for one Table
// III mix, as the mix's EffectCell: for each target infection rate a
// greedy placement is built, the campaign is simulated, and Q is
// evaluated against the shared clean baseline. Each campaign in the sweep
// runs under ctx, so a cancelled sweep returns promptly with ctx's error.
func QVsInfection(ctx context.Context, cfg Config, mixName string, threads int, targets []float64) (EffectCell, error) {
	mix, err := workload.MixByName(mixName)
	if err != nil {
		return EffectCell{}, err
	}
	sc, err := MixScenario(mix, threads)
	if err != nil {
		return EffectCell{}, err
	}
	sys, err := NewSystem(cfg)
	if err != nil {
		return EffectCell{}, err
	}
	baseline, err := sys.RunContext(ctx, sc.WithoutTrojans(), nil)
	if err != nil {
		return EffectCell{}, fmt.Errorf("core: baseline: %w", err)
	}
	mesh := sys.Mesh()
	gm := sys.ManagerNode()
	st := trialStates.Get().(*trialState)
	defer trialStates.Put(st)
	st.rng.Seed(cfg.Seed)
	// Coverage balance groups: the placement sampler targets the same
	// infection rate within the victim cores and the attacker cores, so
	// one lucky fleet cannot cover exactly one application's quadrant.
	placed, err := sys.PlaceApps(sc)
	if err != nil {
		return EffectCell{}, err
	}
	var victimCores, attackerCores []noc.NodeID
	for ai, spec := range sc.Apps {
		switch spec.Role {
		case RoleVictim:
			victimCores = append(victimCores, placed[ai]...)
		case RoleAttacker:
			attackerCores = append(attackerCores, placed[ai]...)
		}
	}
	groups := [][]noc.NodeID{victimCores, attackerCores}
	// Averaging over a few independent random fleets per target smooths
	// the composition noise of any single placement (which victim cores
	// happen to sit behind the Trojans).
	const reps = 3
	var cell EffectCell
	for _, target := range targets {
		row := results.EffectRow{Mix: mixName, TargetInfection: target}
		var perApp []AppChange
		n := reps
		if target == 0 {
			n = 1
		}
		for rep := 0; rep < n; rep++ {
			if target > 0 {
				// Random fleets intercept victim and attacker traffic in
				// unbiased proportion, matching how the paper sweeps the
				// Fig 5 x-axis.
				placement, _ := attack.BalancedForInfectionRate(mesh, gm, target, groups, 8, st.rng)
				sc.Trojans = placement
				row.HTs = placement.Size()
			} else {
				sc.Trojans = attack.Placement{}
			}
			attacked, err := sys.RunContext(ctx, sc, nil)
			if err != nil {
				return EffectCell{}, fmt.Errorf("core: target %.2f: %w", target, err)
			}
			cmp, err := Compare(attacked, baseline)
			if err != nil {
				return EffectCell{}, err
			}
			row.MeasuredInfection += attacked.InfectionMeasured / float64(n)
			row.Q += cmp.Q / float64(n)
			if rep == 0 {
				perApp = cmp.PerApp
			} else {
				for i := range perApp {
					perApp[i].Change += cmp.PerApp[i].Change
					perApp[i].ThetaAttacked += cmp.PerApp[i].ThetaAttacked
				}
			}
		}
		cell.Effect = append(cell.Effect, row)
		for _, app := range perApp {
			if n > 1 {
				app.Change /= float64(n)
				app.ThetaAttacked /= float64(n)
			}
			cell.Apps = append(cell.Apps, results.AppEffectRow{
				Mix:             mixName,
				TargetInfection: target,
				App:             app.Name,
				Role:            app.Role.String(),
				Theta:           app.ThetaAttacked,
				Change:          app.Change,
			})
		}
	}
	return cell, nil
}

// OptimalVsRandom regenerates the Section V-C experiment for one mix:
// sample random fleets, fit the Eqn 9 model on the measured Q values,
// solve Eqn 10 by enumeration, simulate the winning placement, and compare
// against the random mean, as the mix's E9 row. The training and
// shortlist campaigns — the expensive cycle simulations — fan out over
// cfg.Workers; every random fleet is drawn from its own (seed, sample
// index) RNG, so the study is bit-identical for every worker count. ctx
// cancels both pools.
func OptimalVsRandom(ctx context.Context, cfg Config, mixName string, threads, nHTs, samples int, seed int64) (*results.PlacementRow, error) {
	if samples < 4 {
		return nil, fmt.Errorf("core: need at least 4 samples to fit Eqn 9")
	}
	mix, err := workload.MixByName(mixName)
	if err != nil {
		return nil, err
	}
	sc, err := MixScenario(mix, threads)
	if err != nil {
		return nil, err
	}
	sys, err := NewSystem(cfg)
	if err != nil {
		return nil, err
	}
	baseline, err := sys.RunContext(ctx, sc.WithoutTrojans(), nil)
	if err != nil {
		return nil, err
	}
	mesh := sys.Mesh()
	gm := sys.ManagerNode()

	// The training set mixes uniformly random fleets (the paper's baseline,
	// and the set the improvement is measured against) with structured ring
	// clusters at varying distance and spread — random fleets alone barely
	// vary in ρ and η, and a model fitted on them extrapolates wildly.
	gmCoord := mesh.Coord(gm)
	placements := make([]attack.Placement, 0, samples+12)
	st := trialStates.Get().(*trialState)
	defer trialStates.Put(st)
	for i := 0; i < samples; i++ {
		st.rng.Seed(exp.TrialSeed(seed, i))
		placement, err := attack.RandomPlacement(mesh, nHTs, st.rng, gm)
		if err != nil {
			return nil, err
		}
		placements = append(placements, placement)
	}
	offsets := []int{0, 2, 4, 6}
	radii := []float64{0, 2, 4}
	for _, off := range offsets {
		for _, radius := range radii {
			center := noc.Coord{X: clampInt(gmCoord.X+off, 0, mesh.Width-1), Y: gmCoord.Y}
			placement, err := attack.RingCluster(mesh, center, nHTs, radius, gm)
			if err != nil {
				return nil, err
			}
			placements = append(placements, placement)
		}
	}
	simulateQ := func(ctx context.Context, placement attack.Placement) (*Comparison, error) {
		psc := sc
		psc.Trojans = placement
		attacked, err := sys.RunContext(ctx, psc, nil)
		if err != nil {
			return nil, err
		}
		return Compare(attacked, baseline)
	}
	cmps, err := exp.Run(ctx, cfg.Workers, len(placements), func(ctx context.Context, i int) (*Comparison, error) {
		return simulateQ(ctx, placements[i])
	})
	if err != nil {
		return nil, err
	}
	trainingSamples := make([]attack.Sample, len(cmps))
	qValues := make([]float64, samples) // random-placement subset only
	for i, cmp := range cmps {
		trainingSamples[i] = attack.Sample{Features: cmp.Features, Q: cmp.Q}
		if i < samples {
			qValues[i] = cmp.Q
		}
	}
	model, err := attack.FitEffectModel(trainingSamples)
	if err != nil {
		return nil, fmt.Errorf("core: Eqn 9 fit: %w", err)
	}
	last := trainingSamples[len(trainingSamples)-1].Features
	// Shortlist the enumeration's best candidates by predicted Q, then
	// validate the shortlist by simulation and commit to the winner — the
	// model prunes the search space, the simulator confirms.
	const shortlist = 5
	top, evaluated, err := attack.RankPlacements(mesh, gm, model, attack.OptimizeOptions{
		// The paper's V-C comparison fixes the fleet size (16 HTs) and
		// optimises distance and density only.
		MinHTs:       nHTs,
		MaxHTs:       nHTs,
		CenterStride: 2,
		VictimPhi:    last.VictimPhi,
		AttackerPhi:  last.AttackerPhi,
	}, shortlist)
	if err != nil {
		return nil, fmt.Errorf("core: Eqn 10 enumeration: %w", err)
	}
	topCmps, err := exp.Run(ctx, cfg.Workers, len(top), func(ctx context.Context, i int) (*Comparison, error) {
		return simulateQ(ctx, top[i].Placement)
	})
	if err != nil {
		return nil, err
	}
	bestQ := mathx.Max(nil) // -Inf
	for _, cmp := range topCmps {
		if cmp.Q > bestQ {
			bestQ = cmp.Q
		}
	}
	mean := mathx.Mean(qValues)
	study := &results.PlacementRow{
		Mix:         mixName,
		HTs:         nHTs,
		RandomQMean: mean,
		RandomQStd:  mathx.StdDev(qValues),
		OptimalQ:    bestQ,
		ModelR2:     model.R2(),
		Evaluated:   evaluated,
	}
	if mean != 0 {
		study.ImprovementPct = (bestQ - mean) / mean * 100
	}
	return study, nil
}

// clampInt limits v to [lo, hi].
func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
