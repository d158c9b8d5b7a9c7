package core

import (
	"context"
	"fmt"

	"repro/internal/attack"
	"repro/internal/exp"
	"repro/internal/results"
	"repro/internal/trojan"
	"repro/internal/workload"
)

// This file extends the paper's evaluation with the two studies its text
// motivates but does not run: a comparison of the Section II-B DoS attack
// classes on identical hardware, and an evaluation of manager-side
// detection/protection (the conclusion's explicit call for future work).

// DoSVariantStudy runs the same mix, placement, and chip under each of the
// three Section II-B attack classes implemented by the Trojan, comparing
// their attack effects, one X1 row per class. The false-data attack is the
// paper's contribution; drop and loopback are the taxonomy baselines. The
// three campaigns share one clean baseline and fan out over cfg.Workers;
// ctx cancels the variant pool and each variant's campaign.
func DoSVariantStudy(ctx context.Context, cfg Config, mixName string, threads int, placement attack.Placement) ([]results.VariantRow, error) {
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
	modes := trojan.Modes.All()
	return exp.Run(ctx, cfg.Workers, len(modes), func(ctx context.Context, i int) (results.VariantRow, error) {
		mode := modes[i]
		vsc := sc
		vsc.Trojans = placement
		vsc.Mode = mode
		attacked, err := sys.RunContext(ctx, vsc, nil)
		if err != nil {
			return results.VariantRow{}, fmt.Errorf("core: variant %v: %w", mode, err)
		}
		cmp, err := Compare(attacked, baseline)
		if err != nil {
			return results.VariantRow{}, err
		}
		res := results.VariantRow{
			Mode:    mode.String(),
			Q:       cmp.Q,
			Dropped: attacked.Net.DroppedPackets,
			Looped:  attacked.Net.LoopedBack,
		}
		var nV, nA int
		for _, app := range cmp.PerApp {
			switch app.Role {
			case RoleVictim:
				res.VictimChange += app.Change
				nV++
			case RoleAttacker:
				res.AttackerChange += app.Change
				nA++
			}
		}
		if nV > 0 {
			res.VictimChange /= float64(nV)
		}
		if nA > 0 {
			res.AttackerChange /= float64(nA)
		}
		return res, nil
	})
}

// DefenseStudy measures how much of the attack effect each of the named
// manager-side request filters (defense.Registry names; "none" is the
// undefended chip) removes, under the same campaign. The attack
// duty-cycles its activation (the paper's stealth recommendation), which
// is exactly the transition signature history-based detection needs. A
// row's FalsePositives counts flags raised on untampered requests — the
// cost of anomaly detection on workloads with legitimate demand phases.
// ctx cancels the per-defense pool and each configuration's paired runs.
func DefenseStudy(ctx context.Context, cfg Config, mixName string, threads int, placement attack.Placement, names []string) ([]results.DefenseRow, error) {
	mix, err := workload.MixByName(mixName)
	if err != nil {
		return nil, err
	}
	baseScenario, err := MixScenario(mix, threads)
	if err != nil {
		return nil, err
	}
	baseScenario.Trojans = placement
	// The Trojans stay dormant for two epochs — detectors get an honest
	// observation window before the first activation, which is also the
	// realistic deployment order (the chip boots clean, then the hacker's
	// agents send the activating broadcast).
	baseScenario.ActivateAfterEpochs = 2
	baseScenario.DutyOnEpochs, baseScenario.DutyOffEpochs = 2, 2

	// Every defense configuration is an independent chip: fan out over
	// cfg.Workers. Stateful filters are cloned per run inside setup, so
	// concurrent configurations never share detector state.
	return exp.Run(ctx, cfg.Workers, len(names), func(ctx context.Context, i int) (results.DefenseRow, error) {
		name := names[i]
		c := cfg
		if err := c.SetDefense(name); err != nil {
			return results.DefenseRow{}, err
		}
		sys, err := NewSystem(c)
		if err != nil {
			return results.DefenseRow{}, err
		}
		attacked, baseline, err := sys.RunPairContext(ctx, baseScenario, nil)
		if err != nil {
			return results.DefenseRow{}, fmt.Errorf("core: defense %s: %w", name, err)
		}
		cmp, err := Compare(attacked, baseline)
		if err != nil {
			return results.DefenseRow{}, err
		}
		res := results.DefenseRow{
			Defense:        name,
			Q:              cmp.Q,
			Flagged:        attacked.FlaggedRequests,
			Repaired:       attacked.RepairedTampered,
			FalsePositives: attacked.FlaggedRequests - attacked.RepairedTampered,
		}
		if c.DualPathRequests {
			res.Flagged += attacked.DualPathMismatches
		}
		return res, nil
	})
}
