package core

import (
	"context"
	"fmt"

	"repro/internal/attack"
	"repro/internal/defense"
	"repro/internal/exp"
	"repro/internal/trojan"
	"repro/internal/workload"
)

// This file extends the paper's evaluation with the two studies its text
// motivates but does not run: a comparison of the Section II-B DoS attack
// classes on identical hardware, and an evaluation of manager-side
// detection/protection (the conclusion's explicit call for future work).

// VariantResult is one row of the DoS-variant comparison.
type VariantResult struct {
	// Mode is the attack class.
	Mode trojan.Mode
	// Q is the Definition 3 attack effect.
	Q float64
	// VictimChange is the mean victim Θ.
	VictimChange float64
	// AttackerChange is the mean attacker Θ.
	AttackerChange float64
	// Dropped and Looped count destroyed/bounced packets.
	Dropped, Looped uint64
}

// DoSVariantStudy runs the same mix, placement, and chip under each of the
// three Section II-B attack classes implemented by the Trojan, comparing
// their attack effects. The false-data attack is the paper's contribution;
// drop and loopback are the taxonomy baselines. The three campaigns share
// one clean baseline and fan out over cfg.Workers; ctx cancels the
// variant pool and each variant's campaign.
func DoSVariantStudy(ctx context.Context, cfg Config, mixName string, threads int, placement attack.Placement) ([]VariantResult, error) {
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
	return exp.Run(ctx, cfg.Workers, len(modes), func(ctx context.Context, i int) (VariantResult, error) {
		mode := modes[i]
		vsc := sc
		vsc.Trojans = placement
		vsc.Mode = mode
		attacked, err := sys.RunContext(ctx, vsc, nil)
		if err != nil {
			return VariantResult{}, fmt.Errorf("core: variant %v: %w", mode, err)
		}
		cmp, err := Compare(attacked, baseline)
		if err != nil {
			return VariantResult{}, err
		}
		res := VariantResult{
			Mode:    mode,
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

// DefenseResult is one row of the defense study.
type DefenseResult struct {
	// Defense names the filter configuration ("none" for the undefended
	// chip).
	Defense string
	// Q is the attack effect that survives the defense.
	Q float64
	// Flagged counts requests the filter marked suspect.
	Flagged uint64
	// Repaired counts flagged requests that really were tampered.
	Repaired uint64
	// FalsePositives counts flags raised on untampered requests — the cost
	// of anomaly detection on workloads with legitimate demand phases.
	FalsePositives uint64
}

// DefenseStudy measures how much of the attack effect each manager-side
// request filter removes, under the same campaign. The attack duty-cycles
// its activation (the paper's stealth recommendation), which is exactly
// the transition signature history-based detection needs. ctx cancels
// the per-defense pool and each configuration's paired runs.
func DefenseStudy(ctx context.Context, cfg Config, mixName string, threads int, placement attack.Placement) ([]DefenseResult, error) {
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

	levelsMW := make([]uint32, cfg.Power.NumLevels())
	for i := range levelsMW {
		levelsMW[i] = cfg.Power.PowerMW(i)
	}
	names := defense.Registry.Names()
	// Every registered defense configuration is an independent chip: fan
	// out over cfg.Workers. Stateful filters are cloned per run inside
	// setup, so concurrent configurations never share detector state.
	return exp.Run(ctx, cfg.Workers, len(names), func(ctx context.Context, i int) (DefenseResult, error) {
		name := names[i]
		dcfg, err := defense.ByName(name)
		if err != nil {
			return DefenseResult{}, err
		}
		c := cfg
		c.Filter = nil
		if dcfg.Filter != nil {
			if c.Filter, err = dcfg.Filter(levelsMW); err != nil {
				return DefenseResult{}, err
			}
		}
		c.DualPathRequests = dcfg.DualPath
		sys, err := NewSystem(c)
		if err != nil {
			return DefenseResult{}, err
		}
		attacked, baseline, err := sys.RunPairContext(ctx, baseScenario, nil)
		if err != nil {
			return DefenseResult{}, fmt.Errorf("core: defense %s: %w", name, err)
		}
		cmp, err := Compare(attacked, baseline)
		if err != nil {
			return DefenseResult{}, err
		}
		res := DefenseResult{
			Defense:        name,
			Q:              cmp.Q,
			Flagged:        attacked.FlaggedRequests,
			Repaired:       attacked.RepairedTampered,
			FalsePositives: attacked.FlaggedRequests - attacked.RepairedTampered,
		}
		if dcfg.DualPath {
			res.Flagged += attacked.DualPathMismatches
		}
		return res, nil
	})
}
