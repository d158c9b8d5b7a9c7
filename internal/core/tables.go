package core

import (
	"context"
	"fmt"

	"repro/internal/attack"
	"repro/internal/budget"
	"repro/internal/exp"
	"repro/internal/results"
	"repro/internal/trojan"
	"repro/internal/workload"
)

// This file is the table layer of the experiment drivers: every DESIGN.md
// §2 experiment has functions here that run the underlying driver and
// return its typed results table. An experiment whose work splits into
// independent cells (a mix, an allocator, a defense) has a cell runner
// for any subset of its list and an assembler that builds the table from
// every cell's rows, so the campaign engine can shard it. htcampaign
// prints and serializes these tables, so human text and machine JSON/CSV
// come from one code path. The Fig 3/4 tables are assembled from raw
// shard values in shard.go.

// ConfigTableFor builds the E1 artifact: the Table I configuration of one
// chip as key/value rows.
func ConfigTableFor(cfg Config) (*results.ConfigTable, error) {
	mesh, err := cfg.Mesh()
	if err != nil {
		return nil, err
	}
	params := struct {
		Cores     int     `json:"cores"`
		Routing   string  `json:"routing"`
		Allocator string  `json:"allocator"`
		Budget    float64 `json:"budget_fraction"`
		Seed      int64   `json:"seed"`
	}{cfg.Cores, cfg.NoC.Routing.Name(), cfg.Allocator.Name(), cfg.BudgetFraction, cfg.Seed}
	t := &results.ConfigTable{
		Meta: results.NewMeta("E1", "Table I system configuration", cfg.Seed, 0, params),
		Entries: []results.ConfigEntry{
			{Key: "processors", Value: fmt.Sprintf("%d", cfg.Cores)},
			{Key: "mesh", Value: fmt.Sprintf("%dx%d 2D mesh", mesh.Width, mesh.Height)},
			{Key: "noc_vcs_buffer", Value: fmt.Sprintf("%d VCs x %d flits", cfg.NoC.VCs, cfg.NoC.BufDepth)},
			{Key: "noc_latency", Value: fmt.Sprintf("router %d cycles, link %d cycle", cfg.NoC.RouterCycles, cfg.NoC.LinkCycles)},
			{Key: "routing", Value: cfg.NoC.Routing.Name()},
			{Key: "l1_dcache", Value: "16 KB, 2-way, 32 B lines (private)"},
			{Key: "l2_cache", Value: fmt.Sprintf("64 KB slice/node, %d-cycle, MESI (shared)", cfg.Mem.L2Latency)},
			{Key: "mem_latency", Value: fmt.Sprintf("%d cycles", cfg.Mem.MemLatency)},
			{Key: "dvfs_levels", Value: fmt.Sprintf("%d (%.1f-%.1f GHz)", cfg.Power.NumLevels(), cfg.Power.Freq(0), cfg.Power.Freq(cfg.Power.NumLevels()-1))},
			{Key: "chip_budget", Value: fmt.Sprintf("%.1f W (%.0f%% of peak)", float64(cfg.ChipBudgetMW())/1000, cfg.BudgetFraction*100)},
			{Key: "allocator", Value: cfg.Allocator.Name()},
		},
	}
	return t, nil
}

// AreaPowerTableFor builds the E2 artifact: the Section III-D area/power
// accounting for the default Trojan circuit at representative fleet sizes.
func AreaPowerTableFor() *results.AreaPowerTable {
	inv := trojan.DefaultInventory()
	fleets := []struct{ hts, nodes int }{{1, 1}, {16, 256}, {60, 512}}
	params := struct {
		Comparators int `json:"comparators"`
		Registers   int `json:"registers"`
	}{inv.Comparators, inv.Registers}
	t := &results.AreaPowerTable{
		Meta:          results.NewMeta("E2", "Section III-D Trojan area/power accounting (TSMC 45 nm)", 0, 0, params),
		Transistors:   inv.TransistorEstimate(),
		HTAreaUm2:     trojan.HTAreaUm2,
		HTPowerUW:     trojan.HTPowerUW,
		RouterAreaUm2: trojan.RouterAreaUm2,
		RouterPowerUW: trojan.RouterPowerUW,
	}
	for _, f := range fleets {
		r := trojan.Report(f.hts, f.nodes)
		t.Fleets = append(t.Fleets, results.AreaPowerRow{
			HTs:      r.HTs,
			Nodes:    r.Nodes,
			AreaUm2:  r.TotalHTAreaUm2,
			AreaPct:  r.AreaFractionOfAllRouters * 100,
			PowerUW:  r.TotalHTPowerUW,
			PowerPct: r.PowerFractionOfAllRouters * 100,
		})
	}
	return t
}

// effectParams fingerprints the Fig 5/6 campaign grid.
type effectParams struct {
	Cores   int       `json:"cores"`
	Mixes   []string  `json:"mixes"`
	Threads int       `json:"threads"`
	Epochs  int       `json:"epochs"`
	Targets []float64 `json:"targets"`
	Mem     bool      `json:"mem"`
	Seed    int64     `json:"seed"`
}

// EffectCell is one mix's share of the Fig 5/6 sweep: its E7 rows and its
// E8 rows.
type EffectCell struct {
	Effect []results.EffectRow    `json:"effect"`
	Apps   []results.AppEffectRow `json:"apps"`
}

// EffectCells runs the Fig 5/6 sweep for each of mixNames: Q versus target
// infection rate and the per-application performance changes behind it,
// one cell per mix. Mixes fan out over cfg.Workers; each mix's sweep is an
// independent campaign with its own baseline. ctx cancels the mix pool and
// every campaign beneath it.
func EffectCells(ctx context.Context, cfg Config, mixNames []string, threads int, targets []float64) ([]EffectCell, error) {
	return exp.Run(ctx, cfg.Workers, len(mixNames), func(ctx context.Context, i int) (EffectCell, error) {
		c, err := QVsInfection(ctx, cfg, mixNames[i], threads, targets)
		if err != nil {
			return EffectCell{}, fmt.Errorf("%s: %w", mixNames[i], err)
		}
		return c, nil
	})
}

// EffectTables assembles the E7 and E8 artifacts from the cells of every
// mix, in mix order.
func EffectTables(cfg Config, mixNames []string, threads int, targets []float64, cells []EffectCell) (*results.EffectTable, *results.AppEffectTable) {
	params := effectParams{cfg.Cores, mixNames, threads, cfg.Epochs, targets, cfg.MemTraffic, cfg.Seed}
	effect := &results.EffectTable{
		Meta: results.NewMeta("E7", "Fig 5: attack effect Q vs infection rate", cfg.Seed, 0, params),
	}
	apps := &results.AppEffectTable{
		Meta: results.NewMeta("E8", "Fig 6: per-application performance change vs infection rate", cfg.Seed, 0, params),
	}
	for _, c := range cells {
		effect.Rows = append(effect.Rows, c.Effect...)
		apps.Rows = append(apps.Rows, c.Apps...)
	}
	return effect, apps
}

// PlacementRows runs the Section V-C optimal versus random placement
// study for each of mixNames in turn, one row per mix. ctx cancels each
// mix's training and shortlist pools.
func PlacementRows(ctx context.Context, cfg Config, mixNames []string, threads, nHTs, samples int, seed int64) ([]results.PlacementRow, error) {
	rows := make([]results.PlacementRow, 0, len(mixNames))
	for _, name := range mixNames {
		row, err := OptimalVsRandom(ctx, cfg, name, threads, nHTs, samples, seed)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		rows = append(rows, *row)
	}
	return rows, nil
}

// PlacementTable assembles the E9 artifact from every mix's row.
func PlacementTable(cfg Config, mixNames []string, threads, nHTs, samples int, seed int64, rows []results.PlacementRow) *results.PlacementTable {
	params := struct {
		Cores   int      `json:"cores"`
		Mixes   []string `json:"mixes"`
		Threads int      `json:"threads"`
		HTs     int      `json:"hts"`
		Samples int      `json:"samples"`
		Seed    int64    `json:"seed"`
	}{cfg.Cores, mixNames, threads, nHTs, samples, seed}
	return &results.PlacementTable{
		Meta: results.NewMeta("E9", "Section V-C: optimal vs random Trojan placement", seed, 0, params),
		Rows: rows,
	}
}

// AllocatorAblation runs the E10 study for each of allocs: the same mix
// and target infection under every budgeting algorithm, testing the
// paper's "irrespective of the power budgeting algorithm" claim.
// Allocators fan out over cfg.Workers; each gets its own chip. ctx cancels
// the allocator pool and each allocator's paired runs.
func AllocatorAblation(ctx context.Context, cfg Config, mixName string, threads int, targetInfection float64, allocs []budget.Allocator) ([]results.AblationRow, error) {
	mix, err := workload.MixByName(mixName)
	if err != nil {
		return nil, err
	}
	return exp.Run(ctx, cfg.Workers, len(allocs), func(ctx context.Context, i int) (results.AblationRow, error) {
		c := cfg
		c.Allocator = allocs[i]
		sys, err := NewSystem(c)
		if err != nil {
			return results.AblationRow{}, err
		}
		sc, err := MixScenario(mix, threads)
		if err != nil {
			return results.AblationRow{}, err
		}
		placement, _ := attack.ForInfectionRate(sys.Mesh(), sys.ManagerNode(), targetInfection, sys.Mesh().Nodes()/4)
		sc.Trojans = placement
		attacked, baseline, err := sys.RunPairContext(ctx, sc, nil)
		if err != nil {
			return results.AblationRow{}, fmt.Errorf("core: ablation %s: %w", allocs[i].Name(), err)
		}
		cmp, err := Compare(attacked, baseline)
		if err != nil {
			return results.AblationRow{}, err
		}
		return results.AblationRow{Allocator: allocs[i].Name(), Q: cmp.Q, Infection: attacked.InfectionMeasured}, nil
	})
}

// AblationTable assembles the E10 artifact from every allocator's row.
func AblationTable(cfg Config, mixName string, threads int, targetInfection float64, rows []results.AblationRow) *results.AblationTable {
	params := struct {
		Cores   int     `json:"cores"`
		Mix     string  `json:"mix"`
		Threads int     `json:"threads"`
		Target  float64 `json:"target_infection"`
		Seed    int64   `json:"seed"`
	}{cfg.Cores, mixName, threads, targetInfection, cfg.Seed}
	return &results.AblationTable{
		Meta: results.NewMeta("E10", "Allocator ablation: Q under each budgeting algorithm", cfg.Seed, 0, params),
		Rows: rows,
	}
}

// nearManagerRing builds the canonical X1/X2 fleet: nHTs Trojans ringed at
// radius 2 around the global manager.
func nearManagerRing(cfg Config, nHTs int) (attack.Placement, error) {
	sys, err := NewSystem(cfg)
	if err != nil {
		return attack.Placement{}, err
	}
	mesh := sys.Mesh()
	return attack.RingCluster(mesh, mesh.Coord(sys.ManagerNode()), nHTs, 2, sys.ManagerNode())
}

// studyParams fingerprints the X1/X2 campaign setup.
type studyParams struct {
	Cores   int    `json:"cores"`
	Mix     string `json:"mix"`
	Threads int    `json:"threads"`
	Epochs  int    `json:"epochs"`
	HTs     int    `json:"hts"`
	Seed    int64  `json:"seed"`
}

// VariantTableFor builds the X1 artifact: the Section II-B DoS attack
// classes (false-data, drop, loopback) under an identical near-manager
// ring fleet of nHTs Trojans.
func VariantTableFor(ctx context.Context, cfg Config, mixName string, threads, nHTs int) (*results.VariantTable, error) {
	placement, err := nearManagerRing(cfg, nHTs)
	if err != nil {
		return nil, err
	}
	rows, err := DoSVariantStudy(ctx, cfg, mixName, threads, placement)
	if err != nil {
		return nil, err
	}
	return &results.VariantTable{
		Meta: results.NewMeta("X1", "DoS attack-class comparison (false-data / drop / loopback)",
			cfg.Seed, 0, studyParams{cfg.Cores, mixName, threads, cfg.Epochs, nHTs, cfg.Seed}),
		Rows: rows,
	}, nil
}

// DefenseRows runs the X2 manager-side defense study for each of the named
// defenses under a duty-cycled attack from a near-manager ring fleet of
// nHTs Trojans, one row per defense.
func DefenseRows(ctx context.Context, cfg Config, mixName string, threads, nHTs int, names []string) ([]results.DefenseRow, error) {
	placement, err := nearManagerRing(cfg, nHTs)
	if err != nil {
		return nil, err
	}
	return DefenseStudy(ctx, cfg, mixName, threads, placement, names)
}

// DefenseTable assembles the X2 artifact from every defense's row.
func DefenseTable(cfg Config, mixName string, threads, nHTs int, rows []results.DefenseRow) *results.DefenseTable {
	return &results.DefenseTable{
		Meta: results.NewMeta("X2", "Manager-side defense study (duty-cycled attack)",
			cfg.Seed, 0, studyParams{cfg.Cores, mixName, threads, cfg.Epochs, nHTs, cfg.Seed}),
		Rows: rows,
	}
}

// CampaignTableFor builds the per-application report table of one htsim
// campaign (an attacked run against its clean baseline).
func CampaignTableFor(cfg Config, attacked *Report, cmp *Comparison) *results.CampaignTable {
	params := struct {
		Cores     int    `json:"cores"`
		Allocator string `json:"allocator"`
		Epochs    int    `json:"epochs"`
		Seed      int64  `json:"seed"`
	}{cfg.Cores, cfg.Allocator.Name(), cfg.Epochs, cfg.Seed}
	t := &results.CampaignTable{
		Meta: results.NewMeta("run", "Campaign report: per-application outcome vs clean baseline",
			cfg.Seed, 0, params),
		Q:                  cmp.Q,
		InfectionMeasured:  attacked.InfectionMeasured,
		InfectionPredicted: attacked.InfectionPredicted,
	}
	for _, app := range cmp.PerApp {
		cores := 0
		for _, a := range attacked.Apps {
			if a.Name == app.Name {
				cores = a.Cores
				break
			}
		}
		t.Rows = append(t.Rows, results.CampaignAppRow{
			App:      app.Name,
			Role:     app.Role.String(),
			Cores:    cores,
			Theta:    app.ThetaAttacked,
			Baseline: app.ThetaBaseline,
			Change:   app.Change,
		})
	}
	return t
}
