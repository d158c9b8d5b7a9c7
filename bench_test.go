// Package repro's root benchmark harness regenerates every table and
// figure of the paper's evaluation (see DESIGN.md's per-experiment index).
// Each benchmark runs a scaled-down version of the corresponding
// experiment so the whole suite completes in minutes; `htcampaign run -spec
// specs/paper.json` runs the full paper-scale versions. Custom metrics attach the scientifically
// interesting quantity (infection rate, Q, improvement %) to the benchmark
// output so `go test -bench` doubles as a results table.
package repro_test

import (
	"context"
	"testing"

	"repro/internal/attack"
	"repro/internal/budget"
	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/defense"
	"repro/internal/noc"
	"repro/internal/obs"
	"repro/internal/trojan"
	"repro/internal/workload"
)

// benchConfig is the reduced-scale chip used by campaign benchmarks.
func benchConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Cores = 64
	cfg.MemTraffic = false
	cfg.EpochCycles = 500
	cfg.Epochs = 6
	cfg.WarmupEpochs = 1
	return cfg
}

// E1 — Table I: configuration construction and validation.
func BenchmarkTableIConfig(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := core.DefaultConfig()
		if err := cfg.Validate(); err != nil {
			b.Fatal(err)
		}
		if _, err := core.NewSystem(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// E2 — Section III-D: HT area/power accounting.
func BenchmarkAreaPower(b *testing.B) {
	var r trojan.AreaPowerReport
	for i := 0; i < b.N; i++ {
		r = trojan.Report(60, 512)
	}
	b.ReportMetric(r.TotalHTAreaUm2, "um2")
	b.ReportMetric(r.AreaFractionOfAllRouters*100, "area%")
}

// E3 — Fig 3(a): infection rate vs HT count, 64 nodes.
func BenchmarkFig3a(b *testing.B) {
	b.ReportMetric(benchmarkFig3(b, 64, []int{5, 15, 30}, 20), "infection@30HT")
}

// E4 — Fig 3(b): infection rate vs HT count, 512 nodes.
func BenchmarkFig3b(b *testing.B) {
	b.ReportMetric(benchmarkFig3(b, 512, []int{10, 30, 60}, 10), "infection@60HT")
}

// benchmarkFig3 runs one Fig 3 trial space as a single shard, as the
// campaign engine does, and returns the corner-manager rate at the
// largest HT count.
func benchmarkFig3(b *testing.B, size int, counts []int, trials int) float64 {
	b.Helper()
	var last float64
	for i := 0; i < b.N; i++ {
		space := core.InfectionCurve(size, counts, trials)
		raw, err := space.Run(context.Background(), 1, 0, 0, space.Space())
		if err != nil {
			b.Fatal(err)
		}
		t, err := space.Table("E3", "3", 1, raw)
		if err != nil {
			b.Fatal(err)
		}
		last = t.Points[len(t.Points)-1].Rates[1] // gm-corner series
	}
	return last
}

// E5 — Fig 4(a): infection by HT distribution, HTs = size/16.
func BenchmarkFig4a(b *testing.B) {
	benchmarkFig4(b, 16)
}

// E6 — Fig 4(b): infection by HT distribution, HTs = size/8.
func BenchmarkFig4b(b *testing.B) {
	benchmarkFig4(b, 8)
}

func benchmarkFig4(b *testing.B, denominator int) {
	b.Helper()
	sizes := []int{64, 128, 256, 512}
	var center, corner float64
	for i := 0; i < b.N; i++ {
		space := core.Distribution(sizes, denominator, 10)
		raw, err := space.Run(context.Background(), 1, 0, 0, space.Space())
		if err != nil {
			b.Fatal(err)
		}
		t, err := space.Table("E5", "4", 1, raw)
		if err != nil {
			b.Fatal(err)
		}
		col := t.Points[2].Rates // 256-node column: center, random, corner
		center, corner = col[0], col[2]
	}
	b.ReportMetric(center, "center@256")
	b.ReportMetric(corner, "corner@256")
}

// E7 — Fig 5: Q vs infection rate, one mix per sub-benchmark.
func BenchmarkFig5(b *testing.B) {
	for _, mix := range workload.Mixes() {
		mix := mix
		b.Run(mix.Name, func(b *testing.B) {
			var q float64
			for i := 0; i < b.N; i++ {
				cell, err := core.QVsInfection(context.Background(), benchConfig(), mix.Name, 16, []float64{0.8})
				if err != nil {
					b.Fatal(err)
				}
				q = cell.Effect[0].Q
			}
			b.ReportMetric(q, "Q@0.8")
		})
	}
}

// E8 — Fig 6: per-application performance change at 0.5 infection.
func BenchmarkFig6(b *testing.B) {
	var attackerChange, victimChange float64
	for i := 0; i < b.N; i++ {
		cell, err := core.QVsInfection(context.Background(), benchConfig(), "mix-1", 16, []float64{0.5})
		if err != nil {
			b.Fatal(err)
		}
		for _, app := range cell.Apps {
			switch app.Role {
			case core.RoleAttacker.String():
				attackerChange = app.Change
			case core.RoleVictim.String():
				victimChange = app.Change
			}
		}
	}
	b.ReportMetric(attackerChange, "attackerΘ")
	b.ReportMetric(victimChange, "victimΘ")
}

// E9 — Section V-C: optimal vs random placement.
func BenchmarkOptimalPlacement(b *testing.B) {
	var improvement float64
	for i := 0; i < b.N; i++ {
		study, err := core.OptimalVsRandom(context.Background(), benchConfig(), "mix-1", 16, 8, 6, 3)
		if err != nil {
			b.Fatal(err)
		}
		improvement = study.ImprovementPct
	}
	b.ReportMetric(improvement, "improve%")
}

// E10 — allocator ablation: the attack under each budgeting algorithm.
func BenchmarkAllocatorAblation(b *testing.B) {
	for _, alloc := range budget.All() {
		alloc := alloc
		b.Run(alloc.Name(), func(b *testing.B) {
			var q float64
			for i := 0; i < b.N; i++ {
				cfg := benchConfig()
				cfg.Allocator = alloc
				if alloc.Name() == "dp" {
					cfg.Allocator = budget.NewDPKnapsack(200)
				}
				q = runCampaignQ(b, cfg, nil)
			}
			b.ReportMetric(q, "Q")
		})
	}
}

// Ablation — routing algorithm (DESIGN.md §5.1).
func BenchmarkRoutingAblation(b *testing.B) {
	for _, name := range []string{"xy", "west-first"} {
		name := name
		b.Run(name, func(b *testing.B) {
			var q float64
			for i := 0; i < b.N; i++ {
				cfg := benchConfig()
				r, err := noc.RoutingByName(name)
				if err != nil {
					b.Fatal(err)
				}
				cfg.NoC.Routing = r
				q = runCampaignQ(b, cfg, nil)
			}
			b.ReportMetric(q, "Q")
		})
	}
}

// Ablation — tamper strategy (DESIGN.md §5.2).
func BenchmarkTamperStrategyAblation(b *testing.B) {
	strategies := []trojan.Strategy{
		trojan.ZeroStrategy{},
		trojan.ScaleStrategy{VictimFactor: 0.25, BoostFactor: 1.5},
		trojan.ScaleStrategy{VictimFactor: 0.5, BoostFactor: 1.0},
	}
	for _, s := range strategies {
		s := s
		b.Run(s.Name(), func(b *testing.B) {
			var q float64
			for i := 0; i < b.N; i++ {
				q = runCampaignQ(b, benchConfig(), s)
			}
			b.ReportMetric(q, "Q")
		})
	}
}

// runCampaignQ runs one standard mix-1 campaign with a near-manager fleet
// and returns Q.
func runCampaignQ(b *testing.B, cfg core.Config, strategy trojan.Strategy) float64 {
	b.Helper()
	sys, err := core.NewSystem(cfg)
	if err != nil {
		b.Fatal(err)
	}
	mix, err := workload.MixByName("mix-1")
	if err != nil {
		b.Fatal(err)
	}
	sc, err := core.MixScenario(mix, 16)
	if err != nil {
		b.Fatal(err)
	}
	mesh := sys.Mesh()
	gm := sys.ManagerNode()
	placement, err := attack.RingCluster(mesh, mesh.Coord(gm), 8, 1, gm)
	if err != nil {
		b.Fatal(err)
	}
	sc.Trojans = placement
	sc.Strategy = strategy
	attacked, baseline, err := sys.RunPairContext(context.Background(), sc, nil)
	if err != nil {
		b.Fatal(err)
	}
	cmp, err := core.Compare(attacked, baseline)
	if err != nil {
		b.Fatal(err)
	}
	return cmp.Q
}

// BenchmarkCampaignPaper times the whole declarative campaign engine on a
// scaled-down version of specs/paper.json (every experiment family at
// smoke scale, artifacts written and discarded) — the end-to-end number
// the simulation service pays per uncached campaign job, recorded in
// BENCH_NOTES.md as the server-era baseline.
func BenchmarkCampaignPaper(b *testing.B) {
	spec := benchPaperSpec()
	for i := 0; i < b.N; i++ {
		if _, _, err := campaign.Run(context.Background(), spec, b.TempDir(), 0, campaign.Progress{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCampaignPaperTraced is BenchmarkCampaignPaper with a live
// span tree rooted over the run — the tracing-overhead guard recorded
// in BENCH_NOTES.md (acceptance: within 5% of the untraced run). Spans
// are job-lifecycle-granular, so the delta should be noise.
func BenchmarkCampaignPaperTraced(b *testing.B) {
	spec := benchPaperSpec()
	for i := 0; i < b.N; i++ {
		ctx, root := obs.StartTrace(context.Background(), "bench")
		if _, _, err := campaign.Run(ctx, spec, b.TempDir(), 0, campaign.Progress{}); err != nil {
			b.Fatal(err)
		}
		root.End()
	}
}

// benchPaperSpec is the scaled-down specs/paper.json both campaign
// benchmarks share.
func benchPaperSpec() *campaign.Spec {
	return &campaign.Spec{
		Name: "bench-paper",
		Seed: 1,
		Experiments: []campaign.ExperimentSpec{
			{ID: "E1", Params: campaign.Params{Size: 64}},
			{ID: "E2"},
			{ID: "E3", Params: campaign.Params{Trials: 5}},
			{ID: "E4", Params: campaign.Params{Trials: 5}},
			{ID: "E5", Params: campaign.Params{Sizes: []int{64, 128}, Trials: 5}},
			{ID: "E6", Params: campaign.Params{Sizes: []int{64, 128}, Trials: 5}},
			{ID: "E7", Params: campaign.Params{Size: 64, Mixes: []string{"mix-1"}, Threads: 15, Epochs: 5, Targets: []float64{0, 0.4, 0.8}}},
			{ID: "E8", Params: campaign.Params{Size: 64, Mixes: []string{"mix-1"}, Threads: 15, Epochs: 5, Targets: []float64{0, 0.4, 0.8}}},
			{ID: "E9", Params: campaign.Params{Size: 64, Mixes: []string{"mix-1"}, Threads: 15, Epochs: 5, HTs: 6, Samples: 5}},
			{ID: "E10", Params: campaign.Params{Size: 64, Threads: 15, Epochs: 5}},
			{ID: "X1", Params: campaign.Params{Size: 64, Threads: 15, Epochs: 5}},
			{ID: "X2", Params: campaign.Params{Size: 64, Threads: 15, Epochs: 8}},
		},
	}
}

// Substrate micro-benchmarks: the NoC under the Fig 3 traffic pattern and
// the memory system under a hot-set workload.
func BenchmarkNoCManyToOne(b *testing.B) {
	mesh := noc.Mesh{Width: 16, Height: 16}
	for i := 0; i < b.N; i++ {
		net, err := noc.New(mesh, noc.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		gm := mesh.Center()
		delivered := 0
		net.Attach(gm, func(p *noc.Packet) { delivered++ })
		for id := noc.NodeID(0); id < noc.NodeID(mesh.Nodes()); id++ {
			if id == gm {
				continue
			}
			if err := net.Inject(&noc.Packet{Src: id, Dst: gm, Type: noc.TypePowerReq}); err != nil {
				b.Fatal(err)
			}
		}
		if _, ok := net.RunUntilIdle(1_000_000); !ok {
			b.Fatal("network did not drain")
		}
	}
}

// BenchmarkMemTrafficPair is the benchmark's sim-congested op: one
// attacked-vs-baseline pair on the Table I chip with cache traffic (mix-1
// at 64 threads, a 16-Trojan ring at the manager, 5 epochs with 1 warm-up,
// 2 workers), on a system built once. It is the only root benchmark that
// reaches the memory hierarchy.
func BenchmarkMemTrafficPair(b *testing.B) {
	cfg := core.DefaultConfig()
	cfg.Epochs = 5
	cfg.WarmupEpochs = 1
	cfg.Seed = 1
	cfg.Workers = 2
	sys, err := core.NewSystem(cfg)
	if err != nil {
		b.Fatal(err)
	}
	mix, err := workload.MixByName("mix-1")
	if err != nil {
		b.Fatal(err)
	}
	sc, err := core.MixScenario(mix, 64)
	if err != nil {
		b.Fatal(err)
	}
	mesh, gm := sys.Mesh(), sys.ManagerNode()
	if sc.Trojans, err = attack.RingCluster(mesh, mesh.Coord(gm), 16, 1, gm); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := sys.RunPairContext(context.Background(), sc, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDPAllocator(b *testing.B) {
	reqs := make([]budget.Request, 64)
	for i := range reqs {
		reqs[i] = budget.Request{
			Core:        i,
			RequestMW:   3960,
			Sensitivity: float64(i % 7),
			LevelsMW:    []uint32{696, 1012, 1472, 2100, 2920, 3956},
			LevelValues: []float64{0.9, 1.6, 2.2, 2.7, 3.1, 3.4},
		}
	}
	alloc, st := budget.NewDPKnapsack(100), new(budget.State)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		alloc.Allocate(nil, 120_000, reqs, st)
	}
}

// Extension — Section II-B DoS-class comparison on identical hardware.
func BenchmarkDoSVariants(b *testing.B) {
	cfg := benchConfig()
	sys, err := core.NewSystem(cfg)
	if err != nil {
		b.Fatal(err)
	}
	mesh := sys.Mesh()
	placement, err := attack.RingCluster(mesh, mesh.Coord(sys.ManagerNode()), 8, 1, sys.ManagerNode())
	if err != nil {
		b.Fatal(err)
	}
	var falseData, drop, loop float64
	for i := 0; i < b.N; i++ {
		rows, err := core.DoSVariantStudy(context.Background(), cfg, "mix-1", 16, placement)
		if err != nil {
			b.Fatal(err)
		}
		falseData, drop, loop = rows[0].Q, rows[1].Q, rows[2].Q
	}
	b.ReportMetric(falseData, "Q:false-data")
	b.ReportMetric(drop, "Q:drop")
	b.ReportMetric(loop, "Q:loopback")
}

// Extension — manager-side defenses against the duty-cycled attack.
func BenchmarkDefenseAblation(b *testing.B) {
	cfg := benchConfig()
	cfg.Epochs = 8
	sys, err := core.NewSystem(cfg)
	if err != nil {
		b.Fatal(err)
	}
	mesh := sys.Mesh()
	placement, err := attack.RingCluster(mesh, mesh.Coord(sys.ManagerNode()), 8, 1, sys.ManagerNode())
	if err != nil {
		b.Fatal(err)
	}
	var undefended, defended float64
	for i := 0; i < b.N; i++ {
		results, err := core.DefenseStudy(context.Background(), cfg, "mix-1", 16, placement, defense.Registry.Names())
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range results {
			switch r.Defense {
			case "none":
				undefended = r.Q
			case "both":
				defended = r.Q
			}
		}
	}
	b.ReportMetric(undefended, "Q:none")
	b.ReportMetric(defended, "Q:defended")
}
