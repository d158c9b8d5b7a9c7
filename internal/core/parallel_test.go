package core

import (
	"context"
	"slices"
	"testing"

	"repro/internal/budget"
	"repro/internal/defense"
	"repro/internal/noc"
	"repro/internal/results"
)

// The parallel-runner determinism contract: every experiment driver must
// return bit-identical results for one worker and for many, because trials
// derive their random streams from (seed, trial index) rather than a
// shared RNG, and what allocators and filters remember lives in each run's
// manager.

// assertShardDeterministic runs a trial-grid shard with one worker and
// with several, and requires bit-identical raw cells.
func assertShardDeterministic(t *testing.T, run func(workers int) ([]float64, error)) {
	t.Helper()
	seq, err := run(1)
	if err != nil {
		t.Fatalf("workers=1: %v", err)
	}
	for _, workers := range []int{2, 8} {
		par, err := run(workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(par) != len(seq) {
			t.Fatalf("workers=%d: %d cells, want %d", workers, len(par), len(seq))
		}
		for i := range seq {
			if par[i] != seq[i] {
				t.Fatalf("workers=%d: cell %d = %v, want %v (not bit-identical)", workers, i, par[i], seq[i])
			}
		}
	}
}

func TestInfectionCurveShardParallelDeterminism(t *testing.T) {
	counts := []int{0, 4, 8, 16}
	trials := InfectionCurve(64, counts, 12)
	assertShardDeterministic(t, func(workers int) ([]float64, error) {
		return trials.Run(context.Background(), 7, workers, 0, trials.Space())
	})
}

func TestDistributionShardParallelDeterminism(t *testing.T) {
	sizes := []int{64, 128}
	trials := Distribution(sizes, 16, 8)
	assertShardDeterministic(t, func(workers int) ([]float64, error) {
		return trials.Run(context.Background(), 3, workers, 0, trials.Space())
	})
}

// TestRunPairParallelDeterminism runs a pair under fair share and under
// the PI controller with the range and history guards, whose memory each
// run's manager keeps: the attacked and baseline runs must not share it.
func TestRunPairParallelDeterminism(t *testing.T) {
	for _, tc := range []struct{ alloc, defense string }{{"fair", "none"}, {"pi", "both"}} {
		run := func(workers int) (*Comparison, error) {
			cfg := fastConfig()
			cfg.Workers = workers
			alloc, err := budget.ByName(tc.alloc)
			if err != nil {
				return nil, err
			}
			cfg.Allocator = alloc
			if err := cfg.SetDefense(tc.defense); err != nil {
				return nil, err
			}
			sys, err := NewSystem(cfg)
			if err != nil {
				return nil, err
			}
			sc := fastScenario(t, campaignPlacement(t, sys))
			attacked, baseline, err := sys.RunPairContext(context.Background(), sc, nil)
			if err != nil {
				return nil, err
			}
			return Compare(attacked, baseline)
		}
		seq, err := run(1)
		if err != nil {
			t.Fatalf("%s/%s workers=1: %v", tc.alloc, tc.defense, err)
		}
		par, err := run(4)
		if err != nil {
			t.Fatalf("%s/%s workers=4: %v", tc.alloc, tc.defense, err)
		}
		if seq.Q != par.Q || seq.InfectionMeasured != par.InfectionMeasured {
			t.Fatalf("%s/%s: RunPair diverges: sequential Q=%v inf=%v, parallel Q=%v inf=%v",
				tc.alloc, tc.defense, seq.Q, seq.InfectionMeasured, par.Q, par.InfectionMeasured)
		}
		for i := range seq.PerApp {
			if seq.PerApp[i] != par.PerApp[i] {
				t.Fatalf("%s/%s: app %d diverges: %+v vs %+v", tc.alloc, tc.defense, i, seq.PerApp[i], par.PerApp[i])
			}
		}
	}
}

func TestDoSVariantStudyParallelDeterminism(t *testing.T) {
	run := func(workers int) []results.VariantRow {
		cfg := fastConfig()
		cfg.Workers = workers
		sys, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := DoSVariantStudy(context.Background(), cfg, "mix-1", 16, campaignPlacement(t, sys))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return rows
	}
	seq, par := run(1), run(8)
	if len(seq) != len(par) {
		t.Fatalf("result counts differ: %d vs %d", len(seq), len(par))
	}
	for i := range seq {
		if seq[i] != par[i] {
			t.Fatalf("variant %d diverges:\nsequential %+v\nparallel   %+v", i, seq[i], par[i])
		}
	}
}

func TestDefenseStudyParallelDeterminism(t *testing.T) {
	run := func(workers int) []results.DefenseRow {
		cfg := fastConfig()
		cfg.Epochs = 8
		cfg.Workers = workers
		sys, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := DefenseStudy(context.Background(), cfg, "mix-1", 16, campaignPlacement(t, sys), defense.Registry.Names())
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return rows
	}
	seq, par := run(1), run(8)
	for i := range seq {
		if seq[i] != par[i] {
			t.Fatalf("defense %q diverges:\nsequential %+v\nparallel   %+v",
				seq[i].Defense, seq[i], par[i])
		}
	}
}

func TestOptimalVsRandomParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("full placement study in -short mode")
	}
	run := func(workers int) *results.PlacementRow {
		cfg := fastConfig()
		cfg.Workers = workers
		study, err := OptimalVsRandom(context.Background(), cfg, "mix-1", 8, 8, 6, 3)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return study
	}
	seq, par := run(1), run(8)
	if *seq != *par {
		t.Fatalf("study diverges:\nsequential %+v\nparallel   %+v", seq, par)
	}
}

// TestSharedPluginsKeepNoState pins what lets concurrent runs share one
// allocator and one filter value without copying them: two managers that
// share a PI controller and a range+history chain, epochs interleaved,
// each grant and flag exactly what a manager with plugins of its own does.
func TestSharedPluginsKeepNoState(t *testing.T) {
	levels := []uint32{700, 1200, 1800, 2500, 3300, 4000}
	streams := [2][][2]uint32{
		{{4000, 3300}, {4000, 3300}, {4000, 3300}, {1200, 3300}, {0, 3300}, {3300, 2500}},
		{{2500, 1800}, {2500, 4000}, {700, 4000}, {2500, 4000}, {2500, 900}, {1800, 1800}},
	}
	newManager := func(alloc budget.Allocator, filter budget.RequestFilter) *budget.Manager {
		m, err := budget.NewManager(9, alloc, 6000)
		if err != nil {
			t.Fatal(err)
		}
		m.SetFilter(filter)
		for _, c := range []noc.NodeID{1, 2} {
			m.SetCoreInfo(c, budget.CoreInfo{Sensitivity: 1, LevelsMW: levels})
		}
		return m
	}
	newFilter := func() budget.RequestFilter {
		rg, err := defense.NewRangeGuard(levels)
		if err != nil {
			t.Fatal(err)
		}
		return defense.NewChain(rg, defense.NewHistoryGuard(0.3, 0.4))
	}
	epoch := func(m *budget.Manager, reqs [2]uint32) []budget.Grant {
		for i, mw := range reqs {
			m.HandleRequest(&noc.Packet{Src: noc.NodeID(i + 1), Dst: 9, Type: noc.TypePowerReq, Payload: mw})
		}
		return slices.Clone(m.AllocateEpoch())
	}

	var want [2][]budget.Grant
	var wantFlagged [2]uint64
	for s, stream := range streams {
		m := newManager(budget.NewPIController(0.5), newFilter())
		for _, reqs := range stream {
			want[s] = append(want[s], epoch(m, reqs)...)
		}
		wantFlagged[s] = m.FlaggedTotal
		if wantFlagged[s] == 0 {
			t.Fatalf("stream %d: the history guard flagged nothing, so its memory is not exercised", s)
		}
	}

	alloc, filter := budget.NewPIController(0.5), newFilter()
	shared := [2]*budget.Manager{newManager(alloc, filter), newManager(alloc, filter)}
	var got [2][]budget.Grant
	for e := range streams[0] {
		for s, m := range shared {
			got[s] = append(got[s], epoch(m, streams[s][e])...)
		}
	}
	for s, m := range shared {
		if !slices.Equal(got[s], want[s]) {
			t.Errorf("stream %d: grants with shared plugins %v, with its own %v", s, got[s], want[s])
		}
		if m.FlaggedTotal != wantFlagged[s] {
			t.Errorf("stream %d: flagged %d with shared plugins, %d with its own", s, m.FlaggedTotal, wantFlagged[s])
		}
	}
}
