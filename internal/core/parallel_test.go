package core

import (
	"context"
	"testing"

	"repro/internal/budget"
	"repro/internal/defense"
	"repro/internal/results"
)

// The parallel-runner determinism contract: every experiment driver must
// return bit-identical results for one worker and for many, because trials
// derive their random streams from (seed, trial index) rather than a
// shared RNG, and per-run mutable state (allocators, filters) is cloned.

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

func TestRunPairParallelDeterminism(t *testing.T) {
	run := func(workers int) (*Comparison, error) {
		cfg := fastConfig()
		cfg.Workers = workers
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
		t.Fatalf("workers=1: %v", err)
	}
	par, err := run(4)
	if err != nil {
		t.Fatalf("workers=4: %v", err)
	}
	if seq.Q != par.Q || seq.InfectionMeasured != par.InfectionMeasured {
		t.Fatalf("RunPair diverges: sequential Q=%v inf=%v, parallel Q=%v inf=%v",
			seq.Q, seq.InfectionMeasured, par.Q, par.InfectionMeasured)
	}
	for i := range seq.PerApp {
		if seq.PerApp[i] != par.PerApp[i] {
			t.Fatalf("app %d diverges: %+v vs %+v", i, seq.PerApp[i], par.PerApp[i])
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

// TestStatefulCloning pins the cloning contract the concurrent runners
// depend on: stateful allocators and filters are copied with fresh state,
// stateless ones pass through.
func TestStatefulCloning(t *testing.T) {
	pi := budget.NewPIController(0.5)
	clone, ok := budget.CloneAllocator(pi).(*budget.PIController)
	if !ok {
		t.Fatal("PI clone lost its type")
	}
	if clone == pi {
		t.Fatal("PI controller must clone to a fresh instance")
	}
	fair := budget.FairShare{}
	if budget.CloneAllocator(fair) != budget.Allocator(fair) {
		t.Error("stateless allocator should pass through")
	}

	hg := defense.NewHistoryGuard(0.3, 0.4)
	hgClone, ok := budget.CloneFilter(hg).(*defense.HistoryGuard)
	if !ok {
		t.Fatal("history-guard clone lost its type")
	}
	if hgClone == hg {
		t.Fatal("history guard must clone to a fresh instance")
	}
	chain := defense.NewChain(hg)
	chainClone, ok := budget.CloneFilter(chain).(defense.Chain)
	if !ok {
		t.Fatal("chain clone lost its type")
	}
	if chainClone.Filters[0] == budget.RequestFilter(hg) {
		t.Fatal("chain must clone its stateful stages")
	}
	if budget.CloneFilter(nil) != nil {
		t.Error("nil filter must stay nil")
	}
}
