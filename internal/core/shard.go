package core

import (
	"context"
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/attack"
	"repro/internal/exp"
	"repro/internal/metrics"
	"repro/internal/noc"
	"repro/internal/results"
)

// This file exposes the trial-grid experiments (E3–E6) as shardable raw
// workloads: a flat trial space, a runner for any contiguous [lo, hi)
// range of it, and an assembler that turns the full raw vector back into
// the published table. The campaign engine's single-process path runs the
// whole space as one shard, so the distributed path and the local path
// share one code path by construction — the merge contract ("any
// partition of the trial space reassembles bit-identically") is not a
// property tests chase after the fact, it is how the tables are built.
// This is the E3–E6 cell space of internal/campaign/shard.go; the
// cycle-simulated experiments' cells (a mix, an allocator, a defense)
// come from the table layer in tables.go.
//
// Two rules keep the contract honest:
//
//  1. Every cell of the flat space derives its RNG from the campaign seed
//     and a cell-local index only (exp.TrialSeed), never from the shard
//     bounds, so the values a cell consumes are the same whether it ran
//     in shard 3 of 5 on a remote worker or inline in one process.
//  2. Shards return the raw per-cell float64 values, never partial sums:
//     floating-point addition is not associative, so aggregation happens
//     exactly once, over the fully reassembled vector.

// InfectionTrials is the trial space of one Fig 3/4 experiment: the mean
// closed-form XY infection rate of random Trojan fleets, at each point of
// an x-axis (HT count or system size) for each of several series. The
// flat space holds one block of len(points)*trials cells per series, in
// series order; within a block, cell i covers point i/trials, trial
// i%trials. Every block reuses the same cell-local trial seeds. The
// infection rate of a placement under XY routing is exact (closed form,
// cross-validated against the simulator in tests), so no cycle
// simulation runs here.
type InfectionTrials struct {
	// title says what the artifact plots, after its figure number.
	title  string
	xLabel string
	series []string
	points []int
	trials int
	// err is a malformed parameter, reported by Run and Table.
	err error
	// params fingerprints the resolved parameters for the artifact.
	params func(seed int64) any
	// rate computes one trial: the infection rate of the fleet of series
	// s at point p, drawn from an RNG seeded with seed.
	rate func(s, p int, seed int64) (float64, error)
}

// InfectionCurve is the Fig 3 trial space (E3/E4): infection rate versus
// HT count on a size-node mesh, with the manager at the center (series
// gm-center) and at the corner (gm-corner).
func InfectionCurve(size int, htCounts []int, trials int) InfectionTrials {
	mesh, err := noc.MeshForSize(size)
	managers := [2]noc.NodeID{mesh.Center(), mesh.Corner()}
	return InfectionTrials{
		title:  fmt.Sprintf("infection rate vs HT count, %d cores", size),
		xLabel: "hts",
		series: []string{"gm-center", "gm-corner"},
		points: htCounts,
		trials: trials,
		err:    err,
		params: func(seed int64) any {
			return struct {
				Size     int   `json:"size"`
				HTCounts []int `json:"ht_counts"`
				Trials   int   `json:"trials"`
				Seed     int64 `json:"seed"`
			}{size, htCounts, trials, seed}
		},
		rate: func(s, p int, seed int64) (float64, error) {
			m := htCounts[p]
			if m == 0 {
				return 0, nil
			}
			manager := managers[s]
			rng := trialRNG(seed)
			defer trialRNGs.Put(rng)
			placement, err := attack.RandomPlacement(mesh, m, rng, manager)
			if err != nil {
				return 0, err
			}
			return metrics.InfectionRateXY(mesh, manager, placement.Infected(), nil), nil
		},
	}
}

// Distribution is the Fig 4 trial space (E5/E6): infection rate at each
// system size of a fleet of size/denominator HTs (at least one) laid out
// around the central manager in each of the series center, random and
// corner.
func Distribution(sizes []int, denominator, trials int) InfectionTrials {
	t := InfectionTrials{
		title:  fmt.Sprintf("infection rate by HT distribution, HTs = size/%d", denominator),
		xLabel: "size",
		series: []string{"center", "random", "corner"},
		points: sizes,
		trials: trials,
		params: func(seed int64) any {
			return struct {
				Sizes       []int `json:"sizes"`
				Denominator int   `json:"denominator"`
				Trials      int   `json:"trials"`
				Seed        int64 `json:"seed"`
			}{sizes, denominator, trials, seed}
		},
		rate: func(s, p int, seed int64) (float64, error) {
			mesh, err := noc.MeshForSize(sizes[p])
			if err != nil {
				return 0, err
			}
			manager := mesh.Center()
			m := max(sizes[p]/denominator, 1)
			rng := trialRNG(seed)
			defer trialRNGs.Put(rng)
			var placement attack.Placement
			switch s {
			case 0:
				placement, err = attack.CenterCluster(mesh, m, rng, manager)
			case 1:
				placement, err = attack.RandomPlacement(mesh, m, rng, manager)
			default:
				placement, err = attack.CornerCluster(mesh, m, rng, manager)
			}
			if err != nil {
				return 0, err
			}
			return metrics.InfectionRateXY(mesh, manager, placement.Infected(), nil), nil
		},
	}
	if denominator < 1 {
		t.err = fmt.Errorf("core: invalid denominator %d", denominator)
	}
	return t
}

// trialRNGs pools the trials' random sources. Re-seeding a source in
// place yields exactly the sequence of rand.New(rand.NewSource(seed)),
// without allocating one per trial.
var trialRNGs = sync.Pool{New: func() any { return rand.New(rand.NewSource(1)) }}

// trialRNG returns a pooled source seeded with seed; the caller puts it
// back in trialRNGs once the trial is done with it.
func trialRNG(seed int64) *rand.Rand {
	rng := trialRNGs.Get().(*rand.Rand)
	rng.Seed(seed)
	return rng
}

// Space is the number of cells in the flat trial space.
func (t InfectionTrials) Space() int { return len(t.series) * len(t.points) * t.trials }

// check reports a malformed parameter.
func (t InfectionTrials) check() error {
	if t.err != nil {
		return t.err
	}
	if t.trials < 1 {
		return fmt.Errorf("core: need at least one trial")
	}
	return nil
}

// Run computes the raw per-cell infection rates for cells [lo, hi) of the
// trial space over workers. A cell's value depends only on seed and its
// index. An empty range (lo == hi) runs zero trials; the campaign engine
// never plans one.
func (t InfectionTrials) Run(ctx context.Context, seed int64, workers, lo, hi int) ([]float64, error) {
	if err := t.check(); err != nil {
		return nil, err
	}
	if space := t.Space(); lo < 0 || hi > space || lo > hi {
		return nil, fmt.Errorf("core: shard range [%d, %d) invalid for trial space %d", lo, hi, space)
	}
	block := len(t.points) * t.trials
	return exp.Run(ctx, workers, hi-lo, func(_ context.Context, i int) (float64, error) {
		flat := lo + i
		inner := flat % block
		return t.rate(flat/block, inner/t.trials, exp.TrialSeed(seed, inner))
	})
}

// Table assembles experiment id's artifact, titled as paper figure fig
// (such as "3(a)"), from the fully reassembled raw vector: per series and
// point, a running sum over the trials, then the mean — so the bytes
// match a local run for any shard partition.
func (t InfectionTrials) Table(id, fig string, seed int64, raw []float64) (*results.InfectionTable, error) {
	if err := t.check(); err != nil {
		return nil, err
	}
	if space := t.Space(); len(raw) != space {
		return nil, fmt.Errorf("core: raw vector holds %d cells, trial space is %d", len(raw), space)
	}
	tab := &results.InfectionTable{
		Meta:   results.NewMeta(id, "Fig "+fig+": "+t.title, seed, 0, t.params(seed)),
		XLabel: t.xLabel,
		Series: t.series,
	}
	block := len(t.points) * t.trials
	for p, x := range t.points {
		rates := make([]float64, len(t.series))
		for s := range rates {
			sum := 0.0
			for tr := 0; tr < t.trials; tr++ {
				sum += raw[s*block+p*t.trials+tr]
			}
			rates[s] = sum / float64(t.trials)
		}
		tab.Points = append(tab.Points, results.InfectionRow{X: x, Rates: rates})
	}
	return tab, nil
}
