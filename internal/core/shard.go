package core

import (
	"context"
	"fmt"
	"math/rand"

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
// These are the E3–E6 cell spaces of internal/campaign/shard.go; the
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

// InfectionCurveSpace is the flat trial-space size of an infection-curve
// experiment (E3/E4): the center-manager series occupies cells
// [0, len(htCounts)*trials) and the corner-manager series the block after
// it. Within a series block, cell i covers HT count htCounts[i/trials],
// trial i%trials.
func InfectionCurveSpace(htCounts []int, trials int) int {
	return 2 * len(htCounts) * trials
}

// InfectionCurveShard computes the raw per-cell infection rates for cells
// [lo, hi) of an infection-curve experiment's flat trial space. Both
// series blocks reuse the same cell-local trial seeds, so a cell's value
// depends only on the campaign seed and its index. The infection rate of
// a placement under XY routing is exact (closed form, cross-validated
// against the simulator in tests), so no cycle simulation runs here.
func InfectionCurveShard(ctx context.Context, size int, htCounts []int, trials int, seed int64, workers, lo, hi int) ([]float64, error) {
	mesh, err := noc.MeshForSize(size)
	if err != nil {
		return nil, err
	}
	if trials < 1 {
		return nil, fmt.Errorf("core: need at least one trial")
	}
	if err := checkShardRange(lo, hi, InfectionCurveSpace(htCounts, trials)); err != nil {
		return nil, err
	}
	managers := [2]noc.NodeID{mesh.Center(), mesh.Corner()}
	block := len(htCounts) * trials
	return exp.Run(ctx, workers, hi-lo, func(_ context.Context, i int) (float64, error) {
		flat := lo + i
		inner := flat % block
		m := htCounts[inner/trials]
		if m == 0 {
			return 0, nil
		}
		manager := managers[flat/block]
		rng := rand.New(rand.NewSource(exp.TrialSeed(seed, inner)))
		p, err := attack.RandomPlacement(mesh, m, rng, manager)
		if err != nil {
			return 0, err
		}
		return metrics.InfectionRateXY(mesh, manager, p.Infected(), nil), nil
	})
}

// InfectionCurveTableFromRaw assembles the E3/E4 table from the fully
// reassembled raw vector (per-series, per-HT-count running sum, then
// mean), so the bytes match a local run for any shard partition.
func InfectionCurveTableFromRaw(id, title string, size int, htCounts []int, trials int, seed int64, raw []float64) (*results.InfectionTable, error) {
	if space := InfectionCurveSpace(htCounts, trials); len(raw) != space {
		return nil, fmt.Errorf("core: raw vector holds %d cells, trial space is %d", len(raw), space)
	}
	params := struct {
		Size     int   `json:"size"`
		HTCounts []int `json:"ht_counts"`
		Trials   int   `json:"trials"`
		Seed     int64 `json:"seed"`
	}{size, htCounts, trials, seed}
	t := &results.InfectionTable{
		Meta:   results.NewMeta(id, title, seed, 0, params),
		XLabel: "hts",
		Series: []string{"gm-center", "gm-corner"},
	}
	block := len(htCounts) * trials
	for pi, m := range htCounts {
		rates := make([]float64, 2)
		for si := range rates {
			sum := 0.0
			for tr := 0; tr < trials; tr++ {
				sum += raw[si*block+pi*trials+tr]
			}
			rates[si] = sum / float64(trials)
		}
		t.Points = append(t.Points, results.InfectionRow{X: m, Rates: rates})
	}
	return t, nil
}

// DistributionSpace is the flat trial-space size of a distribution
// experiment (E5/E6): one block of len(sizes)*trials cells per Fig 4
// distribution, in the series order center, random, corner. Within a
// block, cell i covers system size sizes[i/trials], trial i%trials.
func DistributionSpace(sizes []int, trials int) int {
	return 3 * len(sizes) * trials
}

// distribution names one of the three HT layouts of Fig 4.
type distribution string

// Fig 4 distributions.
const (
	distCenter distribution = "center"
	distRandom distribution = "random"
	distCorner distribution = "corner"
)

// distributionSeries is the fixed series order of the E5/E6 tables; the
// flat trial space uses one block per entry in this order.
var distributionSeries = [3]distribution{distCenter, distRandom, distCorner}

// DistributionShard computes the raw per-cell infection rates for cells
// [lo, hi) of a distribution experiment's flat trial space, with the HT
// count equal to size/denominator and the manager at the center. All
// three distribution blocks reuse the same cell-local trial seeds.
func DistributionShard(ctx context.Context, sizes []int, denominator, trials int, seed int64, workers, lo, hi int) ([]float64, error) {
	if trials < 1 {
		return nil, fmt.Errorf("core: need at least one trial")
	}
	if denominator < 1 {
		return nil, fmt.Errorf("core: invalid denominator %d", denominator)
	}
	if err := checkShardRange(lo, hi, DistributionSpace(sizes, trials)); err != nil {
		return nil, err
	}
	block := len(sizes) * trials
	return exp.Run(ctx, workers, hi-lo, func(_ context.Context, i int) (float64, error) {
		flat := lo + i
		inner := flat % block
		dist := distributionSeries[flat/block]
		size := sizes[inner/trials]
		mesh, err := noc.MeshForSize(size)
		if err != nil {
			return 0, err
		}
		manager := mesh.Center()
		m := size / denominator
		if m < 1 {
			m = 1
		}
		rng := rand.New(rand.NewSource(exp.TrialSeed(seed, inner)))
		var p attack.Placement
		switch dist {
		case distCenter:
			p, err = attack.CenterCluster(mesh, m, rng, manager)
		case distCorner:
			p, err = attack.CornerCluster(mesh, m, rng, manager)
		default:
			p, err = attack.RandomPlacement(mesh, m, rng, manager)
		}
		if err != nil {
			return 0, err
		}
		return metrics.InfectionRateXY(mesh, manager, p.Infected(), nil), nil
	})
}

// DistributionTableFromRaw assembles the E5/E6 table from the fully
// reassembled raw vector (per-size running sum across each distribution
// block, then mean).
func DistributionTableFromRaw(id, title string, sizes []int, denominator, trials int, seed int64, raw []float64) (*results.InfectionTable, error) {
	if space := DistributionSpace(sizes, trials); len(raw) != space {
		return nil, fmt.Errorf("core: raw vector holds %d cells, trial space is %d", len(raw), space)
	}
	params := struct {
		Sizes       []int `json:"sizes"`
		Denominator int   `json:"denominator"`
		Trials      int   `json:"trials"`
		Seed        int64 `json:"seed"`
	}{sizes, denominator, trials, seed}
	t := &results.InfectionTable{
		Meta:   results.NewMeta(id, title, seed, 0, params),
		XLabel: "size",
		Series: []string{string(distCenter), string(distRandom), string(distCorner)},
	}
	block := len(sizes) * trials
	for si, size := range sizes {
		rates := make([]float64, len(distributionSeries))
		for di := range distributionSeries {
			sum := 0.0
			for tr := 0; tr < trials; tr++ {
				sum += raw[di*block+si*trials+tr]
			}
			rates[di] = sum / float64(trials)
		}
		t.Points = append(t.Points, results.InfectionRow{X: size, Rates: rates})
	}
	return t, nil
}

// checkShardRange validates a [lo, hi) shard range against a trial space.
// An empty range (lo == hi) runs zero trials; the campaign engine never
// plans one.
func checkShardRange(lo, hi, space int) error {
	if lo < 0 || hi > space || lo > hi {
		return fmt.Errorf("core: shard range [%d, %d) invalid for trial space %d", lo, hi, space)
	}
	return nil
}
