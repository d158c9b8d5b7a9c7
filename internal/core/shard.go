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
	// chip returns the mesh, the manager and the fleet size of series s
	// at point p. A fleet of 0 Trojans infects nothing and draws nothing.
	chip func(s, p int) (noc.Mesh, noc.NodeID, int, error)
	// place draws series s's fleet of count Trojans from rng on g's
	// buffers.
	place func(g *attack.Scratch, s int, mesh noc.Mesh, gm noc.NodeID, count int, rng *rand.Rand) (attack.Placement, error)
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
		chip: func(s, p int) (noc.Mesh, noc.NodeID, int, error) {
			return mesh, managers[s], htCounts[p], nil
		},
		place: func(g *attack.Scratch, _ int, mesh noc.Mesh, gm noc.NodeID, count int, rng *rand.Rand) (attack.Placement, error) {
			return g.RandomPlacement(mesh, count, rng, gm)
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
		chip: func(_, p int) (noc.Mesh, noc.NodeID, int, error) {
			mesh, err := noc.MeshForSize(sizes[p])
			if err != nil {
				return noc.Mesh{}, 0, 0, err
			}
			return mesh, mesh.Center(), max(sizes[p]/denominator, 1), nil
		},
		place: func(g *attack.Scratch, s int, mesh noc.Mesh, gm noc.NodeID, count int, rng *rand.Rand) (attack.Placement, error) {
			switch s {
			case 0:
				return g.CenterCluster(mesh, count, rng, gm)
			case 1:
				return g.RandomPlacement(mesh, count, rng, gm)
			default:
				return g.CornerCluster(mesh, count, rng, gm)
			}
		},
	}
	if denominator < 1 {
		t.err = fmt.Errorf("core: invalid denominator %d", denominator)
	}
	return t
}

// trialState is a worker's kept state for closed-form trials and fleet
// searches: a source re-seeded per trial, the placement generators'
// buffers and an infected set.
type trialState struct {
	rng      *rand.Rand
	gen      attack.Scratch
	infected noc.NodeSet
}

// trialStates pools trial states. Re-seeding a source in place yields
// exactly the sequence of rand.New(exp.NewSource(seed)), which is
// math/rand's, without allocating a source per trial.
var trialStates = sync.Pool{New: func() any { return &trialState{rng: rand.New(exp.NewSource(1))} }}

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
	covers := t.covers(lo, hi)
	return exp.Run(ctx, workers, hi-lo, func(_ context.Context, i int) (float64, error) {
		return t.cell(covers, lo+i, seed)
	})
}

// covers builds, once for the shard, the route covers of every chip that
// cells [lo, hi) place a fleet on. Entry s*len(points)+p serves series s
// at point p, and chips with one mesh and manager share one entry. A chip
// that fails to build is left nil: its cells report the error.
func (t InfectionTrials) covers(lo, hi int) []*metrics.Covers {
	type chipKey struct {
		mesh noc.Mesh
		gm   noc.NodeID
	}
	built := map[chipKey]*metrics.Covers{}
	out := make([]*metrics.Covers, len(t.series)*len(t.points))
	for flat := lo; flat < hi; flat = (flat/t.trials + 1) * t.trials {
		k := flat / t.trials
		mesh, gm, count, err := t.chip(k/len(t.points), k%len(t.points))
		if err != nil || count == 0 {
			continue
		}
		key := chipKey{mesh, gm}
		if built[key] == nil {
			built[key] = metrics.NewCovers(mesh, gm)
		}
		out[k] = built[key]
	}
	return out
}

// cell computes cell flat of the trial space: the closed-form infection
// rate of the fleet its trial seed draws, on a pooled trial state, over
// the shard's covers.
func (t InfectionTrials) cell(covers []*metrics.Covers, flat int, seed int64) (float64, error) {
	block := len(t.points) * t.trials
	inner := flat % block
	s, p := flat/block, inner/t.trials
	mesh, gm, count, err := t.chip(s, p)
	if err != nil {
		return 0, err
	}
	if count == 0 {
		return 0, nil
	}
	st := trialStates.Get().(*trialState)
	defer trialStates.Put(st)
	st.rng.Seed(exp.TrialSeed(seed, inner))
	placement, err := t.place(&st.gen, s, mesh, gm, count, st.rng)
	if err != nil {
		return 0, err
	}
	placement.Infected(&st.infected)
	return metrics.InfectionRateXY(covers[flat/t.trials], &st.infected, nil), nil
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
