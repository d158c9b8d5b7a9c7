package campaign

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/results"
)

// This file partitions a campaign into shards a coordinator can dispatch
// to remote workers and merges the shard results back into exactly the
// tables BuildTables produces single-process. Every experiment exposes one
// cell space through the same hooks: its size for resolved parameters, a
// runner for any contiguous [lo, hi) range of it, and a builder that
// assembles the published table from all of its cells in order. A cell's
// value is the table rows it contributes:
//
//   - E3–E6: one float64 per trial (see internal/core/shard.go), aggregated
//     once, over the reassembled vector — never inside a shard — because
//     floating-point addition is not associative and the merge contract is
//     byte-identity with a local run;
//   - E7/E8 and E9: one cell per mix; E10: one per allocator; X2: one per
//     defense;
//   - E1, E2 and X1: a single cell holding the whole table. X1's three
//     attack modes compare against one shared baseline run, which
//     per-mode cells would each repeat.
//
// A shard result's payload is one JSON array of cells. Go's encoding/json
// round-trips float64 exactly (shortest representation), so decoding
// preserves artifact bytes. BuildTables runs each experiment as one shard
// over its whole space through RunShard and the merge MergeShards uses, so
// the local path and the distributed merge share one construction — titles,
// params, aggregation — by code identity rather than by convention.

// Shard is one self-contained unit of campaign work: the experiment spec it
// belongs to, the spec-level seed context it resolves against, and the
// [Lo, Hi) range of the experiment's cell space it covers.
type Shard struct {
	// ExpIndex is the experiment's position in the originating spec;
	// the merge reassembles results by position, so a spec naming the
	// same experiment twice still merges correctly.
	ExpIndex int `json:"exp_index"`
	// Experiment is the spec entry (ID plus parameter overrides).
	Experiment ExperimentSpec `json:"experiment"`
	// Seed is the spec-level seed (0 = campaign default); the effective
	// seed resolves exactly as in a local run (per-experiment override
	// first, then this, then the default).
	Seed int64 `json:"seed"`
	// Index and Count locate this shard among its experiment's shards.
	Index int `json:"index"`
	Count int `json:"count"`
	// Lo and Hi bound the range of cells the shard computes.
	Lo int `json:"lo"`
	Hi int `json:"hi"`
}

// String renders a compact shard label for logs and metrics.
func (s Shard) String() string {
	return fmt.Sprintf("%s#%d[%d:%d)", s.Experiment.ID, s.ExpIndex, s.Lo, s.Hi)
}

// Key fingerprints the shard's work for the shard cache, the checkpoint
// store and deduplication: the work its experiment names (E7 and E8 share
// one), the spec entry's overrides, the seed context, the cell range and
// the build — never its position in a particular campaign, so an unchanged
// experiment resubmitted in a different spec still hits. Overrides are
// hashed as written, so E7 and E8 share keys only when their overrides are
// equal.
func (s Shard) Key() string { return s.keyFor(results.ThisBuild()) }

// keyFor is Key for the given build.
func (s Shard) keyFor(b results.Build) string {
	work := registry[s.Experiment.ID].work
	if work == "" {
		work = s.Experiment.ID
	}
	return results.HashConfig(struct {
		Work   string        `json:"work"`
		Params Params        `json:"params"`
		Seed   int64         `json:"seed"`
		Lo     int           `json:"lo"`
		Hi     int           `json:"hi"`
		Count  int           `json:"count"`
		Build  results.Build `json:"build"`
	}{work, s.Experiment.Params, s.Seed, s.Lo, s.Hi, s.Count, b})
}

// ShardResult carries one executed shard's payload back to the merge: a
// JSON array of the cells [Lo, Hi) of its experiment's cell space.
type ShardResult struct {
	Shard Shard           `json:"shard"`
	Cells json.RawMessage `json:"cells"`
}

// Check verifies that r answers sh — it names a shard with sh's key — and
// that its payload decodes into exactly one cell of sh's experiment per
// position of [Lo, Hi). The coordinator checks every answer before it
// caches, checkpoints or merges it, and every checkpoint before it
// trusts it.
func (r *ShardResult) Check(sh Shard) error {
	if r.Shard.Key() != sh.Key() {
		return fmt.Errorf("campaign: answer for shard %s names %s", sh, r.Shard)
	}
	ent, ok := registry[sh.Experiment.ID]
	if !ok {
		return fmt.Errorf("campaign: unknown experiment %q", sh.Experiment.ID)
	}
	if err := ent.cells.check(r.Cells, sh.Hi-sh.Lo); err != nil {
		return fmt.Errorf("campaign: shard %s: %w", sh, err)
	}
	return nil
}

// cellHooks is the type-erased face of one experiment's cell space: size
// counts its cells for resolved parameters, run computes cells [lo, hi)
// as a JSON array, check decodes a payload that must hold n cells, and
// build assembles the published table from the results of a full cover
// of the space, in cell order.
type cellHooks interface {
	size(p Params) int
	run(rc runCtx, lo, hi int) (json.RawMessage, error)
	check(payload json.RawMessage, n int) error
	build(rc runCtx, rs []ShardResult) (results.Table, error)
}

// cellSpace implements cellHooks for cells of type C.
type cellSpace[C any] struct {
	count func(p Params) int
	cells func(rc runCtx, lo, hi int) ([]C, error)
	table func(rc runCtx, all []C) (results.Table, error)
}

func (s cellSpace[C]) size(p Params) int { return s.count(p) }

func (s cellSpace[C]) run(rc runCtx, lo, hi int) (json.RawMessage, error) {
	cells, err := s.cells(rc, lo, hi)
	if err != nil {
		return nil, err
	}
	return json.Marshal(cells)
}

// decode reads a payload that must hold exactly n cells.
func (s cellSpace[C]) decode(payload json.RawMessage, n int) ([]C, error) {
	var cells []C
	if err := json.Unmarshal(payload, &cells); err != nil {
		return nil, fmt.Errorf("decode cells: %w", err)
	}
	if len(cells) != n {
		return nil, fmt.Errorf("payload holds %d cells, range covers %d", len(cells), n)
	}
	return cells, nil
}

func (s cellSpace[C]) check(payload json.RawMessage, n int) error {
	_, err := s.decode(payload, n)
	return err
}

func (s cellSpace[C]) build(rc runCtx, rs []ShardResult) (results.Table, error) {
	var all []C
	for _, r := range rs {
		cells, err := s.decode(r.Cells, r.Shard.Hi-r.Shard.Lo)
		if err != nil {
			return nil, fmt.Errorf("shard %s: %w", r.Shard, err)
		}
		all = append(all, cells...)
	}
	return s.table(rc, all)
}

// oneCell is the space of an experiment that runs as a whole: its single
// cell is the finished table. Cells are table values, not pointers, so a
// null cell decodes to an empty table rather than a nil one.
func oneCell[T any, PT interface {
	*T
	results.Table
}](run func(rc runCtx) (PT, error)) cellSpace[T] {
	return cellSpace[T]{
		count: func(Params) int { return 1 },
		cells: func(rc runCtx, _, _ int) ([]T, error) {
			t, err := run(rc)
			if err != nil {
				return nil, err
			}
			return []T{*t}, nil
		},
		table: func(_ runCtx, all []T) (results.Table, error) { return PT(&all[0]), nil },
	}
}

// simCells is the space of a cycle-simulated experiment with one cell per
// entry of a list (mixes, allocators, defenses): run simulates entries
// [lo, hi) and table assembles the artifact from every entry's cells, both
// on the configuration the experiment's parameters resolve to.
func simCells[C any](count func(p Params) int,
	run func(rc runCtx, cfg core.Config, lo, hi int) ([]C, error),
	table func(rc runCtx, cfg core.Config, all []C) results.Table) cellSpace[C] {
	return cellSpace[C]{
		count: count,
		cells: func(rc runCtx, lo, hi int) ([]C, error) {
			cfg, err := simConfig(rc)
			if err != nil {
				return nil, err
			}
			return run(rc, cfg, lo, hi)
		},
		table: func(rc runCtx, all []C) (results.Table, error) {
			cfg, err := simConfig(rc)
			if err != nil {
				return nil, err
			}
			return table(rc, cfg, all), nil
		},
	}
}

// trialCells is the E3–E6 space, paper figure fig: one infection rate
// per trial of the space trials resolves from the parameters.
func trialCells(id, fig string, trials func(p Params) core.InfectionTrials) cellSpace[float64] {
	return cellSpace[float64]{
		count: func(p Params) int { return trials(p).Space() },
		cells: func(rc runCtx, lo, hi int) ([]float64, error) {
			return trials(rc.p).Run(rc.ctx, rc.seed, rc.workers, lo, hi)
		},
		table: func(rc runCtx, raw []float64) (results.Table, error) {
			return trials(rc.p).Table(id, fig, rc.seed, raw)
		},
	}
}

// curveTrials is the Fig 3 trial space (E3/E4).
func curveTrials(p Params) core.InfectionTrials {
	return core.InfectionCurve(p.Size, p.HTCounts, p.Trials)
}

// distTrials is the Fig 4 trial space (E5/E6).
func distTrials(p Params) core.InfectionTrials {
	return core.Distribution(p.Sizes, p.Denominator, p.Trials)
}

// PlanShards partitions each of a spec's experiments into at most
// maxPerExp shards (values below 1 mean 1): balanced contiguous ranges
// tiling its cell space. Shards are returned in spec order, ranges
// ascending — a deterministic plan for a given (spec, maxPerExp), so shard
// keys are stable across re-submissions.
func PlanShards(spec *Spec, maxPerExp int) ([]Shard, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	var shards []Shard
	for i, e := range spec.Experiments {
		ent := registry[e.ID]
		size := ent.cells.size(merge(ent.defaults, e.Params))
		n := min(max(maxPerExp, 1), size)
		for s := 0; s < n; s++ {
			shards = append(shards, Shard{
				ExpIndex:   i,
				Experiment: e,
				Seed:       spec.Seed,
				Index:      s,
				Count:      n,
				Lo:         s * size / n,
				Hi:         (s + 1) * size / n,
			})
		}
	}
	return shards, nil
}

// GroupShards groups a plan's positions by shard key, in plan order. The
// shards of one group compute the same cells — E7 and E8 share the Fig 5/6
// sweep — so running the first answers them all.
func GroupShards(shards []Shard) [][]int {
	at := make(map[string]int, len(shards))
	var groups [][]int
	for i, sh := range shards {
		k := sh.Key()
		g, ok := at[k]
		if !ok {
			g = len(groups)
			at[k] = g
			groups = append(groups, nil)
		}
		groups[g] = append(groups[g], i)
	}
	return groups
}

// shardRunCtx resolves a shard's experiment and execution context exactly
// as a local run does: defaults merged under the spec entry's overrides,
// the effective seed from the per-experiment override, then the spec
// seed, then the campaign default.
func shardRunCtx(ctx context.Context, sh Shard, workers int) (runCtx, cellHooks, error) {
	ent, ok := registry[sh.Experiment.ID]
	if !ok {
		return runCtx{}, nil, fmt.Errorf("campaign: unknown experiment %q (known: %s)", sh.Experiment.ID, knownIDs())
	}
	p := merge(ent.defaults, sh.Experiment.Params)
	if err := p.validate(); err != nil {
		return runCtx{}, nil, fmt.Errorf("campaign: experiment %s: %w", sh.Experiment.ID, err)
	}
	spec := &Spec{Seed: sh.Seed}
	return runCtx{ctx: ctx, p: p, seed: spec.seedFor(p), workers: workers}, ent.cells, nil
}

// RunShard executes one shard on this process — the worker side of the
// distributed protocol, and the whole-space run of every local
// experiment. It rejects a range outside 0 ≤ Lo < Hi ≤ size before
// running anything. Worker-count changes never change payloads, exactly
// as for local runs.
//
// o, when non-nil, receives one sample per simulated epoch — the worker
// half of distributed live progress. Only cycle-simulated experiments
// simulate epochs; the observer never influences the payload, so observed
// and unobserved runs stay byte-identical.
func RunShard(ctx context.Context, sh Shard, workers int, o core.Observer) (*ShardResult, error) {
	rc, h, err := shardRunCtx(ctx, sh, workers)
	if err != nil {
		return nil, err
	}
	if size := h.size(rc.p); sh.Lo < 0 || sh.Lo >= sh.Hi || sh.Hi > size {
		return nil, fmt.Errorf("campaign: shard %s: range invalid for %d cells", sh, size)
	}
	rc.obs = o
	cells, err := h.run(rc, sh.Lo, sh.Hi)
	if err != nil {
		return nil, fmt.Errorf("campaign: %s: %w", sh.Experiment.ID, err)
	}
	return &ShardResult{Shard: sh, Cells: cells}, nil
}

// MergeShards reassembles executed shards into the tables BuildTables
// would produce single-process, in spec order, byte-identical for any
// shard partition. It validates coverage strictly — every cell exactly
// once — and fails loudly on gaps, overlaps, or payload/range mismatches
// rather than publishing a silently wrong artifact.
func MergeShards(ctx context.Context, spec *Spec, shardResults []ShardResult) ([]results.Table, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	byExp := make(map[int][]ShardResult)
	for _, r := range shardResults {
		if r.Shard.ExpIndex < 0 || r.Shard.ExpIndex >= len(spec.Experiments) {
			return nil, fmt.Errorf("campaign: shard %s: experiment index out of range", r.Shard)
		}
		if want := spec.Experiments[r.Shard.ExpIndex].ID; r.Shard.Experiment.ID != want {
			return nil, fmt.Errorf("campaign: shard %s: spec position %d names %s", r.Shard, r.Shard.ExpIndex, want)
		}
		byExp[r.Shard.ExpIndex] = append(byExp[r.Shard.ExpIndex], r)
	}
	tables := make([]results.Table, len(spec.Experiments))
	for i, e := range spec.Experiments {
		got := byExp[i]
		if len(got) == 0 {
			return nil, fmt.Errorf("campaign: experiment %s (position %d) has no shard results", e.ID, i)
		}
		t, err := mergeExperiment(ctx, spec, i, e, got)
		if err != nil {
			return nil, err
		}
		// The table records the spec's declarative worker count, exactly
		// as BuildTables stamps it after each local run.
		t.TableMeta().Workers = spec.Workers
		tables[i] = t
	}
	return tables, nil
}

// mergeExperiment reassembles one experiment's shard results into its
// table.
func mergeExperiment(ctx context.Context, spec *Spec, pos int, e ExperimentSpec, got []ShardResult) (results.Table, error) {
	rc, h, err := shardRunCtx(ctx, Shard{Experiment: e, Seed: spec.Seed}, 0)
	if err != nil {
		return nil, err
	}
	size := h.size(rc.p)
	sort.Slice(got, func(a, b int) bool { return got[a].Shard.Lo < got[b].Shard.Lo })
	next := 0
	for _, r := range got {
		sh := r.Shard
		if sh.Lo != next {
			return nil, fmt.Errorf("campaign: experiment %s (position %d): shard coverage broken at cell %d (next shard is %s)", e.ID, pos, next, sh)
		}
		if sh.Hi <= sh.Lo || sh.Hi > size {
			return nil, fmt.Errorf("campaign: shard %s: range invalid for %d cells", sh, size)
		}
		next = sh.Hi
	}
	if next != size {
		return nil, fmt.Errorf("campaign: experiment %s (position %d): shard coverage ends at cell %d of %d", e.ID, pos, next, size)
	}
	t, err := h.build(rc, got)
	if err != nil {
		return nil, fmt.Errorf("campaign: %s: %w", e.ID, err)
	}
	return t, nil
}
