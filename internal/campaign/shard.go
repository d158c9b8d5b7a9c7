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
// tables BuildTables produces single-process. Two shard flavours exist:
//
//   - Trial shards cover a contiguous [Lo, Hi) range of a shardable
//     experiment's flat trial space (E3–E6; see internal/core/shard.go)
//     and return raw per-cell float64 values. Aggregation happens once,
//     coordinator-side, over the reassembled vector — never inside a
//     shard — because floating-point addition is not associative and the
//     merge contract is byte-identity with a local run.
//   - Atomic shards run a whole experiment whose driver cannot be
//     partitioned (sequential internal RNG, model fits: E1/E2/E7–E10,
//     X1/X2) and return the finished typed table as JSON. Go's
//     encoding/json round-trips float64 exactly (shortest
//     representation), so decode-and-re-encode preserves artifact bytes.
//
// The single-process registry entries for shardable experiments run
// through the same hooks (runWholeShard), so the local path and the
// distributed merge share one construction — titles, params, aggregation
// — by code identity rather than by convention.

// Shard is one self-contained unit of distributed campaign work: the
// experiment spec it belongs to, the spec-level seed context it resolves
// against, and — for trial shards — the [Lo, Hi) range of the flat trial
// space it covers. Atomic shards have Lo == Hi == 0.
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
	// Lo and Hi bound the trial-space range for trial shards.
	Lo int `json:"lo"`
	Hi int `json:"hi"`
}

// atomic reports whether the shard runs a whole experiment rather than a
// trial range.
func (s Shard) atomic() bool { return s.Lo == 0 && s.Hi == 0 }

// String renders a compact shard label for logs and metrics.
func (s Shard) String() string {
	if s.atomic() {
		return fmt.Sprintf("%s#%d", s.Experiment.ID, s.ExpIndex)
	}
	return fmt.Sprintf("%s#%d[%d:%d)", s.Experiment.ID, s.ExpIndex, s.Lo, s.Hi)
}

// ShardResult carries one executed shard's payload back to the merge:
// raw per-cell values for trial shards, the typed table as JSON for
// atomic shards.
type ShardResult struct {
	Shard Shard           `json:"shard"`
	Raw   []float64       `json:"raw,omitempty"`
	Table json.RawMessage `json:"table,omitempty"`
}

// shardHooks describes how a shardable experiment exposes its trial
// space. space sizes the flat space for resolved params; run computes
// raw values for a range of it; build assembles the published table from
// the full raw vector.
type shardHooks struct {
	space func(p Params) int
	run   func(rc runCtx, lo, hi int) ([]float64, error)
	build func(rc runCtx, id string, raw []float64) (results.Table, error)
}

// curveHooks builds the E3/E4 hook set (Fig 3 infection curves).
func curveHooks(fig string) shardHooks {
	return shardHooks{
		space: func(p Params) int { return core.InfectionCurveSpace(p.HTCounts, p.Trials) },
		run: func(rc runCtx, lo, hi int) ([]float64, error) {
			return core.InfectionCurveShard(rc.ctx, rc.p.Size, rc.p.HTCounts, rc.p.Trials, rc.seed, rc.workers, lo, hi)
		},
		build: func(rc runCtx, id string, raw []float64) (results.Table, error) {
			title := fmt.Sprintf("Fig %s: infection rate vs HT count, %d cores", fig, rc.p.Size)
			return core.InfectionCurveTableFromRaw(id, title, rc.p.Size, rc.p.HTCounts, rc.p.Trials, rc.seed, raw)
		},
	}
}

// distHooks builds the E5/E6 hook set (Fig 4 distribution bars).
func distHooks(fig string) shardHooks {
	return shardHooks{
		space: func(p Params) int { return core.DistributionSpace(p.Sizes, p.Trials) },
		run: func(rc runCtx, lo, hi int) ([]float64, error) {
			return core.DistributionShard(rc.ctx, rc.p.Sizes, rc.p.Denominator, rc.p.Trials, rc.seed, rc.workers, lo, hi)
		},
		build: func(rc runCtx, id string, raw []float64) (results.Table, error) {
			title := fmt.Sprintf("Fig %s: infection rate by HT distribution, HTs = size/%d", fig, rc.p.Denominator)
			return core.DistributionTableFromRaw(id, title, rc.p.Sizes, rc.p.Denominator, rc.p.Trials, rc.seed, raw)
		},
	}
}

// shardableHooks maps the experiments whose trial space partitions.
// Everything else ships as an atomic shard. E7/E8 stay atomic even
// though they share a memoized sweep locally: distributed, each runs its
// own sweep on its worker (a documented 2× cost, DESIGN.md §11).
var shardableHooks = map[string]shardHooks{
	"E3": curveHooks("3(a)"),
	"E4": curveHooks("3(b)"),
	"E5": distHooks("4(a)"),
	"E6": distHooks("4(b)"),
}

// blankTables constructs an empty typed table per experiment ID, so an
// atomic shard's JSON payload decodes back into the concrete type the
// artifact writers switch on. A registry entry without a blank cannot be
// distributed; a test pins full coverage.
var blankTables = map[string]func() results.Table{
	"E1":  func() results.Table { return &results.ConfigTable{} },
	"E2":  func() results.Table { return &results.AreaPowerTable{} },
	"E3":  func() results.Table { return &results.InfectionTable{} },
	"E4":  func() results.Table { return &results.InfectionTable{} },
	"E5":  func() results.Table { return &results.InfectionTable{} },
	"E6":  func() results.Table { return &results.InfectionTable{} },
	"E7":  func() results.Table { return &results.EffectTable{} },
	"E8":  func() results.Table { return &results.AppEffectTable{} },
	"E9":  func() results.Table { return &results.PlacementTable{} },
	"E10": func() results.Table { return &results.AblationTable{} },
	"X1":  func() results.Table { return &results.VariantTable{} },
	"X2":  func() results.Table { return &results.DefenseTable{} },
}

// runWholeShard executes a shardable experiment's entire trial space as
// one shard and assembles its table — the single-process path through
// the exact code the distributed merge uses. The registry routes E3–E6
// through it, so byte-identity between local and merged runs is enforced
// by sharing the construction, not by hoping two copies agree.
func runWholeShard(id string, rc runCtx) (results.Table, error) {
	h := shardableHooks[id]
	raw, err := h.run(rc, 0, h.space(rc.p))
	if err != nil {
		return nil, err
	}
	return h.build(rc, id, raw)
}

// PlanShards partitions a spec's experiments into at most maxPerExp
// shards each (values below 1 mean 1): shardable experiments split into
// balanced contiguous trial ranges, everything else becomes one atomic
// shard. Shards are returned in spec order, ranges ascending — a
// deterministic plan for a given (spec, maxPerExp), so coordinator-side
// shard cache keys are stable across re-submissions.
func PlanShards(spec *Spec, maxPerExp int) ([]Shard, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if maxPerExp < 1 {
		maxPerExp = 1
	}
	var shards []Shard
	for i, e := range spec.Experiments {
		ent := registry[e.ID]
		p := merge(ent.defaults, e.Params)
		h, ok := shardableHooks[e.ID]
		if !ok {
			shards = append(shards, Shard{ExpIndex: i, Experiment: e, Seed: spec.Seed, Count: 1})
			continue
		}
		space := h.space(p)
		n := maxPerExp
		if n > space {
			n = space
		}
		if n < 1 {
			n = 1
		}
		for s := 0; s < n; s++ {
			shards = append(shards, Shard{
				ExpIndex:   i,
				Experiment: e,
				Seed:       spec.Seed,
				Index:      s,
				Count:      n,
				Lo:         s * space / n,
				Hi:         (s + 1) * space / n,
			})
		}
	}
	return shards, nil
}

// shardRunCtx resolves a shard's execution context exactly as BuildTables
// resolves the same experiment locally: defaults merged under the spec
// entry's overrides, the effective seed from the per-experiment override,
// then the spec seed, then the campaign default.
func shardRunCtx(ctx context.Context, sh Shard, workers int) (runCtx, error) {
	ent, ok := registry[sh.Experiment.ID]
	if !ok {
		return runCtx{}, fmt.Errorf("campaign: unknown experiment %q (known: %s)", sh.Experiment.ID, knownIDs())
	}
	p := merge(ent.defaults, sh.Experiment.Params)
	if err := p.validate(); err != nil {
		return runCtx{}, fmt.Errorf("campaign: experiment %s: %w", sh.Experiment.ID, err)
	}
	spec := &Spec{Seed: sh.Seed}
	return runCtx{
		ctx:     ctx,
		p:       p,
		seed:    spec.seedFor(p),
		workers: workers,
		effects: &effectCache{},
	}, nil
}

// RunShard executes one shard on this process — the worker side of the
// distributed protocol. Trial shards return raw per-cell values; atomic
// shards run the experiment's registry driver and return its table as
// JSON. Worker-count changes never change payloads, exactly as for local
// runs.
//
// o, when non-nil, receives one sample per simulated epoch — the worker
// half of distributed live progress. Only atomic shards simulate epochs
// (trial shards are analytic and observe nothing); the observer never
// influences the result payload, so observed and unobserved runs stay
// byte-identical.
func RunShard(ctx context.Context, sh Shard, workers int, o core.Observer) (*ShardResult, error) {
	rc, err := shardRunCtx(ctx, sh, workers)
	if err != nil {
		return nil, err
	}
	rc.obs = o
	if sh.atomic() {
		ent := registry[sh.Experiment.ID]
		t, err := ent.run(rc)
		if err != nil {
			return nil, fmt.Errorf("campaign: %s: %w", sh.Experiment.ID, err)
		}
		b, err := json.Marshal(t)
		if err != nil {
			return nil, fmt.Errorf("campaign: %s: encode table: %w", sh.Experiment.ID, err)
		}
		return &ShardResult{Shard: sh, Table: b}, nil
	}
	h, ok := shardableHooks[sh.Experiment.ID]
	if !ok {
		return nil, fmt.Errorf("campaign: experiment %s has no trial shards", sh.Experiment.ID)
	}
	raw, err := h.run(rc, sh.Lo, sh.Hi)
	if err != nil {
		return nil, fmt.Errorf("campaign: %s: %w", sh.Experiment.ID, err)
	}
	return &ShardResult{Shard: sh, Raw: raw}, nil
}

// MergeShards reassembles executed shards into the tables BuildTables
// would produce single-process, in spec order, byte-identical for any
// shard partition. It validates coverage strictly — every trial cell
// exactly once, every atomic experiment exactly one result — and fails
// loudly on gaps, overlaps, or payload/range mismatches rather than
// publishing a silently wrong artifact.
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
	h, shardable := shardableHooks[e.ID]
	if !shardable {
		if len(got) != 1 {
			return nil, fmt.Errorf("campaign: atomic experiment %s (position %d) has %d shard results, want 1", e.ID, pos, len(got))
		}
		r := got[0]
		if len(r.Table) == 0 {
			return nil, fmt.Errorf("campaign: shard %s: missing table payload", r.Shard)
		}
		blank, ok := blankTables[e.ID]
		if !ok {
			return nil, fmt.Errorf("campaign: experiment %s has no table decoder", e.ID)
		}
		t := blank()
		if err := json.Unmarshal(r.Table, t); err != nil {
			return nil, fmt.Errorf("campaign: shard %s: decode table: %w", r.Shard, err)
		}
		return t, nil
	}
	rc, err := shardRunCtx(ctx, Shard{Experiment: e, Seed: spec.Seed}, 0)
	if err != nil {
		return nil, err
	}
	space := h.space(rc.p)
	sort.Slice(got, func(a, b int) bool { return got[a].Shard.Lo < got[b].Shard.Lo })
	raw := make([]float64, 0, space)
	next := 0
	for _, r := range got {
		sh := r.Shard
		if sh.Lo != next {
			return nil, fmt.Errorf("campaign: experiment %s (position %d): shard coverage broken at cell %d (next shard is %s)", e.ID, pos, next, sh)
		}
		if sh.Hi <= sh.Lo || sh.Hi > space {
			return nil, fmt.Errorf("campaign: shard %s: range invalid for trial space %d", sh, space)
		}
		if len(r.Raw) != sh.Hi-sh.Lo {
			return nil, fmt.Errorf("campaign: shard %s: payload holds %d cells, range covers %d", sh, len(r.Raw), sh.Hi-sh.Lo)
		}
		raw = append(raw, r.Raw...)
		next = sh.Hi
	}
	if next != space {
		return nil, fmt.Errorf("campaign: experiment %s (position %d): shard coverage ends at cell %d of %d", e.ID, pos, next, space)
	}
	t, err := h.build(rc, e.ID, raw)
	if err != nil {
		return nil, fmt.Errorf("campaign: %s: %w", e.ID, err)
	}
	return t, nil
}
