package campaign

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/budget"
	"repro/internal/core"
	"repro/internal/defense"
	"repro/internal/exp"
	"repro/internal/obs"
	"repro/internal/results"
	"repro/pkg/htsim"
)

// This file maps experiment IDs to their cell spaces (shard.go) and runs a
// validated spec: each experiment runs as one shard covering its whole
// cell space, the shards fan out over the internal/exp pool, and each
// experiment produces one typed results table.

// runCtx carries one experiment's resolved execution context.
type runCtx struct {
	// ctx cancels the experiment cooperatively: trial pools stop issuing
	// work and in-flight campaigns abort mid-epoch.
	ctx context.Context
	// p holds the merged (defaults + overrides) parameters.
	p Params
	// seed is the effective seed; workers the execution pool size.
	seed    int64
	workers int
	// obs, when non-nil, streams one EpochSample per budgeting epoch of
	// every cycle-simulated campaign the experiment runs (threaded through
	// the configuration via htsim.WithObserver). Observers never change
	// results; analytic experiments (E3–E6) run no epochs and stream
	// nothing.
	obs core.Observer
}

// entry is one registered experiment.
type entry struct {
	// order fixes the canonical E1…X2 listing order.
	order int
	// title describes the experiment for listings; artifact titles are
	// built from the resolved parameters at run time.
	title string
	// defaults are the paper-scale parameters; spec params overlay them.
	defaults Params
	// work names the computation behind the cells when experiments share
	// one: E7 and E8 both take their rows from the Fig 5/6 sweep, so
	// their shards share keys (Shard.Key) and run once. Empty means the
	// experiment ID.
	work string
	// cells is the experiment's cell space.
	cells cellHooks
}

// paperSizes is the Fig 4 system-size sweep.
func paperSizes() []int { return []int{64, 128, 256, 512} }

// paperMixes is the Table III mix list.
func paperMixes() []string { return []string{"mix-1", "mix-2", "mix-3", "mix-4"} }

// paperTargets is the Fig 5/6 target-infection sweep.
func paperTargets() []float64 {
	return []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9}
}

// Counts builds n evenly spaced HT counts from 0 to max (the Fig 3
// x-axis).
func Counts(max, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = max * i / (n - 1)
	}
	return out
}

// simConfig assembles a core.Config from resolved cycle-sim parameters
// through the SDK's option pipeline, so spec-named plugins (topology,
// routing, allocator, defense) resolve exactly as they would for any
// other pkg/htsim consumer.
func simConfig(rc runCtx) (core.Config, error) {
	opts := []htsim.Option{
		htsim.WithMemTraffic(rc.p.Mem != nil && *rc.p.Mem),
		htsim.WithSeed(rc.seed),
		htsim.WithWorkers(rc.workers),
	}
	if rc.p.Size != 0 {
		opts = append(opts, htsim.WithCores(rc.p.Size))
	}
	if rc.p.Epochs != 0 {
		opts = append(opts, htsim.WithEpochs(rc.p.Epochs))
	}
	if rc.obs != nil {
		opts = append(opts, htsim.WithObserver(rc.obs))
	}
	opts = append(opts, rc.p.pluginOptions()...)
	return htsim.BuildConfig(opts...)
}

// mixCount sizes the per-mix spaces of E7–E9.
func mixCount(p Params) int { return len(p.Mixes) }

// sweepCells runs the Fig 5/6 sweep over mixes [lo, hi): the one run
// function behind E7 and E8.
func sweepCells(rc runCtx, cfg core.Config, lo, hi int) ([]core.EffectCell, error) {
	return core.EffectCells(rc.ctx, cfg, rc.p.Mixes[lo:hi], rc.p.Threads, rc.p.Targets)
}

var registry = map[string]entry{
	"E1": {
		order:    1,
		title:    "Table I system configuration",
		defaults: Params{Size: 256},
		cells: oneCell(func(rc runCtx) (*results.ConfigTable, error) {
			cfg, err := simConfig(rc)
			if err != nil {
				return nil, err
			}
			return core.ConfigTableFor(cfg)
		}),
	},
	"E2": {
		order: 2,
		title: "Section III-D Trojan area/power accounting",
		cells: oneCell(func(runCtx) (*results.AreaPowerTable, error) { return core.AreaPowerTableFor(), nil }),
	},
	"E3": {
		order:    3,
		title:    "Fig 3(a): infection rate vs HT count, 64 cores",
		defaults: Params{Size: 64, HTCounts: Counts(30, 7), Trials: 50},
		cells:    trialCells("E3", "3(a)", curveTrials),
	},
	"E4": {
		order:    4,
		title:    "Fig 3(b): infection rate vs HT count, 512 cores",
		defaults: Params{Size: 512, HTCounts: Counts(60, 7), Trials: 50},
		cells:    trialCells("E4", "3(b)", curveTrials),
	},
	"E5": {
		order:    5,
		title:    "Fig 4(a): infection rate by HT distribution, HTs = size/16",
		defaults: Params{Sizes: paperSizes(), Denominator: 16, Trials: 50},
		cells:    trialCells("E5", "4(a)", distTrials),
	},
	"E6": {
		order:    6,
		title:    "Fig 4(b): infection rate by HT distribution, HTs = size/8",
		defaults: Params{Sizes: paperSizes(), Denominator: 8, Trials: 50},
		cells:    trialCells("E6", "4(b)", distTrials),
	},
	"E7": {
		order:    7,
		title:    "Fig 5: attack effect Q vs infection rate",
		defaults: Params{Size: 256, Mixes: paperMixes(), Threads: 64, Epochs: 10, Targets: paperTargets()},
		work:     "fig5-6-sweep",
		cells: simCells(mixCount, sweepCells, func(rc runCtx, cfg core.Config, cells []core.EffectCell) results.Table {
			effect, _ := core.EffectTables(cfg, rc.p.Mixes, rc.p.Threads, rc.p.Targets, cells)
			return effect
		}),
	},
	"E8": {
		order:    8,
		title:    "Fig 6: per-application performance change vs infection rate",
		defaults: Params{Size: 256, Mixes: paperMixes(), Threads: 64, Epochs: 10, Targets: paperTargets()},
		work:     "fig5-6-sweep",
		cells: simCells(mixCount, sweepCells, func(rc runCtx, cfg core.Config, cells []core.EffectCell) results.Table {
			_, apps := core.EffectTables(cfg, rc.p.Mixes, rc.p.Threads, rc.p.Targets, cells)
			return apps
		}),
	},
	"E9": {
		order:    9,
		title:    "Section V-C: optimal vs random Trojan placement",
		defaults: Params{Size: 256, Mixes: paperMixes(), Threads: 64, Epochs: 10, HTs: 16, Samples: 16},
		cells: simCells(mixCount,
			func(rc runCtx, cfg core.Config, lo, hi int) ([]results.PlacementRow, error) {
				return core.PlacementRows(rc.ctx, cfg, rc.p.Mixes[lo:hi], rc.p.Threads, rc.p.HTs, rc.p.Samples, rc.seed)
			},
			func(rc runCtx, cfg core.Config, rows []results.PlacementRow) results.Table {
				return core.PlacementTable(cfg, rc.p.Mixes, rc.p.Threads, rc.p.HTs, rc.p.Samples, rc.seed, rows)
			}),
	},
	"E10": {
		order:    10,
		title:    "Allocator ablation: Q under each budgeting algorithm",
		defaults: Params{Size: 256, Mix: "mix-1", Threads: 64, Epochs: 10, TargetInfection: 0.7},
		cells: simCells(func(Params) int { return len(budget.All()) },
			func(rc runCtx, cfg core.Config, lo, hi int) ([]results.AblationRow, error) {
				return core.AllocatorAblation(rc.ctx, cfg, rc.p.Mix, rc.p.Threads, rc.p.TargetInfection, budget.All()[lo:hi])
			},
			func(rc runCtx, cfg core.Config, rows []results.AblationRow) results.Table {
				return core.AblationTable(cfg, rc.p.Mix, rc.p.Threads, rc.p.TargetInfection, rows)
			}),
	},
	"X1": {
		order:    11,
		title:    "DoS attack-class comparison (false-data / drop / loopback)",
		defaults: Params{Size: 256, Mix: "mix-1", Threads: 64, Epochs: 10, HTs: 16},
		// One cell: the three attack modes compare against one shared
		// baseline run, which per-mode cells would each repeat.
		cells: oneCell(func(rc runCtx) (*results.VariantTable, error) {
			cfg, err := simConfig(rc)
			if err != nil {
				return nil, err
			}
			return core.VariantTableFor(rc.ctx, cfg, rc.p.Mix, rc.p.Threads, rc.p.HTs)
		}),
	},
	"X2": {
		order:    12,
		title:    "Manager-side defense study (duty-cycled attack)",
		defaults: Params{Size: 256, Mix: "mix-1", Threads: 64, Epochs: 10, HTs: 16},
		cells: simCells(func(Params) int { return len(defense.Registry.Names()) },
			func(rc runCtx, cfg core.Config, lo, hi int) ([]results.DefenseRow, error) {
				return core.DefenseRows(rc.ctx, cfg, rc.p.Mix, rc.p.Threads, rc.p.HTs, defense.Registry.Names()[lo:hi])
			},
			func(rc runCtx, cfg core.Config, rows []results.DefenseRow) results.Table {
				return core.DefenseTable(cfg, rc.p.Mix, rc.p.Threads, rc.p.HTs, rows)
			}),
	},
}

// Experiment describes one registry entry for listings.
type Experiment struct {
	ID    string
	Title string
}

// Experiments lists the registry in canonical order.
func Experiments() []Experiment {
	out := make([]Experiment, 0, len(registry))
	for id, e := range registry {
		out = append(out, Experiment{ID: id, Title: e.title})
	}
	sort.Slice(out, func(i, j int) bool {
		return registry[out[i].ID].order < registry[out[j].ID].order
	})
	return out
}

// Artifact records one experiment's serialized outputs in the manifest.
type Artifact struct {
	Experiment string `json:"experiment"`
	Title      string `json:"title"`
	// JSON and CSV are file names relative to the output directory.
	JSON string `json:"json"`
	CSV  string `json:"csv"`
	// ConfigHash echoes the table's parameter fingerprint.
	ConfigHash string `json:"config_hash"`
}

// Manifest indexes a campaign's artifacts.
type Manifest struct {
	Name string `json:"name"`
	// Seed is the effective campaign seed (the spec's, or the default 1
	// when the spec omits it) — always the seed the artifacts were
	// generated from.
	Seed    int64 `json:"seed"`
	Workers int   `json:"workers"`
	// Revision is the generating binary's VCS stamp.
	Revision  string     `json:"revision"`
	Artifacts []Artifact `json:"artifacts"`
}

// Progress receives job-granular callbacks while a campaign runs. Any
// field may be nil; the zero value reports nothing. Experiments fan out
// over a worker pool, so callbacks fire concurrently and must be safe for
// concurrent use. Callbacks observe execution only — they can never change
// results or artifacts.
type Progress struct {
	// ExperimentStarted fires when an experiment's driver begins.
	ExperimentStarted func(id string)
	// ExperimentDone fires when an experiment's driver returns, with its
	// table (nil on failure) and error.
	ExperimentDone func(id string, t results.Table, err error)
	// Epoch streams one sample per budgeting epoch of every cycle-simulated
	// campaign an experiment runs, tagged with the experiment ID. Analytic
	// experiments (E1–E6) simulate no epochs and stream nothing. E7 and E8
	// with equal overrides share one Fig 5/6 sweep, which runs once: its
	// epochs are tagged with whichever of the two comes first in the spec.
	Epoch func(id string, s core.EpochSample)
}

// observerFor wraps the Epoch callback as an experiment-tagged observer,
// or returns nil when no callback is registered.
func (p Progress) observerFor(id string) core.Observer {
	if p.Epoch == nil {
		return nil
	}
	return core.ObserverFunc(func(s core.EpochSample) { p.Epoch(id, s) })
}

// BuildTables executes a validated spec and returns the produced tables in
// spec order without writing anything — the job-granular entry point the
// simulation service runs queued campaigns through. Each experiment runs
// as one shard covering its whole cell space, through RunShard and the
// per-experiment merge MergeShards uses, so a local run and a distributed
// merge share one construction. Shards with one key run once (E7 and E8
// share the Fig 5/6 sweep). The shards fan out over the exp pool with the
// given worker count (0 = one per CPU; results are identical for any
// value); ctx cancels the whole campaign promptly; prog reports
// per-experiment lifecycle and per-epoch samples as the run progresses.
// Each returned table's metadata records the spec's declarative worker
// count, exactly as the written artifacts do.
func BuildTables(ctx context.Context, spec *Spec, workers int, prog Progress) ([]results.Table, error) {
	shards, err := PlanShards(spec, 1)
	if err != nil {
		return nil, err
	}
	groups := GroupShards(shards)
	tables := make([]results.Table, len(shards))
	_, err = exp.Run(ctx, workers, len(groups), func(ctx context.Context, g int) (struct{}, error) {
		return struct{}{}, buildGroup(ctx, spec, shards, groups[g], workers, prog, tables)
	})
	if err != nil {
		return nil, err
	}
	return tables, nil
}

// buildGroup runs the first shard of one key group and builds from its
// cells the table of every experiment in the group, into tables (indexed
// by spec position, which equals plan position in a one-shard-per-
// experiment plan).
func buildGroup(ctx context.Context, spec *Spec, shards []Shard, group []int, workers int, prog Progress, tables []results.Table) error {
	lead := shards[group[0]]
	for _, i := range group {
		if prog.ExperimentStarted != nil {
			prog.ExperimentStarted(shards[i].Experiment.ID)
		}
	}
	// One span per run; a context without a trace makes this (and every
	// span call below it) a free no-op.
	ectx, span := obs.StartSpan(ctx, "experiment")
	span.SetAttr("experiment", lead.Experiment.ID)
	defer span.End()
	r, err := RunShard(ectx, lead, workers, prog.observerFor(lead.Experiment.ID))
	var firstErr error
	for _, i := range group {
		sh := shards[i]
		var t results.Table
		terr := err
		if terr == nil {
			t, terr = mergeExperiment(ectx, spec, i, sh.Experiment, []ShardResult{{Shard: sh, Cells: r.Cells}})
		}
		if terr == nil {
			// The table records the spec's declarative worker count, never
			// the execution pool size — byte-identity across -parallel
			// values depends on it.
			t.TableMeta().Workers = spec.Workers
			tables[i] = t
		} else if firstErr == nil {
			firstErr = terr
		}
		if prog.ExperimentDone != nil {
			prog.ExperimentDone(sh.Experiment.ID, t, terr)
		}
	}
	span.RecordError(firstErr)
	return firstErr
}

// Run executes a validated spec: experiments fan out over the exp pool
// with the given worker count (0 = one per CPU; results are identical for
// any value), artifacts are written to outDir in spec order, and the
// manifest is written as manifest.json. The produced tables are returned
// in spec order for printing.
//
// The campaign stops promptly when ctx is cancelled (no artifacts are
// written for a cancelled run), and prog receives the same job-granular
// events BuildTables reports.
//
// The experiment-level fan-out nests pools: each driver also parallelises
// its own trials over the same worker count. The oversubscription is
// deliberate — trials are independent CPU-bound loops the Go scheduler
// time-slices well, and the alternative (splitting the budget) starves
// whichever level happens to carry the work in a given spec.
func Run(ctx context.Context, spec *Spec, outDir string, workers int, prog Progress) (*Manifest, []results.Table, error) {
	tables, err := BuildTables(ctx, spec, workers, prog)
	if err != nil {
		return nil, nil, err
	}
	man := &Manifest{
		Name:     spec.Name,
		Seed:     spec.seedFor(Params{}),
		Workers:  spec.Workers,
		Revision: results.Revision(),
	}
	for _, t := range tables {
		jsonPath, csvPath, err := results.WriteArtifact(outDir, t)
		if err != nil {
			return nil, nil, fmt.Errorf("campaign: write %s: %w", t.TableMeta().Experiment, err)
		}
		man.Artifacts = append(man.Artifacts, Artifact{
			Experiment: t.TableMeta().Experiment,
			Title:      t.TableMeta().Title,
			JSON:       filepath.Base(jsonPath),
			CSV:        filepath.Base(csvPath),
			ConfigHash: t.TableMeta().ConfigHash,
		})
	}
	if err := writeManifest(filepath.Join(outDir, "manifest.json"), man); err != nil {
		return nil, nil, err
	}
	return man, tables, nil
}

// writeManifest serializes the campaign manifest.
func writeManifest(path string, man *Manifest) error {
	b, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return fmt.Errorf("campaign: manifest: %w", err)
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
