package campaign

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/obs"
	"repro/internal/results"
	"repro/pkg/htsim"
)

// This file maps experiment IDs to their core table drivers and runs a
// validated spec: experiments fan out over the internal/exp pool and each
// produces one typed results table.

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
	// effects memoizes the Fig 5/6 sweep shared by E7 and E8.
	effects *effectCache
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
	// run executes the experiment.
	run func(rc runCtx) (results.Table, error)
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

// effectCache memoizes core.EffectTables per resolved parameter set, so a
// spec naming both E7 and E8 runs the expensive Fig 5/6 sweep once even
// when the two experiments execute concurrently.
type effectCache struct {
	mu sync.Mutex
	m  map[string]*effectPair
}

// effectPair is one memoized sweep.
type effectPair struct {
	once   sync.Once
	effect *results.EffectTable
	apps   *results.AppEffectTable
	err    error
}

// tables returns the memoized sweep for the given resolved parameters,
// running it on first use.
func (c *effectCache) tables(rc runCtx) (*results.EffectTable, *results.AppEffectTable, error) {
	key := results.HashConfig(struct {
		Size      int       `json:"size"`
		Mixes     []string  `json:"mixes"`
		Threads   int       `json:"threads"`
		Epochs    int       `json:"epochs"`
		Targets   []float64 `json:"targets"`
		Mem       bool      `json:"mem"`
		Seed      int64     `json:"seed"`
		Topology  string    `json:"topology"`
		Routing   string    `json:"routing"`
		Allocator string    `json:"allocator"`
		Defense   string    `json:"defense"`
	}{rc.p.Size, rc.p.Mixes, rc.p.Threads, rc.p.Epochs, rc.p.Targets, rc.p.Mem != nil && *rc.p.Mem, rc.seed,
		rc.p.Topology, rc.p.Routing, rc.p.Allocator, rc.p.Defense})
	c.mu.Lock()
	if c.m == nil {
		c.m = make(map[string]*effectPair)
	}
	pair := c.m[key]
	if pair == nil {
		pair = &effectPair{}
		c.m[key] = pair
	}
	c.mu.Unlock()
	pair.once.Do(func() {
		cfg, err := simConfig(rc)
		if err != nil {
			pair.err = err
			return
		}
		pair.effect, pair.apps, pair.err = core.EffectTables(rc.ctx, cfg, rc.p.Mixes, rc.p.Threads, rc.p.Targets)
	})
	return pair.effect, pair.apps, pair.err
}

var registry = map[string]entry{
	"E1": {
		order:    1,
		title:    "Table I system configuration",
		defaults: Params{Size: 256},
		run: func(rc runCtx) (results.Table, error) {
			cfg, err := simConfig(rc)
			if err != nil {
				return nil, err
			}
			return core.ConfigTableFor(cfg)
		},
	},
	"E2": {
		order: 2,
		title: "Section III-D Trojan area/power accounting",
		run: func(rc runCtx) (results.Table, error) {
			return core.AreaPowerTableFor(), nil
		},
	},
	"E3": {
		order:    3,
		title:    "Fig 3(a): infection rate vs HT count, 64 cores",
		defaults: Params{Size: 64, HTCounts: Counts(30, 7), Trials: 50},
		// Routed through the shard hooks (whole space as one shard) so the
		// local path and the distributed merge share one construction.
		run: func(rc runCtx) (results.Table, error) { return runWholeShard("E3", rc) },
	},
	"E4": {
		order:    4,
		title:    "Fig 3(b): infection rate vs HT count, 512 cores",
		defaults: Params{Size: 512, HTCounts: Counts(60, 7), Trials: 50},
		run:      func(rc runCtx) (results.Table, error) { return runWholeShard("E4", rc) },
	},
	"E5": {
		order:    5,
		title:    "Fig 4(a): infection rate by HT distribution, HTs = size/16",
		defaults: Params{Sizes: paperSizes(), Denominator: 16, Trials: 50},
		run:      func(rc runCtx) (results.Table, error) { return runWholeShard("E5", rc) },
	},
	"E6": {
		order:    6,
		title:    "Fig 4(b): infection rate by HT distribution, HTs = size/8",
		defaults: Params{Sizes: paperSizes(), Denominator: 8, Trials: 50},
		run:      func(rc runCtx) (results.Table, error) { return runWholeShard("E6", rc) },
	},
	"E7": {
		order:    7,
		title:    "Fig 5: attack effect Q vs infection rate",
		defaults: Params{Size: 256, Mixes: paperMixes(), Threads: 64, Epochs: 10, Targets: paperTargets()},
		run: func(rc runCtx) (results.Table, error) {
			effect, _, err := rc.effects.tables(rc)
			if err != nil {
				return nil, err
			}
			return effect, nil
		},
	},
	"E8": {
		order:    8,
		title:    "Fig 6: per-application performance change vs infection rate",
		defaults: Params{Size: 256, Mixes: paperMixes(), Threads: 64, Epochs: 10, Targets: paperTargets()},
		run: func(rc runCtx) (results.Table, error) {
			_, apps, err := rc.effects.tables(rc)
			if err != nil {
				return nil, err
			}
			return apps, nil
		},
	},
	"E9": {
		order:    9,
		title:    "Section V-C: optimal vs random Trojan placement",
		defaults: Params{Size: 256, Mixes: paperMixes(), Threads: 64, Epochs: 10, HTs: 16, Samples: 16},
		run: func(rc runCtx) (results.Table, error) {
			cfg, err := simConfig(rc)
			if err != nil {
				return nil, err
			}
			return core.PlacementTableFor(rc.ctx, cfg, rc.p.Mixes, rc.p.Threads, rc.p.HTs, rc.p.Samples, rc.seed)
		},
	},
	"E10": {
		order:    10,
		title:    "Allocator ablation: Q under each budgeting algorithm",
		defaults: Params{Size: 256, Mix: "mix-1", Threads: 64, Epochs: 10, TargetInfection: 0.7},
		run: func(rc runCtx) (results.Table, error) {
			cfg, err := simConfig(rc)
			if err != nil {
				return nil, err
			}
			return core.AblationTableFor(rc.ctx, cfg, rc.p.Mix, rc.p.Threads, rc.p.TargetInfection)
		},
	},
	"X1": {
		order:    11,
		title:    "DoS attack-class comparison (false-data / drop / loopback)",
		defaults: Params{Size: 256, Mix: "mix-1", Threads: 64, Epochs: 10, HTs: 16},
		run: func(rc runCtx) (results.Table, error) {
			cfg, err := simConfig(rc)
			if err != nil {
				return nil, err
			}
			return core.VariantTableFor(rc.ctx, cfg, rc.p.Mix, rc.p.Threads, rc.p.HTs)
		},
	},
	"X2": {
		order:    12,
		title:    "Manager-side defense study (duty-cycled attack)",
		defaults: Params{Size: 256, Mix: "mix-1", Threads: 64, Epochs: 10, HTs: 16},
		run: func(rc runCtx) (results.Table, error) {
			cfg, err := simConfig(rc)
			if err != nil {
				return nil, err
			}
			return core.DefenseTableFor(rc.ctx, cfg, rc.p.Mix, rc.p.Threads, rc.p.HTs)
		},
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
	// experiments (E1–E6) simulate no epochs and stream nothing. The E7/E8
	// sweep is shared: its epochs are tagged with whichever of the two
	// experiments claimed the memoized sweep first.
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
// simulation service runs queued campaigns through. Experiments fan out
// over the exp pool with the given worker count (0 = one per CPU; results
// are identical for any value); ctx cancels the whole campaign promptly;
// prog reports per-experiment lifecycle and per-epoch samples as the run
// progresses. Each returned table's metadata records the spec's
// declarative worker count, exactly as the written artifacts do.
func BuildTables(ctx context.Context, spec *Spec, workers int, prog Progress) ([]results.Table, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	effects := &effectCache{}
	return exp.Run(ctx, workers, len(spec.Experiments), func(ctx context.Context, i int) (results.Table, error) {
		e := spec.Experiments[i]
		ent := registry[e.ID]
		p := merge(ent.defaults, e.Params)
		if prog.ExperimentStarted != nil {
			prog.ExperimentStarted(e.ID)
		}
		// One span per experiment; a context without a trace makes this
		// (and every span call below it) a free no-op.
		ectx, span := obs.StartSpan(ctx, "experiment")
		span.SetAttr("experiment", e.ID)
		t, err := ent.run(runCtx{
			ctx:     ectx,
			p:       p,
			seed:    spec.seedFor(p),
			workers: workers,
			obs:     prog.observerFor(e.ID),
			effects: effects,
		})
		span.RecordError(err)
		span.End()
		if prog.ExperimentDone != nil {
			prog.ExperimentDone(e.ID, t, err)
		}
		if err != nil {
			return nil, fmt.Errorf("campaign: %s: %w", e.ID, err)
		}
		// The table records the spec's declarative worker count, never the
		// execution pool size — byte-identity across -parallel values
		// depends on it.
		t.TableMeta().Workers = spec.Workers
		return t, nil
	})
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
