package htsim

import (
	"fmt"

	"repro/internal/budget"
	"repro/internal/core"
	"repro/internal/defense"
	"repro/internal/noc"
)

// settings accumulates option effects before they are resolved into a
// validated core configuration.
type settings struct {
	cfg core.Config
	// defenseName defers defense resolution until the power model is
	// final (the range guard derives its window from the DVFS table).
	defenseName string
	// routingSet notes an explicit WithRouting, so WithTopology("torus")
	// only auto-selects torus routing when the caller expressed no
	// preference.
	routingSet bool
	observers  []Observer
}

// Option configures one aspect of a simulation under construction. Apply
// order is the argument order; later options win on conflicts.
type Option func(*settings) error

// WithCores sets the number of tiles (default 256, the Table I chip).
func WithCores(n int) Option {
	return func(s *settings) error {
		s.cfg.Cores = n
		return nil
	}
}

// WithTopology selects a registered topology by name (see Topologies;
// "mesh" and "torus" are built in). Choosing a wraparound topology
// auto-selects the matching deadlock-free routing algorithm ("torus-xy")
// unless WithRouting picked one explicitly.
func WithTopology(name string) Option {
	return func(s *settings) error {
		canonical, err := noc.Topologies.Canonical(name)
		if err != nil {
			return err
		}
		s.cfg.Topology = canonical
		return nil
	}
}

// WithRouting selects a registered routing algorithm by name (see
// Routings; default "xy").
func WithRouting(name string) Option {
	return func(s *settings) error {
		r, err := noc.RoutingByName(name)
		if err != nil {
			return err
		}
		s.cfg.NoC.Routing = r
		s.routingSet = true
		return nil
	}
}

// WithAllocator selects a registered budget allocator by name (see
// Allocators; default "fair").
func WithAllocator(name string) Option {
	return func(s *settings) error {
		a, err := budget.ByName(name)
		if err != nil {
			return err
		}
		s.cfg.Allocator = a
		return nil
	}
}

// WithDefense selects a registered manager-side defense configuration by
// name (see Defenses; default "none"). The configuration may install a
// request filter, enable dual-path request verification, or both; either
// way it replaces the filter and dual-path switch the configuration held
// (core.Config.SetDefense).
func WithDefense(name string) Option {
	return func(s *settings) error {
		if _, err := defense.ByName(name); err != nil {
			return err
		}
		s.defenseName = name
		return nil
	}
}

// WithGMPlacement puts the global manager at "center" (default) or
// "corner" — the two placements of Fig 3.
func WithGMPlacement(pos string) Option {
	return func(s *settings) error {
		switch pos {
		case "center":
			s.cfg.GM = core.GMCenter
		case "corner":
			s.cfg.GM = core.GMCorner
		default:
			return fmt.Errorf("htsim: unknown manager placement %q (known: center, corner)", pos)
		}
		return nil
	}
}

// WithBudgetFraction sets the chip power budget as a fraction of summed
// peak power (default 0.5).
func WithBudgetFraction(f float64) Option {
	return func(s *settings) error {
		s.cfg.BudgetFraction = f
		return nil
	}
}

// WithEpochs sets the number of budgeting epochs simulated (default 10).
func WithEpochs(n int) Option {
	return func(s *settings) error {
		s.cfg.Epochs = n
		return nil
	}
}

// WithWarmupEpochs sets how many leading epochs are excluded from
// performance accounting (default 2).
func WithWarmupEpochs(n int) Option {
	return func(s *settings) error {
		s.cfg.WarmupEpochs = n
		return nil
	}
}

// WithEpochCycles sets the budgeting epoch length in NoC cycles
// (default 1000).
func WithEpochCycles(c uint64) Option {
	return func(s *settings) error {
		s.cfg.EpochCycles = c
		return nil
	}
}

// WithMemTraffic enables or disables the cache-driven background traffic
// substrate (default on, matching the paper's full-system runs; disable
// it for fast budget-protocol-only studies).
func WithMemTraffic(on bool) Option {
	return func(s *settings) error {
		s.cfg.MemTraffic = on
		return nil
	}
}

// WithSeed sets the seed driving every random stream (default 1).
func WithSeed(seed int64) Option {
	return func(s *settings) error {
		s.cfg.Seed = seed
		return nil
	}
}

// WithWorkers caps the worker pool for fan-out runs (0 = one per CPU;
// 1 = sequential; results are bit-identical for every setting).
func WithWorkers(n int) Option {
	return func(s *settings) error {
		s.cfg.Workers = n
		return nil
	}
}

// WithObserver registers a streaming observer; every Run and RunPair of
// the simulation feeds it one EpochSample per budgeting epoch. Repeat the
// option to register several observers.
func WithObserver(obs Observer) Option {
	return func(s *settings) error {
		if obs == nil {
			return fmt.Errorf("htsim: nil observer")
		}
		s.observers = append(s.observers, obs)
		return nil
	}
}

// WithConfig replaces the whole underlying configuration, for callers
// migrating from the internal API or needing a knob no option covers yet.
// Options after it still apply on top.
func WithConfig(cfg core.Config) Option {
	return func(s *settings) error {
		s.cfg = cfg
		s.routingSet = true
		return nil
	}
}

// resolve applies the options onto the defaults and finalises the
// configuration (torus auto-routing, named defense installation,
// observer installation).
func resolve(opts []Option) (*settings, error) {
	s := &settings{cfg: core.DefaultConfig()}
	for _, opt := range opts {
		if err := opt(s); err != nil {
			return nil, err
		}
	}
	if s.cfg.Topology == "torus" && !s.routingSet {
		s.cfg.NoC.Routing = noc.TorusRouting{}
	}
	// Observers ride on the configuration itself (Config.Observer), so a
	// config assembled through BuildConfig streams exactly like a Sim
	// built through New — the campaign engine and the simulation service
	// rely on this to bridge per-epoch samples out of deeply nested
	// experiment drivers.
	if len(s.observers) > 0 {
		merged := make(core.MultiObserver, 0, len(s.observers)+1)
		if s.cfg.Observer != nil {
			merged = append(merged, s.cfg.Observer)
		}
		merged = append(merged, s.observers...)
		s.cfg.Observer = merged
	}
	if s.defenseName != "" {
		if err := s.cfg.SetDefense(s.defenseName); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// BuildConfig resolves options into a validated configuration without
// constructing a simulation — the hook the campaign engine and CLIs use
// so every config in the tree is assembled through one code path.
func BuildConfig(opts ...Option) (core.Config, error) {
	s, err := resolve(opts)
	if err != nil {
		return core.Config{}, err
	}
	if err := s.cfg.Validate(); err != nil {
		return core.Config{}, err
	}
	return s.cfg, nil
}
