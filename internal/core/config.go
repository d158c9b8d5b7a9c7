// Package core assembles the full chip model — tiled many-core, NoC, cache
// hierarchy, DVFS power budgeting, and implanted hardware Trojans — and
// runs epoch-driven attack campaigns that produce the paper's measurements
// (θ, Θ, Q, infection rate). It is the public façade the examples, command
// line tools, and benchmarks build on.
package core

import (
	"errors"
	"fmt"

	"repro/internal/budget"
	"repro/internal/defense"
	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/power"
)

// GMPlacement selects where the global manager core sits.
type GMPlacement int

// Manager placements studied in Fig 3.
const (
	// GMCenter puts the manager at the mesh center (default).
	GMCenter GMPlacement = iota + 1
	// GMCorner puts the manager at the (0,0) corner.
	GMCorner
)

// Config describes one simulated chip. The zero value is not usable;
// start from DefaultConfig.
type Config struct {
	// Cores is the number of tiles (Table I: 256).
	Cores int
	// Topology names the registered network topology the cores are laid
	// out on ("mesh", "torus"); empty selects the paper's 2D mesh. A
	// wraparound topology needs a wrap-aware routing algorithm (for
	// example noc.TorusRouting) to actually use its extra links.
	Topology string
	// NoC is the on-chip network configuration (Table I defaults).
	NoC noc.Config
	// Mem is the cache-hierarchy configuration (Table I defaults).
	Mem mem.Config
	// MemTraffic enables the cache-driven background traffic substrate.
	// Disabling it runs budget-protocol-only simulations (much faster; the
	// infection experiments of Fig 3/4 do not need memory traffic).
	MemTraffic bool
	// Power is the per-core DVFS/power model.
	Power *power.Model
	// BudgetFraction sets the chip budget as a fraction of the sum of
	// all cores' peak power. The paper's premise is that this is < 1.
	BudgetFraction float64
	// Allocator is the global manager's allocation algorithm.
	Allocator budget.Allocator
	// Filter is an optional manager-side request-integrity defense (see
	// the defense package); nil disables filtering.
	Filter budget.RequestFilter
	// DualPathRequests enables route-diverse request verification: every
	// core sends its power request twice, over XY and YX routing classes,
	// and the manager's voter compares the copies (defense package). When
	// set and NoC.AltRouting is nil, NewSystem installs YX automatically.
	DualPathRequests bool
	// GM selects the manager's position (Fig 3 compares center vs corner).
	GM GMPlacement
	// EpochCycles is the power-budgeting epoch length in NoC cycles.
	EpochCycles uint64
	// Epochs is the number of budgeting epochs simulated.
	Epochs int
	// WarmupEpochs are excluded from performance accounting.
	WarmupEpochs int
	// BaselineMemLatencyNs seeds the IPC model before the first measured
	// epoch (and is used throughout when MemTraffic is off).
	BaselineMemLatencyNs float64
	// Seed drives every random stream in the simulation.
	Seed int64
	// Workers caps the worker pool used by the fan-out experiment drivers
	// (OptimalVsRandom, DoSVariantStudy, DefenseStudy) and by the paired
	// attacked/baseline runs of RunPairContext. Zero or negative means one
	// worker per available CPU; 1 forces sequential execution. Results are
	// bit-identical for every setting — trials derive their random streams
	// from (Seed, trial index), never from a shared RNG.
	Workers int
	// Observer, when non-nil, is the configuration owner's streaming hook:
	// every attacked campaign built from this configuration feeds it one
	// EpochSample per budgeting epoch, in addition to any observer passed
	// to RunContext directly. The clean baseline of RunPairContext stays
	// silent, matching the per-run observer contract. Experiment drivers
	// may run many campaigns concurrently over one configuration, so the
	// observer must be safe for concurrent use; samples never influence
	// results.
	Observer Observer
}

// DefaultConfig returns the Table I configuration: 256 cores on a 16×16
// mesh, 4-VC XY-routed NoC, MESI L1/L2, and a 50 % chip power budget under
// proportional fair-share allocation.
func DefaultConfig() Config {
	return Config{
		Cores:                256,
		NoC:                  noc.DefaultConfig(),
		Mem:                  mem.DefaultConfig(),
		MemTraffic:           true,
		Power:                power.DefaultModel(),
		BudgetFraction:       0.5,
		Allocator:            budget.FairShare{},
		GM:                   GMCenter,
		EpochCycles:          1000,
		Epochs:               10,
		WarmupEpochs:         2,
		BaselineMemLatencyNs: 60,
		Seed:                 1,
	}
}

// SetDefense installs the registered defense configuration name (see the
// defense package): its request filter, built over the power model's
// milliwatt level table, and its dual-path switch, replacing whatever
// Filter and DualPathRequests held.
func (c *Config) SetDefense(name string) error {
	d, err := defense.ByName(name)
	if err != nil {
		return err
	}
	c.Filter, c.DualPathRequests = nil, d.DualPath
	if d.Filter != nil {
		c.Filter, err = d.Filter(c.Power.LevelsMW())
	}
	return err
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Cores < 2 {
		return errors.New("core: need at least two cores")
	}
	if c.Topology != "" {
		if _, err := noc.TopologyByName(c.Topology); err != nil {
			return fmt.Errorf("core: %w", err)
		}
	}
	if err := c.NoC.Validate(); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if err := c.Mem.Validate(); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if c.Power == nil {
		return errors.New("core: need a power model")
	}
	if err := c.Power.Validate(); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if c.BudgetFraction <= 0 || c.BudgetFraction > 1 {
		return errors.New("core: budget fraction must be in (0, 1]")
	}
	if c.Allocator == nil {
		return errors.New("core: need an allocator")
	}
	if c.GM != GMCenter && c.GM != GMCorner {
		return errors.New("core: invalid manager placement")
	}
	if c.EpochCycles < 100 {
		return errors.New("core: epoch must be at least 100 cycles")
	}
	if c.Epochs < 1 || c.WarmupEpochs < 0 || c.WarmupEpochs >= c.Epochs {
		return errors.New("core: need at least one measured epoch")
	}
	if c.BaselineMemLatencyNs <= 0 {
		return errors.New("core: baseline memory latency must be positive")
	}
	return nil
}

// Mesh returns the topology for the configured core count, resolving the
// Topology name through the noc topology registry (empty means "mesh").
func (c Config) Mesh() (noc.Mesh, error) {
	name := c.Topology
	if name == "" {
		name = "mesh"
	}
	build, err := noc.TopologyByName(name)
	if err != nil {
		return noc.Mesh{}, err
	}
	return build(c.Cores)
}

// ManagerNode returns the manager's node ID for the configured placement.
func (c Config) ManagerNode(m noc.Mesh) noc.NodeID {
	if c.GM == GMCorner {
		return m.Corner()
	}
	return m.Center()
}

// ChipBudgetMW returns the total chip power budget in milliwatts.
func (c Config) ChipBudgetMW() uint64 {
	return uint64(float64(c.Cores) * c.Power.MaxPower() * 1000 * c.BudgetFraction)
}
