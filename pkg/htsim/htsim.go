package htsim

import (
	"context"
	"math/rand"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/noc"
	"repro/internal/trojan"
	"repro/internal/workload"
)

// Aliases re-export the simulation vocabulary so SDK consumers program
// against one package. They are true aliases: values flow freely between
// the SDK and the lower layers.
type (
	// Scenario describes one attack campaign (applications, Trojans,
	// strategy, attack mode, duty cycle).
	Scenario = core.Scenario
	// AppSpec is one application in a scenario.
	AppSpec = core.AppSpec
	// Report is the end-of-run outcome of one campaign.
	Report = core.Report
	// Comparison is the attacked-vs-baseline evaluation (Θ per app, Q).
	Comparison = core.Comparison
	// Observer receives streaming per-epoch samples during a run.
	Observer = core.Observer
	// ObserverFunc adapts a plain function to Observer — the idiom service
	// bridges use to forward samples into an event stream.
	ObserverFunc = core.ObserverFunc
	// EpochSample is one typed streaming observation.
	EpochSample = core.EpochSample
	// Placement is a set of infected routers.
	Placement = attack.Placement
	// Config is the fully resolved chip configuration behind a Sim.
	Config = core.Config
)

// Application roles, re-exported for scenario literals.
const (
	// RoleNeutral marks bystander applications.
	RoleNeutral = core.RoleNeutral
	// RoleAttacker marks the hacker's applications.
	RoleAttacker = core.RoleAttacker
	// RoleVictim marks the applications the attack targets.
	RoleVictim = core.RoleVictim
)

// Sim is a configured chip ready to run scenarios. One Sim evaluates any
// number of scenarios; each run builds fresh simulation state.
type Sim struct {
	sys *core.System
}

// New assembles a simulation from functional options over the Table I
// defaults: 256 cores on a 2D mesh, XY routing, fair-share allocation, a
// 50 % chip budget, no defense. Unknown plugin names and invalid
// combinations are rejected here, with the registry's canonical error
// naming every known plugin.
func New(opts ...Option) (*Sim, error) {
	s, err := resolve(opts)
	if err != nil {
		return nil, err
	}
	sys, err := core.NewSystem(s.cfg)
	if err != nil {
		return nil, err
	}
	return &Sim{sys: sys}, nil
}

// Run executes one campaign. The context cancels the simulation promptly
// (mid-epoch included); registered observers (WithObserver, carried on
// the configuration) stream one EpochSample per budgeting epoch while it
// runs.
func (s *Sim) Run(ctx context.Context, sc Scenario) (*Report, error) {
	return s.sys.RunContext(ctx, sc, nil)
}

// RunPair executes the scenario and its clean baseline under identical
// configuration and seeds, returning (attacked, baseline). The pair fans
// out over the worker pool; cancellation aborts both. Observers stream
// the attacked run.
func (s *Sim) RunPair(ctx context.Context, sc Scenario) (*Report, *Report, error) {
	return s.sys.RunPairContext(ctx, sc, nil)
}

// Config returns the resolved chip configuration.
func (s *Sim) Config() Config { return s.sys.Config() }

// Mesh returns the chip's topology.
func (s *Sim) Mesh() noc.Mesh { return s.sys.Mesh() }

// ManagerNode returns the global manager's node.
func (s *Sim) ManagerNode() noc.NodeID { return s.sys.ManagerNode() }

// System exposes the underlying chip model for callers that need the
// internal API (experiment drivers, analytic helpers).
func (s *Sim) System() *core.System { return s.sys }

// Trojans builds a Trojan placement with a registered placement generator
// (see Placements: "center", "corner", "random", "ring"), sized to count
// routers and excluding the global manager. seed drives the generator's
// random stream; deterministic generators ignore it.
func (s *Sim) Trojans(placement string, count int, seed int64) (Placement, error) {
	gen, err := attack.PlacementByName(placement)
	if err != nil {
		return Placement{}, err
	}
	return gen(s.sys.Mesh(), s.sys.ManagerNode(), count, rand.New(exp.NewSource(seed)))
}

// TrojansForInfection builds the smallest placement predicted to reach
// the target infection rate at the configured manager position, returning
// the placement and its predicted rate — the Fig 5 x-axis workflow.
func (s *Sim) TrojansForInfection(target float64) (Placement, float64) {
	mesh := s.sys.Mesh()
	return attack.ForInfectionRate(mesh, s.sys.ManagerNode(), target, mesh.Nodes()/4)
}

// MixScenario builds the standard campaign for a registered workload mix
// (see Mixes): every application gets threads cores, attackers placed
// first.
func MixScenario(mixName string, threads int) (Scenario, error) {
	mix, err := workload.MixByName(mixName)
	if err != nil {
		return Scenario{}, err
	}
	return core.MixScenario(mix, threads)
}

// Strategy returns a registered Trojan payload strategy by name (see
// TrojanStrategies), for Scenario.Strategy.
func Strategy(name string) (trojan.Strategy, error) { return trojan.StrategyByName(name) }

// AttackMode returns a registered Section II-B attack class by name (see
// AttackModes), for Scenario.Mode.
func AttackMode(name string) (trojan.Mode, error) { return trojan.ModeByName(name) }

// Compare evaluates an attacked run against its clean baseline,
// producing per-application Θ and the attack effect Q.
func Compare(attacked, baseline *Report) (*Comparison, error) {
	return core.Compare(attacked, baseline)
}
