package htsim

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"

	"repro/internal/attack"
	"repro/internal/core"
)

// Request is one attacked-versus-clean campaign, named field by field:
// the POST /v1/sims body of the simulation service and what the htsim
// command's flags fill. Every plugin field names a registered plugin
// (Axes enumerates them); Normalize fills zero fields with the Table I
// defaults listed per field.
type Request struct {
	// Cores is the system size (default 256).
	Cores int `json:"cores,omitempty"`
	// Topology, Routing, Allocator, and Defense name registered plugins
	// (defaults: mesh, per-topology routing, fair, none).
	Topology  string `json:"topology,omitempty"`
	Routing   string `json:"routing,omitempty"`
	Allocator string `json:"allocator,omitempty"`
	Defense   string `json:"defense,omitempty"`
	// GM places the global manager: "center" (default) or "corner".
	GM string `json:"gm,omitempty"`
	// Mix and Threads shape the workload (defaults mix-1, 64).
	Mix     string `json:"mix,omitempty"`
	Threads int    `json:"threads,omitempty"`
	// HTs and Placement size and place the Trojan fleet (defaults 16,
	// random); Infection, when set, overrides them with the smallest
	// placement predicted to reach the target rate.
	HTs       int      `json:"hts,omitempty"`
	Placement string   `json:"placement,omitempty"`
	Infection *float64 `json:"infection,omitempty"`
	// Strategy and Mode select the Trojan payload and attack class
	// (defaults scale, false-data).
	Strategy string `json:"strategy,omitempty"`
	Mode     string `json:"mode,omitempty"`
	// Epochs and EpochCycles shape the budgeting timeline (defaults 10,
	// 1000).
	Epochs      int    `json:"epochs,omitempty"`
	EpochCycles uint64 `json:"epoch_cycles,omitempty"`
	// Mem enables cache-hierarchy background traffic (default off).
	Mem bool `json:"mem,omitempty"`
	// Seed drives every random stream (default 1).
	Seed int64 `json:"seed,omitempty"`
	// Workers caps the run's worker pool (default one per CPU).
	Workers int `json:"workers,omitempty"`
}

// ParseRequest decodes a JSON request, rejecting unknown fields, then
// normalises and validates it.
func ParseRequest(body []byte) (*Request, error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var r Request
	if err := dec.Decode(&r); err != nil {
		return nil, fmt.Errorf("parse sim request: %w", err)
	}
	r.Normalize()
	if err := r.Validate(); err != nil {
		return nil, err
	}
	return &r, nil
}

// Normalize fills every defaulted field in place, so result-equivalent
// requests coincide ({} and {"threads":64,"cores":256} encode
// identically). It is the one statement of the request's defaults; the
// htsim command takes its flag defaults from a normalised zero Request.
// Routing stays empty: "" selects the topology's routing and is its
// canonical form. HTs stays 0 under an Infection target, which replaces
// the placement.
func (r *Request) Normalize() {
	if r.Cores == 0 {
		r.Cores = 256
	}
	if r.Topology == "" {
		r.Topology = "mesh"
	}
	if r.Allocator == "" {
		r.Allocator = "fair"
	}
	if r.Defense == "" {
		r.Defense = "none"
	}
	if r.Mix == "" {
		r.Mix = "mix-1"
	}
	if r.Threads == 0 {
		r.Threads = 64
	}
	if r.HTs == 0 && r.Infection == nil {
		r.HTs = 16
	}
	if r.Placement == "" {
		r.Placement = "random"
	}
	if r.Strategy == "" {
		r.Strategy = "scale"
	}
	if r.Mode == "" {
		r.Mode = "false-data"
	}
	if r.GM == "" {
		r.GM = "center"
	}
	if r.Epochs == 0 {
		r.Epochs = 10
	}
	if r.EpochCycles == 0 {
		r.EpochCycles = 1000
	}
	if r.Seed == 0 {
		r.Seed = 1
	}
}

// Validate checks the request as it stands, without running it: the
// scalar ranges, then every named plugin and the configuration they
// build, so a bad request fails with the registry's canonical error, and
// last that the apps and the Trojans fit the chip. The placement is
// checked only without an Infection target, which replaces it.
func (r *Request) Validate() error {
	if err := r.checkRanges(); err != nil {
		return err
	}
	cfg, err := BuildConfig(r.options()...)
	if err != nil {
		return err
	}
	if r.Infection == nil {
		if _, err := attack.PlacementByName(r.Placement); err != nil {
			return err
		}
	}
	sc, err := r.scenario()
	if err != nil {
		return err
	}
	return r.checkFit(cfg, sc.Apps)
}

// checkFit applies a run's fit rules to the chip cfg describes: the apps
// fill the nodes besides the manager's in order, clipping the last ones,
// and every placement generator excludes the manager's router.
func (r *Request) checkFit(cfg core.Config, apps []AppSpec) error {
	mesh, err := cfg.Mesh()
	if err != nil {
		return err
	}
	free, used := mesh.Nodes()-1, 0
	for _, app := range apps {
		if used >= free {
			return fmt.Errorf("no cores left for app %s: the apps before it take all %d cores besides the manager's", app.Name, free)
		}
		used += app.Threads
	}
	if r.Infection == nil && r.HTs > free {
		return fmt.Errorf("%d Trojans exceed %d eligible nodes (every node but the manager's)", r.HTs, free)
	}
	return nil
}

// checkRanges rejects the scalars no configuration check covers.
func (r *Request) checkRanges() error {
	if r.Infection != nil && (*r.Infection < 0 || *r.Infection >= 1) {
		return fmt.Errorf("target infection %g outside [0, 1)", *r.Infection)
	}
	if r.Threads < 0 || r.HTs < 0 || r.Workers < 0 {
		return fmt.Errorf("negative parameter")
	}
	return nil
}

// options translates the request into SDK options.
func (r *Request) options() []Option {
	opts := []Option{
		WithCores(r.Cores),
		WithTopology(r.Topology),
		WithAllocator(r.Allocator),
		WithDefense(r.Defense),
		WithGMPlacement(r.GM),
		WithEpochs(r.Epochs),
		WithEpochCycles(r.EpochCycles),
		WithMemTraffic(r.Mem),
		WithSeed(r.Seed),
		WithWorkers(r.Workers),
	}
	if r.Routing != "" {
		opts = append(opts, WithRouting(r.Routing))
	}
	return opts
}

// scenario builds the request's mix with its payload strategy and attack
// mode, without Trojans.
func (r *Request) scenario() (Scenario, error) {
	sc, err := MixScenario(r.Mix, r.Threads)
	if err != nil {
		return Scenario{}, err
	}
	if sc.Strategy, err = Strategy(r.Strategy); err != nil {
		return Scenario{}, err
	}
	if sc.Mode, err = AttackMode(r.Mode); err != nil {
		return Scenario{}, err
	}
	return sc, nil
}

// Prepare checks the request and builds its simulation and scenario,
// Trojans placed, without running them. opts apply after the request's
// own options, so they win on conflicts (an observer, a worker budget).
// Under an Infection target, predicted is the placement's predicted
// infection rate; otherwise it is 0.
func (r *Request) Prepare(opts ...Option) (sim *Sim, sc Scenario, predicted float64, err error) {
	if err := r.checkRanges(); err != nil {
		return nil, Scenario{}, 0, err
	}
	if sim, err = New(append(r.options(), opts...)...); err != nil {
		return nil, Scenario{}, 0, err
	}
	if sc, err = r.scenario(); err != nil {
		return nil, Scenario{}, 0, err
	}
	switch {
	case r.Infection != nil:
		sc.Trojans, predicted = sim.TrojansForInfection(*r.Infection)
	case r.HTs > 0:
		if sc.Trojans, err = sim.Trojans(r.Placement, r.HTs, r.Seed); err != nil {
			return nil, Scenario{}, 0, err
		}
	}
	return sim, sc, predicted, nil
}

// Run prepares the request and runs its scenario beside the clean
// baseline under identical seeds, returning the simulation, the attacked
// report and its comparison with the baseline.
func (r *Request) Run(ctx context.Context, opts ...Option) (*Sim, *Report, *Comparison, error) {
	sim, sc, _, err := r.Prepare(opts...)
	if err != nil {
		return nil, nil, nil, err
	}
	attacked, baseline, err := sim.RunPair(ctx, sc)
	if err != nil {
		return nil, nil, nil, err
	}
	cmp, err := Compare(attacked, baseline)
	if err != nil {
		return nil, nil, nil, err
	}
	return sim, attacked, cmp, nil
}
