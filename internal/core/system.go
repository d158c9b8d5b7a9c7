package core

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/budget"
	"repro/internal/defense"
	"repro/internal/exp"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/noc"
	"repro/internal/sim"
	"repro/internal/trojan"
	"repro/internal/workload"
)

// System is a configured chip ready to run campaigns. Each Run builds a
// fresh simulation state, so one System can evaluate many scenarios.
type System struct {
	cfg  Config
	mesh noc.Mesh
	gm   noc.NodeID
}

// NewSystem validates cfg and prepares a chip model.
func NewSystem(cfg Config) (*System, error) {
	if cfg.DualPathRequests && cfg.NoC.AltRouting == nil {
		cfg.NoC.AltRouting = noc.YXRouting{}
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	mesh, err := cfg.Mesh()
	if err != nil {
		return nil, err
	}
	return &System{cfg: cfg, mesh: mesh, gm: cfg.ManagerNode(mesh)}, nil
}

// Mesh returns the chip's mesh.
func (s *System) Mesh() noc.Mesh { return s.mesh }

// ManagerNode returns the global manager's node.
func (s *System) ManagerNode() noc.NodeID { return s.gm }

// Config returns the chip configuration.
func (s *System) Config() Config { return s.cfg }

// coreState is one tile's runtime state.
type coreState struct {
	node    noc.NodeID
	app     int // index into apps, -1 when idle
	level   int // current DVFS level
	stream  *mem.AddressStream
	rate    float64 // memory ops per cycle at level and the run's memLatNs
	credit  float64 // fractional memory-op accumulator
	instrs  float64 // instructions over measured epochs
	levels  float64 // level sum over measured epochs (for AvgLevel)
	samples int
}

type appState struct {
	spec    AppSpec
	profile workload.Profile
	cores   []noc.NodeID
}

// run is the per-campaign simulation state.
type run struct {
	sys     *System
	kernel  *sim.Kernel
	net     *noc.Network
	memsys  *mem.System
	manager *budget.Manager
	fleet   *trojan.Fleet

	cores     []coreState
	apps      []appState
	infection metrics.InfectionCounter
	memLatNs  float64
	hacker    noc.NodeID
	trace     []EpochRecord
	voter     *defense.DualPathVoter // nil unless DualPathRequests

	// last seen memory stats, for per-epoch latency deltas
	prevMissCount, prevMissLat uint64
	// last seen manager counters, for per-epoch trace deltas
	prevReceived, prevTampered, prevFlagged uint64
}

var _ mem.Env = (*run)(nil)

// Now implements mem.Env.
func (r *run) Now() uint64 { return r.kernel.Now() }

// Schedule implements mem.Env.
func (r *run) Schedule(delay uint64, fn func()) { r.kernel.Schedule(delay, fn) }

// Inject implements mem.Env.
func (r *run) Inject(p *noc.Packet) error { return r.net.Inject(p) }

// RunContext executes one campaign with cooperative cancellation and
// optional streaming observation. The context is checked between epochs
// and every few hundred cycles inside an epoch, so cancelling it — from
// an observer callback included — stops the simulation promptly and
// returns the context's error. obs, when non-nil, receives one typed
// EpochSample per budgeting epoch as the run progresses (see Observer);
// a nil obs streams nothing. A Config.Observer, when set, receives the
// same samples in addition to obs.
func (s *System) RunContext(ctx context.Context, sc Scenario, obs Observer) (*Report, error) {
	return s.runCampaign(ctx, sc, s.mergeObserver(obs))
}

// mergeObserver combines the configuration's streaming hook with a per-run
// observer; either (or both) may be nil.
func (s *System) mergeObserver(obs Observer) Observer {
	switch {
	case s.cfg.Observer == nil:
		return obs
	case obs == nil:
		return s.cfg.Observer
	default:
		return MultiObserver{s.cfg.Observer, obs}
	}
}

// runCampaign is the epoch loop behind RunContext; obs is the final,
// already-merged observer (nil streams nothing).
func (s *System) runCampaign(ctx context.Context, sc Scenario, obs Observer) (*Report, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	r, err := s.setup(sc)
	if err != nil {
		return nil, err
	}
	active := false
	for epoch := 0; epoch < s.cfg.Epochs; epoch++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		wantActive := sc.dutyActive(epoch)
		if r.fleet != nil && (epoch == 0 || wantActive != active) {
			r.broadcastConfig(sc, wantActive)
			// The attacker configures ahead of the epoch's request wave:
			// let the broadcast drain before budget traffic starts.
			r.drain()
			active = wantActive
		}
		r.sendPowerRequests(epoch)
		if err := r.runEpochCycles(ctx); err != nil {
			return nil, err
		}
		grants := r.deliverGrants()
		r.updateMemLatency()
		if epoch >= s.cfg.WarmupEpochs {
			r.accountEpoch()
		}
		r.recordEpoch(epoch, active)
		if obs != nil {
			obs.ObserveEpoch(r.sample(grants))
		}
	}
	r.drain()
	return r.report(sc)
}

// RunPairContext runs the scenario and its clean baseline under identical
// configuration and seeds, returning (attacked, baseline). The two runs
// are independent simulations (setup clones any stateful allocator or
// filter), so they fan out over the worker pool; Config.Workers = 1 forces
// the sequential order and produces bit-identical reports. Cancelling ctx
// aborts both runs through the worker pool. The observers — obs and any
// Config.Observer — stream the attacked run only: interleaving two
// concurrent runs' samples into one callback would make the stream
// unreadable, and the baseline's epochs carry no attack signal.
func (s *System) RunPairContext(ctx context.Context, sc Scenario, obs Observer) (*Report, *Report, error) {
	workers := exp.Workers(s.cfg.Workers)
	if workers > 2 {
		workers = 2
	}
	reports, err := exp.Run(ctx, workers, 2, func(ctx context.Context, i int) (*Report, error) {
		if i == 0 {
			attacked, err := s.runCampaign(ctx, sc, s.mergeObserver(obs))
			if err != nil {
				return nil, fmt.Errorf("core: attacked run: %w", err)
			}
			return attacked, nil
		}
		baseline, err := s.runCampaign(ctx, sc.WithoutTrojans(), nil)
		if err != nil {
			return nil, fmt.Errorf("core: baseline run: %w", err)
		}
		return baseline, nil
	})
	if err != nil {
		return nil, nil, err
	}
	return reports[0], reports[1], nil
}

// PlaceApps computes the scenario's thread-to-core assignment without
// running a simulation: threads are placed contiguously in scenario order,
// skipping the manager node; applications that do not fit are clipped. The
// returned slice has one core list per app. This is the exact assignment a
// Run will use.
func (s *System) PlaceApps(sc Scenario) ([][]noc.NodeID, error) {
	out := make([][]noc.NodeID, len(sc.Apps))
	next := noc.NodeID(0)
	for ai, spec := range sc.Apps {
		for t := 0; t < spec.Threads && int(next) < s.mesh.Nodes(); t++ {
			if next == s.gm {
				next++
			}
			if int(next) >= s.mesh.Nodes() {
				break
			}
			out[ai] = append(out[ai], next)
			next++
		}
		if len(out[ai]) == 0 {
			return nil, fmt.Errorf("core: no cores left for app %s", spec.Name)
		}
	}
	return out, nil
}

// dutyActive evaluates the activation duty cycle at an epoch.
func (s Scenario) dutyActive(epoch int) bool {
	if !s.HasTrojans() {
		return false
	}
	if epoch < s.ActivateAfterEpochs {
		return false
	}
	epoch -= s.ActivateAfterEpochs
	if s.DutyOnEpochs == 0 && s.DutyOffEpochs == 0 {
		return true
	}
	period := s.DutyOnEpochs + s.DutyOffEpochs
	return epoch%period < s.DutyOnEpochs
}

// setup builds the simulation state for one campaign.
func (s *System) setup(sc Scenario) (*run, error) {
	kernel := sim.NewKernel()
	net, err := noc.New(s.mesh, s.cfg.NoC)
	if err != nil {
		return nil, err
	}
	// Stateful allocators and filters are cloned per run: runs stay
	// independent (no cross-run contamination between an attacked run and
	// its baseline) and RunPairContext may execute them concurrently.
	manager, err := budget.NewManager(s.gm, budget.CloneAllocator(s.cfg.Allocator), s.cfg.ChipBudgetMW())
	if err != nil {
		return nil, err
	}
	r := &run{
		sys:      s,
		kernel:   kernel,
		net:      net,
		manager:  manager,
		memLatNs: s.cfg.BaselineMemLatencyNs,
		cores:    make([]coreState, s.mesh.Nodes()),
	}
	if s.cfg.MemTraffic {
		r.memsys, err = mem.NewSystem(s.mesh, s.cfg.Mem, r)
		if err != nil {
			return nil, err
		}
	}

	// Contiguous thread placement, attackers first in scenario order,
	// skipping the manager node. Applications that do not fit are clipped.
	for i := range r.cores {
		r.cores[i] = coreState{node: noc.NodeID(i), app: -1}
	}
	placed, err := s.PlaceApps(sc)
	if err != nil {
		return nil, err
	}
	for ai, spec := range sc.Apps {
		profile, err := workload.ByName(spec.Name)
		if err != nil {
			return nil, err
		}
		app := appState{spec: spec, profile: profile, cores: placed[ai]}
		for t, node := range app.cores {
			cs := &r.cores[node]
			cs.app = ai
			// Only cache traffic reads the address stream; a budget-only
			// run leaves it nil rather than seed a source nothing draws from.
			if r.memsys != nil {
				cs.stream = mem.NewAddressStream(ai, t, profile.WorkingSetLines, profile.WriteFraction,
					rand.New(rand.NewSource(s.cfg.Seed+int64(node)*7919+int64(ai))))
			}
		}
		r.apps = append(r.apps, app)
	}

	// The hacker's control core: the first node that is not the manager.
	r.hacker = 0
	if r.hacker == s.gm {
		r.hacker = 1
	}

	// Manager-side OS knowledge and initial DVFS levels.
	freqs := make([]float64, s.cfg.Power.NumLevels())
	for i := range freqs {
		freqs[i] = s.cfg.Power.Freq(i)
	}
	levelsMW := s.cfg.Power.LevelsMW()
	for ai := range r.apps {
		app := &r.apps[ai]
		phi := app.profile.Sensitivity(freqs, s.cfg.BaselineMemLatencyNs)
		values := make([]float64, len(freqs))
		for i, f := range freqs {
			values[i] = app.profile.Throughput(f, s.cfg.BaselineMemLatencyNs)
		}
		for _, c := range app.cores {
			// Cores boot at the lowest DVFS level and ramp up through the
			// budgeting protocol. This matters for the packet-drop attack
			// class: a core whose requests never reach the manager stays
			// at the floor — a genuine denial of service.
			r.cores[c].level = 0
			r.setRate(&r.cores[c])
			manager.SetCoreInfo(c, budget.CoreInfo{Sensitivity: phi, LevelsMW: levelsMW, LevelValues: values})
		}
	}

	// Trojan fleet and NoC delivery plumbing.
	if sc.HasTrojans() {
		strategy := sc.Strategy
		if strategy == nil {
			strategy = trojan.DefaultStrategy()
		}
		r.fleet, err = trojan.NewFleet(sc.Trojans.Nodes, strategy)
		if err != nil {
			return nil, err
		}
		if sc.Mode != 0 {
			if err := r.fleet.SetMode(sc.Mode); err != nil {
				return nil, err
			}
		}
		net.SetInspector(r.fleet)
	}
	if s.cfg.Filter != nil {
		manager.SetFilter(budget.CloneFilter(s.cfg.Filter))
	}
	if s.cfg.DualPathRequests {
		r.voter = defense.NewDualPathVoter()
	}
	for id := noc.NodeID(0); id < noc.NodeID(s.mesh.Nodes()); id++ {
		id := id
		net.Attach(id, func(p *noc.Packet) { r.handlePacket(id, p) })
	}
	return r, nil
}

// handlePacket dispatches a delivered packet at node id.
func (r *run) handlePacket(id noc.NodeID, p *noc.Packet) {
	switch p.Type {
	case noc.TypePowerReq:
		if id == r.sys.gm {
			r.infection.Observe(p)
			if r.voter != nil {
				final, tamperedAny, ready, _ := r.voter.Observe(p.Src, p.Payload, p.Tampered)
				if ready {
					r.manager.HandleRequest(&noc.Packet{
						Src: p.Src, Dst: r.sys.gm, Type: noc.TypePowerReq,
						Payload: final, Tampered: tamperedAny,
					})
				}
				return
			}
			r.manager.HandleRequest(p)
		}
	case noc.TypePowerGrant:
		level, _ := r.sys.cfg.Power.LevelForBudget(float64(p.Payload) / 1000)
		r.cores[id].level = level
		r.setRate(&r.cores[id])
	case noc.TypeConfigCmd:
		// Endpoint cores ignore configuration packets; the Trojans snooped
		// them in transit.
	default:
		if r.memsys != nil {
			r.memsys.HandlePacket(p)
		}
	}
}

// broadcastConfig sends the Fig 1(b) CONFIG_CMD from the hacker's core to
// every node, carrying the manager ID, the activation signal, and the
// attacker applications' core ranges in the options field.
func (r *run) broadcastConfig(sc Scenario, active bool) {
	var ranges []uint32
	for _, app := range r.apps {
		if app.spec.Role != RoleAttacker || len(app.cores) == 0 {
			continue
		}
		// Contiguous placement: one (base, count) per attacker app.
		ranges = append(ranges, uint32(app.cores[0]), uint32(len(app.cores)))
	}
	for id := noc.NodeID(0); id < noc.NodeID(r.sys.mesh.Nodes()); id++ {
		p := &noc.Packet{
			Src: r.hacker, Dst: id, Type: noc.TypeConfigCmd,
			Payload: noc.ConfigWord(r.sys.gm, active),
			Options: ranges,
		}
		if err := r.net.Inject(p); err != nil {
			panic(fmt.Sprintf("core: config broadcast: %v", err))
		}
	}
}

// sendPowerRequests has every application core solicit its phase-dependent
// power demand for the next epoch — twice, over diverse routes, when the
// dual-path defense is enabled.
func (r *run) sendPowerRequests(epoch int) {
	pw := r.sys.cfg.Power
	peak := pw.PowerMW(pw.NumLevels() - 1)
	mid := pw.PowerMW(pw.NumLevels() / 2)
	classes := 1
	if r.voter != nil {
		classes = 2
	}
	for _, app := range r.apps {
		ask := peak
		if period := app.spec.PhasePeriodEpochs; period > 0 && epoch%period >= (period+1)/2 {
			// Low-demand phase: the application genuinely needs less.
			ask = mid
		}
		for _, c := range app.cores {
			for class := 0; class < classes; class++ {
				p := &noc.Packet{Src: c, Dst: r.sys.gm, Type: noc.TypePowerReq, Payload: ask, Class: class}
				if err := r.net.Inject(p); err != nil {
					panic(fmt.Sprintf("core: power request: %v", err))
				}
			}
		}
	}
}

// runEpochCycles advances the chip by one epoch, generating cache traffic
// along the way. The context is polled every 512 cycles so cancellation
// interrupts even very long epochs promptly.
func (r *run) runEpochCycles(ctx context.Context) error {
	cfg := r.sys.cfg
	for c := uint64(0); c < cfg.EpochCycles; c++ {
		if c&511 == 511 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		if r.memsys != nil {
			r.generateTraffic()
		}
		r.net.Step()
		if err := r.kernel.Run(r.net.Now()); err != nil {
			panic(fmt.Sprintf("core: kernel: %v", err))
		}
	}
	return nil
}

// setRate recomputes a placed core's memory-op rate after its DVFS level
// or the memory-latency estimate changed. Only cache traffic reads it.
func (r *run) setRate(cs *coreState) {
	if r.memsys == nil || cs.app < 0 {
		return
	}
	cs.rate = r.apps[cs.app].profile.MemOpsPerNs(r.sys.cfg.Power.Freq(cs.level), r.memLatNs)
}

// generateTraffic lets each application core issue memory operations at its
// profile-driven rate (one NoC cycle is one nanosecond).
func (r *run) generateTraffic() {
	for _, app := range r.apps {
		for _, cid := range app.cores {
			cs := &r.cores[cid]
			cs.credit += cs.rate
			for cs.credit >= 1 {
				addr, write := cs.stream.Next()
				if !r.memsys.Issue(cid, addr, write) {
					break // MSHRs full: core stalls, credit carries over
				}
				cs.credit--
			}
		}
	}
}

// deliverGrants runs the manager's epoch allocation, ships the grants,
// and returns how many were issued.
func (r *run) deliverGrants() int {
	if r.voter != nil {
		// Copies whose duplicates were destroyed still feed the allocator
		// (the core must not starve), and count as anomalies.
		for _, left := range r.voter.Flush() {
			r.manager.HandleRequest(&noc.Packet{
				Src: left.Core, Dst: r.sys.gm, Type: noc.TypePowerReq,
				Payload: left.Value, Tampered: left.Tampered,
			})
		}
	}
	grants := r.manager.AllocateEpoch()
	for _, g := range grants {
		p := &noc.Packet{Src: r.sys.gm, Dst: g.Core, Type: noc.TypePowerGrant, Payload: g.GrantMW}
		if err := r.net.Inject(p); err != nil {
			panic(fmt.Sprintf("core: grant: %v", err))
		}
	}
	return len(grants)
}

// updateMemLatency folds the epoch's observed miss latency into the IPC
// feedback loop.
func (r *run) updateMemLatency() {
	if r.memsys == nil {
		return
	}
	var count, lat uint64
	for id := noc.NodeID(0); id < noc.NodeID(r.sys.mesh.Nodes()); id++ {
		st := r.memsys.Stats(id)
		count += st.MissesCompleted
		lat += st.MissLatencySum
	}
	dc, dl := count-r.prevMissCount, lat-r.prevMissLat
	r.prevMissCount, r.prevMissLat = count, lat
	if dc > 0 {
		r.memLatNs = float64(dl) / float64(dc)
		for i := range r.cores {
			r.setRate(&r.cores[i])
		}
	}
}

// accountEpoch accrues each core's instruction count for the epoch at its
// current DVFS level and the current memory-latency estimate.
func (r *run) accountEpoch() {
	ns := float64(r.sys.cfg.EpochCycles)
	for _, app := range r.apps {
		for _, cid := range app.cores {
			cs := &r.cores[cid]
			f := r.sys.cfg.Power.Freq(cs.level)
			cs.instrs += ns * app.profile.Throughput(f, r.memLatNs)
			cs.levels += float64(cs.level)
			cs.samples++
		}
	}
}

// recordEpoch appends one trace record.
func (r *run) recordEpoch(epoch int, active bool) {
	rec := EpochRecord{
		Epoch:            epoch,
		TrojanActive:     active,
		RequestsReceived: r.manager.ReceivedTotal - r.prevReceived,
		RequestsTampered: r.manager.TamperedTotal - r.prevTampered,
		MemLatencyNs:     r.memLatNs,
	}
	r.prevReceived = r.manager.ReceivedTotal
	r.prevTampered = r.manager.TamperedTotal
	var nA, nV int
	for _, app := range r.apps {
		for _, cid := range app.cores {
			switch app.spec.Role {
			case RoleAttacker:
				rec.AttackerMeanLevel += float64(r.cores[cid].level)
				nA++
			case RoleVictim:
				rec.VictimMeanLevel += float64(r.cores[cid].level)
				nV++
			}
		}
	}
	if nA > 0 {
		rec.AttackerMeanLevel /= float64(nA)
	}
	if nV > 0 {
		rec.VictimMeanLevel /= float64(nV)
	}
	r.trace = append(r.trace, rec)
}

// drain lets in-flight packets settle after the last epoch.
func (r *run) drain() {
	limit := 5 * r.sys.cfg.EpochCycles
	for c := uint64(0); c < limit && r.net.Busy(); c++ {
		r.net.Step()
		if err := r.kernel.Run(r.net.Now()); err != nil {
			panic(fmt.Sprintf("core: kernel: %v", err))
		}
	}
}
