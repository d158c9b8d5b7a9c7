package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"

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

// System is a configured chip ready to run campaigns. Each run resets a
// simulation state in place (see run), so one System can evaluate many
// scenarios, concurrently too.
type System struct {
	cfg  Config
	mesh noc.Mesh
	gm   noc.NodeID

	// coverOnce builds covers, the closed-form infection predictor's
	// index of the manager's routes, for the first run with Trojans.
	coverOnce sync.Once
	covers    *metrics.Covers
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

// routeCovers returns the chip's route covers toward its manager, built
// once per System.
func (s *System) routeCovers() *metrics.Covers {
	s.coverOnce.Do(func() { s.covers = metrics.NewCovers(s.mesh, s.gm) })
	return s.covers
}

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
	values  []float64 // expected throughput per DVFS level, for the manager
}

// run is the per-campaign simulation state. Its lifecycle: setup takes
// one from keptRuns and resets it in place for the scenario, runCampaign
// keeps it again only after building the report — which aliases
// nothing the next run rewrites (the trace is handed over, not reused) —
// and a failed or cancelled run is dropped. Everything a run keeps across
// resets (the network's slabs, the manager's buffers and the allocator's
// and filter's memory, the memory hierarchy, the Trojan fleet, the voter,
// the packet slab, the address streams and their sources, the delivery
// handler) is state the next reset overwrites before reading.
type run struct {
	sys     *System
	kernel  sim.Kernel[mem.Event]
	net     noc.Network
	memsys  *mem.System // &hierarchy in a cache-traffic run, else nil
	manager budget.Manager
	fleet   *trojan.Fleet // &trojans in a run with Trojans, else nil

	cores     []coreState
	apps      []appState
	infection metrics.InfectionCounter
	memLatNs  float64
	hacker    noc.NodeID
	trace     []EpochRecord
	voter     *defense.DualPathVoter // &voting in a dual-path run, else nil

	// last seen memory stats, for per-epoch latency deltas
	prevMissCount, prevMissLat uint64
	// last seen manager counters, for per-epoch trace deltas
	prevReceived, prevTampered, prevFlagged uint64

	// Kept across resets: the memory hierarchy; the Trojan fleet and its
	// infected set; the dual-path voter; the run's packets, of every type;
	// the delivery handler every node is attached to, bound once; the
	// per-node address streams (cores[i].stream points into it), each with
	// its own source; the placement, the CONFIG_CMD agent ranges, the DVFS
	// frequency and power tables, and the report's source cores.
	hierarchy mem.System
	trojans   trojan.Fleet
	voting    defense.DualPathVoter
	infected  noc.NodeSet
	packets   packetSlab
	deliver   noc.Handler
	streams   []mem.AddressStream
	placed    [][]noc.NodeID
	ranges    []uint32
	freqs     []float64
	levelsMW  []uint32
	sources   []noc.NodeID
}

// keptRuns holds the state of finished runs for the next setup. Unlike a
// sync.Pool it survives garbage collections: a collection that emptied it
// would make the next runs rebuild their chips, about 4 MB for a 256-core
// run with cache traffic, so how often a workload collects would decide
// how much it allocates. It keeps at most two states per P, as many as
// the runs that can execute at once when every P runs an attacked and a
// baseline run; a state finished beyond that is dropped.
var keptRuns struct {
	mu   sync.Mutex
	free []*run
}

// takeRun returns a kept run state, or a new one.
func takeRun() *run {
	keptRuns.mu.Lock()
	defer keptRuns.mu.Unlock()
	n := len(keptRuns.free)
	if n == 0 {
		return new(run)
	}
	r := keptRuns.free[n-1]
	keptRuns.free[n-1] = nil
	keptRuns.free = keptRuns.free[:n-1]
	return r
}

// keepRun returns a finished run's state for the next setup.
func keepRun(r *run) {
	keptRuns.mu.Lock()
	defer keptRuns.mu.Unlock()
	if len(keptRuns.free) < 2*runtime.GOMAXPROCS(0) {
		keptRuns.free = append(keptRuns.free, r)
	}
}

// packetChunk is the number of packets in one packetSlab chunk.
const packetChunk = 256

// packetSlab hands out a run's own packets from fixed-size chunks, so a
// packet never moves while the network holds it. A delivered packet goes
// back on the free list; rewind makes every packet available again, once
// the network holds none (at reset).
type packetSlab struct {
	chunks []*[packetChunk]noc.Packet
	used   int // packets handed out of the chunks since the last rewind
	free   []*noc.Packet
}

// take returns a slab packet holding p.
func (s *packetSlab) take(p noc.Packet) *noc.Packet {
	var slot *noc.Packet
	if k := len(s.free); k > 0 {
		slot = s.free[k-1]
		s.free = s.free[:k-1]
	} else {
		c := s.used / packetChunk
		if c == len(s.chunks) {
			s.chunks = append(s.chunks, new([packetChunk]noc.Packet))
		}
		slot = &s.chunks[c][s.used%packetChunk]
		s.used++
	}
	*slot = p
	return slot
}

// release returns a delivered packet for reuse.
func (s *packetSlab) release(p *noc.Packet) { s.free = append(s.free, p) }

// rewind makes every packet of the slab available again.
func (s *packetSlab) rewind() {
	s.used, s.free = 0, s.free[:0]
}

var _ mem.Env = (*run)(nil)

// Now implements mem.Env.
func (r *run) Now() uint64 { return r.kernel.Now() }

// Schedule implements mem.Env.
func (r *run) Schedule(delay uint64, ev mem.Event) { r.kernel.Schedule(delay, ev) }

// Send implements mem.Env: protocol messages ride in the run's packet
// slab, as every other packet does.
func (r *run) Send(p noc.Packet) {
	if err := r.net.Inject(r.packets.take(p)); err != nil {
		// Inject only fails for malformed packets; that is a simulator
		// bug, not a runtime condition.
		panic(fmt.Sprintf("core: memory packet: %v", err))
	}
}

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
// already-merged observer (nil streams nothing). It runs on state from
// the kept states and keeps the state again only after a complete run.
func (s *System) runCampaign(ctx context.Context, sc Scenario, obs Observer) (*Report, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	r, err := s.setup(sc)
	if err != nil {
		return nil, err
	}
	rep, err := r.campaign(ctx, sc, obs)
	if err != nil {
		// A failed or cancelled run stopped anywhere; drop its state.
		return nil, err
	}
	keepRun(r)
	return rep, nil
}

// campaign runs the set-up scenario's epochs and builds its report.
func (r *run) campaign(ctx context.Context, sc Scenario, obs Observer) (*Report, error) {
	cfg := r.sys.cfg
	active := false
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		wantActive := sc.dutyActive(epoch)
		if r.fleet != nil && (epoch == 0 || wantActive != active) {
			r.broadcastConfig(wantActive)
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
		if epoch >= cfg.WarmupEpochs {
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
// are independent simulations (each run's manager holds what its
// allocator and filter remember), so they fan out over the worker pool;
// Config.Workers = 1 forces the sequential order and produces
// bit-identical reports. Cancelling ctx aborts both runs through the
// worker pool. The observers — obs and any Config.Observer — stream the
// attacked run only: interleaving two concurrent runs' samples into one
// callback would make the stream unreadable, and the baseline's epochs
// carry no attack signal.
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
	return s.placeApps(sc, nil)
}

// placeApps is PlaceApps over out's storage.
func (s *System) placeApps(sc Scenario, out [][]noc.NodeID) ([][]noc.NodeID, error) {
	if cap(out) < len(sc.Apps) {
		out = append(out[:cap(out)], make([][]noc.NodeID, len(sc.Apps)-cap(out))...)
	}
	out = out[:len(sc.Apps)]
	next := noc.NodeID(0)
	for ai, spec := range sc.Apps {
		out[ai] = out[ai][:0]
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

// setup takes a kept run state and resets it for one campaign.
func (s *System) setup(sc Scenario) (*run, error) {
	r := takeRun()
	if err := r.reset(s, sc); err != nil {
		return nil, err
	}
	return r, nil
}

// reset makes r the state of a fresh campaign of sc on s, reusing what
// r kept from its previous run (see run).
func (r *run) reset(s *System, sc Scenario) error {
	r.kernel.Reset()
	if err := r.net.Reset(s.mesh, s.cfg.NoC); err != nil {
		return err
	}
	// The allocator and filter are immutable values; what they remember
	// lives in the run's manager, so runs stay independent (no cross-run
	// contamination between an attacked run and its baseline) and
	// RunPairContext may execute them concurrently.
	if err := r.manager.Reset(s.gm, s.cfg.Allocator, s.cfg.ChipBudgetMW()); err != nil {
		return err
	}
	r.packets.rewind()
	if r.deliver == nil {
		r.deliver = r.handlePacket
	}
	r.sys = s
	r.memsys, r.fleet, r.voter = nil, nil, nil
	r.infection = metrics.InfectionCounter{}
	r.memLatNs = s.cfg.BaselineMemLatencyNs
	r.trace = make([]EpochRecord, 0, s.cfg.Epochs)
	r.prevMissCount, r.prevMissLat = 0, 0
	r.prevReceived, r.prevTampered, r.prevFlagged = 0, 0, 0
	nodes := s.mesh.Nodes()
	r.cores = sized(r.cores, nodes)
	if s.cfg.MemTraffic {
		if err := r.hierarchy.Reset(s.mesh, s.cfg.Mem, r); err != nil {
			return err
		}
		r.memsys = &r.hierarchy
		r.streams = sized(r.streams, nodes)
	}

	// Contiguous thread placement, attackers first in scenario order,
	// skipping the manager node. Applications that do not fit are clipped.
	for i := range r.cores {
		r.cores[i] = coreState{node: noc.NodeID(i), app: -1}
	}
	var err error
	r.placed, err = s.placeApps(sc, r.placed)
	if err != nil {
		return err
	}
	r.apps = sized(r.apps, len(sc.Apps))
	for ai, spec := range sc.Apps {
		profile, err := workload.ByName(spec.Name)
		if err != nil {
			return err
		}
		app := &r.apps[ai]
		app.spec, app.profile, app.cores = spec, profile, r.placed[ai]
		for t, node := range app.cores {
			cs := &r.cores[node]
			cs.app = ai
			// Only cache traffic reads the address stream; a budget-only
			// run leaves it nil rather than seed a source nothing draws from.
			if r.memsys != nil {
				cs.stream = &r.streams[node]
				cs.stream.Reset(ai, t, profile.WorkingSetLines, profile.WriteFraction,
					s.cfg.Seed+int64(node)*7919+int64(ai))
			}
		}
	}

	// The hacker's control core: the first node that is not the manager.
	r.hacker = 0
	if r.hacker == s.gm {
		r.hacker = 1
	}

	// Manager-side OS knowledge and initial DVFS levels.
	pw := s.cfg.Power
	r.freqs, r.levelsMW = r.freqs[:0], r.levelsMW[:0]
	for i := 0; i < pw.NumLevels(); i++ {
		r.freqs = append(r.freqs, pw.Freq(i))
		r.levelsMW = append(r.levelsMW, pw.PowerMW(i))
	}
	for ai := range r.apps {
		app := &r.apps[ai]
		phi := app.profile.Sensitivity(r.freqs, s.cfg.BaselineMemLatencyNs)
		app.values = app.values[:0]
		for _, f := range r.freqs {
			app.values = append(app.values, app.profile.Throughput(f, s.cfg.BaselineMemLatencyNs))
		}
		for _, c := range app.cores {
			// Cores boot at the lowest DVFS level and ramp up through the
			// budgeting protocol. This matters for the packet-drop attack
			// class: a core whose requests never reach the manager stays
			// at the floor — a genuine denial of service.
			r.cores[c].level = 0
			r.setRate(&r.cores[c])
			r.manager.SetCoreInfo(c, budget.CoreInfo{Sensitivity: phi, LevelsMW: r.levelsMW, LevelValues: app.values})
		}
	}

	// Trojan fleet and NoC delivery plumbing. CONFIG_CMD packets share
	// one options field: each attacker application's (base, count) core
	// range — contiguous placement gives one per app.
	r.ranges = r.ranges[:0]
	if sc.HasTrojans() {
		strategy := sc.Strategy
		if strategy == nil {
			strategy = trojan.DefaultStrategy()
		}
		if err := r.trojans.Reset(sc.Trojans.Nodes, strategy); err != nil {
			return err
		}
		r.fleet = &r.trojans
		if sc.Mode != 0 {
			if err := r.fleet.SetMode(sc.Mode); err != nil {
				return err
			}
		}
		r.net.SetInspector(r.fleet)
		for _, app := range r.apps {
			if app.spec.Role == RoleAttacker && len(app.cores) > 0 {
				r.ranges = append(r.ranges, uint32(app.cores[0]), uint32(len(app.cores)))
			}
		}
	}
	r.manager.SetFilter(s.cfg.Filter)
	if s.cfg.DualPathRequests {
		r.voting.Reset()
		r.voter = &r.voting
	}
	for id := noc.NodeID(0); id < noc.NodeID(nodes); id++ {
		r.net.Attach(id, r.deliver)
	}
	return nil
}

// sized returns s with length n, reusing its backing array when the
// capacity suffices; the elements keep whatever they held.
func sized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// handlePacket dispatches a packet delivered at its destination node.
// Every packet is the run's own and goes back to the slab once handled:
// nothing keeps a delivered packet.
func (r *run) handlePacket(p *noc.Packet) {
	id := p.Dst
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
			} else {
				r.manager.HandleRequest(p)
			}
		}
	case noc.TypePowerGrant:
		level, _ := r.sys.cfg.Power.LevelForBudget(float64(p.Payload) / 1000)
		r.cores[id].level = level
		r.setRate(&r.cores[id])
	case noc.TypeConfigCmd:
		// Endpoint cores ignore configuration packets; the Trojans snooped
		// them in transit.
	default:
		// Memory-protocol messages: only cache-traffic runs send them.
		r.memsys.HandlePacket(p)
	}
	r.packets.release(p)
}

// broadcastConfig sends the Fig 1(b) CONFIG_CMD from the hacker's core to
// every node, carrying the manager ID, the activation signal, and the
// attacker applications' core ranges in the options field.
func (r *run) broadcastConfig(active bool) {
	for id := noc.NodeID(0); id < noc.NodeID(r.sys.mesh.Nodes()); id++ {
		p := r.packets.take(noc.Packet{
			Src: r.hacker, Dst: id, Type: noc.TypeConfigCmd,
			Payload: noc.ConfigWord(r.sys.gm, active),
			Options: r.ranges,
		})
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
				p := r.packets.take(noc.Packet{Src: c, Dst: r.sys.gm, Type: noc.TypePowerReq, Payload: ask, Class: class})
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
		if err := r.kernel.Run(r.net.Now(), r.hierarchy.Fire); err != nil {
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
		p := r.packets.take(noc.Packet{Src: r.sys.gm, Dst: g.Core, Type: noc.TypePowerGrant, Payload: g.GrantMW})
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
		if err := r.kernel.Run(r.net.Now(), r.hierarchy.Fire); err != nil {
			panic(fmt.Sprintf("core: kernel: %v", err))
		}
	}
}
