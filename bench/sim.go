package main

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/noc"
	apps "repro/internal/workload"
)

// simCongested runs one attacked-vs-baseline pair on the Table I chip
// with cache traffic: 256 cores, mix-1 at 64 threads, a 16-Trojan
// RingCluster around the manager, 5 epochs of which 1 is warm-up.
type simCongested struct {
	cfg   *runConfig
	seeds []int64
	// refs are the reference pairs per input seed, run with one worker;
	// nil when the instance only serves as a probe.
	refs []simPair
}

// simPair is one attacked run and its clean baseline.
type simPair struct{ attacked, baseline *core.Report }

// simEpochs and simWarmup shape the pair's budgeting timeline.
const (
	simEpochs = 5
	simWarmup = 1
)

// simSystem builds the chip and scenario for one input seed.
func simSystem(seed int64, workers int) (*core.System, core.Scenario, error) {
	cfg := core.DefaultConfig()
	cfg.Epochs = simEpochs
	cfg.WarmupEpochs = simWarmup
	cfg.Seed = seed
	cfg.Workers = workers
	sys, err := core.NewSystem(cfg)
	if err != nil {
		return nil, core.Scenario{}, err
	}
	mix, err := apps.MixByName("mix-1")
	if err != nil {
		return nil, core.Scenario{}, err
	}
	sc, err := core.MixScenario(mix, 64)
	if err != nil {
		return nil, core.Scenario{}, err
	}
	mesh, gm := sys.Mesh(), sys.ManagerNode()
	if sc.Trojans, err = attack.RingCluster(mesh, mesh.Coord(gm), 16, 1, gm); err != nil {
		return nil, core.Scenario{}, err
	}
	return sys, sc, nil
}

func openSimCongested(cfg *runConfig, seed int64) (workload, error) {
	w := &simCongested{cfg: cfg, seeds: inputSeeds(seed, inputsCycled)}
	for _, s := range w.seeds {
		sys, sc, err := simSystem(s, 1)
		if err != nil {
			return nil, err
		}
		a, b, err := sys.RunPairContext(context.Background(), sc, nil)
		if err != nil {
			return nil, err
		}
		ref := simPair{a, b}
		if err := ref.invariants(); err != nil {
			return nil, fmt.Errorf("reference for seed %d: %w", s, err)
		}
		w.refs = append(w.refs, ref)
	}
	return w, nil
}

// invariants checks what must hold for any correct pair: every injected
// packet was delivered, and the attack made a difference (Q > 1).
func (p simPair) invariants() error {
	for _, r := range []*core.Report{p.attacked, p.baseline} {
		if r.Net.Injected != r.Net.Delivered {
			return fmt.Errorf("%d packets injected, %d delivered", r.Net.Injected, r.Net.Delivered)
		}
	}
	cmp, err := core.Compare(p.attacked, p.baseline)
	if err != nil {
		return err
	}
	if !(cmp.Q > 1) {
		return fmt.Errorf("Q = %g, want > 1", cmp.Q)
	}
	return nil
}

type simInst struct {
	w         *simCongested
	systems   []*core.System
	scenarios []core.Scenario
	next      atomic.Int64
}

// start is the pair's set-up: building and validating the chip and the
// Trojan placement per input seed.
func (w *simCongested) start(ctx context.Context) (instance, error) {
	in := &simInst{w: w}
	for _, s := range w.seeds {
		sys, sc, err := simSystem(s, 2)
		if err != nil {
			return nil, err
		}
		in.systems = append(in.systems, sys)
		in.scenarios = append(in.scenarios, sc)
	}
	return in, nil
}

func (in *simInst) close() {}

func (in *simInst) firstOp(ctx context.Context) error {
	check, err := in.op(ctx, int(in.next.Add(1)-1), spanRef{}, nil)
	if err != nil {
		return err
	}
	return check()
}

func (in *simInst) measure(ctx context.Context, d time.Duration, tr *tracer) (*phase, error) {
	var st *simStats
	if tr != nil {
		st = &simStats{}
	}
	p, err := closedLoop(ctx, 1, d, tr, &in.next, func(ctx context.Context, i int, sp spanRef) (func() error, error) {
		return in.op(ctx, i, sp, st)
	})
	if err != nil {
		return nil, err
	}
	if st != nil {
		p.layer = st.metrics()
		guard := st.guard
		if in.w.refs != nil {
			guard = in.w.refs[0]
		}
		if guard.attacked == nil {
			return nil, errors.New("traced pass never ran input 0 for the guards")
		}
		for k, v := range guards(guard) {
			p.layer[k] = v
		}
	}
	return p, nil
}

// op runs pair i and returns the check against its reference. With st set
// (the traced pass) an observer records one span per epoch of the
// attacked run — the baseline runs unobserved beside it.
func (in *simInst) op(ctx context.Context, i int, sp spanRef, st *simStats) (func() error, error) {
	k := i % len(in.systems)
	rp := sp.child("core.run_pair")
	var obs core.Observer
	var samples []time.Time
	if st != nil {
		obs = core.ObserverFunc(func(core.EpochSample) {
			now := time.Now()
			if n := len(samples); n > 0 {
				rp.span("core.epoch", samples[n-1], now)
			}
			samples = append(samples, now)
		})
	}
	t0 := time.Now()
	a, b, err := in.systems[k].RunPairContext(ctx, in.scenarios[k], obs)
	t1 := time.Now()
	rp.endAt(t1)
	if err != nil {
		return nil, err
	}
	pair := simPair{a, b}
	if st != nil {
		st.add(t0, t1, samples, pair, k)
	}
	return func() error {
		if in.w.refs == nil {
			return nil
		}
		ref := in.w.refs[k]
		if !reflect.DeepEqual(a, ref.attacked) || !reflect.DeepEqual(b, ref.baseline) {
			return fmt.Errorf("seed %d: reports differ from the one-worker reference", in.w.seeds[k])
		}
		return pair.invariants()
	}, nil
}

// simStats aggregates the traced pass's core-layer figures.
type simStats struct {
	mu                sync.Mutex
	first, gaps, tail []float64
	hostNs            float64
	hops              uint64
	cycles            float64
	epochs, ops       int
	// guard is the first traced pair of input 0, for probes without
	// references.
	guard simPair
}

// add folds one traced pair in: the call started at t0 and returned at
// t1, with the attacked run's epoch samples in between.
func (s *simStats) add(t0, t1 time.Time, samples []time.Time, p simPair, input int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(samples) > 0 {
		s.first = append(s.first, msSince(t0, samples[0]))
		for i := 1; i < len(samples); i++ {
			s.gaps = append(s.gaps, msSince(samples[i-1], samples[i]))
		}
		s.tail = append(s.tail, msSince(samples[len(samples)-1], t1))
	}
	s.hostNs += float64(t1.Sub(t0))
	s.hops += p.attacked.Net.HopSum + p.baseline.Net.HopSum
	s.cycles += 2 * float64(len(p.attacked.Epochs)) * float64(core.DefaultConfig().EpochCycles)
	s.epochs += len(samples)
	s.ops++
	if input == 0 && s.guard.attacked == nil {
		s.guard = p
	}
}

func (s *simStats) metrics() map[string]float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return map[string]float64{
		"core.first_epoch_ms":    median(s.first),
		"core.epoch_ms":          median(s.gaps),
		"core.drain_ms":          median(s.tail),
		"core.sim_kcycles_per_s": s.cycles / (s.hostNs / 1e9) / 1e3,
		"noc.ns_per_hop":         s.hostNs / float64(s.hops),
		"core.epochs_per_op":     float64(s.epochs) / float64(max(s.ops, 1)),
	}
}

// guards are the simulated statistics of one pair; a change that only
// makes the simulator faster must leave every one of them identical.
func guards(p simPair) map[string]float64 {
	q := 0.0
	if cmp, err := core.Compare(p.attacked, p.baseline); err == nil {
		q = cmp.Q
	}
	a, b := p.attacked.Net, p.baseline.Net
	return map[string]float64{
		"noc.packets_delivered":        float64(a.Delivered + b.Delivered),
		"noc.packet_hops":              float64(a.HopSum + b.HopSum),
		"noc.power_req_latency_cycles": a.AvgLatency(noc.TypePowerReq),
		"noc.tampered_power_req":       float64(a.TamperedPowerReq),
		"mem.avg_latency_ns":           p.attacked.AvgMemLatencyNs,
		"core.q":                       q,
	}
}

func msSince(a, b time.Time) float64 { return float64(b.Sub(a)) / float64(time.Millisecond) }
