package main

import (
	"context"
	"errors"
	"math/rand"
	"time"

	"repro/internal/exp"
	"repro/internal/noc"
)

// probeTime is how long a layer probe (core, campaign) traces its ops.
const probeTime = 300 * time.Millisecond

// layerProbe measures a layer the workload's own ops never reach: a fresh
// instance of a workload that does reach it, built without references on
// the same inputs, traced for probeTime.
func layerProbe(ctx context.Context, w workload) (map[string]float64, error) {
	in, err := w.start(ctx)
	if err != nil {
		return nil, err
	}
	defer in.close()
	p, err := in.measure(ctx, probeTime, newTracer())
	if err != nil {
		return nil, err
	}
	if p.failed > 0 {
		return nil, errors.New(p.failures[0])
	}
	return p.layer, nil
}

// coreProbe runs sim-congested's pair: the core-layer figures and, from
// input 0, the same guards sim-congested reports.
func coreProbe(ctx context.Context, cfg *runConfig) (map[string]float64, error) {
	return layerProbe(ctx, &simCongested{cfg: cfg, seeds: inputSeeds(exp.StreamSeed(cfg.seed, "sim-congested"), inputsCycled)})
}

// campaignProbe runs campaign-smoke's campaign: the per-experiment,
// artifact-write and overlap figures.
func campaignProbe(ctx context.Context, cfg *runConfig) (map[string]float64, error) {
	return layerProbe(ctx, &campaignSmoke{cfg: cfg, seeds: inputSeeds(exp.StreamSeed(cfg.seed, "campaign-smoke"), inputsCycled)})
}

// probeMesh is the 16×16 mesh of the direct NoC probes (the Table I
// chip's network).
var probeMesh = noc.Mesh{Width: 16, Height: 16}

// nocProbes times noc.Network.Step directly, in host nanoseconds per
// simulated cycle, under three loads:
//
//   - m2o: every node sends one POWER_REQ to the center, the Fig 3 wave;
//   - uniform: uniform random traffic at a fixed injection rate, half
//     1-flit requests and half 5-flit data replies, drawn from seed;
//   - idle: Step on an empty network.
//
// Each reports the median over repetitions.
func nocProbes(ctx context.Context, seed int64) (map[string]float64, error) {
	m2o, err := repeatProbe(ctx, probeM2O)
	if err != nil {
		return nil, err
	}
	sched := uniformSchedule(exp.StreamSeed(seed, "noc-uniform"))
	uni, err := repeatProbe(ctx, func() (float64, error) { return probeUniform(sched) })
	if err != nil {
		return nil, err
	}
	idle, err := repeatProbe(ctx, probeIdle)
	if err != nil {
		return nil, err
	}
	return map[string]float64{
		"noc.m2o_ns_per_cycle":     m2o,
		"noc.uniform_ns_per_cycle": uni,
		"noc.idle_ns_per_cycle":    idle,
	}, nil
}

// repeatProbe runs probe at least 3 times and for at least 100 ms, and
// returns the median.
func repeatProbe(ctx context.Context, probe func() (float64, error)) (float64, error) {
	var vals []float64
	start := time.Now()
	for len(vals) < 3 || time.Since(start) < 100*time.Millisecond {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		v, err := probe()
		if err != nil {
			return 0, err
		}
		vals = append(vals, v)
	}
	return median(vals), nil
}

func probeM2O() (float64, error) {
	net, err := noc.New(probeMesh, noc.DefaultConfig())
	if err != nil {
		return 0, err
	}
	gm := probeMesh.Center()
	for id := noc.NodeID(0); id < noc.NodeID(probeMesh.Nodes()); id++ {
		if id == gm {
			continue
		}
		if err := net.Inject(&noc.Packet{Src: id, Dst: gm, Type: noc.TypePowerReq}); err != nil {
			return 0, err
		}
	}
	t0 := time.Now()
	cycles, ok := net.RunUntilIdle(1_000_000)
	el := time.Since(t0)
	if !ok || cycles == 0 {
		return 0, errors.New("many-to-one wave did not drain")
	}
	return float64(el) / float64(cycles), nil
}

// uniformCycles and uniformRate shape the uniform probe: packets per
// node per cycle, well below the mesh's saturation point (latency stays
// near the zero-load 33 cycles), yet with a hundred packets in flight.
const (
	uniformCycles = 1000
	uniformRate   = 0.01
)

// uniformSchedule draws the uniform probe's injections per cycle, before
// timing, so the probe times the network rather than the generator.
func uniformSchedule(seed int64) [][]noc.Packet {
	rng := rand.New(rand.NewSource(seed))
	n := probeMesh.Nodes()
	sched := make([][]noc.Packet, uniformCycles)
	for c := range sched {
		for src := 0; src < n; src++ {
			if rng.Float64() >= uniformRate {
				continue
			}
			dst := rng.Intn(n - 1)
			if dst >= src {
				dst++
			}
			typ := noc.TypeMemReadReq
			if rng.Intn(2) == 1 {
				typ = noc.TypeMemReadReply
			}
			sched[c] = append(sched[c], noc.Packet{Src: noc.NodeID(src), Dst: noc.NodeID(dst), Type: typ})
		}
	}
	return sched
}

func probeUniform(sched [][]noc.Packet) (float64, error) {
	net, err := noc.New(probeMesh, noc.DefaultConfig())
	if err != nil {
		return 0, err
	}
	pkts := make([][]noc.Packet, len(sched))
	for c := range sched {
		pkts[c] = append([]noc.Packet(nil), sched[c]...)
	}
	t0 := time.Now()
	for c := range pkts {
		for i := range pkts[c] {
			if err := net.Inject(&pkts[c][i]); err != nil {
				return 0, err
			}
		}
		net.Step()
	}
	return float64(time.Since(t0)) / float64(len(pkts)), nil
}

func probeIdle() (float64, error) {
	net, err := noc.New(probeMesh, noc.DefaultConfig())
	if err != nil {
		return 0, err
	}
	const cycles = 100_000
	t0 := time.Now()
	for i := 0; i < cycles; i++ {
		net.Step()
	}
	return float64(time.Since(t0)) / cycles, nil
}
