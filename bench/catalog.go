package main

import "repro/internal/campaign"

// metricDef is one metric the benchmark prints. Bound applies to
// end-to-end metrics only: the share of the parent's median by which the
// metric may worsen before a change counts as a regression.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	// serve marks a serving-layer share or count, which reads 0 for a
	// workload that runs no server. Every other per-layer metric is
	// measured in every workload: from its own traced ops, or by the
	// layer's probe when its ops never reach that layer (README.md).
	serve bool
}

// endToEnd lists the gated metrics of the untraced pass; every workload
// prints all of them. A gated metric must repeat well inside a bound of at
// most 10 %. Allocation does (ten seeds spread by at most 3.4 %). setup_s
// takes 25 %, the widest bound, because a set-up regression counts only
// beyond 50 ms, and 50 ms is a quarter of the offline workloads' ~0.2 s.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "alloc_mb_per_op", Unit: "MB", Better: "lower", Bound: 0.10},
}

// untracedTiming are the untraced pass's op timings. They are per-layer
// metrics, without a bound, because they do not repeat within 10 % on the
// machine the benchmark was defined on: ten seeds spread by 5–14 %, and
// the same op ran 50 % slower an hour later (README.md, "Noise"). For
// serve-mixed an op is one request timed from its due time, and
// throughput is the verified completion rate at the reference load.
var untracedTiming = []metricDef{
	{Name: "op_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "op_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "throughput_ops_s", Unit: "1/s", Better: "higher"},
}

// selfLayers are the span names the traced pass attributes op time to:
// the benchmark's own spans around each layer call, and the server's span
// tree (prefixed "server.") grafted under serving ops. Each becomes a
// self_pct.<layer> metric; time in spans of any other name goes to "other".
var selfLayers = []string{
	"op",
	"campaign.build_tables",
	"campaign.experiment",
	"results.write_artifact",
	"core.run_pair",
	"core.epoch",
	"http.post",
	"http.sse",
	"http.get",
	"http.delete",
	"server.job",
	"server.cache.lookup",
	"server.queue.wait",
	"server.gate.wait",
	"server.run",
	"server.experiment",
	"server.shard",
	"server.shard.dispatch",
	"server.worker.execute",
	"server.shard.run",
	"server.dist.merge",
	"other",
}

// perLayer lists the metrics a traced run prints: the untraced pass's op
// timings, then the traced pass's figures.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	m := append([]metricDef(nil), untracedTiming...)
	m = append(m,
		metricDef{Name: "op.traced_p50_ms", Unit: "ms", Better: "lower"},
		metricDef{Name: "obs.trace_overhead_pct", Unit: "%", Better: "lower"},
		metricDef{Name: "core.epochs_per_op", Unit: "count", Better: "higher"},
	)
	for _, l := range selfLayers {
		m = append(m, metricDef{Name: "self_pct." + l, Unit: "%", Better: "lower"})
	}
	m = append(m,
		metricDef{Name: "noc.m2o_ns_per_cycle", Unit: "ns", Better: "lower"},
		metricDef{Name: "noc.uniform_ns_per_cycle", Unit: "ns", Better: "lower"},
		metricDef{Name: "noc.idle_ns_per_cycle", Unit: "ns", Better: "lower"},
		metricDef{Name: "core.first_epoch_ms", Unit: "ms", Better: "lower"},
		metricDef{Name: "core.epoch_ms", Unit: "ms", Better: "lower"},
		metricDef{Name: "core.drain_ms", Unit: "ms", Better: "lower"},
		metricDef{Name: "core.sim_kcycles_per_s", Unit: "kcycles/s", Better: "higher"},
		metricDef{Name: "noc.ns_per_hop", Unit: "ns", Better: "lower"},
		// Simulated-statistic guards: a change that only speeds the
		// simulator up must leave each of them identical. Their direction
		// is nominal.
		metricDef{Name: "noc.packets_delivered", Unit: "count", Better: "higher"},
		metricDef{Name: "noc.packet_hops", Unit: "count", Better: "lower"},
		metricDef{Name: "noc.power_req_latency_cycles", Unit: "cycles", Better: "lower"},
		metricDef{Name: "noc.tampered_power_req", Unit: "count", Better: "higher"},
		metricDef{Name: "mem.avg_latency_ns", Unit: "sim-ns", Better: "lower"},
		metricDef{Name: "core.q", Unit: "ratio", Better: "higher"},
	)
	for _, e := range campaign.Experiments() {
		m = append(m, metricDef{Name: "campaign.exp_ms." + e.ID, Unit: "ms", Better: "lower"})
	}
	m = append(m,
		metricDef{Name: "results.write_ms", Unit: "ms", Better: "lower"},
		metricDef{Name: "exp.overlap", Unit: "ratio", Better: "higher"},
		metricDef{Name: "server.max_rps", Unit: "1/s", Better: "higher", serve: true},
		metricDef{Name: "server.cache_hit_frac", Unit: "ratio", Better: "higher", serve: true},
		metricDef{Name: "server.shed", Unit: "count", Better: "lower", serve: true},
		metricDef{Name: "server.sse_dropped", Unit: "count", Better: "lower", serve: true},
		metricDef{Name: "dist.shards_per_job", Unit: "count", Better: "lower", serve: true},
		metricDef{Name: "dist.retries", Unit: "count", Better: "lower", serve: true},
		metricDef{Name: "dist.hedges", Unit: "count", Better: "lower", serve: true},
		metricDef{Name: "dist.shard_cache_hit_frac", Unit: "ratio", Better: "higher", serve: true},
	)
	return m
}

// workloadDef is one benchmark workload.
type workloadDef struct {
	name string
	// why is the one-line reason the workload exists (BENCHMARK.json).
	why string
	// loop names the load model: closed or open, with its caller count.
	loop string
	// open computes the workload's references, untimed, and returns it
	// ready for cold starts.
	open func(cfg *runConfig, seed int64) (workload, error)
}

// workloads are the four benchmark workloads, in run order.
var workloads = []workloadDef{
	{
		name: "campaign-smoke",
		why:  "regenerate-the-paper path: 12 smoke experiments; budget-only epochs leave the NoC idle most cycles, so per-run setup and quiet-cycle stepping dominate",
		loop: "closed, 1 caller",
		open: openCampaignSmoke,
	},
	{
		name: "sim-congested",
		why:  "Table I chip with cache traffic: routers are busy every cycle, so NoC route/VC/switch stages and mem dominate; RNG-skip and quiet-cycle changes should not move it",
		loop: "closed, 1 caller",
		open: openSimCongested,
	},
	{
		name: "serve-mixed",
		why:  "in-process htserved under an open-loop loadgen mix: cache hits and artifact reads beside fresh simulations, through queue, gate, cache and SSE",
		loop: "open, reference rate then a rate ladder",
		open: openServeMixed,
	},
	{
		name: "serve-dist",
		why:  "coordinator without a journal over two in-process workers: shard dispatch, NDJSON epoch streaming and merge dominate; no workload exercises journal fsync or checkpoints",
		loop: "closed, 2 callers",
		open: openServeDist,
	},
}

// workloadByName resolves a -workload value.
func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}
