package server

import (
	"fmt"
	"io"
	"maps"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dist"
	"repro/internal/histo"
)

// counters are the service's own metrics: monotonically increasing
// counters plus the latency histograms. Gauges (queue depth, running
// jobs, live SSE subscribers, Go runtime health) and a coordinator's
// shard series (its dist.Stats) are sampled at scrape time instead.
//
// Every counter with a cross-counter invariant lives under one mutex, and
// a scrape reads them all in a single lock acquisition — so a scrape can
// never observe a torn view in which, say, a job's jobs_done increment is
// visible while its jobs_started increment is not. Related increments
// (jobs_failed + jobs_timed_out; jobs_submitted + its cache-tier
// breakdown) are likewise applied together in one acquisition, keeping
// these identities exact in every snapshot:
//
//	jobs_submitted == cache_hits + cache_disk_hits + single_flight_dedup + cache_misses
//	jobs_done + jobs_failed + jobs_cancelled counted per terminal job, started-before-terminal
//
// Only the two hot-path streams stay lock-free atomics: epochs (bumped
// once per simulated epoch sample — a mutex there would serialize the
// simulation workers) and SSE drop events (bumped inside the event log's
// own critical section). Each is a single independent counter with no
// invariant against the rest.
type counters struct {
	// start anchors the uptime and the epochs/sec rate.
	start time.Time

	mu sync.Mutex
	n  [numCounters]int64
	// shedByTenant breaks quota rejections (also counted in jobsRejected)
	// down by tenant.
	shedByTenant map[string]int64
	// jobDuration observes every job's submission-to-terminal wall time in
	// seconds, cache-served jobs included (they land in the lowest
	// buckets — the histogram is exactly the server-side half of the
	// latency join with the load harness's client-side numbers).
	// queueWait and gateWait decompose where a job's latency goes: time
	// parked in the admission queue and time blocked on the concurrency
	// gate. Both are fed from the span tree's timings, so the trace
	// endpoint and the histograms can never tell different stories.
	jobDuration, queueWait, gateWait *histo.Histogram

	// sseDropped counts events dropped from slow subscribers' buffers
	// (drop-oldest policy; the ids in the stream reveal each gap).
	sseDropped atomic.Int64
	// epochs counts every EpochSample observed across all jobs — the
	// service's aggregate simulation throughput.
	epochs atomic.Int64
}

// counter indexes counters.n. What each one counts is the HELP text of
// its family in families; the comments here add only what HELP omits.
type counter int

const (
	jobsSubmitted counter = iota // cache-served and single-flight submissions included
	jobsRejected                 // tenant-quota sheds included
	jobsStarted                  // cache-served jobs and single-flight followers never start
	jobsDone
	jobsFailed
	jobsCancelled
	jobsTimedOut // also counted in jobsFailed
	cacheHits    // a disk hit is not also a memory hit
	cacheDiskHits
	cacheMisses
	cacheCorrupt
	singleFlight
	panicsRecovered
	shardsExecuted
	journalAppends
	journalReplayed
	numCounters
)

// jobDurationBuckets is the Prometheus-side histogram layout: factor-2
// buckets from 1ms to ≈131s. Coarser than the harness's 2^¼ layout but
// cheap to scrape; both are log-bucketed so percentiles line up. The
// coordinator's shard round-trip histogram uses the same layout.
func jobDurationBuckets() *histo.Histogram { return histo.Exponential(0.001, 2, 18) }

// newCounters returns zeroed counters anchored at now.
func newCounters() *counters {
	return &counters{
		start:       time.Now(),
		jobDuration: jobDurationBuckets(),
		queueWait:   jobDurationBuckets(),
		gateWait:    jobDurationBuckets(),
	}
}

// inc bumps one or more counters in a single lock acquisition, so
// related counters (a failure and its timeout attribution, a submission
// and its cache-tier classification) move atomically together.
func (c *counters) inc(ids ...counter) {
	c.mu.Lock()
	for _, id := range ids {
		c.n[id]++
	}
	c.mu.Unlock()
}

// observe records one duration into h, one of c's histograms.
func (c *counters) observe(h *histo.Histogram, d time.Duration) {
	c.mu.Lock()
	h.Observe(d.Seconds())
	c.mu.Unlock()
}

// incTenantShed counts one submission shed by a tenant quota: the
// per-tenant breakdown and the aggregate jobsRejected move together.
func (c *counters) incTenantShed(tenant string) {
	c.mu.Lock()
	if c.shedByTenant == nil {
		c.shedByTenant = make(map[string]int64)
	}
	c.shedByTenant[tenant]++
	c.n[jobsRejected]++
	c.mu.Unlock()
}

// gauges are the values a scrape samples outside the counter lock: the
// job table's depths, the fault tallies (nil when the registry is
// disarmed) and Go runtime health.
type gauges struct {
	uptime                         float64
	queued, running, subscribers   int
	faults                         map[string]int64
	goroutines, heapAlloc, gcPause float64
}

// sampleRuntime fills the Go runtime gauges: live goroutines, heap in
// use, and cumulative GC pause time.
func (g *gauges) sampleRuntime() {
	g.goroutines = float64(runtime.NumGoroutine())
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	g.heapAlloc = float64(ms.HeapAlloc)
	g.gcPause = float64(ms.PauseTotalNs) / 1e9
}

// family is one metric family of a scrape: its Prometheus name (after
// the htserved_ prefix), HELP text and TYPE, and its samples. Both
// renderings of /v1/metrics are loops over one list of families, so the
// JSON object and the text exposition can never disagree about a scrape.
type family struct {
	name, help, typ string
	samples         []sample
	// json holds the JSON entries that are not one sample's value: a
	// labeled family's total and its per-label breakdown.
	json map[string]any
}

// sample is one series of a family: a name suffix (a histogram's
// _bucket, _sum or _count), its label pairs without braces, its value —
// a float64 renders in the shortest round-trip form, an integer with %d —
// and the JSON keys that carry the same value (none: Prometheus only).
type sample struct {
	suffix, labels string
	value          any
	json           []string
}

// metricFamilies is one scrape, in exposition order.
type metricFamilies []family

// counterFamily is a single-sample counter family.
func counterFamily(name, help string, v any, json ...string) family {
	return family{name: name, help: help, typ: "counter", samples: []sample{{value: v, json: json}}}
}

// gaugeFamily is a single-sample gauge family.
func gaugeFamily(name, help string, v float64, json ...string) family {
	return family{name: name, help: help, typ: "gauge", samples: []sample{{value: v, json: json}}}
}

// labeledFamily is a counter family with one sample per key of m, sorted
// for deterministic scrapes; an empty m still renders HELP and TYPE.
func labeledFamily(name, help, label string, m map[string]int64) family {
	f := family{name: name, help: help, typ: "counter"}
	for _, k := range slices.Sorted(maps.Keys(m)) {
		f.samples = append(f.samples, sample{labels: label + `="` + promLabel(k) + `"`, value: m[k]})
	}
	return f
}

// histogramFamily renders h in exposition order: cumulative buckets, the
// +Inf catch-all, then _sum and _count. count names the JSON keys of the
// sample count.
func histogramFamily(name, help string, h *histo.Histogram, count ...string) family {
	f := family{name: name, help: help, typ: "histogram"}
	for _, b := range h.Cumulative() {
		f.samples = append(f.samples, sample{suffix: "_bucket", labels: `le="` + promValue(b.Le) + `"`, value: b.Count})
	}
	f.samples = append(f.samples,
		sample{suffix: "_bucket", labels: `le="+Inf"`, value: h.Count()},
		sample{suffix: "_sum", value: h.Sum()},
		sample{suffix: "_count", value: h.Count(), json: count})
	return f
}

// families samples every metric family of one scrape, in a fixed order:
// ops dashboards and the exposition linter rely on a deterministic
// scrape. The counters are read in one lock acquisition; the shard
// series come from the coordinator's snapshot d (zero counts on a plain
// server) and the gauges from g.
func (c *counters) families(g gauges, d dist.Stats) metricFamilies {
	epochs := c.epochs.Load()
	var epochsPerSec float64
	if g.uptime > 0 {
		epochsPerSec = float64(epochs) / g.uptime
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	n := &c.n
	fs := metricFamilies{
		gaugeFamily("uptime_seconds", "Seconds since the service started.", g.uptime, "uptime_seconds"),

		counterFamily("jobs_submitted_total", "Accepted submissions, cache-served included.", n[jobsSubmitted], "jobs_submitted"),
		counterFamily("jobs_rejected_total", "Submissions shed with 429 backpressure.", n[jobsRejected], "jobs_rejected", "requests_shed"),
		counterFamily("jobs_started_total", "Jobs that entered execution (cache-served submissions and single-flight followers never start).", n[jobsStarted], "jobs_started"),
		counterFamily("jobs_done_total", "Jobs that reached the done state.", n[jobsDone], "jobs_done"),
		counterFamily("jobs_failed_total", "Jobs that reached the failed state.", n[jobsFailed], "jobs_failed"),
		counterFamily("jobs_cancelled_total", "Jobs cancelled while queued or running.", n[jobsCancelled], "jobs_cancelled"),
		counterFamily("jobs_timed_out_total", "Failed jobs whose cause was the --job-timeout deadline (also in jobs_failed_total).", n[jobsTimedOut], "jobs_timed_out"),

		gaugeFamily("queue_depth", "Jobs waiting in the FIFO queue.", float64(g.queued), "jobs_queued"),
		gaugeFamily("jobs_running", "Jobs currently executing.", float64(g.running), "jobs_running"),

		// The cache tiers share one family: tier=memory|disk hits, tier=miss
		// lookups that went to the queue.
		{name: "cache_lookups_total", help: "Content-addressed cache lookups at submission time, by outcome tier.", typ: "counter", samples: []sample{
			{labels: `tier="memory"`, value: n[cacheHits], json: []string{"cache_hits"}},
			{labels: `tier="disk"`, value: n[cacheDiskHits], json: []string{"cache_disk_hits"}},
			{labels: `tier="miss"`, value: n[cacheMisses], json: []string{"cache_misses"}},
		}},

		counterFamily("cache_corrupt_total", "Disk-tier entries that failed checksum verification and were quarantined.", n[cacheCorrupt], "cache_corrupt_quarantined"),
		counterFamily("single_flight_total", "Submissions coalesced onto an identical in-flight job.", n[singleFlight], "single_flight_dedup"),
		counterFamily("panics_recovered_total", "Panics contained by the per-job and per-request recovery layers.", n[panicsRecovered], "panics_recovered"),

		counterFamily("sse_events_dropped_total", "Events dropped from slow SSE subscribers' buffers (drop-oldest).", c.sseDropped.Load(), "sse_events_dropped"),
		gaugeFamily("sse_subscribers", "Live SSE subscribers across all jobs.", float64(g.subscribers)),

		counterFamily("epochs_observed_total", "Per-epoch samples observed across all jobs.", epochs, "epochs_observed"),
		gaugeFamily("epochs_per_second", "Aggregate simulation throughput since start.", epochsPerSec, "epochs_per_sec"),

		// Distributed execution and tenant sheds. The scalar families are
		// always present (dashboards and the CI smoke alert on them existing
		// at zero); the labeled ones have a sample per key seen so far.
		counterFamily("shards_executed_total", "Campaign shards executed by this process as a worker.", n[shardsExecuted]),
		counterFamily("shard_retries_total", "Shard dispatch attempts redispatched after a worker failure or timeout.", d.Retries),
		counterFamily("shard_cache_hits_total", "Shards answered from the coordinator's content-addressed shard cache.", d.CacheHits),
		labeledFamily("shards_dispatched_total", "Shard dispatch attempts, by worker URL.", "worker", d.Dispatched),
		labeledFamily("tenant_shed_total", "Submissions shed by a per-tenant quota (also in jobs_rejected_total), by tenant.", "tenant", c.shedByTenant),

		// Durability & lifecycle: the write-ahead job journal, the shard
		// checkpoint store, straggler hedging, and the per-worker circuit
		// breaker. Always present (the crash-recovery CI smoke asserts on
		// journal_replayed_total and shards_resumed_total directly).
		counterFamily("journal_appends_total", "Accepted submissions made durable in the write-ahead journal.", n[journalAppends], "journal_appends"),
		counterFamily("journal_replayed_total", "Journaled jobs re-enqueued at boot after a crash or restart.", n[journalReplayed], "journal_replayed"),
		counterFamily("shards_checkpointed_total", "Completed shard results spilled to the checkpoint store.", d.Checkpointed, "shards_checkpointed"),
		counterFamily("shards_resumed_total", "Shards answered from the checkpoint store instead of recomputed.", d.Resumed, "shards_resumed"),
		counterFamily("shard_hedges_total", "Speculative straggler redispatches (first byte-complete result wins).", d.Hedges, "shard_hedges"),
		counterFamily("worker_breaker_opens_total", "Per-worker circuit-breaker closed-to-open transitions.", d.BreakerOpens, "worker_breaker_opens"),

		// Latency histograms: the end-to-end job duration plus its
		// decomposition (queue residency, gate wait, per-shard round trips),
		// all on one bucket layout so attribution percentiles line up.
		histogramFamily("job_duration_seconds", "Job submission-to-terminal wall time.", c.jobDuration),
		histogramFamily("queue_wait_seconds", "Job residency in the admission queue before dispatch.", c.queueWait, "queue_wait_seconds_count"),
		histogramFamily("gate_wait_seconds", "Job wait on the execution concurrency gate.", c.gateWait, "gate_wait_seconds_count"),
		histogramFamily("shard_rtt_seconds", "Coordinator-side shard dispatch round-trip time (successful attempts).", d.RTT, "shard_rtt_seconds_count"),

		gaugeFamily("go_goroutines", "Live goroutines at scrape time.", g.goroutines, "go_goroutines"),
		gaugeFamily("go_heap_alloc_bytes", "Heap bytes in use at scrape time.", g.heapAlloc, "go_heap_alloc_bytes"),
		counterFamily("go_gc_pause_seconds_total", "Cumulative GC stop-the-world pause time.", g.gcPause, "go_gc_pause_seconds_total"),
	}
	// Fault-injection tallies appear only when the registry is armed.
	if g.faults != nil {
		f := labeledFamily("faults_injected_total", "Faults fired by the injection registry, by point.", "point", g.faults)
		var total int64
		for _, v := range g.faults {
			total += v
		}
		f.json = map[string]any{"faults_injected": total, "faults_by_point": g.faults}
		fs = append(fs, f)
	}
	return fs
}

// json renders the families as the /v1/metrics payload — the original
// expvar-style flat object of every sample that names a JSON key. The
// key set is frozen by test: the histogram buckets, the subscriber gauge
// and the shard, tenant and worker-side series stay Prometheus-only.
func (fs metricFamilies) json() map[string]any {
	m := make(map[string]any)
	for _, f := range fs {
		for _, s := range f.samples {
			for _, k := range s.json {
				m[k] = s.value
			}
		}
		maps.Copy(m, f.json)
	}
	return m
}

// promContentType is the exposition-format content type for 0.0.4.
const promContentType = "text/plain; version=0.0.4; charset=utf-8"

// promNamespace prefixes every exported metric family.
const promNamespace = "htserved"

// writePrometheus renders the families in the Prometheus text exposition
// format (version 0.0.4): one HELP and one TYPE line per family, then its
// samples. DESIGN.md §10.4 is the load harness's join contract on them.
func (fs metricFamilies) writePrometheus(w io.Writer) error {
	var b strings.Builder
	for _, f := range fs {
		name := promNamespace + "_" + f.name
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", name, f.help, name, f.typ)
		for _, s := range f.samples {
			b.WriteString(name + s.suffix)
			if s.labels != "" {
				b.WriteString("{" + s.labels + "}")
			}
			b.WriteString(" " + promValue(s.value) + "\n")
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// promValue formats a sample value or le bound: floats the way
// Prometheus does (shortest round-trip representation), integers in
// decimal.
func promValue(v any) string {
	if f, ok := v.(float64); ok {
		return strconv.FormatFloat(f, 'g', -1, 64)
	}
	return fmt.Sprint(v)
}

// labelEscaper applies the text format's only three label-value escapes.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// promLabel escapes a label value by the text format's rules: backslash,
// double quote and newline are escaped, everything else is written as
// UTF-8, with invalid bytes replaced by U+FFFD. Tenant names and worker
// URLs arrive from clients, so nothing else may be assumed about them.
func promLabel(v string) string {
	return labelEscaper.Replace(strings.ToValidUTF8(v, "\uFFFD"))
}
