// Command bench is the repository benchmark. It measures four workloads
// end to end — the smoke campaign, one congested Table I simulation pair,
// an in-process htserved under open-loop mixed load, and a coordinator
// with two in-process workers — and, with --trace 1, a traced pass that
// attributes op time to each layer. It calls every layer only through its
// public functions and checks every op's output against references it
// computes before timing.
//
// Usage (from the repository root; see bench/README.md):
//
//	bash bench/run.sh --workload campaign-smoke --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh -seed 1 -out a.json      # all four workloads
//	bash bench/run.sh -compare a.json b.json   # deltas against the bounds
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: every end-to-end metric with
// --trace 0, every per-layer metric with --trace 1. Any verification
// failure makes the command exit 1.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/exp"
	"repro/internal/results"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// buildDir holds everything a run leaves behind (scratch artifacts,
// journals, span files), relative to the working directory.
const buildDir = ".bench_build"

// Cheap set-ups (a server boot is milliseconds) repeat until this much
// time is spent, up to setupMaxReps, so their median settles.
const (
	setupBudget  = time.Second
	setupMaxReps = 100
)

// tracedPass is the traced pass's length. It runs after an untraced pass
// of the full --seconds, so a traced run's untraced figures are measured
// exactly as an untraced run's are.
const tracedPass = 8 * time.Second

// runConfig is one invocation's measurement settings.
type runConfig struct {
	seed int64
	// measure is the untraced pass length; traced the traced pass length
	// (0 = no traced pass).
	measure, traced time.Duration
	// warmup is the untimed stretch between set-up and measuring.
	warmup time.Duration
	// setupReps is the fewest cold starts setup_s takes the median of;
	// cheap set-ups repeat up to setupMaxReps times or setupBudget.
	setupReps int
	// workDir is the scratch directory for artifacts and journals.
	workDir string
	// nproc is the CPU count: GOMAXPROCS, campaign workers, and the cap on
	// load-generator goroutines and HTTP connections.
	nproc int
}

// workload is a workload whose references are computed.
type workload interface {
	// start builds a cold instance: config and spec build, or server
	// construction through a ready health check.
	start(ctx context.Context) (instance, error)
}

// instance is one started workload.
type instance interface {
	// firstOp runs the op that ends set-up.
	firstOp(ctx context.Context) error
	// measure runs ops for d, verifying each, and traces them when tr is
	// non-nil.
	measure(ctx context.Context, d time.Duration, tr *tracer) (*phase, error)
	// close releases the instance: servers, listeners, scratch files.
	close()
}

// metricValue is one printed metric. Spread is the within-run spread
// (interquartile range ÷ median across the phase's windows, or across
// the set-up repetitions) when one can be computed.
type metricValue struct {
	Value  float64  `json:"value"`
	Unit   string   `json:"unit"`
	Spread *float64 `json:"spread,omitempty"`
}

// workloadResult is one workload's section of the result file.
type workloadResult struct {
	Name string `json:"name"`
	Loop string `json:"loop"`
	// Seed is the workload's input seed, exp.StreamSeed(seed, name).
	Seed      int64                  `json:"seed"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Failures  []string               `json:"failures,omitempty"`
	Durations map[string]float64     `json:"durations_s"`
	Samples   map[string]int         `json:"samples"`
	Metrics   map[string]metricValue `json:"metrics"`
	PerLayer  map[string]metricValue `json:"per_layer,omitempty"`
	Info      map[string]any         `json:"info,omitempty"`

	tracer *tracer
}

// stamp identifies the machine and build a result came from.
type stamp struct {
	Nproc      int      `json:"nproc"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	CPU        string   `json:"cpu"`
	Go         string   `json:"go"`
	Revision   string   `json:"revision"`
	Seed       int64    `json:"seed"`
	Seconds    int      `json:"seconds"`
	Traced     bool     `json:"traced"`
	Args       []string `json:"args"`
	Started    string   `json:"started"`
}

// resultFile is what -out writes and -compare reads.
type resultFile struct {
	Stamp     stamp             `json:"stamp"`
	Workloads []*workloadResult `json:"workloads"`
}

// run parses the flags and runs the benchmark or a comparison. A
// benchmark runner appends --workload <name> --seed <n> --seconds
// <run_seconds> --trace <0|1> to BENCHMARK.json's command, one workload
// per invocation; those four flags are that protocol. -out and -compare
// serve comparing two commits by hand (README.md).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run: all, or one of "+workloadNames())
	seed := fs.Int64("seed", 1, "input seed; each workload derives its own with exp.StreamSeed(seed, name)")
	seconds := fs.Int("seconds", 20, "length of the untraced pass, in seconds per workload")
	traceArg := fs.Int("trace", 0, fmt.Sprintf("1: after the untraced pass, run a %v traced pass, print the per-layer metrics and write spans under %s/", tracedPass, buildDir))
	out := fs.String("out", "", "also write the stamped result file here")
	compare := fs.Bool("compare", false, "compare two result sets instead of running: -compare A B, each a comma-separated list of result files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare needs two result sets: -compare A B")
			return 2
		}
		breach, err := compareResults(strings.Split(fs.Arg(0), ","), strings.Split(fs.Arg(1), ","), stdout)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		if breach {
			return 1
		}
		return 0
	}
	if fs.NArg() != 0 || *seconds < 1 || (*traceArg != 0 && *traceArg != 1) {
		fmt.Fprintln(stderr, "bench: unexpected arguments; see -h")
		return 2
	}
	var defs []workloadDef
	if *name == "all" {
		defs = workloads
	} else if d, ok := workloadByName(*name); ok {
		defs = []workloadDef{d}
	} else {
		fmt.Fprintf(stderr, "bench: unknown workload %q (known: all, %s)\n", *name, workloadNames())
		return 2
	}
	traced := *traceArg == 1
	spanPath := filepath.Join(buildDir, fmt.Sprintf("spans-%s-seed%d.json", *name, *seed))

	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)
	cfg := &runConfig{
		seed:      *seed,
		measure:   time.Duration(*seconds) * time.Second,
		warmup:    time.Second,
		setupReps: 5,
		nproc:     nproc,
	}
	if traced {
		cfg.traced = tracedPass
	}
	// A run must end on its own, well inside three minutes per workload;
	// the deadline turns a hang into a failed run instead of a killed one.
	limit := time.Duration(len(defs)) * (cfg.measure + cfg.traced + 100*time.Second)
	ctx, cancel := context.WithTimeout(context.Background(), limit)
	defer cancel()
	ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()

	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	work, err := os.MkdirTemp(buildDir, "run-*")
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	defer os.RemoveAll(work)
	cfg.workDir = work

	rf := &resultFile{Stamp: stamp{
		Nproc:      nproc,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Revision:   results.Revision(),
		Seed:       *seed,
		Seconds:    *seconds,
		Traced:     traced,
		Args:       args,
		Started:    time.Now().UTC().Format(time.RFC3339),
	}}
	fmt.Fprintf(stdout, "bench: nproc %d, GOMAXPROCS %d, %s, revision %s, seed %d, %ds per workload\n",
		rf.Stamp.Nproc, rf.Stamp.GOMAXPROCS, rf.Stamp.Go, rf.Stamp.Revision, *seed, *seconds)
	for _, d := range defs {
		res, err := runWorkload(ctx, d, cfg)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", d.name, err)
			return 1
		}
		printWorkload(stdout, res, traced)
		rf.Workloads = append(rf.Workloads, res)
	}
	if traced {
		if err := writeSpanFile(spanPath, rf.Workloads); err != nil {
			fmt.Fprintln(stderr, "bench: spans:", err)
			return 1
		}
		fmt.Fprintf(stdout, "spans written to %s\n", spanPath)
	}
	if *out != "" {
		rf.Stamp.CPU = cpuModel()
		b, err := json.MarshalIndent(rf, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "bench: result file:", err)
			return 1
		}
	}
	line, failed := summaryLine(rf.Workloads, traced)
	fmt.Fprintln(stdout, line)
	if failed {
		return 1
	}
	return 0
}

// workloadNames lists the workload names for usage text.
func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// runWorkload computes references, times set-up, warms up, runs the
// untraced pass and, when configured, the traced pass with its probes.
func runWorkload(ctx context.Context, d workloadDef, cfg *runConfig) (*workloadResult, error) {
	res := &workloadResult{
		Name:      d.name,
		Loop:      d.loop,
		Seed:      exp.StreamSeed(cfg.seed, d.name),
		Durations: make(map[string]float64),
		Samples:   make(map[string]int),
		Metrics:   make(map[string]metricValue),
		Info:      make(map[string]any),
	}
	start := time.Now()
	defer func() { res.Durations["total"] = time.Since(start).Seconds() }()
	t0 := time.Now()
	w, err := d.open(cfg, res.Seed)
	if err != nil {
		return nil, fmt.Errorf("references: %w", err)
	}
	res.Durations["references"] = time.Since(t0).Seconds()

	var setups []float64
	var inst instance
	defer func() {
		if inst != nil {
			inst.close()
		}
	}()
	setupStart := time.Now()
	for r := 0; r < cfg.setupReps || (r < setupMaxReps && time.Since(setupStart) < setupBudget); r++ {
		if inst != nil {
			inst.close()
			inst = nil
		}
		t0 := time.Now()
		inst, err = w.start(ctx)
		if err != nil {
			return nil, fmt.Errorf("start: %w", err)
		}
		res.Attempted++
		if err := inst.firstOp(ctx); err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			res.Failed++
			res.Failures = append(res.Failures, "first op: "+err.Error())
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	res.Durations["setup"] = sum(setups)
	res.Samples["setup"] = len(setups)
	res.Metrics["setup_s"] = metricValue{Value: median(setups), Unit: "s", Spread: finite(spread(setups))}

	tally := func(p *phase) {
		res.Durations["after_phases"] += p.after.Seconds()
		res.Attempted += p.attempted
		res.Failed += p.failed
		for _, f := range p.failures {
			if len(res.Failures) < maxFailures {
				res.Failures = append(res.Failures, f)
			}
		}
	}
	warm, err := inst.measure(ctx, cfg.warmup, nil)
	if err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	tally(warm)
	res.Durations["warmup"] = warm.elapsed.Seconds()

	p, err := inst.measure(ctx, cfg.measure, nil)
	if err != nil {
		return nil, fmt.Errorf("measure: %w", err)
	}
	tally(p)
	if len(p.lat) == 0 {
		return nil, errors.New("measure: no op completed")
	}
	res.Durations["measured"] = p.elapsed.Seconds()
	res.Samples["ops"] = len(p.lat)
	untracedMetrics(res, p)
	if err := checkFinite(res.Metrics); err != nil {
		return nil, err
	}
	for k, v := range p.info {
		res.Info[k] = v
	}

	if cfg.traced > 0 {
		tr := newTracer()
		tp, err := inst.measure(ctx, cfg.traced, tr)
		if err != nil {
			return nil, fmt.Errorf("traced pass: %w", err)
		}
		tally(tp)
		if len(tp.lat) == 0 {
			return nil, errors.New("traced pass: no op completed")
		}
		res.Durations["traced"] = tp.elapsed.Seconds()
		res.Samples["traced_ops"] = len(tp.lat)
		res.tracer = tr
		t0 := time.Now()
		if err := perLayerMetrics(ctx, res, cfg, p, tp); err != nil {
			return nil, err
		}
		res.Durations["probes"] = time.Since(t0).Seconds()
	}
	return res, nil
}

// untracedMetrics fills the untraced pass's metrics: the gated
// allocation and the op timings. Latency percentiles take every sample
// (a shed request as its penalty); throughput counts verified ops only.
func untracedMetrics(res *workloadResult, p *phase) {
	lat := ms(p.lat)
	p50 := func(l []time.Duration, _ time.Duration) float64 { return median(ms(l)) }
	p90 := func(l []time.Duration, _ time.Duration) float64 { return quantile(ms(l), 0.9) }
	res.Metrics["op_p50_ms"] = metricValue{Value: median(lat), Unit: "ms", Spread: finite(spread(p.windows(5, p50)))}
	res.Metrics["op_p90_ms"] = metricValue{Value: quantile(lat, 0.9), Unit: "ms", Spread: finite(spread(p.windows(5, p90)))}
	res.Metrics["throughput_ops_s"] = metricValue{Value: float64(p.completed) / p.elapsed.Seconds(), Unit: "1/s"}
	res.Metrics["alloc_mb_per_op"] = metricValue{Value: float64(p.allocBytes) / float64(p.attempted) / 1e6, Unit: "MB"}
}

// checkFinite rejects a metric a phase could not measure (NaN or ±Inf):
// a run must fail rather than print it.
func checkFinite(ms map[string]metricValue) error {
	for k, v := range ms {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return fmt.Errorf("metric %s is %v", k, v.Value)
		}
	}
	return nil
}

// perLayerMetrics fills the traced pass's metrics: op-level figures and
// self-time shares from the spans, the workload's own layer metrics, and
// probes for the layers its ops do not reach.
func perLayerMetrics(ctx context.Context, res *workloadResult, cfg *runConfig, untraced, traced *phase) error {
	vals := make(map[string]float64)
	for _, m := range untracedTiming {
		vals[m.Name] = res.Metrics[m.Name].Value
	}
	tp50 := median(ms(traced.lat))
	vals["op.traced_p50_ms"] = tp50
	vals["obs.trace_overhead_pct"] = (tp50/median(ms(untraced.lat)) - 1) * 100
	for _, l := range selfLayers {
		vals["self_pct."+l] = 0
	}
	self, total, _ := res.tracer.selfTimes()
	for name, d := range self {
		if _, known := vals["self_pct."+name]; !known {
			name = "other"
		}
		vals["self_pct."+name] += 100 * d.Seconds() / total.Seconds()
	}
	for k, v := range traced.layer {
		vals[k] = v
	}
	// A probe fills only what the workload's own ops did not measure; its
	// op-level figures (epochs per op) describe the probe, not the op.
	fill := func(m map[string]float64) {
		for k, v := range m {
			if _, ok := vals[k]; !ok {
				vals[k] = v
			}
		}
	}
	fill(untraced.layer) // serve-mixed's rate ladder runs in the untraced pass
	noc, err := nocProbes(ctx, res.Seed)
	if err != nil {
		return fmt.Errorf("noc probes: %w", err)
	}
	fill(noc)
	if _, ok := vals["core.epoch_ms"]; !ok {
		m, err := coreProbe(ctx, cfg)
		if err != nil {
			return fmt.Errorf("core probe: %w", err)
		}
		fill(m)
	}
	if _, ok := vals["results.write_ms"]; !ok {
		m, err := campaignProbe(ctx, cfg)
		if err != nil {
			return fmt.Errorf("campaign probe: %w", err)
		}
		fill(m)
	}
	res.PerLayer = make(map[string]metricValue, len(perLayer))
	for _, m := range perLayer {
		v, ok := vals[m.Name]
		switch {
		case !ok && m.serve:
			v = 0 // the workload's ops never reach a server
		case !ok:
			return fmt.Errorf("per-layer metric %s was not measured", m.Name)
		case math.IsNaN(v) || math.IsInf(v, 0):
			return fmt.Errorf("per-layer metric %s is %v", m.Name, v)
		}
		res.PerLayer[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	return nil
}

// summaryLine renders the final stdout line, with the end-to-end metrics
// or, for a traced run, the per-layer ones, and reports whether any op
// failed verification. A single workload prints its metrics by name; all
// four prefix each name with "<workload>/".
func summaryLine(rs []*workloadResult, traced bool) (string, bool) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{Metrics: make(map[string]mv)}
	for _, r := range rs {
		out.Attempted += r.Attempted
		out.Failed += r.Failed
		defs, set := endToEnd, r.Metrics
		if traced {
			defs, set = perLayer, r.PerLayer
		}
		for _, m := range defs {
			k, v := m.Name, set[m.Name]
			if len(rs) > 1 {
				k = r.Name + "/" + k
			}
			out.Metrics[k] = mv{v.Value, v.Unit}
		}
	}
	out.Correct = out.Failed == 0
	b, err := json.Marshal(out)
	if err != nil {
		panic(err) // runWorkload rejects non-finite metrics, the only way this fails
	}
	return string(b), !out.Correct
}

// printWorkload renders one workload's human-readable report.
func printWorkload(w io.Writer, r *workloadResult, traced bool) {
	fmt.Fprintf(w, "\n== %s (%s), input seed %d\n", r.Name, r.Loop, r.Seed)
	var parts []string
	for _, k := range slices.Sorted(maps.Keys(r.Durations)) {
		parts = append(parts, fmt.Sprintf("%s %.2fs", k, r.Durations[k]))
	}
	fmt.Fprintf(w, "time: %s\n", strings.Join(parts, ", "))
	fmt.Fprintf(w, "samples: setup %d, ops %d, traced ops %d; verified %d, failed %d (fail_frac %.4f)\n",
		r.Samples["setup"], r.Samples["ops"], r.Samples["traced_ops"], r.Attempted, r.Failed,
		float64(r.Failed)/float64(max(r.Attempted, 1)))
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  FAIL %s\n", f)
	}
	fmt.Fprintf(w, "%-20s %14s %-10s %7s %8s\n", "untraced pass", "value", "unit", "bound", "spread")
	for _, m := range append(endToEnd, untracedTiming...) {
		v := r.Metrics[m.Name]
		sp := "-"
		if v.Spread != nil {
			sp = fmt.Sprintf("%.1f%%", *v.Spread*100)
		}
		bound := "-"
		if m.Bound > 0 {
			bound = fmt.Sprintf("%.0f%%", m.Bound*100)
		}
		fmt.Fprintf(w, "%-20s %14.4f %-10s %7s %8s\n", m.Name, v.Value, m.Unit, bound, sp)
	}
	for _, k := range slices.Sorted(maps.Keys(r.Info)) {
		b, _ := json.Marshal(r.Info[k])
		fmt.Fprintf(w, "info %s: %s\n", k, b)
	}
	if !traced {
		return
	}
	fmt.Fprintf(w, "%-36s %14s %s\n", "per-layer (traced pass)", "value", "unit")
	for _, m := range perLayer {
		v := r.PerLayer[m.Name]
		fmt.Fprintf(w, "%-36s %14s %s\n", m.Name, strconv.FormatFloat(v.Value, 'g', 6, 64), m.Unit)
	}
}

// writeSpanFile writes every traced workload's spans to one file.
func writeSpanFile(path string, rs []*workloadResult) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	type entry struct {
		Workload string    `json:"workload"`
		Start    time.Time `json:"start"`
		Spans    []spanRec `json:"spans"`
	}
	var doc struct {
		Workloads []entry `json:"workloads"`
	}
	for _, r := range rs {
		if r.tracer == nil {
			continue
		}
		r.tracer.mu.Lock()
		doc.Workloads = append(doc.Workloads, entry{r.Name, r.tracer.t0, r.tracer.spans})
		r.tracer.mu.Unlock()
	}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// cpuModel reads the CPU model name for the result stamp.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// finite returns &x, or nil when x is NaN or infinite.
func finite(x float64) *float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return nil
	}
	return &x
}
