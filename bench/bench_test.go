package main

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/loadgen"
)

// testConfig runs each pass for a fraction of a second: enough for a few
// ops of every workload.
func testConfig(t *testing.T) *runConfig {
	t.Helper()
	return &runConfig{
		seed:      1,
		measure:   300 * time.Millisecond,
		traced:    300 * time.Millisecond,
		warmup:    50 * time.Millisecond,
		setupReps: 1,
		workDir:   t.TempDir(),
		nproc:     runtime.NumCPU(),
	}
}

// benchmarkFile is the slice of the root BENCHMARK.json the tests check.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricEntry `json:"end_to_end"`
	PerLayer []metricEntry `json:"per_layer"`
}

// metricEntry is one metric of BENCHMARK.json (per-layer ones carry no
// bound).
type metricEntry struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestBenchmarkFileMatchesCatalog pins BENCHMARK.json to the metrics and
// workloads this program prints.
func TestBenchmarkFileMatchesCatalog(t *testing.T) {
	f := loadBenchmarkFile(t)
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(f.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if f.Workloads[i].Name != w.name || f.Workloads[i].Why != w.why {
			t.Errorf("workload %d: file %q/%q, program %q/%q", i, f.Workloads[i].Name, f.Workloads[i].Why, w.name, w.why)
		}
	}
	if len(f.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the program %d", len(f.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		g := f.EndToEnd[i]
		if g.Name != m.Name || g.Unit != m.Unit || g.Better != m.Better || g.Bound != m.Bound {
			t.Errorf("end-to-end %d: file %+v, program %+v", i, g, m)
		}
	}
	if len(f.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the program %d", len(f.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		g := f.PerLayer[i]
		if g.Name != m.Name || g.Unit != m.Unit || g.Better != m.Better {
			t.Errorf("per-layer %d: file %+v, program %+v", i, g, m)
		}
	}
}

// TestWorkloadsEmitEveryMetric runs every workload for a few ops through
// both passes and checks that each prints exactly the metrics
// BENCHMARK.json names, with their units, and verifies clean.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	f := loadBenchmarkFile(t)
	for _, d := range workloads {
		t.Run(d.name, func(t *testing.T) {
			res, err := runWorkload(context.Background(), d, testConfig(t))
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("verified %d ops, %d failed: %v", res.Attempted, res.Failed, res.Failures)
			}
			for _, pass := range []struct {
				traced bool
				want   map[string]string
			}{{false, unitsOf(f.EndToEnd)}, {true, unitsOf(f.PerLayer)}} {
				line, failed := summaryLine([]*workloadResult{res}, pass.traced)
				if failed {
					t.Errorf("summary reports a failure: %s", line)
				}
				var out struct {
					Correct   bool `json:"correct"`
					Attempted int  `json:"attempted"`
					Metrics   map[string]struct {
						Value float64 `json:"value"`
						Unit  string  `json:"unit"`
					} `json:"metrics"`
				}
				if err := json.Unmarshal([]byte(line), &out); err != nil {
					t.Fatalf("summary line is not JSON: %v", err)
				}
				got := make(map[string]string, len(out.Metrics))
				for k, v := range out.Metrics {
					got[k] = v.Unit
				}
				if !reflect.DeepEqual(got, pass.want) {
					t.Errorf("traced=%v: printed %v, want %v", pass.traced, got, pass.want)
				}
			}
			for _, m := range endToEnd {
				if v := res.Metrics[m.Name].Value; !(v > 0) {
					t.Errorf("%s = %v, want > 0", m.Name, v)
				}
			}
			// Op-level figures are the workload's own, never a probe's.
			if got := res.PerLayer["core.epochs_per_op"].Value; d.name == "sim-congested" && got != simEpochs {
				t.Errorf("sim-congested core.epochs_per_op = %v, want %d", got, simEpochs)
			}
		})
	}
}

func unitsOf(ms []metricEntry) map[string]string {
	out := make(map[string]string, len(ms))
	for _, m := range ms {
		out[m.Name] = m.Unit
	}
	return out
}

// TestWrongReferenceFails corrupts each checkable reference and expects
// the run to count failed ops and report itself incorrect.
func TestWrongReferenceFails(t *testing.T) {
	corrupt := map[string]func(workload){
		"campaign-smoke": func(w workload) { w.(*campaignSmoke).digests[0] = "not-the-digest" },
		"sim-congested":  func(w workload) { w.(*simCongested).refs[0].attacked.Net.HopSum++ },
		"serve-mixed": func(w workload) {
			m := w.(*serveMixed)
			m.refs[loadgen.DefaultSpec] = map[string][]byte{"e1.json": []byte("{}"), "e1.csv": nil, "e1.txt": nil, "e3.json": nil, "e3.csv": nil, "e3.txt": nil}
		},
	}
	for name, bad := range corrupt {
		t.Run(name, func(t *testing.T) {
			d, _ := workloadByName(name)
			open := d.open
			d.open = func(cfg *runConfig, seed int64) (workload, error) {
				w, err := open(cfg, seed)
				if err == nil {
					bad(w)
				}
				return w, err
			}
			cfg := testConfig(t)
			cfg.traced = 0
			res, err := runWorkload(context.Background(), d, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed == 0 {
				t.Fatalf("a wrong reference went unnoticed over %d ops", res.Attempted)
			}
			if _, failed := summaryLine([]*workloadResult{res}, false); !failed {
				t.Error("summary line reports a correct run")
			}
		})
	}
}

// TestSameSeedSameInputs: the inputs — the serving schedules, the input
// seeds — and the simulated statistics depend on the seed alone.
func TestSameSeedSameInputs(t *testing.T) {
	cfg := testConfig(t)
	m1 := &serveMixed{cfg: cfg, seed: 7}
	m2 := &serveMixed{cfg: cfg, seed: 7}
	a, err := m1.plan("phase-1", mixedRate, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := m2.plan("phase-1", mixedRate, time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed, different serve-mixed schedules")
	}
	if len(a) != int(mixedRate) || a[len(a)-1].AtMicros != time.Second.Microseconds() {
		t.Errorf("schedule offers %d ops, last due at %dµs; want %d ops, last at 1s", len(a), a[len(a)-1].AtMicros, int(mixedRate))
	}
	if c, _ := (&serveMixed{cfg: cfg, seed: 8}).plan("phase-1", mixedRate, time.Second); reflect.DeepEqual(a, c) {
		t.Error("different seeds, identical schedules")
	}
	d1, _ := (&serveDist{cfg: cfg, seed: 7}).distPlan("phase-1", 10)
	d2, _ := (&serveDist{cfg: cfg, seed: 7}).distPlan("phase-1", 10)
	if !reflect.DeepEqual(d1, d2) {
		t.Error("same seed, different serve-dist bodies")
	}
	g1, err := coreProbe(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := coreProbe(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"noc.packets_delivered", "noc.packet_hops", "noc.power_req_latency_cycles",
		"noc.tampered_power_req", "mem.avg_latency_ns", "core.q"} {
		if g1[k] != g2[k] || !(g1[k] > 0) {
			t.Errorf("%s: %v then %v at the same seed", k, g1[k], g2[k])
		}
	}
}

// TestSelfTimes: each instant goes to the deepest covering span, so an
// op's shares sum to its duration even with overlapping children.
func TestSelfTimes(t *testing.T) {
	tr := newTracer()
	t0 := tr.t0
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	op := tr.newOp(at(0))
	a := op.childAt("a", at(10))
	a.span("c", at(20), at(40))
	a.endAt(at(60))
	op.span("b", at(50), at(90)) // overlaps a's tail at the same depth
	op.endAt(at(100))
	self, total, ops := tr.selfTimes()
	want := map[string]time.Duration{
		"op": 20 * time.Millisecond, // 0–10 and 90–100
		"a":  20 * time.Millisecond, // 10–20 and 40–50
		"c":  20 * time.Millisecond,
		"b":  40 * time.Millisecond, // 50–90: b started after a
	}
	if ops != 1 || total != 100*time.Millisecond || !reflect.DeepEqual(self, want) {
		t.Errorf("got %v over %v (%d ops), want %v over 100ms", self, total, ops, want)
	}
}

// TestQuartilesMatchPython: the spread uses Python's default quartiles.
func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
}

// TestCompare: within the bound passes, a steady regression beyond it
// breaches, a spread wider than the bound is unresolved, a metric without
// a bound never breaches, and runs of different lengths do not compare.
func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, seconds int, metric string, v, sp float64) string {
		r := &workloadResult{Name: "sim-congested", Metrics: map[string]metricValue{}}
		for _, m := range append(append([]metricDef(nil), endToEnd...), untracedTiming...) {
			s := 0.01
			r.Metrics[m.Name] = metricValue{Value: 100, Unit: m.Unit, Spread: &s}
		}
		r.Metrics[metric] = metricValue{Value: v, Unit: r.Metrics[metric].Unit, Spread: &sp}
		b, _ := json.Marshal(resultFile{Stamp: stamp{Seconds: seconds}, Workloads: []*workloadResult{r}})
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	base := write("a.json", 20, "alloc_mb_per_op", 100, 0.01)
	for _, c := range []struct {
		file      string
		breach    bool
		wantInRow string
	}{
		{write("same.json", 20, "alloc_mb_per_op", 104, 0.01), false, "+4.0% ok"},
		{write("slow.json", 20, "alloc_mb_per_op", 150, 0.01), true, "+50.0% REGRESSION"},
		{write("noisy.json", 20, "alloc_mb_per_op", 150, 0.5), false, "+50.0% unresolved"},
		{write("timing.json", 20, "op_p50_ms", 150, 0.01), false, "+50.0% worse"},
		{write("timing-noise.json", 20, "op_p50_ms", 100.5, 0.01), false, "+0.5% -"},
	} {
		var out strings.Builder
		breach, err := compareResults([]string{base}, []string{c.file}, &out)
		if err != nil {
			t.Fatal(err)
		}
		if breach != c.breach || !strings.Contains(out.String(), c.wantInRow) {
			t.Errorf("%s: breach %v, output:\n%s", c.file, breach, out.String())
		}
	}
	if _, err := compareResults([]string{base}, []string{write("short.json", 10, "alloc_mb_per_op", 100, 0.01)}, io.Discard); err == nil {
		t.Error("compared a 20 s run with a 10 s run")
	}
}

// TestMixedThroughputCountsVerifiedOps: a shed request enters the
// percentiles as its penalty and a failed one leaves no sample, and
// neither counts towards serve-mixed's throughput.
func TestMixedThroughputCountsVerifiedOps(t *testing.T) {
	const d = time.Second
	throughput := func(mark func(r *mixedRun)) (float64, *phase) {
		ops := make([]loadgen.Op, 10)
		r := newMixedRun(nil, ops, nil)
		for i := range ops {
			ops[i].AtMicros = int64(i) * 100_000
			r.lat[i] = time.Millisecond
		}
		mark(r)
		p := &phase{elapsed: d}
		r.tally(p, d)
		res := &workloadResult{Metrics: make(map[string]metricValue)}
		untracedMetrics(res, p)
		return res.Metrics["throughput_ops_s"].Value, p
	}
	all, _ := throughput(func(*mixedRun) {})
	some, p := throughput(func(r *mixedRun) {
		r.shed[1], r.shed[2] = true, true
		r.failed[3] = true
	})
	if all != 10 || some != 7 {
		t.Errorf("throughput %v with every op verified, %v with 2 shed and 1 failed; want 10 and 7", all, some)
	}
	if p.attempted != 10 || len(p.lat) != 9 || quantile(ms(p.lat), 1) != float64(d/time.Millisecond) {
		t.Errorf("attempted %d, %d latency samples, max %v ms; want 10, 9 (no sample for the failed op), a shed penalty of %v",
			p.attempted, len(p.lat), quantile(ms(p.lat), 1), d)
	}
}

// TestProtocolRun drives one workload through the flags a benchmark
// runner passes and checks the final line: every end-to-end metric, with
// its unit, and a clean verification.
func TestProtocolRun(t *testing.T) {
	want := unitsOf(loadBenchmarkFile(t).EndToEnd)
	t.Chdir(t.TempDir()) // the run's scratch directory lands here
	var stdout strings.Builder
	code := run([]string{"--workload", "serve-dist", "--seed", "3", "--seconds", "1", "--trace", "0"}, &stdout, io.Discard)
	if code != 0 {
		t.Fatalf("exit %d; output:\n%s", code, stdout.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var out struct {
		Correct   bool `json:"correct"`
		Attempted int  `json:"attempted"`
		Failed    int  `json:"failed"`
		Metrics   map[string]struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
		t.Fatalf("last line is not JSON: %v", err)
	}
	if !out.Correct || out.Attempted == 0 || out.Failed != 0 {
		t.Errorf("correct %v, attempted %d, failed %d", out.Correct, out.Attempted, out.Failed)
	}
	got := make(map[string]string)
	for k, v := range out.Metrics {
		got[k] = v.Unit
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("printed %v, want %v", got, want)
	}
	if code := run([]string{"--trace", "spans.json"}, io.Discard, io.Discard); code != 2 {
		t.Errorf("--trace spans.json: exit %d, want 2 (only 0 and 1 are valid)", code)
	}
}
