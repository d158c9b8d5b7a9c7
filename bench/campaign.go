package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/results"
)

// smokeSpec is the 12-experiment smoke campaign: every experiment family
// of specs/paper.json at the scale of the root BenchmarkCampaignPaper.
//
//go:embed specs/campaign-smoke.json
var smokeSpec []byte

// inputsCycled is how many input seeds each offline workload cycles
// through, so one unlucky input cannot dominate a run.
const inputsCycled = 4

// inputSeeds derives n strictly positive input seeds (campaign or
// simulation seeds, where 0 would mean "default") from a workload seed.
func inputSeeds(seed int64, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = 1 + int64(uint64(exp.StreamSeed(seed, fmt.Sprintf("input-%d", i)))%(1<<31-1))
	}
	return out
}

// campaignSmoke regenerates the smoke campaign's artifacts: BuildTables
// over nproc workers, then WriteArtifact of every table.
type campaignSmoke struct {
	cfg   *runConfig
	seeds []int64
	// digests are the reference artifact digests per input seed, built
	// with one worker; nil when the instance only serves as a probe.
	digests []string
}

func openCampaignSmoke(cfg *runConfig, seed int64) (workload, error) {
	w := &campaignSmoke{cfg: cfg, seeds: inputSeeds(seed, inputsCycled)}
	dir, err := os.MkdirTemp(cfg.workDir, "campaign-ref-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	for _, s := range w.seeds {
		spec, err := smokeSpecWithSeed(s)
		if err != nil {
			return nil, err
		}
		paths, _, err := runSmoke(context.Background(), spec, 1, dir, spanRef{}, nil)
		if err != nil {
			return nil, err
		}
		d, err := digestFiles(paths)
		if err != nil {
			return nil, err
		}
		w.digests = append(w.digests, d)
	}
	return w, nil
}

// smokeSpecWithSeed parses the embedded smoke spec under one input seed.
func smokeSpecWithSeed(seed int64) (*campaign.Spec, error) {
	spec, err := campaign.ParseSpec(smokeSpec)
	if err != nil {
		return nil, err
	}
	spec.Seed = seed
	return spec, nil
}

// smokeTiming splits one campaign op into its two layer calls.
type smokeTiming struct{ build, write time.Duration }

// runSmoke is one campaign op: BuildTables, then WriteArtifact of every
// table into dir. It returns the written paths in table order. A non-nil
// rec (the traced pass) observes the run through Progress callbacks.
func runSmoke(ctx context.Context, spec *campaign.Spec, workers int, dir string, sp spanRef, rec *campaignOp) ([]string, smokeTiming, error) {
	var tm smokeTiming
	t0 := time.Now()
	bt := sp.childAt("campaign.build_tables", t0)
	var prog campaign.Progress
	if rec != nil {
		prog = rec.progress(bt)
	}
	tables, err := campaign.BuildTables(ctx, spec, workers, prog)
	t1 := time.Now()
	bt.endAt(t1)
	tm.build = t1.Sub(t0)
	if err != nil {
		return nil, tm, err
	}
	wa := sp.childAt("results.write_artifact", t1)
	paths := make([]string, 0, 2*len(tables))
	for _, t := range tables {
		j, c, err := results.WriteArtifact(dir, t)
		if err != nil {
			return nil, tm, err
		}
		paths = append(paths, j, c)
	}
	t2 := time.Now()
	wa.endAt(t2)
	tm.write = t2.Sub(t1)
	return paths, tm, nil
}

// digestFiles hashes the named files' base names and bytes, in order.
func digestFiles(paths []string) (string, error) {
	h := sha256.New()
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return "", err
		}
		io.WriteString(h, filepath.Base(p))
		h.Write([]byte{0})
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

type campaignInst struct {
	w     *campaignSmoke
	specs []*campaign.Spec
	dir   string
	next  atomic.Int64
}

// start is the campaign's set-up: parsing and validating the spec per
// input seed and making the artifact directory.
func (w *campaignSmoke) start(ctx context.Context) (instance, error) {
	in := &campaignInst{w: w}
	for _, s := range w.seeds {
		spec, err := smokeSpecWithSeed(s)
		if err != nil {
			return nil, err
		}
		in.specs = append(in.specs, spec)
	}
	dir, err := os.MkdirTemp(w.cfg.workDir, "campaign-*")
	if err != nil {
		return nil, err
	}
	in.dir = dir
	return in, nil
}

func (in *campaignInst) close() { os.RemoveAll(in.dir) }

func (in *campaignInst) firstOp(ctx context.Context) error {
	check, err := in.op(ctx, int(in.next.Add(1)-1), spanRef{}, nil)
	if err != nil {
		return err
	}
	return check()
}

func (in *campaignInst) measure(ctx context.Context, d time.Duration, tr *tracer) (*phase, error) {
	var st *campaignStats
	if tr != nil {
		st = &campaignStats{expMs: make(map[string][]float64)}
	}
	p, err := closedLoop(ctx, 1, d, tr, &in.next, func(ctx context.Context, i int, sp spanRef) (func() error, error) {
		return in.op(ctx, i, sp, st)
	})
	if err != nil {
		return nil, err
	}
	if st != nil {
		p.layer = st.metrics()
	}
	return p, nil
}

// op runs campaign i and returns the artifact digest check. With st set
// (the traced pass) it records one span per experiment from the Progress
// callbacks and the per-layer figures.
func (in *campaignInst) op(ctx context.Context, i int, sp spanRef, st *campaignStats) (func() error, error) {
	k := i % len(in.specs)
	var rec *campaignOp
	if st != nil {
		rec = &campaignOp{}
	}
	paths, tm, err := runSmoke(ctx, in.specs[k], in.w.cfg.nproc, in.dir, sp, rec)
	if err != nil {
		return nil, err
	}
	if rec != nil {
		st.add(rec, tm)
	}
	return func() error {
		if in.w.digests == nil {
			return nil
		}
		got, err := digestFiles(paths)
		if err != nil {
			return err
		}
		if got != in.w.digests[k] {
			return fmt.Errorf("artifacts of seed %d hash %.12s, reference %.12s", in.specs[k].Seed, got, in.w.digests[k])
		}
		return nil
	}, nil
}

// campaignOp collects one traced campaign's experiment timings from its
// Progress callbacks, which fire concurrently.
type campaignOp struct {
	mu      sync.Mutex
	parent  spanRef
	started map[string]time.Time
	spans   map[string]spanRef
	expMs   map[string]float64
	epochs  atomic.Int64
}

// progress returns the callbacks, opening experiment spans under parent.
func (r *campaignOp) progress(parent spanRef) campaign.Progress {
	r.parent = parent
	r.started = make(map[string]time.Time)
	r.spans = make(map[string]spanRef)
	r.expMs = make(map[string]float64)
	return campaign.Progress{
		ExperimentStarted: func(id string) {
			now := time.Now()
			r.mu.Lock()
			r.started[id] = now
			r.spans[id] = r.parent.childAt("campaign.experiment", now)
			r.mu.Unlock()
		},
		ExperimentDone: func(id string, _ results.Table, _ error) {
			now := time.Now()
			r.mu.Lock()
			r.spans[id].endAt(now)
			r.expMs[id] = float64(now.Sub(r.started[id])) / float64(time.Millisecond)
			r.mu.Unlock()
		},
		Epoch: func(string, core.EpochSample) { r.epochs.Add(1) },
	}
}

// campaignStats aggregates the traced pass's campaign-layer figures.
type campaignStats struct {
	mu      sync.Mutex
	expMs   map[string][]float64
	writeMs []float64
	overlap []float64
	epochs  int64
	ops     int
}

// add folds one finished traced op in.
func (s *campaignStats) add(r *campaignOp, tm smokeTiming) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	total := 0.0
	for id, v := range r.expMs {
		s.expMs[id] = append(s.expMs[id], v)
		total += v
	}
	s.writeMs = append(s.writeMs, float64(tm.write)/float64(time.Millisecond))
	if tm.build > 0 {
		s.overlap = append(s.overlap, total/(float64(tm.build)/float64(time.Millisecond)))
	}
	s.epochs += r.epochs.Load()
	s.ops++
}

func (s *campaignStats) metrics() map[string]float64 {
	m := map[string]float64{
		"results.write_ms":   median(s.writeMs),
		"exp.overlap":        median(s.overlap),
		"core.epochs_per_op": float64(s.epochs) / float64(max(s.ops, 1)),
	}
	for id, v := range s.expMs {
		m["campaign.exp_ms."+id] = median(v)
	}
	return m
}
