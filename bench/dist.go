package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/exp"
	"repro/internal/loadgen"
	"repro/internal/obs"
	"repro/internal/server"
)

// serve-dist runs a coordinator over two in-process workers given as
// static WorkerURLs. Each op is one distributed job: a unique E1+E3+X1
// campaign, as in htload's distributed kind, submitted and then followed
// over its event stream to the end.
//
// The coordinator runs without a journal. A journal brings shard
// checkpoints with it (a directory and two files per shard, ~900 per
// second here), and on a virtual disk that metadata churn made job
// latency climb from 12 to 25 ms over consecutive runs and stay high for
// minutes, against 10–11 ms steady without it. No workload therefore
// exercises journal fsync or shard checkpoints.
const (
	distCallers = 2
	distWorkers = 2
	// distAuditEvery is how often a finished job's artifacts are fetched
	// and compared against a one-worker local run, after the phase's clock
	// has stopped.
	distAuditEvery = 10
)

type serveDist struct {
	cfg  *runConfig
	seed int64
}

func openServeDist(cfg *runConfig, seed int64) (workload, error) {
	return &serveDist{cfg: cfg, seed: seed}, nil
}

// distPlan returns the phase's unique distributed campaign bodies:
// loadgen.BuildPlan in closed mode with only the distributed kind, seeded
// per phase so no payload repeats across phases.
func (w *serveDist) distPlan(name string, n int) ([]string, error) {
	p, err := loadgen.BuildPlan(loadgen.Config{
		Mode:     loadgen.ModeClosed,
		Clients:  distCallers,
		Requests: (n + distCallers - 1) / distCallers,
		Seed:     exp.StreamSeed(w.seed, name),
		Mix:      loadgen.Mix{Distributed: 1},
	})
	if err != nil {
		return nil, err
	}
	bodies := make([]string, len(p.Ops))
	for i, op := range p.Ops {
		bodies[i] = op.Body
	}
	return bodies, nil
}

type distInst struct {
	w       *serveDist
	workers []*service
	coord   *service
	client  *http.Client
	phases  int
}

// start boots two workers and a coordinator on loopback listeners and
// waits until the coordinator's /v1/healthz answers 200, which needs a
// quorum of its pool reachable.
func (w *serveDist) start(ctx context.Context) (instance, error) {
	in := &distInst{w: w, client: newLoadClient(w.cfg.nproc)}
	var urls []string
	for i := 0; i < distWorkers; i++ {
		svc, err := startService(server.Options{})
		if err != nil {
			in.close()
			return nil, err
		}
		in.workers = append(in.workers, svc)
		urls = append(urls, svc.url)
	}
	var err error
	in.coord, err = startService(server.Options{WorkerURLs: urls, Jobs: distCallers, QueueDepth: 64})
	if err != nil {
		in.close()
		return nil, err
	}
	if err := waitReady(ctx, in.client, in.coord.url); err != nil {
		in.close()
		return nil, err
	}
	return in, nil
}

func (in *distInst) close() {
	if in.coord != nil {
		in.coord.close()
	}
	for _, s := range in.workers {
		s.close()
	}
	in.client.CloseIdleConnections()
}

func (in *distInst) firstOp(ctx context.Context) error {
	bodies, err := in.w.distPlan("first", 1)
	if err != nil {
		return err
	}
	_, err = in.job(ctx, bodies[0], spanRef{})
	return err
}

// distJob is one finished job, kept for the audit and the trace graft.
type distJob struct {
	id, body string
	sp       spanRef
}

// job submits one campaign and reads its event stream to the end; the
// job must finish done, having streamed at least one epoch (X1
// simulates, so workers relay live epoch frames through the coordinator).
func (in *distInst) job(ctx context.Context, body string, sp spanRef) (distJob, error) {
	post := sp.child("http.post")
	id, err := submit(ctx, in.client, in.coord.url, "/v1/campaigns", body)
	post.end()
	if err != nil {
		return distJob{}, err
	}
	sse := sp.child("http.sse")
	st, err := readEvents(ctx, in.client, in.coord.url, id)
	sse.end()
	if err != nil {
		return distJob{}, err
	}
	if st.state != "done" {
		return distJob{}, fmt.Errorf("job %s ended %s", id, st.state)
	}
	if st.epochs == 0 {
		return distJob{}, fmt.Errorf("job %s streamed no epoch events", id)
	}
	return distJob{id: id, body: body, sp: sp}, nil
}

func (in *distInst) measure(ctx context.Context, d time.Duration, tr *tracer) (*phase, error) {
	in.phases++
	// A closed loop cannot outrun 1000 jobs per second per caller; the
	// plan is cut to what the phase actually ran.
	bodies, err := in.w.distPlan(fmt.Sprintf("phase-%d", in.phases), int(d.Seconds()*1000)+distCallers)
	if err != nil {
		return nil, err
	}
	var before map[string]float64
	if tr != nil {
		if before, err = scrape(ctx, in.client, in.coord.url); err != nil {
			return nil, err
		}
	}
	var mu sync.Mutex
	var jobs []distJob
	var next atomic.Int64
	p, err := closedLoop(ctx, distCallers, d, tr, &next, func(ctx context.Context, i int, sp spanRef) (func() error, error) {
		if i >= len(bodies) {
			return nil, fmt.Errorf("plan exhausted after %d jobs", len(bodies))
		}
		j, err := in.job(ctx, bodies[i], sp)
		if err != nil {
			return nil, err
		}
		mu.Lock()
		jobs = append(jobs, j)
		mu.Unlock()
		return nil, nil
	})
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	defer func() { p.after = time.Since(t0) }()
	if err := in.audit(ctx, p, jobs); err != nil {
		return nil, err
	}
	if tr != nil {
		shards := 0
		for _, j := range jobs {
			root, err := fetchTrace(ctx, in.client, in.coord.url, j.id)
			if err != nil {
				return nil, err
			}
			root.Walk(func(n *obs.Node) {
				if n.Name == "shard" {
					shards++
				}
			})
			j.sp.graft(root)
		}
		after, err := scrape(ctx, in.client, in.coord.url)
		if err != nil {
			return nil, err
		}
		p.layer = servingCounts(before, after, len(jobs))
		delta := func(k string) float64 { return after[k] - before[k] }
		n := float64(max(len(jobs), 1))
		p.layer["dist.shards_per_job"] = float64(shards) / n
		p.layer["dist.retries"] = delta("htserved_shard_retries_total")
		p.layer["dist.hedges"] = delta("htserved_shard_hedges_total")
		p.layer["dist.shard_cache_hit_frac"] = delta("htserved_shard_cache_hits_total") / float64(max(shards, 1))
	}
	return p, nil
}

// audit fetches every distAuditEvery-th job's artifacts in every format
// and compares them with the same campaign built locally with one worker
// — the single-process reference. A mismatch fails that job.
func (in *distInst) audit(ctx context.Context, p *phase, jobs []distJob) error {
	for k := 0; k < len(jobs); k += distAuditEvery {
		j := jobs[k]
		want, err := localArtifacts(ctx, j.body)
		if err != nil {
			return fmt.Errorf("reference for %s: %w", j.id, err)
		}
		for name, w := range want {
			got, err := getArtifact(ctx, in.client, in.coord.url, j.id, name)
			if err == nil && !bytes.Equal(got, w) {
				err = fmt.Errorf("artifact %s differs from the single-process reference", name)
			}
			if err != nil {
				p.fail(fmt.Sprintf("job %s: %v", j.id, err))
				break
			}
		}
	}
	return nil
}
