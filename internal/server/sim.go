package server

import (
	"context"

	"repro/internal/core"
	"repro/internal/results"
	"repro/pkg/htsim"
)

// simCachePayload is a sim request as hashed for the content-addressed
// cache: the worker count is zeroed because results are bit-identical
// for every pool size (the determinism contract), so it must never split
// the cache.
func simCachePayload(r *htsim.Request) htsim.Request {
	p := *r
	p.Workers = 0
	return p
}

// runSim runs a sim request into the standard campaign report table,
// streaming the attacked run's epochs to epoch. serverWorkers is the
// service's per-job worker budget, applied when the request names no
// pool size of its own — results are identical either way.
func runSim(ctx context.Context, r *htsim.Request, serverWorkers int, epoch func(core.EpochSample)) (results.Table, error) {
	opts := []htsim.Option{htsim.WithObserver(htsim.ObserverFunc(epoch))}
	if r.Workers == 0 && serverWorkers != 0 {
		opts = append(opts, htsim.WithWorkers(serverWorkers))
	}
	sim, attacked, cmp, err := r.Run(ctx, opts...)
	if err != nil {
		return nil, err
	}
	return core.CampaignTableFor(sim.Config(), attacked, cmp), nil
}
