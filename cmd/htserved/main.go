// Command htserved runs the simulation service: an HTTP API that queues
// campaign specs and single-sim requests, caches results by content
// address, and streams live per-epoch progress as Server-Sent Events.
// See internal/server for the API surface and DESIGN.md §8 for the
// architecture.
//
// Examples:
//
//	htserved -addr :8080
//	htserved -addr 127.0.0.1:8099 -parallel 8 -jobs 2 -cache-dir /var/cache/htserved
//	htserved -job-timeout 10m -shutdown-timeout 15s
//	HTSERVED_FAULTS="job.run:panic:times=1" htserved   # chaos drill
//
// Distributed execution (see DESIGN.md §11 and README "Scaling it out"):
//
//	htserved -addr :8081 &                              # worker 1
//	htserved -addr :8082 &                              # worker 2
//	htserved -addr :8080 -workers http://127.0.0.1:8081,http://127.0.0.1:8082
//
//	htserved -addr :8080 -dist &                        # empty-pool coordinator
//	htserved -addr :8081 -worker -coordinator http://127.0.0.1:8080   # self-registers
//
// Durability (see DESIGN.md §12 and README "Surviving crashes"):
//
//	htserved -addr :8080 -dist -journal-dir /var/lib/htserved
//
// With -journal-dir set, every accepted job is fsync'd to a write-ahead
// journal before its 202, and a restart (even after kill -9) replays
// the unfinished backlog; a coordinator additionally checkpoints
// completed shard results there, so a resumed campaign recomputes only
// shards that never finished. Workers heartbeat their registration
// (-heartbeat) with capped-jitter backoff on failure, and SIGTERM
// drains gracefully: in-flight shards finish, then the worker
// deregisters from the pool.
//
//	curl -XPOST --data-binary @specs/paper.json localhost:8080/v1/campaigns
//	curl localhost:8080/v1/jobs/job-000001
//	curl localhost:8080/v1/jobs/job-000001/events           # SSE stream
//	curl localhost:8080/v1/jobs/job-000001/artifacts/e7.csv
//	curl -XDELETE localhost:8080/v1/jobs/job-000001
//
// SIGINT/SIGTERM shut the service down gracefully: the listener stops,
// running jobs are cancelled through their contexts, and in-flight
// handlers get a -shutdown-timeout drain window.
//
// Ops surface: -job-timeout bounds every job's queue-wait plus run,
// -shutdown-timeout bounds the graceful drain, and the HTTP server runs
// with ReadHeaderTimeout/IdleTimeout so slow-loris clients and idle
// keep-alives cannot pin connections (WriteTimeout stays unset — SSE
// streams are legitimately long-lived). The HTSERVED_FAULTS environment
// variable arms the internal/faultinject registry for chaos drills; see
// DESIGN.md §9 for the failure-modes matrix.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/exp"
	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/server"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		obs.Stderr().Error("htserved: fatal", "error", err)
		os.Exit(1)
	}
}

// run parses flags, starts the service, and blocks until the listener
// fails or ctx is cancelled (then shuts down gracefully).
func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("htserved", flag.ContinueOnError)
	var (
		addr         = fs.String("addr", ":8080", "listen address")
		parallel     = fs.Int("parallel", 0, "exp-pool worker budget per job (0 = one per CPU; results identical for any value)")
		jobs         = fs.Int("jobs", 1, "concurrently running jobs")
		queue        = fs.Int("queue", 16, "job queue depth (submissions beyond it get 429 + Retry-After)")
		entries      = fs.Int("cache-entries", 64, "in-memory result cache entries (LRU)")
		cacheDir     = fs.String("cache-dir", "", "directory for the disk cache tier (empty = memory only)")
		jobTimeout   = fs.Duration("job-timeout", 0, "per-job deadline covering queue-slot wait plus run (0 = none)")
		drainTimeout = fs.Duration("shutdown-timeout", 5*time.Second, "graceful-shutdown drain window for in-flight requests")
		sseWrite     = fs.Duration("sse-write-timeout", 0, "per-frame SSE write deadline for stuck subscribers (0 = 10s default, negative = none)")

		// Distributed execution (DESIGN.md §11).
		dist         = fs.Bool("dist", false, "run as a coordinator: campaign jobs are sharded across the worker pool (implied by -workers)")
		workerURLs   = fs.String("workers", "", "comma-separated worker base URLs to seed the coordinator pool (implies -dist)")
		shards       = fs.Int("shards", 0, "max shards per experiment when coordinating (0 = 2x the exp-pool budget)")
		shardRetries = fs.Int("shard-retries", 2, "redispatch attempts per shard after a worker failure or timeout")
		shardTimeout = fs.Duration("shard-timeout", 0, "per-shard dispatch deadline (0 = 5m default)")
		tenantQuota  = fs.Int("tenant-quota", 0, "max queued-plus-running jobs per X-Tenant header value (0 = no quota)")
		workerMode   = fs.Bool("worker", false, "register this instance with a coordinator at startup (requires -coordinator)")
		coordinator  = fs.String("coordinator", "", "coordinator base URL to register with in -worker mode")
		advertise    = fs.String("advertise", "", "URL the coordinator should reach this worker at (default derived from the listen address)")
		heartbeat    = fs.Duration("heartbeat", 5*time.Second, "worker heartbeat interval: how often -worker re-registers with the coordinator")

		// Durability & recovery (DESIGN.md §12).
		journalDir    = fs.String("journal-dir", "", "directory for the write-ahead job journal: accepted jobs survive crashes and replay on boot (empty = no journal)")
		checkpointDir = fs.String("checkpoint-dir", "", "directory for coordinator shard checkpoints (default <journal-dir>/shard-checkpoints when journaling)")
		hedgeDelay    = fs.Duration("hedge-delay", 0, "straggler hedge delay before redispatching a slow shard to a second worker (0 = adaptive p99, negative = off)")

		// Observability (DESIGN.md §13).
		logFormat = fs.String("log-format", "text", "structured log format: text or json")
		logLevel  = fs.String("log-level", "info", "log level: debug, info, warn, or error")
		noTrace   = fs.Bool("no-trace", false, "disable per-job trace trees (GET /v1/jobs/{id}/trace answers 404)")
		pprofFlag = fs.Bool("pprof", false, "mount Go profiling handlers under /debug/pprof")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *workerMode && *coordinator == "" {
		return errors.New("-worker requires -coordinator=URL")
	}
	faults, err := faultinject.FromEnv(os.Getenv)
	if err != nil {
		return err
	}
	logger, err := obs.NewLogger(out, *logFormat, *logLevel)
	if err != nil {
		return err
	}
	svc, err := server.New(server.Options{
		Workers:         *parallel,
		Jobs:            *jobs,
		QueueDepth:      *queue,
		CacheEntries:    *entries,
		CacheDir:        *cacheDir,
		JobTimeout:      *jobTimeout,
		Faults:          faults,
		SSEWriteTimeout: *sseWrite,
		Coordinator:     *dist,
		WorkerURLs:      splitURLs(*workerURLs),
		MaxShards:       *shards,
		ShardRetries:    *shardRetries,
		ShardTimeout:    *shardTimeout,
		TenantQuota:     *tenantQuota,
		JournalDir:      *journalDir,
		CheckpointDir:   *checkpointDir,
		HedgeDelay:      *hedgeDelay,
		Logger:          logger,
		DisableTracing:  *noTrace,
		EnablePprof:     *pprofFlag,
	})
	if err != nil {
		return err
	}
	defer svc.Close()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	var workerDone chan struct{}
	if *workerMode {
		// Run the worker lifecycle in the background: register with the
		// coordinator (capped-jitter backoff — it may still be booting),
		// heartbeat the registration so a restarted coordinator relearns
		// the pool, and deregister when drain begins. The worker serves
		// shards regardless; the lifecycle only manages pool membership.
		selfURL := *advertise
		if selfURL == "" {
			selfURL = "http://" + hostPort(ln.Addr().String())
		}
		workerDone = make(chan struct{})
		go func() {
			defer close(workerDone)
			workerLifecycle(ctx, logger, *coordinator, selfURL, *heartbeat)
		}()
	}
	srv := &http.Server{
		Handler: svc.Handler(),
		// Bound the header read and idle keep-alives so stalled clients
		// cannot pin connections forever. No WriteTimeout: SSE streams are
		// long-lived by design, and job-side deadlines come from
		// -job-timeout instead.
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	logger.Info("listening", "addr", ln.Addr().String(),
		"jobs", *jobs, "queue", *queue, "cache_entries", *entries)

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	logger.Info("shutting down")
	if workerDone != nil {
		// Deregister before draining: the coordinator must stop placing
		// new shards here while the in-flight ones finish. The lifecycle
		// goroutine bounds its own exit, but cap the wait regardless.
		select {
		case <-workerDone:
		case <-time.After(5 * time.Second):
		}
	}
	// Cancel jobs first: that seals every event log, so open SSE streams
	// end and Shutdown's drain isn't held hostage by live watchers.
	svc.Close()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// splitURLs parses the -workers flag: comma-separated base URLs, blanks
// dropped.
func splitURLs(s string) []string {
	var urls []string
	for _, u := range strings.Split(s, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, u)
		}
	}
	return urls
}

// hostPort turns a listener address into one a coordinator can dial:
// an unspecified host (":8081", "[::]:8081", "0.0.0.0:8081") becomes
// loopback — the right default for the single-machine quickstart, and
// -advertise overrides it for real deployments.
func hostPort(addr string) string {
	host, port, err := net.SplitHostPort(addr)
	if err != nil {
		return addr
	}
	if host == "" || host == "::" || host == "0.0.0.0" {
		host = "127.0.0.1"
	}
	return net.JoinHostPort(host, port)
}

// Worker registration backoff: full jitter over a doubling window.
const (
	registerBaseBackoff = 250 * time.Millisecond
	registerMaxBackoff  = 15 * time.Second
)

// registerBackoff returns the wait before registration attempt+1: full
// jitter drawn from a window that doubles per attempt, capped. The rng
// is deterministic (seeded from the worker's advertised URL), so the
// schedule is reproducible in tests yet decorrelated across a fleet of
// workers retrying against the same rebooting coordinator.
func registerBackoff(attempt int, rng *rand.Rand) time.Duration {
	window := registerBaseBackoff
	for i := 0; i < attempt && window < registerMaxBackoff; i++ {
		window *= 2
	}
	if window > registerMaxBackoff {
		window = registerMaxBackoff
	}
	return time.Duration(rng.Int63n(int64(window))) + time.Millisecond
}

// workerLifecycle manages this worker's pool membership end to end:
// register with capped-jitter backoff (the coordinator may boot later,
// or be rebooting right now), re-register every heartbeat interval so a
// coordinator restarted from its journal relearns the pool before its
// replayed campaigns need workers, and — once drain begins — stop
// retrying and deregister so the coordinator stops placing new shards
// here. Failures are logged but never fatal: the worker still serves
// shards if the operator registers it by hand.
func workerLifecycle(ctx context.Context, logger *slog.Logger, coordinator, selfURL string, heartbeat time.Duration) {
	if heartbeat <= 0 {
		heartbeat = 5 * time.Second
	}
	client := &http.Client{Timeout: 5 * time.Second}
	rng := rand.New(exp.NewSource(exp.StreamSeed(1, "register/"+selfURL)))
	var id string
	registered := false
	attempt := 0
	for {
		newID, err := registerOnce(ctx, client, coordinator, selfURL)
		if ctx.Err() != nil {
			// Drain began: no more retries, and if the pool ever knew us,
			// leave it cleanly.
			if registered {
				deregister(logger, client, coordinator, id)
			}
			return
		}
		wait := heartbeat
		if err == nil {
			id = newID
			if !registered {
				logger.Info("registered with coordinator",
					"coordinator", coordinator, "worker", selfURL, "worker_id", id)
			}
			registered = true
			attempt = 0
		} else {
			if attempt == 0 {
				logger.Warn("worker registration pending, backing off", "coordinator", coordinator, "error", err)
			}
			wait = registerBackoff(attempt, rng)
			attempt++
		}
		select {
		case <-ctx.Done():
			if registered {
				deregister(logger, client, coordinator, id)
			}
			return
		case <-time.After(wait):
		}
	}
}

// registerOnce POSTs this worker's URL to the coordinator's /v1/workers
// and returns the stable pool id the coordinator assigned (idempotent —
// this doubles as the heartbeat).
func registerOnce(ctx context.Context, client *http.Client, coordinator, selfURL string) (string, error) {
	body := fmt.Sprintf(`{"url":%q}`, selfURL)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		strings.TrimRight(coordinator, "/")+"/v1/workers", strings.NewReader(body))
	if err != nil {
		return "", err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return "", err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("coordinator answered %s", resp.Status)
	}
	var reply struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
		return "", fmt.Errorf("decode registration reply: %w", err)
	}
	return reply.ID, nil
}

// deregister removes this worker from the coordinator's pool at drain
// time. The drain context is already cancelled, so the DELETE runs
// under its own short deadline; a 404 means the pool already forgot us,
// which is the outcome we wanted.
func deregister(logger *slog.Logger, client *http.Client, coordinator, id string) {
	if id == "" {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete,
		strings.TrimRight(coordinator, "/")+"/v1/workers/"+id, nil)
	if err != nil {
		return
	}
	resp, err := client.Do(req)
	if err != nil {
		logger.Warn("worker deregistration failed", "coordinator", coordinator, "worker_id", id, "error", err)
		return
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	logger.Info("deregistered from coordinator", "coordinator", coordinator, "worker_id", id)
}
