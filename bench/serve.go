package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/campaign"
	"repro/internal/obs"
	"repro/internal/results"
	"repro/internal/server"
)

// This file is the serving workloads' HTTP harness: in-process htserved
// instances on loopback listeners, and a client that talks to them only
// through the public API — job submission, /v1/jobs/{id}/events read to
// end-of-stream (how the benchmark learns a job finished; it never
// polls), artifacts, /v1/jobs/{id}/trace and /v1/metrics?format=prometheus.

// service is one in-process htserved on a loopback listener.
type service struct {
	srv  *server.Server
	hs   *http.Server
	url  string
	done chan struct{}
}

// loopbackAddr is this process's own address in 127.0.0.0/8. A
// connection's TIME_WAIT outlives the process that closed it by a minute,
// and connects to an address with thousands of them pending slow down; a
// fresh address per run keeps one run's leftovers out of the next.
var loopbackAddr = func() string {
	n := uint64(time.Now().UnixNano())
	return fmt.Sprintf("127.%d.%d.%d", 1+n%254, 1+(n/254)%254, 1+(n/254/254)%254)
}()

// startService builds a server and serves its handler on loopbackAddr.
func startService(opts server.Options) (*service, error) {
	srv, err := server.New(opts)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", loopbackAddr+":0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	s := &service{
		srv:  srv,
		hs:   &http.Server{Handler: srv.Handler()},
		url:  "http://" + ln.Addr().String(),
		done: make(chan struct{}),
	}
	go func() {
		defer close(s.done)
		s.hs.Serve(ln) // returns http.ErrServerClosed once close runs
	}()
	return s, nil
}

// close cancels the server's jobs (sealing every event stream, so SSE
// handlers return), then closes the listener and every connection and
// waits for Serve to return. Shutdown would wait up to five seconds on a
// connection a peer's transport dialled but never used.
func (s *service) close() {
	s.srv.Close()
	s.hs.Close()
	<-s.done
}

// newLoadClient is the load generator's HTTP client: at most conns
// connections to any server, so the benchmark process never offers more
// concurrency than it has CPUs.
func newLoadClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns}}
}

// errShed marks a submission the server refused with 429: not a
// verification failure, but a request that missed every latency limit.
var errShed = errors.New("shed (429)")

// do sends one request and returns the status and body.
func do(ctx context.Context, c *http.Client, method, url, body string) (int, []byte, error) {
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// submit POSTs a job and returns its id.
func submit(ctx context.Context, c *http.Client, base, path, body string) (string, error) {
	status, b, err := do(ctx, c, http.MethodPost, base+path, body)
	if err != nil {
		return "", err
	}
	if status == http.StatusTooManyRequests {
		return "", errShed
	}
	if status != http.StatusAccepted {
		return "", fmt.Errorf("POST %s = %d: %.200s", path, status, b)
	}
	var st struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(b, &st); err != nil || st.ID == "" {
		return "", fmt.Errorf("POST %s: undecodable job status %.200s", path, b)
	}
	return st.ID, nil
}

// stream is what one read of a job's event stream saw.
type stream struct {
	// state is the last state event's state: the job's terminal state
	// once the stream has ended.
	state  string
	events int
	epochs int
}

// readEvents reads GET /v1/jobs/{id}/events to end-of-stream — the log
// seals when the job reaches a terminal state — checking that event ids
// strictly increase.
func readEvents(ctx context.Context, c *http.Client, base, id string) (stream, error) {
	var st stream
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return st, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("GET events of %s = %d", id, resp.StatusCode)
	}
	last, event := -1, ""
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			event = ""
		case strings.HasPrefix(line, "id: "):
			n, err := strconv.Atoi(line[4:])
			if err != nil || n <= last {
				return st, fmt.Errorf("event ids of %s not strictly increasing: %q after %d", id, line, last)
			}
			last = n
			st.events++
		case strings.HasPrefix(line, "event: "):
			event = line[7:]
			if event == "epoch" {
				st.epochs++
			}
		case strings.HasPrefix(line, "data: ") && event == "state":
			var s struct {
				State string `json:"state"`
			}
			if err := json.Unmarshal([]byte(line[6:]), &s); err != nil {
				return st, fmt.Errorf("undecodable state event of %s: %.200s", id, line)
			}
			st.state = s.State
		}
	}
	if err := sc.Err(); err != nil {
		return st, fmt.Errorf("reading events of %s: %w", id, err)
	}
	if st.events == 0 {
		return st, fmt.Errorf("event stream of %s delivered nothing", id)
	}
	return st, nil
}

// getArtifact fetches one rendered artifact of a finished job.
func getArtifact(ctx context.Context, c *http.Client, base, id, name string) ([]byte, error) {
	status, b, err := do(ctx, c, http.MethodGet, base+"/v1/jobs/"+id+"/artifacts/"+name, "")
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("GET artifact %s of %s = %d", name, id, status)
	}
	return b, nil
}

// fetchTrace fetches a finished job's span tree.
func fetchTrace(ctx context.Context, c *http.Client, base, id string) (*obs.Node, error) {
	status, b, err := do(ctx, c, http.MethodGet, base+"/v1/jobs/"+id+"/trace", "")
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("GET trace of %s = %d", id, status)
	}
	var doc struct {
		Root *obs.Node `json:"root"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, err
	}
	return doc.Root, nil
}

// scrape reads the Prometheus exposition into sample → value, keyed by
// the sample's full name including labels.
func scrape(ctx context.Context, c *http.Client, base string) (map[string]float64, error) {
	status, b, err := do(ctx, c, http.MethodGet, base+"/v1/metrics?format=prometheus", "")
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("GET metrics = %d", status)
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(string(b), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, nil
}

// localArtifacts builds a campaign body with one worker — the
// single-process reference — and renders every table in every format
// through results.WriteFormat, keyed by the server's artifact file names.
func localArtifacts(ctx context.Context, body string) (map[string][]byte, error) {
	spec, err := campaign.ParseSpec([]byte(body))
	if err != nil {
		return nil, err
	}
	tables, err := campaign.BuildTables(ctx, spec, 1, campaign.Progress{})
	if err != nil {
		return nil, err
	}
	arts := make(map[string][]byte)
	for _, t := range tables {
		base := strings.ToLower(t.TableMeta().Experiment)
		for _, f := range results.Formats() {
			var buf bytes.Buffer
			if err := results.WriteFormat(&buf, t, f); err != nil {
				return nil, err
			}
			arts[base+"."+f] = buf.Bytes()
		}
	}
	return arts, nil
}

// waitReady polls GET /v1/healthz until it answers 200: the queue has
// room and, on a coordinator, a quorum of the worker pool is reachable.
func waitReady(ctx context.Context, c *http.Client, base string) error {
	ctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	for {
		status, _, err := do(ctx, c, http.MethodGet, base+"/v1/healthz", "")
		if err == nil && status == http.StatusOK {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("%s never became ready: %w", base, ctx.Err())
		case <-time.After(time.Millisecond):
		}
	}
}
