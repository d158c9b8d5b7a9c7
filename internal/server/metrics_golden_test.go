package server

import (
	"bytes"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/dist"
	"repro/internal/histo"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/metrics-* and testdata/sim-* from the current renderings")

// observeAll records each value into h.
func observeAll(h *histo.Histogram, vs ...float64) {
	for _, v := range vs {
		h.Observe(v)
	}
}

// TestMetricsRenderingsGolden pins both /v1/metrics renderings byte for
// byte, with faults armed and disarmed. Every counter holds a distinct
// value of at least 10^6, where %d and the shortest 'g' form differ, so a
// sample that changes its number format or swaps its value with another
// shows up in the diff. Every histogram holds observations, one of them
// above the last finite bucket; label values are ASCII.
func TestMetricsRenderingsGolden(t *testing.T) {
	for _, tc := range []struct {
		name   string
		faults map[string]int64
	}{
		{"disarmed", nil},
		{"armed", map[string]int64{"dist.dispatch": 1000036, "job.run": 1000037}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newCounters()
			c.n = [numCounters]int64{
				jobsSubmitted: 1000001, jobsRejected: 1000002,
				jobsStarted: 1000003, jobsDone: 1000004, jobsFailed: 1000005,
				jobsCancelled: 1000006, jobsTimedOut: 1000007,
				cacheHits: 1000008, cacheDiskHits: 1000009, cacheMisses: 1000010, cacheCorrupt: 1000011,
				singleFlight: 1000012, panicsRecovered: 1000013, shardsExecuted: 1000014,
				journalAppends: 1000017, journalReplayed: 1000018,
			}
			c.shedByTenant = map[string]int64{"alice": 1000025, "bob": 1000026}
			c.sseDropped.Store(1000027)
			c.epochs.Store(1000028)
			observeAll(c.jobDuration, 0.0005, 0.003, 0.04, 2.5, 200)
			observeAll(c.queueWait, 0.002, 0.002, 0.7)
			observeAll(c.gateWait, 0.01)
			d := dist.Stats{
				Dispatched: map[string]int64{"http://10.0.0.1:8080": 1000023, "http://10.0.0.2:8080": 1000024},
				Retries:    1000015, CacheHits: 1000016,
				Checkpointed: 1000019, Resumed: 1000020, Hedges: 1000021, BreakerOpens: 1000022,
				RTT: jobDurationBuckets(),
			}
			observeAll(d.RTT, 0.02, 0.03, 1.5)
			g := gauges{
				uptime: 1234567.25, queued: 1000031, running: 1000032, subscribers: 1000033,
				faults: tc.faults, goroutines: 1000034, heapAlloc: 123456789012, gcPause: 1234.5678,
			}

			fs := c.families(g, d)
			var prom bytes.Buffer
			if err := fs.writePrometheus(&prom); err != nil {
				t.Fatal(err)
			}
			rec := httptest.NewRecorder()
			writeJSON(rec, http.StatusOK, fs.json())

			checkGolden(t, "metrics-"+tc.name+".txt", prom.Bytes())
			checkGolden(t, "metrics-"+tc.name+".json", rec.Body.Bytes())
		})
	}
}

// checkGolden compares got with testdata/name, rewriting it under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from the golden rendering:\ngot:\n%s\nwant:\n%s", name, got, want)
	}
}
