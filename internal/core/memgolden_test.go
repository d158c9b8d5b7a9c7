package core

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/attack"
	"repro/internal/workload"
)

// updateGolden rewrites the checked-in golden reports instead of comparing
// against them.
var updateGolden = flag.Bool("update", false, "rewrite testdata/mem-traffic from the current run")

// memTrafficPair runs the benchmark's sim-congested scenario at one seed:
// the 256-core Table I chip with cache traffic, mix-1 at 64 threads, a
// 16-Trojan RingCluster around the manager, 5 epochs of which 1 is
// warm-up, and 2 workers. It returns the attacked and baseline reports.
func memTrafficPair(t testing.TB, seed int64) (attacked, baseline *Report) {
	t.Helper()
	sys, sc := memTrafficSystem(t, seed)
	a, b, err := sys.RunPairContext(context.Background(), sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	return a, b
}

// memTrafficSystem builds the chip and scenario memTrafficPair runs.
func memTrafficSystem(t testing.TB, seed int64) (*System, Scenario) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Epochs = 5
	cfg.WarmupEpochs = 1
	cfg.Seed = seed
	cfg.Workers = 2
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mix, err := workload.MixByName("mix-1")
	if err != nil {
		t.Fatal(err)
	}
	sc, err := MixScenario(mix, 64)
	if err != nil {
		t.Fatal(err)
	}
	mesh, gm := sys.Mesh(), sys.ManagerNode()
	if sc.Trojans, err = attack.RingCluster(mesh, mesh.Coord(gm), 16, 1, gm); err != nil {
		t.Fatal(err)
	}
	return sys, sc
}

// TestMemTrafficGolden pins the full reports of a cache-traffic run, so a
// change to the memory hierarchy, the event kernel or traffic generation
// that moves any simulated number fails here. The campaign goldens are
// budget-only and never reach that code. Regenerate with:
//
//	go test ./internal/core -run TestMemTrafficGolden -update
func TestMemTrafficGolden(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		seed := seed
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			a, b := memTrafficPair(t, seed)
			got, err := json.MarshalIndent(struct{ Attacked, Baseline *Report }{a, b}, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, '\n')
			path := filepath.Join("testdata", "mem-traffic", fmt.Sprintf("seed-%d.json", seed))
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("read golden (run with -update to create): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s drifted from the golden reports (re-run with -update if intended):\ngot:\n%s", path, got)
			}
		})
	}
}
