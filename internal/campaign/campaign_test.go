package campaign

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/results"
)

// TestParseSpecValid parses a well-formed spec with overrides.
func TestParseSpecValid(t *testing.T) {
	spec, err := ParseSpec([]byte(`{
		"name": "test", "seed": 3,
		"experiments": [
			{"id": "E3", "params": {"trials": 5}},
			{"id": "X1", "params": {"size": 64, "threads": 15, "epochs": 5}}
		]
	}`))
	if err != nil {
		t.Fatalf("ParseSpec: %v", err)
	}
	if spec.Name != "test" || spec.Seed != 3 || len(spec.Experiments) != 2 {
		t.Errorf("spec = %+v", spec)
	}
}

// TestParseSpecMalformed rejects every malformed-spec class with a
// descriptive error.
func TestParseSpecMalformed(t *testing.T) {
	tests := []struct {
		name, spec, wantErr string
	}{
		{"bad json", `{"name": "x", "experiments": [`, "parse spec"},
		{"unknown top-level field", `{"name": "x", "retries": 3, "experiments": [{"id": "E1"}]}`, "unknown field"},
		{"unknown param field", `{"name": "x", "experiments": [{"id": "E3", "params": {"trails": 5}}]}`, "unknown field"},
		{"unknown experiment", `{"name": "x", "experiments": [{"id": "E99"}]}`, "unknown ID"},
		{"duplicate experiment", `{"name": "x", "experiments": [{"id": "E1"}, {"id": "E1"}]}`, "duplicate"},
		{"no experiments", `{"name": "x", "experiments": []}`, "names no experiments"},
		{"missing name", `{"experiments": [{"id": "E1"}]}`, "needs a name"},
		{"negative seed", `{"name": "x", "seed": -1, "experiments": [{"id": "E1"}]}`, "non-negative"},
		{"negative trials", `{"name": "x", "experiments": [{"id": "E3", "params": {"trials": -2}}]}`, "negative"},
		{"tiny system size", `{"name": "x", "experiments": [{"id": "E5", "params": {"sizes": [1]}}]}`, "too small"},
		{"target out of range", `{"name": "x", "experiments": [{"id": "E7", "params": {"targets": [1.5]}}]}`, "outside"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := ParseSpec([]byte(tt.spec))
			if err == nil {
				t.Fatal("malformed spec accepted")
			}
			if !strings.Contains(err.Error(), tt.wantErr) {
				t.Errorf("error %q does not mention %q", err, tt.wantErr)
			}
		})
	}
}

// TestMergeOverlaysDefaults checks the field-by-field overlay semantics.
func TestMergeOverlaysDefaults(t *testing.T) {
	def := registry["E7"].defaults
	got := merge(def, Params{Size: 64, Mixes: []string{"mix-2"}, Targets: []float64{0.5}})
	if got.Size != 64 || len(got.Mixes) != 1 || got.Mixes[0] != "mix-2" || len(got.Targets) != 1 {
		t.Errorf("merge = %+v", got)
	}
	if got.Threads != def.Threads || got.Epochs != def.Epochs {
		t.Errorf("unset fields must keep defaults: %+v", got)
	}
}

// TestSeedFor checks seed resolution: campaign seed, per-experiment
// override, and the default of 1.
func TestSeedFor(t *testing.T) {
	override := int64(9)
	if s := (&Spec{Seed: 3}).seedFor(Params{}); s != 3 {
		t.Errorf("campaign seed = %d, want 3", s)
	}
	if s := (&Spec{Seed: 3}).seedFor(Params{Seed: &override}); s != 9 {
		t.Errorf("override seed = %d, want 9", s)
	}
	if s := (&Spec{}).seedFor(Params{}); s != 1 {
		t.Errorf("default seed = %d, want 1", s)
	}
}

// TestExperimentsOrder pins the canonical registry listing.
func TestExperimentsOrder(t *testing.T) {
	want := []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "X1", "X2"}
	got := Experiments()
	if len(got) != len(want) {
		t.Fatalf("%d experiments, want %d", len(got), len(want))
	}
	for i, e := range got {
		if e.ID != want[i] {
			t.Errorf("experiment %d = %s, want %s", i, e.ID, want[i])
		}
		if e.Title == "" {
			t.Errorf("%s has no title", e.ID)
		}
	}
}

// TestManifestRecordsEffectiveSeed pins the seed-provenance contract: a
// spec that omits the seed runs with (and records) the default seed 1 in
// both the manifest and the artifact metadata.
func TestManifestRecordsEffectiveSeed(t *testing.T) {
	spec := &Spec{Name: "seedless", Experiments: []ExperimentSpec{
		{ID: "E3", Params: Params{Trials: 1}},
	}}
	man, tables, err := Run(context.Background(), spec, t.TempDir(), 1, Progress{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if man.Seed != 1 {
		t.Errorf("manifest seed = %d, want effective seed 1", man.Seed)
	}
	if got := tables[0].TableMeta().Seed; got != 1 {
		t.Errorf("artifact seed = %d, want 1", got)
	}
}

// TestPaperSpecValid guards the checked-in spec files against drift: both
// must parse, and paper.json must name every registered experiment.
func TestPaperSpecValid(t *testing.T) {
	for _, path := range []string{"../../specs/paper.json", "../../specs/smoke.json"} {
		spec, err := LoadSpec(path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if strings.HasSuffix(path, "paper.json") && len(spec.Experiments) != len(registry) {
			t.Errorf("paper.json names %d experiments, registry has %d", len(spec.Experiments), len(registry))
		}
	}
}

// TestBuildTablesReportsProgress runs a two-experiment spec through the
// job-granular entry point and checks the full progress chain: lifecycle
// callbacks for every experiment, per-epoch samples streamed from the
// cycle-simulated one (tagged with its ID and in increasing epoch order
// per run), and none from the analytic one.
func TestBuildTablesReportsProgress(t *testing.T) {
	spec := &Spec{
		Name: "progress",
		Seed: 1,
		Experiments: []ExperimentSpec{
			{ID: "E3", Params: Params{Trials: 2}},
			{ID: "X1", Params: Params{Size: 64, Threads: 15, Epochs: 5}},
		},
	}
	var mu sync.Mutex
	started := map[string]bool{}
	done := map[string]bool{}
	epochsByExp := map[string]int{}
	tables, err := BuildTables(context.Background(), spec, 1, Progress{
		ExperimentStarted: func(id string) {
			mu.Lock()
			defer mu.Unlock()
			started[id] = true
		},
		ExperimentDone: func(id string, tab results.Table, err error) {
			mu.Lock()
			defer mu.Unlock()
			done[id] = true
			if err != nil {
				t.Errorf("experiment %s failed: %v", id, err)
			}
			if tab == nil {
				t.Errorf("experiment %s reported no table", id)
			}
		},
		Epoch: func(id string, s core.EpochSample) {
			mu.Lock()
			defer mu.Unlock()
			epochsByExp[id]++
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 2 {
		t.Fatalf("BuildTables returned %d tables, want 2", len(tables))
	}
	for _, id := range []string{"E3", "X1"} {
		if !started[id] || !done[id] {
			t.Errorf("experiment %s lifecycle incomplete (started=%v done=%v)", id, started[id], done[id])
		}
	}
	if epochsByExp["E3"] != 0 {
		t.Errorf("analytic E3 streamed %d epochs, want 0", epochsByExp["E3"])
	}
	// X1 runs one clean baseline plus one attacked campaign per attack
	// mode, 5 epochs each; the exact count is an implementation detail,
	// but samples must flow and be tagged with the experiment.
	if epochsByExp["X1"] < 5 {
		t.Errorf("cycle-simulated X1 streamed %d epochs, want >= 5", epochsByExp["X1"])
	}
}

// TestBuildTablesHonoursCancellation asserts a pre-cancelled context
// stops the campaign before any experiment completes.
func TestBuildTablesHonoursCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	spec := &Spec{
		Name:        "cancelled",
		Experiments: []ExperimentSpec{{ID: "E3", Params: Params{Trials: 2}}},
	}
	if _, err := BuildTables(ctx, spec, 1, Progress{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("BuildTables on cancelled ctx = %v, want context.Canceled", err)
	}
}
