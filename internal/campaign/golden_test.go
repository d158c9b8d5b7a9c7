package campaign

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// updateGolden rewrites the checked-in golden artifacts instead of
// comparing against them.
var updateGolden = flag.Bool("update", false, "rewrite testdata/golden, testdata/golden-smoke and testdata/golden-paper-trials from the current run")

// update reports whether golden files should be rewritten.
func update() bool { return *updateGolden }

// smallSpec is the golden campaign: cheap enough for the test suite while
// covering an analytic experiment (E3), a cycle-simulated study (X1), and
// a static table (E1).
func smallSpec() *Spec {
	return &Spec{
		Name: "golden",
		Seed: 1,
		Experiments: []ExperimentSpec{
			{ID: "E1", Params: Params{Size: 64}},
			{ID: "E3", Params: Params{Trials: 3}},
			{ID: "X1", Params: Params{Size: 64, Threads: 15, Epochs: 5}},
		},
	}
}

// smokeSpec mirrors the benchmark's campaign-smoke workload
// (bench/specs/campaign-smoke.json): all twelve experiment families at
// reduced scale, so every family's artifacts are pinned byte for byte.
func smokeSpec() *Spec {
	cycle := Params{Size: 64, Mixes: []string{"mix-1"}, Threads: 15, Epochs: 5, Targets: []float64{0, 0.4, 0.8}}
	e9 := cycle
	e9.Targets, e9.HTs, e9.Samples = nil, 6, 5
	return &Spec{
		Name: "campaign-smoke",
		Seed: 1,
		Experiments: []ExperimentSpec{
			{ID: "E1", Params: Params{Size: 64}},
			{ID: "E2"},
			{ID: "E3", Params: Params{Trials: 5}},
			{ID: "E4", Params: Params{Trials: 5}},
			{ID: "E5", Params: Params{Sizes: []int{64, 128}, Trials: 5}},
			{ID: "E6", Params: Params{Sizes: []int{64, 128}, Trials: 5}},
			{ID: "E7", Params: cycle},
			{ID: "E8", Params: cycle},
			{ID: "E9", Params: e9},
			{ID: "E10", Params: Params{Size: 64, Threads: 15, Epochs: 5}},
			{ID: "X1", Params: Params{Size: 64, Threads: 15, Epochs: 5}},
			{ID: "X2", Params: Params{Size: 64, Threads: 15, Epochs: 8}},
		},
	}
}

// runInto executes spec with the given worker count and returns every
// produced file keyed by name.
func runInto(t *testing.T, spec *Spec, workers int) map[string][]byte {
	t.Helper()
	dir := t.TempDir()
	if _, _, err := Run(context.Background(), spec, dir, workers, Progress{}); err != nil {
		t.Fatalf("Run(workers=%d): %v", workers, err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string][]byte, len(entries))
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = normalizeGoVersion(b)
	}
	return files
}

// normalizeGoVersion replaces the running toolchain's version string with a
// stable placeholder, so the checked-in golden files do not depend on the
// toolchain that generated them. A table that stopped emitting the version
// entirely still fails the comparison: the golden files carry the
// placeholder, which only appears after a successful replacement.
func normalizeGoVersion(b []byte) []byte {
	return bytes.ReplaceAll(b, []byte(runtime.Version()), []byte("<goversion>"))
}

// TestParallelByteIdentity is the determinism acceptance gate: the same
// spec at -parallel 1 and -parallel 8 must produce byte-identical result
// files, including the manifest.
func TestParallelByteIdentity(t *testing.T) {
	seq := runInto(t, smallSpec(), 1)
	par := runInto(t, smallSpec(), 8)
	want := []string{"e1.json", "e1.csv", "e3.json", "e3.csv", "x1.json", "x1.csv", "manifest.json"}
	if len(seq) != len(want) {
		t.Errorf("%d files produced, want %d", len(seq), len(want))
	}
	for _, name := range want {
		s, ok := seq[name]
		if !ok {
			t.Errorf("missing %s in sequential run", name)
			continue
		}
		p, ok := par[name]
		if !ok {
			t.Errorf("missing %s in parallel run", name)
			continue
		}
		if string(s) != string(p) {
			t.Errorf("%s differs between -parallel 1 and -parallel 8:\nseq:\n%s\npar:\n%s", name, s, p)
		}
	}
}

// TestGoldenFiles compares the golden campaign's artifacts against the
// checked-in files under testdata/golden, catching any drift in either
// the simulated numbers or the serialization format. Regenerate with:
//
//	go test ./internal/campaign -run TestGoldenFiles -update
func TestGoldenFiles(t *testing.T) {
	checkGolden(t, filepath.Join("testdata", "golden"), runInto(t, smallSpec(), 1))
}

// TestSmokeGoldenFiles pins every experiment family (E1–E10, X1, X2) at
// smoke scale against testdata/golden-smoke, so a simulator change that
// alters any artifact byte fails here. Regenerate with:
//
//	go test ./internal/campaign -run TestSmokeGoldenFiles -update
func TestSmokeGoldenFiles(t *testing.T) {
	checkGolden(t, filepath.Join("testdata", "golden-smoke"), runInto(t, smokeSpec(), 2))
}

// TestPaperTrialGoldenFiles pins the Fig 3/4 trial experiments (E3–E6) at
// the paper's own parameters — specs/paper.json's entries, no overrides,
// seed 1 — against testdata/golden-paper-trials. The smoke goldens run
// them at 5 trials and two sizes only. Regenerate with:
//
//	go test ./internal/campaign -run TestPaperTrialGoldenFiles -update
func TestPaperTrialGoldenFiles(t *testing.T) {
	spec, err := LoadSpec(filepath.Join("..", "..", "specs", "paper.json"))
	if err != nil {
		t.Fatal(err)
	}
	var trials []ExperimentSpec
	for _, e := range spec.Experiments {
		switch e.ID {
		case "E3", "E4", "E5", "E6":
			trials = append(trials, e)
		}
	}
	spec.Experiments = trials
	checkGolden(t, filepath.Join("testdata", "golden-paper-trials"), runInto(t, spec, 2))
}

// checkGolden compares got against the files in goldenDir, or rewrites
// goldenDir from got under -update.
func checkGolden(t *testing.T, goldenDir string, got map[string][]byte) {
	t.Helper()
	if update() {
		if err := os.MkdirAll(goldenDir, 0o755); err != nil {
			t.Fatal(err)
		}
		for name, b := range got {
			if err := os.WriteFile(filepath.Join(goldenDir, name), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return
	}
	entries, err := os.ReadDir(goldenDir)
	if err != nil {
		t.Fatalf("read golden dir (run with -update to create): %v", err)
	}
	if len(entries) != len(got) {
		t.Errorf("campaign produced %d files, golden dir has %d", len(got), len(entries))
	}
	for _, e := range entries {
		want, err := os.ReadFile(filepath.Join(goldenDir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if string(got[e.Name()]) != string(want) {
			t.Errorf("%s drifted from golden file (re-run with -update if intended):\ngot:\n%s\nwant:\n%s",
				e.Name(), got[e.Name()], want)
		}
	}
}
