package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/results"
)

// shardSpec is the shard-suite campaign: two trial spaces with distinct
// shapes (E3 curve, E5 distribution), two one-cell experiments (E1 typed
// config table, E2 static accounting table) and one cycle-simulated list
// (E10, one cell per allocator), so every merge path is exercised.
func shardSpec() *Spec {
	return &Spec{
		Name: "shard-suite",
		Seed: 7,
		Experiments: []ExperimentSpec{
			{ID: "E1", Params: Params{Size: 64}},
			{ID: "E3", Params: Params{Trials: 3}},
			{ID: "E5", Params: Params{Sizes: []int{16, 64}, Trials: 2}},
			{ID: "E2"},
			{ID: "E10", Params: Params{Size: 64, Threads: 15, Epochs: 3}},
		},
	}
}

// mergeSpec names all twelve experiments at reduced scale, with two mixes
// for E7–E9 and the full allocator and defense lists for E10 and X2, so
// every cell space splits.
func mergeSpec() *Spec {
	cycle := Params{Size: 64, Mixes: []string{"mix-1", "mix-2"}, Threads: 15, Epochs: 3, Targets: []float64{0, 0.6}}
	e9 := cycle
	e9.Targets, e9.HTs, e9.Samples = nil, 6, 4
	one := Params{Size: 64, Threads: 15, Epochs: 3}
	return &Spec{
		Name: "merge-suite",
		Seed: 3,
		Experiments: []ExperimentSpec{
			{ID: "E1", Params: Params{Size: 64}},
			{ID: "E2"},
			{ID: "E3", Params: Params{Trials: 2}},
			{ID: "E4", Params: Params{Trials: 2}},
			{ID: "E5", Params: Params{Sizes: []int{16, 64}, Trials: 2}},
			{ID: "E6", Params: Params{Sizes: []int{16, 64}, Trials: 2}},
			{ID: "E7", Params: cycle},
			{ID: "E8", Params: cycle},
			{ID: "E9", Params: e9},
			{ID: "E10", Params: one},
			{ID: "X1", Params: one},
			{ID: "X2", Params: Params{Size: 64, Threads: 15, Epochs: 4}},
		},
	}
}

// oneCellPerShard is a shard bound above every space in these tests, so
// PlanShards gives each cell its own shard.
const oneCellPerShard = 1 << 20

// renderAll serializes every table in every artifact format, keyed by
// "<exp>.<format>" — the byte-identity currency of the merge contract.
func renderAll(t *testing.T, tables []results.Table) map[string]string {
	t.Helper()
	out := make(map[string]string)
	for _, tab := range tables {
		for _, format := range results.Formats() {
			var buf bytes.Buffer
			if err := results.WriteFormat(&buf, tab, format); err != nil {
				t.Fatalf("render %s as %s: %v", tab.TableMeta().Experiment, format, err)
			}
			out[tab.TableMeta().Experiment+"."+format] = buf.String()
		}
	}
	return out
}

// runPlan executes every shard of a plan in-process and returns the
// results in reverse order, so the merge cannot lean on arrival order.
func runPlan(t *testing.T, shards []Shard, workers int) []ShardResult {
	t.Helper()
	out := make([]ShardResult, 0, len(shards))
	for _, sh := range shards {
		r, err := RunShard(context.Background(), sh, workers, nil)
		if err != nil {
			t.Fatalf("RunShard(%s): %v", sh, err)
		}
		out = append(out, *r)
	}
	for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// spaceSize is an experiment's cell count under a spec entry.
func spaceSize(e ExperimentSpec) int {
	ent := registry[e.ID]
	return ent.cells.size(merge(ent.defaults, e.Params))
}

// TestPlanShardsCoverage pins the shard plan's shape: every experiment
// tiles [0, size) contiguously with balanced, non-empty ranges, and the
// plan is deterministic for a given (spec, maxPerExp).
func TestPlanShardsCoverage(t *testing.T) {
	spec := mergeSpec()
	for _, maxPerExp := range []int{0, 1, 2, 3, 5, oneCellPerShard} {
		shards, err := PlanShards(spec, maxPerExp)
		if err != nil {
			t.Fatalf("PlanShards(max=%d): %v", maxPerExp, err)
		}
		again, err := PlanShards(spec, maxPerExp)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(shards) != fmt.Sprint(again) {
			t.Fatalf("PlanShards(max=%d) is not deterministic", maxPerExp)
		}
		next := map[int]int{}
		counts := map[int]int{}
		for _, sh := range shards {
			counts[sh.ExpIndex]++
			if sh.Lo != next[sh.ExpIndex] || sh.Hi <= sh.Lo {
				t.Fatalf("max=%d: shard %s breaks contiguous non-empty coverage (expected lo %d)", maxPerExp, sh, next[sh.ExpIndex])
			}
			next[sh.ExpIndex] = sh.Hi
		}
		for i, e := range spec.Experiments {
			size := spaceSize(e)
			if next[i] != size {
				t.Fatalf("max=%d: %s coverage ends at %d of %d", maxPerExp, e.ID, next[i], size)
			}
			if want := min(max(maxPerExp, 1), size); counts[i] != want {
				t.Fatalf("max=%d: %s planned %d shards, want %d", maxPerExp, e.ID, counts[i], want)
			}
		}
	}
}

// TestShardMergeByteIdentity is the distributed determinism gate at the
// campaign layer: for every experiment, at 1-, 2- and 3-way plans and at
// one cell per shard, running every shard independently (results
// delivered in reverse order) and merging must reproduce BuildTables'
// artifacts byte-for-byte in every format.
func TestShardMergeByteIdentity(t *testing.T) {
	spec := mergeSpec()
	direct, err := BuildTables(context.Background(), spec, 2, Progress{})
	if err != nil {
		t.Fatalf("BuildTables: %v", err)
	}
	want := renderAll(t, direct)
	if len(want) != 3*len(spec.Experiments) {
		t.Fatalf("BuildTables rendered %d artifacts, want %d", len(want), 3*len(spec.Experiments))
	}
	for _, maxPerExp := range []int{1, 2, 3, oneCellPerShard} {
		shards, err := PlanShards(spec, maxPerExp)
		if err != nil {
			t.Fatalf("PlanShards(max=%d): %v", maxPerExp, err)
		}
		merged, err := MergeShards(context.Background(), spec, runPlan(t, shards, 2))
		if err != nil {
			t.Fatalf("MergeShards(max=%d): %v", maxPerExp, err)
		}
		got := renderAll(t, merged)
		if len(got) != len(want) {
			t.Fatalf("max=%d: merged %d artifacts, want %d", maxPerExp, len(got), len(want))
		}
		for name, w := range want {
			if got[name] != w {
				t.Errorf("max=%d: %s differs from single-process run:\nmerged:\n%s\ndirect:\n%s", maxPerExp, name, got[name], w)
			}
		}
	}
}

// dropLastCell re-encodes a payload one cell short.
func dropLastCell(t *testing.T, payload json.RawMessage) json.RawMessage {
	t.Helper()
	var cells []json.RawMessage
	if err := json.Unmarshal(payload, &cells); err != nil || len(cells) == 0 {
		t.Fatalf("payload %s is not a non-empty cell array: %v", payload, err)
	}
	b, err := json.Marshal(cells[:len(cells)-1])
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestMergeShardsRejectsBrokenCoverage pins the merge's refusal to
// publish from incomplete or inconsistent shard sets: gaps, overlaps,
// truncated payloads and missing experiments all fail loudly.
func TestMergeShardsRejectsBrokenCoverage(t *testing.T) {
	spec := shardSpec()
	shards, err := PlanShards(spec, 2)
	if err != nil {
		t.Fatal(err)
	}
	full := runPlan(t, shards, 2)
	shortOf := func(id string) func([]ShardResult) []ShardResult {
		return func(rs []ShardResult) []ShardResult {
			for i, r := range rs {
				if r.Shard.Experiment.ID == id {
					rs[i].Cells = dropLastCell(t, r.Cells)
					return rs
				}
			}
			t.Fatalf("no %s shard found", id)
			return nil
		}
	}
	cases := []struct {
		name    string
		mutate  func([]ShardResult) []ShardResult
		wantErr string
	}{
		{"gap", func(rs []ShardResult) []ShardResult {
			out := rs[:0:0]
			dropped := false
			for _, r := range rs {
				if !dropped && r.Shard.Experiment.ID == "E3" {
					dropped = true
					continue
				}
				out = append(out, r)
			}
			return out
		}, "coverage"},
		{"overlap", func(rs []ShardResult) []ShardResult {
			for _, r := range rs {
				if r.Shard.Experiment.ID == "E3" {
					return append(rs, r)
				}
			}
			t.Fatal("no E3 shard found")
			return nil
		}, "coverage"},
		{"short payload", shortOf("E5"), "cells"},
		{"missing experiment", func(rs []ShardResult) []ShardResult {
			out := rs[:0:0]
			for _, r := range rs {
				if r.Shard.Experiment.ID == "E1" {
					continue
				}
				out = append(out, r)
			}
			return out
		}, "no shard results"},
		{"short cycle-simulated payload", shortOf("E10"), "cells"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := MergeShards(context.Background(), spec, tc.mutate(append([]ShardResult(nil), full...)))
			if err == nil {
				t.Fatalf("merge accepted %s", tc.name)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

// TestShardRegistryCoverage pins the registry invariant the one shard
// shape rests on: every experiment has cell hooks and at least one cell
// at its defaults, so every experiment plans, runs and merges as shards.
func TestShardRegistryCoverage(t *testing.T) {
	for id, ent := range registry {
		if ent.cells == nil {
			t.Errorf("experiment %s has no cell hooks", id)
			continue
		}
		if n := ent.cells.size(ent.defaults); n < 1 {
			t.Errorf("experiment %s has %d cells at its defaults, want >= 1", id, n)
		}
	}
}

// TestRunShardRejectsBadRanges feeds every experiment the out-of-range
// shards a malformed request could carry: each must be refused with an
// error before anything runs, never a panic from slicing a list.
func TestRunShardRejectsBadRanges(t *testing.T) {
	for _, e := range Experiments() {
		size := spaceSize(ExperimentSpec{ID: e.ID})
		for _, r := range [][2]int{{-1, 1}, {0, size + 1}, {1, 1}} {
			sh := Shard{Experiment: ExperimentSpec{ID: e.ID}, Seed: 1, Count: 1, Lo: r[0], Hi: r[1]}
			if _, err := RunShard(context.Background(), sh, 1, nil); err == nil {
				t.Errorf("RunShard(%s) accepted a bad range", sh)
			}
		}
	}
}

// TestShardResultCheck pins the answer check the coordinator applies
// before caching: a real result passes; a result naming another shard,
// one cell short, or not a cell array fails.
func TestShardResultCheck(t *testing.T) {
	shards, err := PlanShards(shardSpec(), 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, sh := range shards[:3] {
		r, err := RunShard(context.Background(), sh, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Check(sh); err != nil {
			t.Fatalf("real result for %s failed its check: %v", sh, err)
		}
		other := sh
		other.Seed++
		if r.Check(other) == nil {
			t.Errorf("result for %s accepted as the answer for %s", sh, other)
		}
		short := *r
		short.Cells = dropLastCell(t, r.Cells)
		garbage := *r
		garbage.Cells = json.RawMessage(`{"cells":1}`)
		for _, bad := range []ShardResult{short, garbage} {
			if bad.Check(sh) == nil {
				t.Errorf("malformed payload %s accepted for %s", bad.Cells, sh)
			}
		}
	}
}

// TestBuildTablesSharesSweep runs E7 and E8 with equal parameters: the
// Fig 5/6 sweep runs once, so the campaign streams exactly as many epochs
// as E7 alone, and both experiments still report their lifecycle.
func TestBuildTablesSharesSweep(t *testing.T) {
	cycle := Params{Size: 64, Mixes: []string{"mix-1"}, Threads: 15, Epochs: 3, Targets: []float64{0, 0.6}}
	run := func(ids ...string) (epochs int, started, done map[string]int) {
		spec := &Spec{Name: "sweep", Seed: 1}
		for _, id := range ids {
			spec.Experiments = append(spec.Experiments, ExperimentSpec{ID: id, Params: cycle})
		}
		var mu sync.Mutex
		started, done = map[string]int{}, map[string]int{}
		_, err := BuildTables(context.Background(), spec, 2, Progress{
			ExperimentStarted: func(id string) { mu.Lock(); started[id]++; mu.Unlock() },
			ExperimentDone:    func(id string, _ results.Table, _ error) { mu.Lock(); done[id]++; mu.Unlock() },
			Epoch:             func(string, core.EpochSample) { mu.Lock(); epochs++; mu.Unlock() },
		})
		if err != nil {
			t.Fatal(err)
		}
		return epochs, started, done
	}
	alone, _, _ := run("E7")
	both, started, done := run("E7", "E8")
	if alone == 0 || both != alone {
		t.Fatalf("E7+E8 streamed %d epochs, E7 alone %d: want equal and nonzero", both, alone)
	}
	for _, id := range []string{"E7", "E8"} {
		if started[id] != 1 || done[id] != 1 {
			t.Errorf("%s reported started %d and done %d times, want once each", id, started[id], done[id])
		}
	}
}

// TestShardKeyTracksBuild: results from another revision, toolchain or
// GOARCH must never answer a shard, so each field of the build moves the
// key on its own.
func TestShardKeyTracksBuild(t *testing.T) {
	sh := Shard{Experiment: ExperimentSpec{ID: "E3"}, Seed: 1, Count: 2, Lo: 0, Hi: 7}
	b := results.ThisBuild()
	if sh.keyFor(b) != sh.Key() {
		t.Fatal("Key does not hash the running build")
	}
	for _, mutate := range []func(*results.Build){
		func(b *results.Build) { b.Revision += "x" },
		func(b *results.Build) { b.Go += "x" },
		func(b *results.Build) { b.Arch += "x" },
	} {
		other := b
		mutate(&other)
		if sh.keyFor(other) == sh.Key() {
			t.Errorf("key ignores a build change to %+v", other)
		}
	}
}
