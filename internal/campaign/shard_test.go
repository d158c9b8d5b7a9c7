package campaign

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/results"
)

// shardSpec is the shard-suite campaign: two shardable experiments with
// distinct trial-space shapes (E3 curve, E5 distribution) plus two
// atomic ones (E1 typed config table, E2 static accounting table), so
// every merge path is exercised.
func shardSpec() *Spec {
	return &Spec{
		Name: "shard-suite",
		Seed: 7,
		Experiments: []ExperimentSpec{
			{ID: "E1", Params: Params{Size: 64}},
			{ID: "E3", Params: Params{Trials: 3}},
			{ID: "E5", Params: Params{Sizes: []int{16, 64}, Trials: 2}},
			{ID: "E2"},
		},
	}
}

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

// TestPlanShardsCoverage pins the shard plan's shape: shardable
// experiments tile their trial space contiguously with balanced ranges,
// atomic experiments get exactly one zero-range shard, and the plan is
// deterministic for a given (spec, maxPerExp).
func TestPlanShardsCoverage(t *testing.T) {
	spec := shardSpec()
	for _, maxPerExp := range []int{1, 2, 5} {
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
			if sh.atomic() {
				continue
			}
			if sh.Lo != next[sh.ExpIndex] {
				t.Fatalf("max=%d: shard %s breaks contiguous coverage (expected lo %d)", maxPerExp, sh, next[sh.ExpIndex])
			}
			next[sh.ExpIndex] = sh.Hi
		}
		for i, e := range spec.Experiments {
			if _, shardable := shardableHooks[e.ID]; !shardable {
				if counts[i] != 1 {
					t.Fatalf("max=%d: atomic %s planned %d shards, want 1", maxPerExp, e.ID, counts[i])
				}
				continue
			}
			if maxPerExp > 1 && counts[i] < 2 {
				t.Fatalf("max=%d: shardable %s planned only %d shard(s)", maxPerExp, e.ID, counts[i])
			}
		}
	}
}

// TestShardMergeByteIdentity is the distributed determinism gate at the
// campaign layer: for 1/2/5-way shard plans, running every shard
// independently (results delivered out of order) and merging must
// reproduce BuildTables' artifacts byte-for-byte in every format.
func TestShardMergeByteIdentity(t *testing.T) {
	spec := shardSpec()
	direct, err := BuildTables(context.Background(), spec, 2, Progress{})
	if err != nil {
		t.Fatalf("BuildTables: %v", err)
	}
	want := renderAll(t, direct)
	for _, maxPerExp := range []int{1, 2, 5} {
		shards, err := PlanShards(spec, maxPerExp)
		if err != nil {
			t.Fatalf("PlanShards(max=%d): %v", maxPerExp, err)
		}
		merged, err := MergeShards(context.Background(), spec, runPlan(t, shards, 3))
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

// TestMergeShardsRejectsBrokenCoverage pins the merge's refusal to
// publish from incomplete or inconsistent shard sets: gaps, overlaps,
// truncated payloads, and missing atomic tables all fail loudly.
func TestMergeShardsRejectsBrokenCoverage(t *testing.T) {
	spec := shardSpec()
	shards, err := PlanShards(spec, 2)
	if err != nil {
		t.Fatal(err)
	}
	full := runPlan(t, shards, 2)
	cases := []struct {
		name    string
		mutate  func([]ShardResult) []ShardResult
		wantErr string
	}{
		{"gap", func(rs []ShardResult) []ShardResult {
			out := rs[:0:0]
			dropped := false
			for _, r := range rs {
				if !dropped && r.Shard.Experiment.ID == "E3" && !r.Shard.atomic() {
					dropped = true
					continue
				}
				out = append(out, r)
			}
			return out
		}, "coverage"},
		{"overlap", func(rs []ShardResult) []ShardResult {
			for _, r := range rs {
				if r.Shard.Experiment.ID == "E3" && !r.Shard.atomic() {
					return append(rs, r)
				}
			}
			t.Fatal("no E3 trial shard found")
			return nil
		}, "coverage"},
		{"short payload", func(rs []ShardResult) []ShardResult {
			out := append([]ShardResult(nil), rs...)
			for i, r := range out {
				if r.Shard.Experiment.ID == "E5" && !r.Shard.atomic() && len(r.Raw) > 0 {
					out[i].Raw = r.Raw[:len(r.Raw)-1]
					return out
				}
			}
			t.Fatal("no E5 trial shard found")
			return nil
		}, "cells"},
		{"missing atomic", func(rs []ShardResult) []ShardResult {
			out := rs[:0:0]
			for _, r := range rs {
				if r.Shard.Experiment.ID == "E1" {
					continue
				}
				out = append(out, r)
			}
			return out
		}, "no shard results"},
		{"atomic without table", func(rs []ShardResult) []ShardResult {
			out := append([]ShardResult(nil), rs...)
			for i, r := range out {
				if r.Shard.Experiment.ID == "E2" {
					out[i].Table = nil
					return out
				}
			}
			t.Fatal("no E2 shard found")
			return nil
		}, "missing table"},
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

// TestShardRegistryCoverage pins the distributed registry invariants:
// every experiment can ship as an atomic shard (has a table decoder),
// and every shardable hook names a registered experiment — so adding an
// experiment without wiring the distributed path fails here, not in a
// production merge.
func TestShardRegistryCoverage(t *testing.T) {
	for id := range registry {
		if _, ok := blankTables[id]; !ok {
			t.Errorf("experiment %s has no blank-table decoder; atomic shards for it cannot merge", id)
		}
	}
	for id := range blankTables {
		if _, ok := registry[id]; !ok {
			t.Errorf("blank table registered for unknown experiment %s", id)
		}
	}
	for id := range shardableHooks {
		if _, ok := registry[id]; !ok {
			t.Errorf("shard hooks registered for unknown experiment %s", id)
		}
	}
}
