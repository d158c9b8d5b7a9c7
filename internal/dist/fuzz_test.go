package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"sync"
	"testing"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/obs"
)

// fuzzShards picks one small shard of every cell type: trial values (E3),
// whole tables (E1, E2, X1), sweep cells (E7), placement rows (E9),
// allocator rows (E10) and defense rows (X2).
func fuzzShards(tb testing.TB) []campaign.Shard {
	tb.Helper()
	spec, err := campaign.ParseSpec([]byte(`{"name":"fuzz","seed":1,"experiments":[
		{"id":"E1","params":{"size":64}},
		{"id":"E2"},
		{"id":"E3","params":{"trials":1}},
		{"id":"E7","params":{"size":64,"mixes":["mix-1","mix-2"],"threads":15,"epochs":3,"targets":[0.5]}},
		{"id":"E9","params":{"size":64,"mixes":["mix-1","mix-2"],"threads":15,"epochs":3,"hts":6,"samples":4}},
		{"id":"E10","params":{"size":64,"threads":15,"epochs":3}},
		{"id":"X1","params":{"size":64,"threads":15,"epochs":3}},
		{"id":"X2","params":{"size":64,"threads":15,"epochs":3}}]}`))
	if err != nil {
		tb.Fatal(err)
	}
	plan, err := campaign.PlanShards(spec, 2)
	if err != nil {
		tb.Fatal(err)
	}
	var shards []campaign.Shard
	for _, sh := range plan {
		if sh.Index == 0 {
			shards = append(shards, sh)
		}
	}
	return shards
}

// workerStream runs sh the way a worker's /v1/shards handler does and
// returns its NDJSON answer: up to three epoch frames, then the result
// frame carrying the worker's span tree.
func workerStream(tb testing.TB, sh campaign.Shard) []byte {
	tb.Helper()
	var (
		mu  sync.Mutex
		buf bytes.Buffer
		seq int64
	)
	enc := json.NewEncoder(&buf)
	ctx, root := obs.JoinTrace(context.Background(), "", "worker.execute")
	res, err := campaign.RunShard(ctx, sh, 1, core.ObserverFunc(func(s core.EpochSample) {
		mu.Lock()
		defer mu.Unlock()
		if seq++; seq <= 3 {
			enc.Encode(StreamFrame{Epoch: &EpochFrame{Seq: seq, Experiment: sh.Experiment.ID, Sample: s}})
		}
	}))
	if err != nil {
		tb.Fatal(err)
	}
	root.End()
	enc.Encode(StreamFrame{Result: res, Trace: root.Tree()})
	return buf.Bytes()
}

// FuzzShardStream feeds arbitrary bytes to the coordinator's NDJSON shard
// stream decoder and then to the answer check, against a fixed shard of
// every cell type. Neither may panic, and an answer the check accepts
// must hold exactly one cell per position of the shard's range. The seeds
// are real worker streams, one per shard.
func FuzzShardStream(f *testing.F) {
	shards := fuzzShards(f)
	for _, sh := range shards {
		f.Add(workerStream(f, sh))
	}
	f.Add([]byte(`{"error":"boom"}`))
	c, err := New(Options{})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := c.consumeStream(bytes.NewReader(data), 0, nil, nil)
		if err != nil {
			return
		}
		for _, sh := range shards {
			if r.Shard.Experiment.ID != sh.Experiment.ID || r.Check(sh) != nil {
				continue
			}
			var cells []json.RawMessage
			if err := json.Unmarshal(r.Cells, &cells); err != nil || len(cells) != sh.Hi-sh.Lo {
				t.Fatalf("answer for %s accepted with payload %.200s (%v)", sh, r.Cells, err)
			}
		}
	})
}
