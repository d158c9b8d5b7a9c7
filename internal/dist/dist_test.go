package dist

import (
	"context"
	"sync"
	"testing"

	"repro/internal/campaign"
	"repro/internal/results"
)

func TestQuorum(t *testing.T) {
	cases := map[int]int{0: 1, 1: 1, 2: 2, 3: 2, 4: 3, 5: 3, 9: 5}
	for n, want := range cases {
		if got := quorum(n); got != want {
			t.Errorf("quorum(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestAddWorkerNormalisesAndDedupes(t *testing.T) {
	c, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, added := c.Register("http://a:1/"); !added {
		t.Fatal("first registration rejected")
	}
	if _, added := c.Register("http://a:1"); added {
		t.Fatal("same URL (modulo trailing slash) registered twice")
	}
	if _, added := c.Register("  "); added {
		t.Fatal("blank URL registered")
	}
	if got := c.WorkerURLs(); len(got) != 1 || got[0] != "http://a:1" {
		t.Fatalf("pool = %v, want [http://a:1]", got)
	}
}

func TestShardKeyIgnoresCampaignPosition(t *testing.T) {
	sh := campaign.Shard{
		ExpIndex:   0,
		Experiment: campaign.ExperimentSpec{ID: "E3"},
		Seed:       7, Index: 1, Count: 2, Lo: 3, Hi: 6,
	}
	moved := sh
	moved.ExpIndex = 5
	if sh.Key() != moved.Key() {
		t.Error("shard key depends on ExpIndex; unchanged experiments would miss the cache when reordered")
	}
	other := sh
	other.Seed = 8
	if sh.Key() == other.Key() {
		t.Error("shard key ignores the seed")
	}
}

// TestSweepDispatchedOnce: E7 and E8 with equal overrides share every
// shard key, so a campaign naming both dispatches exactly as many shards
// as E7 alone, and both experiments still report their lifecycle.
func TestSweepDispatchedOnce(t *testing.T) {
	worker := shardWorker(t, nil)
	const params = `{"size":64,"mixes":["mix-1","mix-2"],"threads":15,"epochs":3,"targets":[0,0.6]}`
	run := func(ids ...string) (int64, map[string]int) {
		body := `{"name":"sweep","seed":1,"experiments":[`
		for i, id := range ids {
			if i > 0 {
				body += ","
			}
			body += `{"id":"` + id + `","params":` + params + `}`
		}
		spec, err := campaign.ParseSpec([]byte(body + `]}`))
		if err != nil {
			t.Fatal(err)
		}
		c, err := New(Options{Workers: []string{worker.URL}, MaxShards: 2})
		if err != nil {
			t.Fatal(err)
		}
		var mu sync.Mutex
		events := map[string]int{}
		count := func(ev string) { mu.Lock(); events[ev]++; mu.Unlock() }
		if _, err := c.RunCampaign(context.Background(), spec, campaign.Progress{
			ExperimentStarted: func(id string) { count("started " + id) },
			ExperimentDone:    func(id string, _ results.Table, _ error) { count("done " + id) },
		}); err != nil {
			t.Fatal(err)
		}
		return dispatches(c.Stats()), events
	}
	alone, _ := run("E7")
	both, events := run("E7", "E8")
	if alone != 2 || both != alone {
		t.Fatalf("E7+E8 dispatched %d shards, E7 alone %d: want 2 each", both, alone)
	}
	for _, ev := range []string{"started E7", "done E7", "started E8", "done E8"} {
		if events[ev] != 1 {
			t.Errorf("%q fired %d times, want once", ev, events[ev])
		}
	}
}
