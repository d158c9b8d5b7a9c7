package dist

import (
	"testing"

	"repro/internal/campaign"
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
	if !c.AddWorker("http://a:1/") {
		t.Fatal("first registration rejected")
	}
	if c.AddWorker("http://a:1") {
		t.Fatal("same URL (modulo trailing slash) registered twice")
	}
	if c.AddWorker("  ") {
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
	if shardKey(sh) != shardKey(moved) {
		t.Error("shard key depends on ExpIndex; unchanged experiments would miss the cache when reordered")
	}
	other := sh
	other.Seed = 8
	if shardKey(sh) == shardKey(other) {
		t.Error("shard key ignores the seed")
	}
}
