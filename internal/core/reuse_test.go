package core

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"repro/internal/attack"
	"repro/internal/budget"
	"repro/internal/defense"
	"repro/internal/exp"
	"repro/internal/trojan"
	"repro/internal/workload"
)

// reuseReader hands out fuzz bytes, then zeros once they run out.
type reuseReader struct{ b []byte }

func (r *reuseReader) byte() byte {
	if len(r.b) == 0 {
		return 0
	}
	c := r.b[0]
	r.b = r.b[1:]
	return c
}

func (r *reuseReader) pick(n int) int { return int(r.byte()) % n }

// reuseCase is one campaign of FuzzRunReuse: a chip and a scenario on it.
type reuseCase struct {
	sys *System
	sc  Scenario
}

// decodeReuseCase reads one campaign from 13 bytes: size (16, 36 or 64
// cores), mix, threads per application, placement, HT count (0 is the
// clean baseline), allocator, defense, cache traffic, epochs and warm-up,
// attack class, seed, and epoch length.
func decodeReuseCase(t *testing.T, r *reuseReader) reuseCase {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Cores = [...]int{16, 36, 64}[r.pick(3)]
	mixes := workload.Mixes()
	mix := mixes[r.pick(len(mixes))]
	perApp := (cfg.Cores - 1) / len(mix.Apps())
	threads := 1 + r.pick(max(perApp, 1))
	placements := attack.Placements.Names()
	placement := placements[r.pick(len(placements))]
	hts := r.pick(cfg.Cores / 4)
	allocators := budget.Registry.Names()
	alloc, err := budget.ByName(allocators[r.pick(len(allocators))])
	if err != nil {
		t.Fatal(err)
	}
	cfg.Allocator = alloc
	cfg.Filter, cfg.DualPathRequests = nil, false
	defenses := defense.Registry.Names()
	if err := cfg.SetDefense(defenses[r.pick(len(defenses))]); err != nil {
		t.Fatal(err)
	}
	cfg.MemTraffic = r.byte()&1 != 0
	cfg.Epochs = 1 + r.pick(5)
	cfg.WarmupEpochs = r.pick(cfg.Epochs)
	mode := [...]trojan.Mode{0, trojan.ModeDrop, trojan.ModeLoopback}[r.pick(3)]
	cfg.Seed = int64(r.byte())
	cfg.EpochCycles = 200 + 100*uint64(r.pick(3))
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	sc, err := MixScenario(mix, threads)
	if err != nil {
		t.Fatal(err)
	}
	sc.Mode = mode
	if hts > 0 {
		gen, err := attack.PlacementByName(placement)
		if err != nil {
			t.Fatal(err)
		}
		sc.Trojans, err = gen(sys.Mesh(), sys.ManagerNode(), hts, rand.New(rand.NewSource(cfg.Seed)))
		if err != nil {
			t.Fatalf("placement %s of %d HTs: %v", placement, hts, err)
		}
	}
	return reuseCase{sys: sys, sc: sc}
}

// campaignOn runs c on the run state r and returns its report as JSON.
func (c reuseCase) campaignOn(t *testing.T, r *run) (*Report, []byte) {
	t.Helper()
	if err := r.reset(c.sys, c.sc); err != nil {
		t.Fatalf("reset: %v", err)
	}
	rep, err := r.campaign(context.Background(), c.sc, nil)
	if err != nil {
		t.Fatalf("campaign: %v", err)
	}
	return rep, reportJSON(t, rep)
}

func reportJSON(t *testing.T, rep *Report) []byte {
	t.Helper()
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatalf("marshal report: %v", err)
	}
	return b
}

// FuzzRunReuse runs campaign B on fresh state and again on the state a
// different campaign A left behind, fuzzed over size, mix, placement,
// allocator, defense, cache traffic and epochs. B's two reports must
// marshal byte-identically, and A's report must not change when B
// reuses A's state: a report aliases nothing the next reset rewrites.
func FuzzRunReuse(f *testing.F) {
	f.Add([]byte{2, 0, 7, 3, 9, 0, 0, 0, 4, 0, 1, 0, 1, 1, 1, 3, 1, 2, 2, 1, 1, 2, 0, 5, 1, 2})
	f.Add([]byte{0, 1, 2, 0, 3, 2, 1, 1, 2, 1, 3, 2, 2, 2, 0, 9, 2, 14, 1, 3, 0, 4, 0, 8, 0, 1})
	f.Add([]byte{1, 2, 4, 1, 6, 3, 4, 0, 3, 2, 5, 1, 0, 2, 3, 5, 3, 10, 0, 6, 1, 1, 2, 2, 2, 0})
	f.Add([]byte{2, 3, 1, 2, 12, 1, 5, 1, 4, 0, 7, 2, 1, 1, 1, 1, 0, 0, 3, 0, 0, 0, 0, 0, 0, 2})
	// Cache traffic in both campaigns: 16 cores, then 64; 64, then 16.
	f.Add([]byte{0, 1, 3, 0, 2, 0, 0, 1, 2, 0, 0, 5, 1, 2, 0, 9, 1, 8, 1, 1, 1, 3, 1, 1, 17, 2})
	f.Add([]byte{2, 2, 6, 2, 10, 2, 0, 1, 4, 1, 2, 42, 0, 0, 3, 2, 1, 1, 0, 2, 1, 1, 0, 0, 9, 1})
	// Two fleets on one 36-core mesh: A a 7-HT ring under mix-1, B a
	// 4-HT ring over the same routers under mix-3, whose attackers sit
	// elsewhere, then the same with B in drop mode. B's Trojans reuse A's
	// table slots; a reset that kept A's counters or agent registers
	// moves B's report.
	f.Add([]byte{1, 0, 5, 3, 7, 0, 0, 0, 3, 1, 0, 5, 1, 1, 2, 4, 3, 4, 0, 0, 0, 3, 0, 0, 9, 1})
	f.Add([]byte{1, 0, 5, 3, 7, 0, 0, 0, 3, 1, 0, 5, 1, 1, 2, 4, 3, 4, 0, 0, 0, 3, 0, 1, 9, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := reuseReader{data}
		a, b := decodeReuseCase(t, &r), decodeReuseCase(t, &r)
		state := new(run)
		repA, jsonA := a.campaignOn(t, state)
		_, fresh := b.campaignOn(t, new(run))
		_, reused := b.campaignOn(t, state)
		if !bytes.Equal(fresh, reused) {
			t.Fatalf("B on reused state:\n%s\nB on fresh state:\n%s", reused, fresh)
		}
		if after := reportJSON(t, repA); !bytes.Equal(after, jsonA) {
			t.Fatalf("A's report changed when B reused its state:\n%s\nwas:\n%s", after, jsonA)
		}
	})
}

// TestEpochLoopAllocatesNothing pins the pooled run state: once a run has
// returned its state to keptRuns, a campaign allocates as often over 20
// epochs as over 5, budget-only under fair share and under the DP, and
// with cache traffic. The warm-up runs 20 epochs, so the memory
// hierarchy's directories and the event queue have grown to what the
// longer run needs. The test holds one P and stops the collector, so the
// DP's pooled table survives from run to run. The runtime
// fills its type-assertion caches at random call counts, which can add a
// stray allocation to any one run; AllocsPerRun's average over ten runs,
// rounded down, leaves those out and still counts one allocation per
// run, let alone per epoch.
func TestEpochLoopAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled items at random")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, tc := range []struct {
		alloc string
		mem   bool
	}{{"fair", false}, {"dp", false}, {"fair", true}} {
		alloc, err := budget.ByName(tc.alloc)
		if err != nil {
			t.Fatal(err)
		}
		allocs := func(epochs int) float64 {
			cfg := fastConfig()
			cfg.Allocator = alloc
			cfg.MemTraffic = tc.mem
			cfg.Epochs = epochs
			s, err := NewSystem(cfg)
			if err != nil {
				t.Fatal(err)
			}
			mesh := s.Mesh()
			ring, err := attack.RingCluster(mesh, mesh.Coord(s.ManagerNode()), 4, 1, s.ManagerNode())
			if err != nil {
				t.Fatal(err)
			}
			sc := fastScenario(t, ring)
			return testing.AllocsPerRun(10, func() {
				if _, err := s.RunContext(context.Background(), sc, nil); err != nil {
					t.Fatal(err)
				}
			})
		}
		allocs(20) // warm-up: fills keptRuns
		if five, twenty := allocs(5), allocs(20); five != twenty {
			t.Errorf("%s (cache traffic %v): a run allocates %v times over 5 epochs, %v over 20; want equal", tc.alloc, tc.mem, five, twenty)
		}
	}
}

// TestPooledRunAllocatesOnlyItsReport pins the pooled run state of a
// budget-only run with Trojans: once a run has returned its state to
// keptRuns and the System has built its route covers, the next run
// allocates only its report — the Report, its per-application results,
// its epoch trace and the two Φ vectors of its features — and no fleet,
// infected set or cover. Each run follows two collections: kept states
// survive them, where a sync.Pool's would not and the run would rebuild
// its chip.
func TestPooledRunAllocatesOnlyItsReport(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled items at random")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	s, err := NewSystem(fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	mesh := s.Mesh()
	ring, err := attack.RingCluster(mesh, mesh.Coord(s.ManagerNode()), 6, 1, s.ManagerNode())
	if err != nil {
		t.Fatal(err)
	}
	sc := fastScenario(t, ring)
	run := func() {
		runtime.GC()
		runtime.GC()
		if _, err := s.RunContext(context.Background(), sc, nil); err != nil {
			t.Fatal(err)
		}
	}
	run()
	const report = 5
	if n := testing.AllocsPerRun(10, run); n > report {
		t.Errorf("a pooled run with %d Trojans allocates %v times, want at most %d (its report)", ring.Size(), n, report)
	}
}

// TestInfectionTrialCellAllocatesNothing pins the closed-form trials: once
// a worker's pooled trial state has grown, one Fig 3/4 cell — re-seed,
// draw the fleet, take its infected set, count its covers — allocates
// nothing, for every series of both trial spaces.
func TestInfectionTrialCellAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled items at random")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, tr := range []InfectionTrials{
		InfectionCurve(128, []int{0, 4, 40}, 2),
		Distribution([]int{64, 256}, 8, 2),
	} {
		covers := tr.covers(0, tr.Space())
		for flat := 0; flat < tr.Space(); flat++ {
			cell := func() {
				if _, err := tr.cell(covers, flat, 7); err != nil {
					t.Fatal(err)
				}
			}
			cell()
			if n := testing.AllocsPerRun(20, cell); n != 0 {
				t.Errorf("%s cell %d allocates %v times, want 0", tr.title, flat, n)
			}
		}
	}
}

// TestReseedMatchesFreshSource pins the re-seed rule pooled sources rely
// on: after a source from exp.NewSource has been advanced by every method
// the simulator calls on one, Seed(s) makes it draw exactly what
// rand.New(rand.NewSource(s)) draws. (exp's FuzzSourceOracle compares the
// two sources at any seed.)
func TestReseedMatchesFreshSource(t *testing.T) {
	rng := rand.New(exp.NewSource(99))
	rng.Intn(17)
	rng.Float64()
	rng.Perm(33)
	rng.Shuffle(10, func(i, j int) {})
	const seed = 1234
	rng.Seed(seed)
	fresh := rand.New(rand.NewSource(seed))
	for i := 0; i < 10_000; i++ {
		if got, want := rng.Int63(), fresh.Int63(); got != want {
			t.Fatalf("draw %d after re-seeding = %d, fresh source %d", i, got, want)
		}
	}
}

// TestConcurrentPooledRuns runs campaigns of different sizes and
// allocators on shared pooled state from several goroutines: every
// report must equal the one a fresh state gives (run it under -race).
func TestConcurrentPooledRuns(t *testing.T) {
	inputs := [][]byte{
		{2, 0, 7, 3, 9, 0, 0, 0, 4, 0, 1, 0, 1},
		{0, 1, 2, 0, 3, 2, 1, 1, 2, 1, 3, 2, 2},
		{1, 2, 4, 1, 6, 3, 4, 0, 3, 2, 5, 1, 0},
		{2, 3, 1, 2, 12, 1, 5, 0, 4, 0, 7, 2, 1},
	}
	cases := make([]reuseCase, len(inputs))
	want := make([][]byte, len(inputs))
	for i, in := range inputs {
		cases[i] = decodeReuseCase(t, &reuseReader{in})
		_, want[i] = cases[i].campaignOn(t, new(run))
	}
	var wg sync.WaitGroup
	errs := make(chan string, 4*len(cases))
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range cases {
				i := (g + k) % len(cases)
				rep, err := cases[i].sys.RunContext(context.Background(), cases[i].sc, nil)
				if err != nil {
					errs <- err.Error()
					return
				}
				if b, _ := json.Marshal(rep); !bytes.Equal(b, want[i]) {
					errs <- fmt.Sprintf("case %d: pooled report differs from the fresh one", i)
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
