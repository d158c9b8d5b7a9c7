package budget

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/noc"
)

// testLevels is a small DVFS menu in mW with matching throughput values.
var (
	testLevels = []uint32{700, 1200, 1800, 2500, 3300, 4000}
	testValues = []float64{0.9, 1.6, 2.2, 2.7, 3.1, 3.4}
)

func req(core int, mw uint32, sens float64) Request {
	return Request{Core: core, RequestMW: mw, Sensitivity: sens, LevelsMW: testLevels, LevelValues: testValues}
}

func sumGrants(gs []uint32) uint64 {
	var s uint64
	for _, g := range gs {
		s += uint64(g)
	}
	return s
}

func TestByName(t *testing.T) {
	for _, name := range []string{"fair", "greedy", "dp", "pi"} {
		a, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if a.Name() != name {
			t.Errorf("allocator %q reports name %q", name, a.Name())
		}
	}
	if _, err := ByName("magic"); err == nil {
		t.Error("unknown allocator should fail")
	}
	if len(All()) != 4 {
		t.Errorf("All() = %d allocators, want 4", len(All()))
	}
}

func TestFairShareUnderSubscribed(t *testing.T) {
	reqs := []Request{req(0, 1000, 1), req(1, 2000, 1)}
	grants := FairShare{}.Allocate(nil, 10_000, reqs, new(State))
	if grants[0] != 1000 || grants[1] != 2000 {
		t.Errorf("grants = %v, want requests honoured in full", grants)
	}
}

func TestFairShareProportionalScaling(t *testing.T) {
	reqs := []Request{req(0, 3000, 1), req(1, 1000, 1)}
	grants := FairShare{}.Allocate(nil, 2000, reqs, new(State))
	if grants[0] != 1500 || grants[1] != 500 {
		t.Errorf("grants = %v, want [1500 500]", grants)
	}
}

func TestFairShareZeroRequests(t *testing.T) {
	grants := FairShare{}.Allocate(nil, 1000, []Request{req(0, 0, 1), req(1, 0, 1)}, new(State))
	if grants[0] != 0 || grants[1] != 0 {
		t.Errorf("grants = %v, want zeros", grants)
	}
}

func TestGreedyRespectsBudgetAndRequests(t *testing.T) {
	reqs := []Request{req(0, 4000, 3.0), req(1, 4000, 1.0), req(2, 4000, 2.0)}
	budget := uint64(6000)
	grants := Greedy{}.Allocate(nil, budget, reqs, new(State))
	if sumGrants(grants) > budget {
		t.Fatalf("grants %v exceed budget", grants)
	}
	for i, g := range grants {
		if g > reqs[i].RequestMW {
			t.Errorf("core %d granted %d over its request", i, g)
		}
	}
	// Highest sensitivity (core 0) must get at least as much as the others.
	if grants[0] < grants[1] || grants[0] < grants[2] {
		t.Errorf("grants = %v, sensitivity ordering violated", grants)
	}
}

func TestGreedyFloorForEveryone(t *testing.T) {
	// Even the least sensitive core gets the bottom DVFS level.
	reqs := []Request{req(0, 4000, 10), req(1, 4000, 0.1)}
	grants := Greedy{}.Allocate(nil, 8000, reqs, new(State))
	if grants[1] < testLevels[0] {
		t.Errorf("low-sensitivity core granted %d, want ≥ floor %d", grants[1], testLevels[0])
	}
}

func TestGreedyTamperedZeroRequestStarves(t *testing.T) {
	reqs := []Request{req(0, 0, 5.0), req(1, 4000, 1.0)}
	grants := Greedy{}.Allocate(nil, 8000, reqs, new(State))
	if grants[0] != 0 {
		t.Errorf("zeroed request granted %d, want 0", grants[0])
	}
}

func TestDPOptimalOnSmallInstance(t *testing.T) {
	// Two cores, tight budget: DP must find the value-maximising split.
	reqs := []Request{
		{Core: 0, RequestMW: 4000, LevelsMW: []uint32{100, 200}, LevelValues: []float64{1, 10}},
		{Core: 1, RequestMW: 4000, LevelsMW: []uint32{100, 200}, LevelValues: []float64{1, 2}},
	}
	grants := NewDPKnapsack(1).Allocate(nil, 300, reqs, new(State))
	// Best: core 0 at 200 (value 10) + core 1 at 100 (value 1) = 11.
	if grants[0] != 200 || grants[1] != 100 {
		t.Errorf("grants = %v, want [200 100]", grants)
	}
}

func TestDPMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		n := 3
		reqs := make([]Request, n)
		for i := range reqs {
			reqs[i] = Request{
				Core:        i,
				RequestMW:   4000,
				LevelsMW:    []uint32{100, 200, 300},
				LevelValues: []float64{rng.Float64(), 1 + rng.Float64(), 2 + rng.Float64()},
			}
		}
		budget := uint64(300 + rng.Intn(600))
		grants := NewDPKnapsack(1).Allocate(nil, budget, reqs, new(State))
		gotValue := 0.0
		for i, g := range grants {
			for li, lvl := range reqs[i].LevelsMW {
				if lvl == g {
					gotValue += reqs[i].LevelValues[li]
				}
			}
		}
		// Brute force over 3^3 assignments (including "none" = 0 grant).
		bestValue := 0.0
		var rec func(i int, power uint64, value float64)
		rec = func(i int, power uint64, value float64) {
			if power > budget {
				return
			}
			if i == n {
				if value > bestValue {
					bestValue = value
				}
				return
			}
			rec(i+1, power, value) // grant 0
			for li, lvl := range reqs[i].LevelsMW {
				rec(i+1, power+uint64(lvl), value+reqs[i].LevelValues[li])
			}
		}
		rec(0, 0, 0)
		if gotValue < bestValue-1e-9 {
			t.Fatalf("trial %d: DP value %v < brute force %v (budget %d)", trial, gotValue, bestValue, budget)
		}
	}
}

func TestDPQuantisationNeverOvershoots(t *testing.T) {
	reqs := []Request{req(0, 4000, 1), req(1, 4000, 1), req(2, 4000, 1)}
	for _, budget := range []uint64{1000, 2555, 4001, 9999} {
		grants := NewDPKnapsack(50).Allocate(nil, budget, reqs, new(State))
		if sumGrants(grants) > budget {
			t.Errorf("budget %d: grants %v overshoot", budget, grants)
		}
	}
}

func TestDPEmptyRequests(t *testing.T) {
	if got := NewDPKnapsack(50).Allocate(nil, 1000, nil, new(State)); len(got) != 0 {
		t.Errorf("empty allocation = %v", got)
	}
}

// The DP table lives in a fixed set of flat slices, so building a fresh
// one must not allocate more often as the number of requests grows. This
// measures a fresh table, in a new State, on every call.
func TestDPAllocsIndependentOfRequestCount(t *testing.T) {
	allocs := func(n int) float64 {
		reqs := make([]Request, n)
		for i := range reqs {
			reqs[i] = req(i, 4000, 1)
		}
		dp := NewDPKnapsack(100)
		return testing.AllocsPerRun(20, func() { dp.Allocate(nil, uint64(n)*2000, reqs, new(State)) })
	}
	if a8, a64 := allocs(8), allocs(64); a8 != a64 {
		t.Errorf("Allocate: %v allocs for 8 requests, %v for 64; want equal", a8, a64)
	}
}

func TestDPClampsQuant(t *testing.T) {
	if NewDPKnapsack(0).QuantMW != 1 {
		t.Error("quant must clamp to ≥ 1")
	}
}

func TestPIConvergesTowardRequests(t *testing.T) {
	pi, st := NewPIController(0.5), new(State)
	reqs := []Request{req(0, 2000, 1), req(1, 1000, 1)}
	var grants []uint32
	for epoch := 0; epoch < 20; epoch++ {
		grants = pi.Allocate(nil, 10_000, reqs, st)
	}
	if grants[0] < 1900 || grants[1] < 900 {
		t.Errorf("grants after convergence = %v, want near requests", grants)
	}
}

func TestPISaturatesAtBudget(t *testing.T) {
	pi, st := NewPIController(0.5), new(State)
	reqs := []Request{req(0, 4000, 1), req(1, 4000, 1)}
	for epoch := 0; epoch < 20; epoch++ {
		grants := pi.Allocate(nil, 5000, reqs, st)
		if sumGrants(grants) > 5000 {
			t.Fatalf("epoch %d: grants %v exceed budget", epoch, grants)
		}
	}
}

// A reset manager forgets what the PI controller tracked: the same
// requests get the grants a fresh manager gives.
func TestPIResetClearsState(t *testing.T) {
	epochs := func(m *Manager) []Grant {
		m.SetCoreInfo(1, CoreInfo{Sensitivity: 1, LevelsMW: testLevels, LevelValues: testValues})
		m.SetCoreInfo(2, CoreInfo{Sensitivity: 1, LevelsMW: testLevels, LevelValues: testValues})
		var all []Grant
		for _, mw := range []uint32{4000, 4000, 1200, 3300} {
			m.HandleRequest(&noc.Packet{Src: 1, Dst: 9, Type: noc.TypePowerReq, Payload: mw})
			m.HandleRequest(&noc.Packet{Src: 2, Dst: 9, Type: noc.TypePowerReq, Payload: 4000 - mw/2})
			all = append(all, m.AllocateEpoch()...)
		}
		return all
	}
	fresh, err := NewManager(9, NewPIController(0.5), 6000)
	if err != nil {
		t.Fatal(err)
	}
	want := epochs(fresh)
	if err := fresh.Reset(9, NewPIController(0.5), 6000); err != nil {
		t.Fatal(err)
	}
	if got := epochs(fresh); !slices.Equal(got, want) {
		t.Errorf("grants after Reset = %v, fresh manager %v", got, want)
	}
}

func TestPIGainClamping(t *testing.T) {
	if NewPIController(-1).Kp != 0.5 || NewPIController(2).Kp != 0.5 {
		t.Error("invalid gains must clamp to default")
	}
}

// The paper's core claim: tampering helps the attacker under EVERY
// allocator. Victims' requests are cut to zero; attackers keep theirs. For
// each algorithm the attacker's grant must not shrink and the victim's must
// shrink strictly, relative to the un-tampered run.
func TestAttackWorksForEveryAllocator(t *testing.T) {
	clean := []Request{
		req(0, 4000, 2.0), // attacker
		req(1, 4000, 2.0), // victim
		req(2, 4000, 2.0), // victim
	}
	tampered := []Request{
		req(0, 4000, 2.0),
		req(1, 0, 2.0),
		req(2, 0, 2.0),
	}
	budget := uint64(6000) // insufficient for all three at peak
	for _, alloc := range All() {
		t.Run(alloc.Name(), func(t *testing.T) {
			// Converge each scenario on its own State.
			var cleanGrants, tamperedGrants []uint32
			cleanState, tamperedState := new(State), new(State)
			for i := 0; i < 30; i++ {
				cleanGrants = alloc.Allocate(cleanGrants[:0], budget, clean, cleanState)
				tamperedGrants = alloc.Allocate(tamperedGrants[:0], budget, tampered, tamperedState)
			}
			assertAttackHelps(t, cleanGrants, tamperedGrants)
		})
	}
}

func assertAttackHelps(t *testing.T, clean, tampered []uint32) {
	t.Helper()
	if tampered[0] < clean[0] {
		t.Errorf("attacker grant fell from %d to %d", clean[0], tampered[0])
	}
	if tampered[1] >= clean[1] || tampered[2] >= clean[2] {
		t.Errorf("victim grants did not fall: clean %v tampered %v", clean, tampered)
	}
}

// Property: every allocator conserves the budget and never grants a core
// more than it asked for (FairShare included — grants equal requests only
// when the budget covers them).
func TestAllocatorInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		reqs := make([]Request, n)
		for i := range reqs {
			reqs[i] = req(i, uint32(rng.Intn(4500)), rng.Float64()*3)
		}
		budget := uint64(500 + rng.Intn(20000))
		for _, alloc := range All() {
			grants := alloc.Allocate(nil, budget, reqs, new(State))
			if len(grants) != n {
				return false
			}
			if sumGrants(grants) > budget && sumGrants(grants) > totalRequests(reqs) {
				return false
			}
			for i, g := range grants {
				if g > reqs[i].RequestMW {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func totalRequests(reqs []Request) uint64 {
	var s uint64
	for _, r := range reqs {
		s += uint64(r.RequestMW)
	}
	return s
}

func TestManagerLifecycle(t *testing.T) {
	m, err := NewManager(119, FairShare{}, 10_000)
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	if m.Node() != 119 || m.BudgetMW() != 10_000 || m.Allocator().Name() != "fair" {
		t.Error("accessor mismatch")
	}
	m.SetCoreInfo(1, CoreInfo{Sensitivity: 2, LevelsMW: testLevels, LevelValues: testValues})
	m.SetCoreInfo(2, CoreInfo{Sensitivity: 1, LevelsMW: testLevels, LevelValues: testValues})

	m.HandleRequest(&noc.Packet{Src: 1, Dst: 119, Type: noc.TypePowerReq, Payload: 4000})
	m.HandleRequest(&noc.Packet{Src: 2, Dst: 119, Type: noc.TypePowerReq, Payload: 4000, Tampered: true})
	if m.PendingCount() != 2 {
		t.Fatalf("PendingCount = %d, want 2", m.PendingCount())
	}
	if m.ReceivedTotal != 2 || m.TamperedTotal != 1 {
		t.Errorf("counters = %d/%d, want 2/1", m.ReceivedTotal, m.TamperedTotal)
	}

	grants := m.AllocateEpoch()
	if len(grants) != 2 {
		t.Fatalf("grants = %v, want 2", grants)
	}
	if grants[0].Core != 1 || grants[1].Core != 2 {
		t.Error("grants must be sorted by core")
	}
	if m.PendingCount() != 0 {
		t.Error("epoch must clear pending requests")
	}
	if m.AllocateEpoch() != nil {
		t.Error("empty epoch must return nil")
	}
}

func TestManagerIgnoresWrongPackets(t *testing.T) {
	m, _ := NewManager(119, FairShare{}, 10_000)
	m.HandleRequest(&noc.Packet{Src: 1, Dst: 119, Type: noc.TypeMemReadReq, Payload: 5})
	m.HandleRequest(&noc.Packet{Src: 1, Dst: 3, Type: noc.TypePowerReq, Payload: 5})
	if m.PendingCount() != 0 {
		t.Error("manager must only latch POWER_REQ addressed to it")
	}
}

func TestManagerOverwritesWithinEpoch(t *testing.T) {
	m, _ := NewManager(119, FairShare{}, 10_000)
	m.HandleRequest(&noc.Packet{Src: 1, Dst: 119, Type: noc.TypePowerReq, Payload: 1000})
	m.HandleRequest(&noc.Packet{Src: 1, Dst: 119, Type: noc.TypePowerReq, Payload: 2000})
	grants := m.AllocateEpoch()
	if len(grants) != 1 || grants[0].GrantMW != 2000 {
		t.Errorf("grants = %v, want single grant of 2000", grants)
	}
}

func TestManagerConstructorValidation(t *testing.T) {
	if _, err := NewManager(0, nil, 1000); err == nil {
		t.Error("nil allocator must fail")
	}
	if _, err := NewManager(0, FairShare{}, 0); err == nil {
		t.Error("zero budget must fail")
	}
}
