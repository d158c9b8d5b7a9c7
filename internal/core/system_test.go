package core

import (
	"context"
	"math"
	"testing"

	"repro/internal/attack"
	"repro/internal/budget"
	"repro/internal/noc"
	"repro/internal/trojan"
	"repro/internal/workload"
)

// fastConfig is a small, quick chip for integration tests: 64 cores, no
// cache traffic, short epochs.
func fastConfig() Config {
	cfg := DefaultConfig()
	cfg.Cores = 64
	cfg.MemTraffic = false
	cfg.EpochCycles = 400
	cfg.Epochs = 6
	cfg.WarmupEpochs = 2
	return cfg
}

// fastScenario: one attacker app, one victim app, 16 threads each.
func fastScenario(t *testing.T, placement attack.Placement) Scenario {
	t.Helper()
	return Scenario{
		Apps: []AppSpec{
			{Name: "barnes", Threads: 16, Role: RoleAttacker},
			{Name: "blackscholes", Threads: 16, Role: RoleVictim},
		},
		Trojans:  placement,
		Strategy: trojan.ZeroStrategy{},
	}
}

func TestDefaultConfigMatchesTableI(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.Cores != 256 {
		t.Errorf("Cores = %d, want 256 (Table I)", cfg.Cores)
	}
	if cfg.NoC.VCs != 4 || cfg.NoC.BufDepth != 5 {
		t.Error("NoC config deviates from Table I")
	}
	if cfg.Mem.MemLatency != 200 {
		t.Errorf("memory latency = %d, want 200 (Table I)", cfg.Mem.MemLatency)
	}
	if cfg.NoC.Routing.Name() != "xy" {
		t.Error("routing must default to XY (Table I)")
	}
	mesh, err := cfg.Mesh()
	if err != nil {
		t.Fatal(err)
	}
	if mesh.Width != 16 || mesh.Height != 16 {
		t.Errorf("mesh = %dx%d, want 16x16", mesh.Width, mesh.Height)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestConfigValidation(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{"one core", func(c *Config) { c.Cores = 1 }},
		{"nil power", func(c *Config) { c.Power = nil }},
		{"zero budget fraction", func(c *Config) { c.BudgetFraction = 0 }},
		{"over unity budget", func(c *Config) { c.BudgetFraction = 1.5 }},
		{"nil allocator", func(c *Config) { c.Allocator = nil }},
		{"bad placement", func(c *Config) { c.GM = GMPlacement(9) }},
		{"tiny epoch", func(c *Config) { c.EpochCycles = 10 }},
		{"no measured epochs", func(c *Config) { c.WarmupEpochs = 6; c.Epochs = 6 }},
		{"zero baseline latency", func(c *Config) { c.BaselineMemLatencyNs = 0 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := fastConfig()
			tt.mutate(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Error("Validate should fail")
			}
		})
	}
}

func TestManagerPlacement(t *testing.T) {
	cfg := fastConfig()
	mesh, _ := cfg.Mesh()
	if cfg.ManagerNode(mesh) != mesh.Center() {
		t.Error("default manager must sit at the center")
	}
	cfg.GM = GMCorner
	if cfg.ManagerNode(mesh) != mesh.Corner() {
		t.Error("corner manager must sit at (0,0)")
	}
}

func TestMixScenario(t *testing.T) {
	mix, _ := workload.MixByName("mix-1")
	sc, err := MixScenario(mix, 16)
	if err != nil {
		t.Fatalf("MixScenario: %v", err)
	}
	if len(sc.Apps) != 4 {
		t.Fatalf("apps = %d, want 4", len(sc.Apps))
	}
	if sc.Apps[0].Role != RoleAttacker || sc.Apps[3].Role != RoleVictim {
		t.Error("attackers must come first")
	}
	if err := sc.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := MixScenario(mix, 0); err == nil {
		t.Error("zero threads must fail")
	}
}

func TestScenarioValidation(t *testing.T) {
	tests := []struct {
		name string
		give Scenario
	}{
		{"empty", Scenario{}},
		{"unknown app", Scenario{Apps: []AppSpec{{Name: "doom", Threads: 1, Role: RoleVictim}}}},
		{"zero threads", Scenario{Apps: []AppSpec{{Name: "vips", Threads: 0, Role: RoleVictim}}}},
		{"bad role", Scenario{Apps: []AppSpec{{Name: "vips", Threads: 1}}}},
		{"negative duty", Scenario{Apps: []AppSpec{{Name: "vips", Threads: 1, Role: RoleVictim}}, DutyOnEpochs: -1}},
		{"off without on", Scenario{Apps: []AppSpec{{Name: "vips", Threads: 1, Role: RoleVictim}}, DutyOffEpochs: 2}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.give.Validate(); err == nil {
				t.Error("Validate should fail")
			}
		})
	}
}

func TestRoleString(t *testing.T) {
	for _, r := range []Role{RoleNeutral, RoleAttacker, RoleVictim, Role(42)} {
		if r.String() == "" {
			t.Errorf("empty string for role %d", int(r))
		}
	}
}

func TestBaselineRunCleanChip(t *testing.T) {
	s, err := NewSystem(fastConfig())
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	rep, err := s.RunContext(context.Background(), fastScenario(t, attack.Placement{}), nil)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.InfectionMeasured != 0 || rep.InfectionPredicted != 0 {
		t.Errorf("clean chip infection = %v/%v, want 0", rep.InfectionMeasured, rep.InfectionPredicted)
	}
	if rep.Trojan.Modified != 0 {
		t.Error("clean chip must have no tampering")
	}
	for _, a := range rep.Apps {
		if a.Theta <= 0 {
			t.Errorf("%s θ = %v, want > 0", a.Name, a.Theta)
		}
		if a.Phi <= 0 {
			t.Errorf("%s Φ = %v, want > 0", a.Name, a.Phi)
		}
		if a.Cores != 16 {
			t.Errorf("%s got %d cores, want 16", a.Name, a.Cores)
		}
	}
	// Every epoch's requests must arrive: 32 app cores × 6 epochs.
	if rep.Net.DeliveredBy[noc.TypePowerReq] != 32*6 {
		t.Errorf("delivered POWER_REQ = %d, want %d", rep.Net.DeliveredBy[noc.TypePowerReq], 32*6)
	}
}

func TestAttackRunVictimisesAndBoosts(t *testing.T) {
	s, err := NewSystem(fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Trojans packed around the manager: near-total infection.
	mesh := s.Mesh()
	ring, err := attack.RingCluster(mesh, mesh.Coord(s.ManagerNode()), 4, 1, s.ManagerNode())
	if err != nil {
		t.Fatal(err)
	}
	sc := fastScenario(t, ring)
	attacked, baseline, err := s.RunPairContext(context.Background(), sc, nil)
	if err != nil {
		t.Fatalf("RunPair: %v", err)
	}
	if attacked.InfectionMeasured == 0 {
		t.Fatal("attack run shows no infection")
	}
	cmp, err := Compare(attacked, baseline)
	if err != nil {
		t.Fatalf("Compare: %v", err)
	}
	var att, vic *AppChange
	for i := range cmp.PerApp {
		switch cmp.PerApp[i].Role {
		case RoleAttacker:
			att = &cmp.PerApp[i]
		case RoleVictim:
			vic = &cmp.PerApp[i]
		}
	}
	if att == nil || vic == nil {
		t.Fatal("missing roles in comparison")
	}
	if vic.Change >= 1 {
		t.Errorf("victim Θ = %v, want < 1 (performance degraded)", vic.Change)
	}
	if att.Change < 1 {
		t.Errorf("attacker Θ = %v, want ≥ 1 (performance boosted)", att.Change)
	}
	if cmp.Q <= 1 {
		t.Errorf("Q = %v, want > 1 for an effective attack", cmp.Q)
	}
	if attacked.Trojan.Modified == 0 {
		t.Error("trojans reported no modifications")
	}
}

func TestInfectionMeasuredMatchesPredicted(t *testing.T) {
	s, err := NewSystem(fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	mesh := s.Mesh()
	ring, err := attack.RingCluster(mesh, mesh.Coord(s.ManagerNode()), 6, 2, s.ManagerNode())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.RunContext(context.Background(), fastScenario(t, ring), nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rep.InfectionMeasured-rep.InfectionPredicted) > 0.05 {
		t.Errorf("measured %v vs predicted %v infection", rep.InfectionMeasured, rep.InfectionPredicted)
	}
}

func TestMoreInfectionMoreQ(t *testing.T) {
	// The Fig 5 trend: a placement with a higher infection rate yields a
	// larger Q for the same mix.
	s, err := NewSystem(fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	mesh := s.Mesh()
	gm := s.ManagerNode()
	low, rateLow := attack.ForInfectionRate(mesh, gm, 0.25, 64)
	high, rateHigh := attack.ForInfectionRate(mesh, gm, 0.9, 64)
	if rateLow >= rateHigh {
		t.Skip("placements did not separate")
	}
	qFor := func(p attack.Placement) float64 {
		att, base, err := s.RunPairContext(context.Background(), fastScenario(t, p), nil)
		if err != nil {
			t.Fatal(err)
		}
		cmp, err := Compare(att, base)
		if err != nil {
			t.Fatal(err)
		}
		return cmp.Q
	}
	qLow, qHigh := qFor(low), qFor(high)
	if qHigh <= qLow {
		t.Errorf("Q(high infection) = %v not above Q(low) = %v", qHigh, qLow)
	}
}

func TestDutyCyclingHalvesInfection(t *testing.T) {
	s, err := NewSystem(fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	mesh := s.Mesh()
	ring, err := attack.RingCluster(mesh, mesh.Coord(s.ManagerNode()), 4, 1, s.ManagerNode())
	if err != nil {
		t.Fatal(err)
	}
	always := fastScenario(t, ring)
	duty := always
	duty.DutyOnEpochs, duty.DutyOffEpochs = 1, 1
	repAlways, err := s.RunContext(context.Background(), always, nil)
	if err != nil {
		t.Fatal(err)
	}
	repDuty, err := s.RunContext(context.Background(), duty, nil)
	if err != nil {
		t.Fatal(err)
	}
	if repDuty.InfectionMeasured >= repAlways.InfectionMeasured {
		t.Errorf("duty-cycled infection %v not below always-on %v",
			repDuty.InfectionMeasured, repAlways.InfectionMeasured)
	}
	if repDuty.InfectionMeasured == 0 {
		t.Error("duty-cycled attack must still tamper during ON epochs")
	}
}

func TestMemTrafficIntegration(t *testing.T) {
	cfg := fastConfig()
	cfg.Cores = 16
	cfg.MemTraffic = true
	cfg.EpochCycles = 600
	cfg.Epochs = 4
	cfg.WarmupEpochs = 1
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sc := Scenario{
		Apps: []AppSpec{
			{Name: "canneal", Threads: 6, Role: RoleAttacker},
			{Name: "dedup", Threads: 6, Role: RoleVictim},
		},
	}
	rep, err := s.RunContext(context.Background(), sc, nil)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Net.DeliveredBy[noc.TypeMemReadReq] == 0 {
		t.Error("memory traffic generated no NoC requests")
	}
	if rep.AvgMemLatencyNs <= 0 {
		t.Errorf("memory latency = %v, want > 0", rep.AvgMemLatencyNs)
	}
	for _, a := range rep.Apps {
		if a.Theta <= 0 {
			t.Errorf("%s θ = %v under traffic", a.Name, a.Theta)
		}
	}
}

// A budget-only run never draws a cache address, so setup must not build
// the per-core address streams; a run with cache traffic needs one per
// placed core.
func TestAddressStreamsOnlyWithMemTraffic(t *testing.T) {
	for _, memTraffic := range []bool{false, true} {
		cfg := fastConfig()
		cfg.MemTraffic = memTraffic
		s, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		r, err := s.setup(fastScenario(t, attack.Placement{}))
		if err != nil {
			t.Fatal(err)
		}
		placed, streams := 0, 0
		for _, cs := range r.cores {
			if cs.app >= 0 {
				placed++
			}
			if cs.stream != nil {
				streams++
				if cs.app < 0 {
					t.Errorf("MemTraffic=%v: idle core %d has an address stream", memTraffic, cs.node)
				}
			}
		}
		want := 0
		if memTraffic {
			want = placed
		}
		if placed != 32 || streams != want {
			t.Errorf("MemTraffic=%v: %d placed cores, %d address streams; want 32 and %d", memTraffic, placed, streams, want)
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	run := func() *Report {
		s, err := NewSystem(fastConfig())
		if err != nil {
			t.Fatal(err)
		}
		mesh := s.Mesh()
		ring, err := attack.RingCluster(mesh, mesh.Coord(s.ManagerNode()), 4, 1, s.ManagerNode())
		if err != nil {
			t.Fatal(err)
		}
		rep, err := s.RunContext(context.Background(), fastScenario(t, ring), nil)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(), run()
	for i := range a.Apps {
		if a.Apps[i].Theta != b.Apps[i].Theta {
			t.Fatalf("same seed produced different θ: %v vs %v", a.Apps[i].Theta, b.Apps[i].Theta)
		}
	}
	if a.InfectionMeasured != b.InfectionMeasured {
		t.Fatal("same seed produced different infection")
	}
}

func TestCornerManagerRuns(t *testing.T) {
	cfg := fastConfig()
	cfg.GM = GMCorner
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s.ManagerNode() != 0 {
		t.Fatalf("manager = %d, want 0", s.ManagerNode())
	}
	rep, err := s.RunContext(context.Background(), fastScenario(t, attack.Placement{}), nil)
	if err != nil {
		t.Fatal(err)
	}
	// The hacker control node must have moved off the manager.
	if rep.GM != 0 {
		t.Errorf("report GM = %d", rep.GM)
	}
}

func TestAppsClippedAtCapacity(t *testing.T) {
	cfg := fastConfig()
	cfg.Cores = 16
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sc := Scenario{Apps: []AppSpec{
		{Name: "vips", Threads: 10, Role: RoleAttacker},
		{Name: "dedup", Threads: 10, Role: RoleVictim}, // only 5 left (GM excluded)
	}}
	rep, err := s.RunContext(context.Background(), sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Apps[0].Cores != 10 {
		t.Errorf("first app cores = %d, want 10", rep.Apps[0].Cores)
	}
	if rep.Apps[1].Cores != 5 {
		t.Errorf("second app cores = %d, want 5 (clipped)", rep.Apps[1].Cores)
	}
}

func TestNoRoomForAppFails(t *testing.T) {
	cfg := fastConfig()
	cfg.Cores = 4
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sc := Scenario{Apps: []AppSpec{
		{Name: "vips", Threads: 3, Role: RoleAttacker},
		{Name: "dedup", Threads: 3, Role: RoleVictim}, // no cores left
	}}
	if _, err := s.RunContext(context.Background(), sc, nil); err == nil {
		t.Error("scenario exceeding capacity entirely must fail")
	}
}

func TestCompareValidation(t *testing.T) {
	a := &Report{Apps: []AppResult{{Name: "vips", Role: RoleVictim}}}
	b := &Report{}
	if _, err := Compare(a, b); err == nil {
		t.Error("length mismatch must fail")
	}
	c := &Report{Apps: []AppResult{{Name: "dedup", Role: RoleVictim}}}
	if _, err := Compare(a, c); err == nil {
		t.Error("name mismatch must fail")
	}
}

func TestAllocatorsAllRunEndToEnd(t *testing.T) {
	// The paper's "irrespective of the algorithm" claim, end to end: the
	// attack yields Q > 1 under every allocator.
	for _, alloc := range budget.All() {
		alloc := alloc
		t.Run(alloc.Name(), func(t *testing.T) {
			cfg := fastConfig()
			cfg.Allocator = alloc
			if alloc.Name() == "dp" {
				// Keep the DP table small in tests.
				cfg.Allocator = budget.NewDPKnapsack(200)
			}
			s, err := NewSystem(cfg)
			if err != nil {
				t.Fatal(err)
			}
			mesh := s.Mesh()
			ring, err := attack.RingCluster(mesh, mesh.Coord(s.ManagerNode()), 6, 1, s.ManagerNode())
			if err != nil {
				t.Fatal(err)
			}
			attacked, baseline, err := s.RunPairContext(context.Background(), fastScenario(t, ring), nil)
			if err != nil {
				t.Fatal(err)
			}
			cmp, err := Compare(attacked, baseline)
			if err != nil {
				t.Fatal(err)
			}
			if cmp.Q <= 1 {
				t.Errorf("allocator %s: Q = %v, want > 1", alloc.Name(), cmp.Q)
			}
		})
	}
}
