package core

import (
	"context"
	"testing"

	"repro/internal/attack"
	"repro/internal/noc"
	"repro/internal/trojan"
)

func TestPlaceAppsContiguousSkippingManager(t *testing.T) {
	cfg := fastConfig() // 64 cores, manager at center (node 27)
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sc := Scenario{Apps: []AppSpec{
		{Name: "barnes", Threads: 30, Role: RoleAttacker},
		{Name: "vips", Threads: 10, Role: RoleVictim},
	}}
	placed, err := s.PlaceApps(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(placed) != 2 {
		t.Fatalf("apps placed = %d", len(placed))
	}
	if len(placed[0]) != 30 || len(placed[1]) != 10 {
		t.Fatalf("thread counts = %d/%d, want 30/10", len(placed[0]), len(placed[1]))
	}
	gm := s.ManagerNode()
	seen := make(map[noc.NodeID]bool)
	last := noc.NodeID(-1)
	for _, cores := range placed {
		for _, c := range cores {
			if c == gm {
				t.Fatal("manager node must not host a thread")
			}
			if seen[c] {
				t.Fatal("core assigned twice")
			}
			seen[c] = true
			if c <= last {
				t.Fatal("placement must be monotonically increasing")
			}
			last = c
		}
	}
	// Node 27 is the manager: app 0 spans 0..30 (skipping 27).
	if placed[0][27] != 28 {
		t.Errorf("expected skip over manager: placed[0][27] = %d, want 28", placed[0][27])
	}
}

func TestPlaceAppsMatchesRun(t *testing.T) {
	// The pre-computed placement must equal the one a Run uses, observed
	// through the report's per-app core counts.
	cfg := fastConfig()
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sc := Scenario{Apps: []AppSpec{
		{Name: "barnes", Threads: 40, Role: RoleAttacker},
		{Name: "vips", Threads: 40, Role: RoleVictim}, // clipped to 23
	}}
	placed, err := s.PlaceApps(sc)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.RunContext(context.Background(), sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, app := range rep.Apps {
		if app.Cores != len(placed[i]) {
			t.Errorf("app %d: run used %d cores, PlaceApps predicted %d", i, app.Cores, len(placed[i]))
		}
	}
}

func TestActivateAfterEpochsDelaysAttack(t *testing.T) {
	cfg := fastConfig()
	cfg.Epochs = 6
	cfg.WarmupEpochs = 0
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
	immediate, err := s.RunContext(context.Background(), sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	sc.ActivateAfterEpochs = 3
	delayed, err := s.RunContext(context.Background(), sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if delayed.InfectionMeasured >= immediate.InfectionMeasured {
		t.Errorf("delayed activation infection %v not below immediate %v",
			delayed.InfectionMeasured, immediate.InfectionMeasured)
	}
	if delayed.InfectionMeasured == 0 {
		t.Error("delayed attack must still activate eventually")
	}
	sc.ActivateAfterEpochs = 100 // beyond the horizon: never activates
	never, err := s.RunContext(context.Background(), sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if never.InfectionMeasured != 0 {
		t.Errorf("never-activated attack infected %v packets", never.InfectionMeasured)
	}
}

func TestActivateAfterEpochsValidation(t *testing.T) {
	sc := Scenario{
		Apps:                []AppSpec{{Name: "vips", Threads: 1, Role: RoleVictim}},
		ActivateAfterEpochs: -1,
	}
	if err := sc.Validate(); err == nil {
		t.Error("negative activation delay must fail")
	}
}

func TestLoopbackModeEndToEnd(t *testing.T) {
	cfg := fastConfig()
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mesh := s.Mesh()
	ring, err := attack.RingCluster(mesh, mesh.Coord(s.ManagerNode()), 6, 1, s.ManagerNode())
	if err != nil {
		t.Fatal(err)
	}
	sc := fastScenario(t, ring)
	sc.Mode = trojan.ModeLoopback
	rep, err := s.RunContext(context.Background(), sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Net.LoopedBack == 0 || rep.Trojan.Looped == 0 {
		t.Fatalf("loopback campaign bounced nothing: net=%d trojan=%d",
			rep.Net.LoopedBack, rep.Trojan.Looped)
	}
}

func TestEpochTrace(t *testing.T) {
	cfg := fastConfig()
	cfg.Epochs = 6
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
	sc.DutyOnEpochs, sc.DutyOffEpochs = 1, 1
	rep, err := s.RunContext(context.Background(), sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Epochs) != 6 {
		t.Fatalf("trace length = %d, want 6", len(rep.Epochs))
	}
	for i, rec := range rep.Epochs {
		if rec.Epoch != i {
			t.Fatalf("record %d has epoch %d", i, rec.Epoch)
		}
		wantActive := i%2 == 0 // duty 1/1 starting ON
		if rec.TrojanActive != wantActive {
			t.Errorf("epoch %d active = %v, want %v", i, rec.TrojanActive, wantActive)
		}
		// 32 app cores send one request per epoch; the drop-free fabric
		// delivers all of them.
		if rec.RequestsReceived != 32 {
			t.Errorf("epoch %d received %d requests, want 32", i, rec.RequestsReceived)
		}
		if wantActive && rec.RequestsTampered == 0 {
			t.Errorf("epoch %d: active trojans tampered nothing", i)
		}
		if !wantActive && rec.RequestsTampered != 0 {
			t.Errorf("epoch %d: inactive trojans tampered %d", i, rec.RequestsTampered)
		}
	}
}

func TestEpochTraceCleanRun(t *testing.T) {
	cfg := fastConfig()
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.RunContext(context.Background(), fastScenario(t, attack.Placement{}), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range rep.Epochs {
		if rec.TrojanActive || rec.RequestsTampered != 0 {
			t.Fatal("clean run must trace no trojan activity")
		}
	}
	// Levels ramp from the boot floor once grants arrive.
	first, last := rep.Epochs[0], rep.Epochs[len(rep.Epochs)-1]
	if last.VictimMeanLevel <= first.VictimMeanLevel && first.VictimMeanLevel == 0 {
		t.Error("victim levels never ramped up from the boot floor")
	}
}
