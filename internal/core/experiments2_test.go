package core

import (
	"context"
	"testing"

	"repro/internal/attack"
	"repro/internal/budget"
	"repro/internal/defense"
	"repro/internal/noc"
	"repro/internal/results"
	"repro/internal/trojan"
)

func campaignPlacement(t *testing.T, s *System) attack.Placement {
	t.Helper()
	mesh := s.Mesh()
	p, err := attack.RingCluster(mesh, mesh.Coord(s.ManagerNode()), 6, 1, s.ManagerNode())
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestDoSVariantStudy(t *testing.T) {
	cfg := fastConfig()
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	placement := campaignPlacement(t, sys)
	rows, err := DoSVariantStudy(context.Background(), cfg, "mix-1", 16, placement)
	if err != nil {
		t.Fatalf("DoSVariantStudy: %v", err)
	}
	if len(rows) != 3 {
		t.Fatalf("variants = %d, want 3", len(rows))
	}
	byMode := make(map[string]results.VariantRow, 3)
	for _, r := range rows {
		byMode[r.Mode] = r
	}
	fd := byMode[trojan.ModeFalseData.String()]
	dr := byMode[trojan.ModeDrop.String()]
	lb := byMode[trojan.ModeLoopback.String()]

	// Every class must hurt the victims.
	for _, r := range rows {
		if r.VictimChange >= 1 {
			t.Errorf("%v: victim Θ = %v, want < 1", r.Mode, r.VictimChange)
		}
		if r.Q <= 1 {
			t.Errorf("%v: Q = %v, want > 1", r.Mode, r.Q)
		}
	}
	// Only the false-data class rewrites payloads; only drop destroys
	// packets; only loopback bounces them.
	if fd.Dropped != 0 || fd.Looped != 0 {
		t.Errorf("false-data dropped/looped = %d/%d, want 0/0", fd.Dropped, fd.Looped)
	}
	if dr.Dropped == 0 {
		t.Error("drop variant destroyed nothing")
	}
	if lb.Looped == 0 {
		t.Error("loopback variant bounced nothing")
	}
}

func TestDoSVariantStudyUnknownMix(t *testing.T) {
	cfg := fastConfig()
	sys, _ := NewSystem(cfg)
	if _, err := DoSVariantStudy(context.Background(), cfg, "mix-9", 16, campaignPlacement(t, sys)); err == nil {
		t.Error("unknown mix must fail")
	}
}

func TestScenarioModeValidation(t *testing.T) {
	sc := Scenario{Apps: []AppSpec{{Name: "vips", Threads: 1, Role: RoleVictim}}, Mode: trojan.Mode(77)}
	if err := sc.Validate(); err == nil {
		t.Error("invalid mode must fail validation")
	}
	sc.Mode = trojan.ModeDrop
	if err := sc.Validate(); err != nil {
		t.Errorf("drop mode must validate: %v", err)
	}
}

func TestDropModeEndToEnd(t *testing.T) {
	cfg := fastConfig()
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sc := fastScenario(t, campaignPlacement(t, sys))
	sc.Mode = trojan.ModeDrop
	rep, err := sys.RunContext(context.Background(), sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Net.DroppedPackets == 0 {
		t.Fatal("drop campaign destroyed no packets")
	}
	if rep.Trojan.Dropped == 0 {
		t.Fatal("trojan stats recorded no drops")
	}
	// Dropped requests never reach the manager, so fewer POWER_REQ arrive
	// than in a clean run (32 cores × 6 epochs).
	if got := rep.Net.DeliveredBy[noc.TypePowerReq]; got >= 32*6 {
		t.Errorf("delivered POWER_REQ = %d, want < %d", got, 32*6)
	}
}

func TestDefenseStudyReducesQ(t *testing.T) {
	cfg := fastConfig()
	cfg.Epochs = 8 // two full ON/OFF duty periods
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	placement := campaignPlacement(t, sys)
	rows, err := DefenseStudy(context.Background(), cfg, "mix-1", 16, placement, defense.Registry.Names())
	if err != nil {
		t.Fatalf("DefenseStudy: %v", err)
	}
	byName := make(map[string]results.DefenseRow, len(rows))
	for _, r := range rows {
		byName[r.Defense] = r
	}
	undefended := byName["none"]
	if undefended.Q <= 1 {
		t.Fatalf("undefended Q = %v, want > 1 (otherwise nothing to defend)", undefended.Q)
	}
	if undefended.Flagged != 0 {
		t.Error("no filter must mean no flags")
	}
	combined := byName["both"]
	if combined.Q >= undefended.Q {
		t.Errorf("combined defense Q = %v not below undefended %v", combined.Q, undefended.Q)
	}
	if combined.Flagged == 0 || combined.Repaired == 0 {
		t.Errorf("combined defense flagged/repaired = %d/%d, want > 0", combined.Flagged, combined.Repaired)
	}
	history := byName["history-guard"]
	if history.Repaired == 0 {
		t.Error("history guard must catch the duty-cycle transitions")
	}
}

func TestDualPathDefenseEndToEnd(t *testing.T) {
	// A Trojan at (2,2) with the manager at (3,3): victim cores on row 2
	// west of it are tampered on their XY paths but not their YX paths, so
	// the voter sees mismatches and repairs them. (An HT at (2,3) would sit
	// on the row-3 victims' *common* path prefix — the documented blind
	// spot — and the defense would change nothing.)
	cfg := fastConfig()
	mesh, _ := cfg.Mesh()
	ht := mesh.ID(noc.Coord{X: 2, Y: 2})
	placement := attack.Placement{Nodes: []noc.NodeID{ht}}

	undefendedCfg := cfg
	sysU, err := NewSystem(undefendedCfg)
	if err != nil {
		t.Fatal(err)
	}
	sc := fastScenario(t, placement)
	attackedU, baselineU, err := sysU.RunPairContext(context.Background(), sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	cmpU, err := Compare(attackedU, baselineU)
	if err != nil {
		t.Fatal(err)
	}

	defendedCfg := cfg
	defendedCfg.DualPathRequests = true
	sysD, err := NewSystem(defendedCfg)
	if err != nil {
		t.Fatal(err)
	}
	attackedD, baselineD, err := sysD.RunPairContext(context.Background(), sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	cmpD, err := Compare(attackedD, baselineD)
	if err != nil {
		t.Fatal(err)
	}

	if attackedD.DualPathPairs == 0 {
		t.Fatal("voter paired nothing")
	}
	if attackedD.DualPathMismatches == 0 {
		t.Fatal("voter detected no mismatches despite an off-axis Trojan")
	}
	if cmpD.Q >= cmpU.Q && cmpU.Q > 1.01 {
		t.Errorf("dual-path Q = %v not below undefended %v", cmpD.Q, cmpU.Q)
	}
}

func TestDualPathCleanRunNoMismatches(t *testing.T) {
	cfg := fastConfig()
	cfg.DualPathRequests = true
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sys.RunContext(context.Background(), fastScenario(t, attack.Placement{}), nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.DualPathPairs == 0 {
		t.Fatal("clean dual-path run paired nothing")
	}
	if rep.DualPathMismatches != 0 || rep.DualPathUnpaired != 0 {
		t.Errorf("clean run mismatches/unpaired = %d/%d, want 0/0",
			rep.DualPathMismatches, rep.DualPathUnpaired)
	}
	// Both copies arrive per core per epoch: pairs = 32 cores x 6 epochs.
	if rep.DualPathPairs != 32*6 {
		t.Errorf("pairs = %d, want %d", rep.DualPathPairs, 32*6)
	}
}

func TestDualPathAgainstDropTrojan(t *testing.T) {
	// A dropping Trojan destroys one copy: the survivor is unpaired, gets
	// flushed to the allocator, and the loss itself is counted.
	cfg := fastConfig()
	cfg.DualPathRequests = true
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mesh := sys.Mesh()
	ht := mesh.ID(noc.Coord{X: 2, Y: 3})
	sc := fastScenario(t, attack.Placement{Nodes: []noc.NodeID{ht}})
	sc.Mode = trojan.ModeDrop
	rep, err := sys.RunContext(context.Background(), sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.DualPathUnpaired == 0 {
		t.Fatal("dropped copies must surface as unpaired")
	}
	if rep.Net.DroppedPackets == 0 {
		t.Fatal("drop trojan destroyed nothing")
	}
}

func TestPhasedDemandChangesRequests(t *testing.T) {
	cfg := fastConfig()
	cfg.Epochs = 6
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sc := Scenario{Apps: []AppSpec{
		{Name: "barnes", Threads: 16, Role: RoleAttacker, PhasePeriodEpochs: 2},
		{Name: "blackscholes", Threads: 16, Role: RoleVictim},
	}}
	rep, err := s.RunContext(context.Background(), sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	// With period 2, barnes alternates peak/mid demand per epoch; the
	// attacker's mean DVFS level must oscillate in the trace while the
	// steady victim's does not drop.
	varied := false
	for i := 1; i < len(rep.Epochs); i++ {
		if rep.Epochs[i].AttackerMeanLevel != rep.Epochs[i-1].AttackerMeanLevel {
			varied = true
		}
	}
	if !varied {
		t.Error("phased application's level never varied")
	}
}

func TestPhaseValidation(t *testing.T) {
	sc := Scenario{Apps: []AppSpec{
		{Name: "vips", Threads: 1, Role: RoleVictim, PhasePeriodEpochs: -2},
	}}
	if err := sc.Validate(); err == nil {
		t.Error("negative phase period must fail")
	}
}

func TestHistoryGuardFalsePositivesOnPhases(t *testing.T) {
	// A phased workload with NO Trojans: a tight history guard flags the
	// legitimate phase transitions — pure false positives.
	cfg := fastConfig()
	cfg.Epochs = 8
	cfg.Filter = defenseHistoryGuard()
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sc := Scenario{Apps: []AppSpec{
		{Name: "barnes", Threads: 16, Role: RoleAttacker, PhasePeriodEpochs: 2},
		{Name: "blackscholes", Threads: 16, Role: RoleVictim},
	}}
	rep, err := s.RunContext(context.Background(), sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.FlaggedRequests == 0 {
		t.Fatal("tight guard must flag legitimate phase transitions")
	}
	if rep.RepairedTampered != 0 {
		t.Fatal("no trojans: every flag is a false positive")
	}
}

// defenseHistoryGuard builds a tight history guard for the false-positive
// tests without importing defense at the top of every test file.
func defenseHistoryGuard() budget.RequestFilter {
	return defense.NewHistoryGuard(0.3, 0.4)
}
