package trojan

import (
	"math"
	"testing"

	"repro/internal/noc"
)

func configPacket(src, gm noc.NodeID, active bool, ranges ...uint32) *noc.Packet {
	return &noc.Packet{
		Src: src, Dst: 0, Type: noc.TypeConfigCmd,
		Payload: noc.ConfigWord(gm, active),
		Options: ranges,
	}
}

func powerReq(src, dst noc.NodeID, mw uint32) *noc.Packet {
	p := &noc.Packet{Src: src, Dst: dst, Type: noc.TypePowerReq, Payload: mw}
	p.OriginalPayload = mw
	return p
}

func TestUnconfiguredTrojanIsInert(t *testing.T) {
	tr := NewTrojan(5)
	p := powerReq(1, 9, 4000)
	tr.observe(p, ZeroStrategy{}, ModeFalseData)
	if p.Tampered || p.Payload != 4000 {
		t.Error("unconfigured Trojan must not modify packets")
	}
	if tr.Configured() || tr.Active() {
		t.Error("fresh Trojan must be unconfigured and inactive")
	}
}

func TestConfigLatching(t *testing.T) {
	tr := NewTrojan(5)
	tr.observe(configPacket(7, 119, true), ZeroStrategy{}, ModeFalseData)
	if !tr.Configured() || !tr.Active() {
		t.Fatal("config packet must configure and activate")
	}
	if tr.gm != 119 {
		t.Errorf("gm register = %d, want 119", tr.gm)
	}
	if !tr.agents.Matches(7) {
		t.Error("config source must be registered as attacker agent")
	}
	if tr.Stats().ConfigsSeen != 1 {
		t.Errorf("ConfigsSeen = %d, want 1", tr.Stats().ConfigsSeen)
	}
}

func TestVictimTampering(t *testing.T) {
	tr := NewTrojan(5)
	tr.observe(configPacket(7, 119, true), ZeroStrategy{}, ModeFalseData)
	p := powerReq(3, 119, 4000) // victim: src 3 is not an agent, dst is GM
	tr.observe(p, ZeroStrategy{}, ModeFalseData)
	if !p.Tampered || p.Payload != 0 {
		t.Errorf("payload = %d tampered = %v, want 0/true", p.Payload, p.Tampered)
	}
	if tr.Stats().Modified != 1 || tr.Stats().PowerReqSeen != 1 {
		t.Errorf("stats = %+v", tr.Stats())
	}
}

func TestAgentRequestNotCutByZeroStrategy(t *testing.T) {
	tr := NewTrojan(5)
	tr.observe(configPacket(7, 119, true), ZeroStrategy{}, ModeFalseData)
	p := powerReq(7, 119, 4000) // the agent itself
	tr.observe(p, ZeroStrategy{}, ModeFalseData)
	if p.Tampered || p.Payload != 4000 {
		t.Error("agent's own request must pass untouched under ZeroStrategy")
	}
}

func TestWrongDestinationIgnored(t *testing.T) {
	tr := NewTrojan(5)
	tr.observe(configPacket(7, 119, true), ZeroStrategy{}, ModeFalseData)
	p := powerReq(3, 42, 4000) // not the global manager
	tr.observe(p, ZeroStrategy{}, ModeFalseData)
	if p.Tampered {
		t.Error("requests not headed to the GM must pass untouched")
	}
}

func TestDeactivationViaConfig(t *testing.T) {
	tr := NewTrojan(5)
	tr.observe(configPacket(7, 119, true), ZeroStrategy{}, ModeFalseData)
	tr.observe(configPacket(7, 119, false), ZeroStrategy{}, ModeFalseData) // OFF signal
	if tr.Active() {
		t.Fatal("OFF config must deactivate")
	}
	p := powerReq(3, 119, 4000)
	tr.observe(p, ZeroStrategy{}, ModeFalseData)
	if p.Tampered {
		t.Error("deactivated Trojan must forward unmodified (Section III-B)")
	}
	// Duty cycling: reactivate.
	tr.observe(configPacket(7, 119, true), ZeroStrategy{}, ModeFalseData)
	p2 := powerReq(3, 119, 4000)
	tr.observe(p2, ZeroStrategy{}, ModeFalseData)
	if !p2.Tampered {
		t.Error("reactivated Trojan must tamper again")
	}
}

func TestAgentRangeMatching(t *testing.T) {
	tr := NewTrojan(5)
	// Range [64, 128): 64 attacker cores.
	tr.observe(configPacket(7, 119, true, 64, 64), ZeroStrategy{}, ModeFalseData)
	for _, id := range []noc.NodeID{64, 100, 127} {
		p := powerReq(id, 119, 4000)
		tr.observe(p, ZeroStrategy{}, ModeFalseData)
		if p.Tampered {
			t.Errorf("agent %d in range must not be victimised", id)
		}
	}
	for _, id := range []noc.NodeID{63, 128, 3} {
		p := powerReq(id, 119, 4000)
		tr.observe(p, ZeroStrategy{}, ModeFalseData)
		if !p.Tampered {
			t.Errorf("victim %d outside range must be tampered", id)
		}
	}
}

func TestScaleStrategyBoostsAttackers(t *testing.T) {
	tr := NewTrojan(5)
	s := ScaleStrategy{VictimFactor: 0.25, BoostFactor: 1.5}
	tr.observe(configPacket(7, 119, true), s, ModeFalseData)
	victim := powerReq(3, 119, 4000)
	tr.observe(victim, s, ModeFalseData)
	if victim.Payload != 1000 {
		t.Errorf("victim payload = %d, want 1000", victim.Payload)
	}
	agent := powerReq(7, 119, 4000)
	tr.observe(agent, s, ModeFalseData)
	if agent.Payload != 6000 || !agent.Tampered {
		t.Errorf("agent payload = %d, want 6000", agent.Payload)
	}
	if tr.Stats().Boosted != 1 {
		t.Errorf("Boosted = %d, want 1", tr.Stats().Boosted)
	}
}

func TestScaleStrategyBoostSaturates(t *testing.T) {
	s := ScaleStrategy{VictimFactor: 0.5, BoostFactor: 3}
	got, ok := s.TamperAttacker(math.MaxUint32 - 1)
	if !ok || got != math.MaxUint32 {
		t.Errorf("boost of near-max = %d, want saturation at MaxUint32", got)
	}
}

func TestScaleStrategyNoBoostWhenFactorLEOne(t *testing.T) {
	s := ScaleStrategy{VictimFactor: 0.5, BoostFactor: 1.0}
	if _, ok := s.TamperAttacker(100); ok {
		t.Error("boost factor 1.0 must disable boosting")
	}
}

func TestTamperIdempotentAcrossTrojans(t *testing.T) {
	// Two HTs on one path: the second must not compound the rewrite.
	s := ScaleStrategy{VictimFactor: 0.5}
	t1, t2 := NewTrojan(1), NewTrojan(2)
	t1.observe(configPacket(7, 119, true), s, ModeFalseData)
	t2.observe(configPacket(7, 119, true), s, ModeFalseData)
	p := powerReq(3, 119, 4000)
	t1.observe(p, s, ModeFalseData)
	t2.observe(p, s, ModeFalseData)
	if p.Payload != 2000 {
		t.Errorf("payload = %d, want 2000 (single rewrite)", p.Payload)
	}
	if t1.Stats().Modified+t2.Stats().Modified != 1 {
		t.Error("exactly one Trojan must claim the rewrite")
	}
}

func TestAgentMatcherCapacity(t *testing.T) {
	var m AgentMatcher
	for i := 0; i < maxAgentRegisters+5; i++ {
		m.AddSingle(noc.NodeID(i))
	}
	if m.Matches(noc.NodeID(maxAgentRegisters + 4)) {
		t.Error("register file must saturate at capacity")
	}
	if !m.Matches(0) {
		t.Error("early entries must be retained")
	}
}

// TestAgentMatcherKeepsOneRegisterPerRange latches one range as often as
// repeated CONFIG_CMD broadcasts do, then a second range: the copies take
// no registers, so both ranges match.
func TestAgentMatcherKeepsOneRegisterPerRange(t *testing.T) {
	var m AgentMatcher
	for i := 0; i < 20; i++ {
		m.AddRange(4, 3)
	}
	m.AddRange(20, 2)
	for _, id := range []noc.NodeID{4, 6, 20, 21} {
		if !m.Matches(id) {
			t.Errorf("core %d must match", id)
		}
	}
	if m.Matches(7) || m.Matches(22) {
		t.Error("cores outside both ranges must not match")
	}
}

func TestAgentMatcherRejectsEmptyRange(t *testing.T) {
	var m AgentMatcher
	m.AddRange(10, 0)
	if m.Matches(10) {
		t.Error("empty range must not match")
	}
}

func TestFleetDispatch(t *testing.T) {
	f, err := NewFleet([]noc.NodeID{3, 9}, ZeroStrategy{})
	if err != nil {
		t.Fatalf("NewFleet: %v", err)
	}
	f.InspectRC(3, configPacket(7, 119, true))
	f.InspectRC(9, configPacket(7, 119, true))
	// Packet passing uninfected router 5: untouched.
	p := powerReq(2, 119, 4000)
	f.InspectRC(5, p)
	if p.Tampered {
		t.Error("uninfected router must not tamper")
	}
	// Same packet passing infected router 9: tampered.
	f.InspectRC(9, p)
	if !p.Tampered {
		t.Error("infected router must tamper")
	}
	if f.Size() != 2 {
		t.Errorf("Size = %d, want 2", f.Size())
	}
	locs := f.Locations()
	if len(locs) != 2 || locs[0] != 3 || locs[1] != 9 {
		t.Errorf("Locations = %v, want [3 9]", locs)
	}
	if f.At(3) == nil || f.At(5) != nil {
		t.Error("At lookup wrong")
	}
	if f.TotalStats().Modified != 1 {
		t.Errorf("TotalStats.Modified = %d, want 1", f.TotalStats().Modified)
	}
}

func TestFleetRejectsDuplicates(t *testing.T) {
	if _, err := NewFleet([]noc.NodeID{3, 3}, ZeroStrategy{}); err == nil {
		t.Error("duplicate routers must be rejected")
	}
}

func TestFleetRejectsNilStrategy(t *testing.T) {
	if _, err := NewFleet([]noc.NodeID{3}, nil); err == nil {
		t.Error("nil strategy must be rejected")
	}
}

func TestStrategyNames(t *testing.T) {
	if (ZeroStrategy{}).Name() != "zero" {
		t.Error("zero strategy name")
	}
	if DefaultStrategy().Name() == "" {
		t.Error("scale strategy name empty")
	}
}

func TestAreaPowerSectionIIID(t *testing.T) {
	// The paper's exact numbers: 60 HTs on a 512-node chip.
	r := Report(60, 512)
	if math.Abs(r.TotalHTAreaUm2-730.296) > 1e-9 {
		t.Errorf("60 HT area = %v µm², paper says 730.296", r.TotalHTAreaUm2)
	}
	if math.Abs(r.TotalHTPowerUW-33.0108) > 1e-9 {
		t.Errorf("60 HT power = %v µW, paper says 33.0108", r.TotalHTPowerUW)
	}
	// "an HT's area and power is about 0.017% and 0.0017% of a single router"
	if math.Abs(r.AreaFractionOfRouter-0.00017) > 2e-5 {
		t.Errorf("area fraction = %v, paper says ≈0.017%%", r.AreaFractionOfRouter)
	}
	if math.Abs(r.PowerFractionOfRouter-0.000017) > 2e-6 {
		t.Errorf("power fraction = %v, paper says ≈0.0017%%", r.PowerFractionOfRouter)
	}
	// "60 HTs' area and power is about 0.002% and 0.0002% of all routers"
	if math.Abs(r.AreaFractionOfAllRouters-0.00002) > 5e-6 {
		t.Errorf("fleet area fraction = %v, paper says ≈0.002%%", r.AreaFractionOfAllRouters)
	}
	if math.Abs(r.PowerFractionOfAllRouters-0.000002) > 5e-7 {
		t.Errorf("fleet power fraction = %v, paper says ≈0.0002%%", r.PowerFractionOfAllRouters)
	}
}

func TestCircuitInventory(t *testing.T) {
	inv := DefaultInventory()
	if inv.Comparators != 3 || inv.Registers != 2 {
		t.Errorf("inventory = %+v, Fig 2 shows 3 comparators and 2 registers", inv)
	}
	tr := inv.TransistorEstimate()
	if tr <= 0 || tr > 2000 {
		t.Errorf("transistor estimate = %d, want a few hundred", tr)
	}
}
