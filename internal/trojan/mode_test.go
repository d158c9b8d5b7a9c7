package trojan

import (
	"testing"

	"repro/internal/noc"
)

func TestModeString(t *testing.T) {
	tests := []struct {
		give Mode
		want string
	}{
		{ModeFalseData, "false-data"},
		{ModeDrop, "drop"},
		{ModeLoopback, "loopback"},
		{Mode(42), "mode(42)"},
	}
	for _, tt := range tests {
		if got := tt.give.String(); got != tt.want {
			t.Errorf("%d.String() = %q, want %q", int(tt.give), got, tt.want)
		}
	}
}

func TestFleetSetMode(t *testing.T) {
	f, err := NewFleet([]noc.NodeID{3}, ZeroStrategy{})
	if err != nil {
		t.Fatal(err)
	}
	if f.Mode() != ModeFalseData {
		t.Error("default mode must be the paper's false-data attack")
	}
	if err := f.SetMode(ModeDrop); err != nil || f.Mode() != ModeDrop {
		t.Errorf("SetMode(drop): %v", err)
	}
	if err := f.SetMode(Mode(0)); err == nil {
		t.Error("invalid mode must be rejected")
	}
}

func TestDropModeVerdicts(t *testing.T) {
	tr := NewTrojan()
	tr.observe(configPacket(7, 119, true), ZeroStrategy{}, ModeDrop)

	victim := powerReq(3, 119, 4000)
	if v := tr.observe(victim, ZeroStrategy{}, ModeDrop); v != noc.VerdictDrop {
		t.Errorf("victim verdict = %v, want drop", v)
	}
	if victim.Tampered {
		t.Error("drop mode must not rewrite the payload")
	}
	agent := powerReq(7, 119, 4000)
	if v := tr.observe(agent, ZeroStrategy{}, ModeDrop); v != noc.VerdictForward {
		t.Errorf("agent verdict = %v, want forward", v)
	}
	offTarget := powerReq(3, 42, 4000)
	if v := tr.observe(offTarget, ZeroStrategy{}, ModeDrop); v != noc.VerdictForward {
		t.Errorf("off-target verdict = %v, want forward", v)
	}
	if tr.Stats().Dropped != 1 {
		t.Errorf("Dropped = %d, want 1", tr.Stats().Dropped)
	}
}

func TestLoopbackModeVerdicts(t *testing.T) {
	tr := NewTrojan()
	tr.observe(configPacket(7, 119, true), ZeroStrategy{}, ModeLoopback)

	victim := powerReq(3, 119, 4000)
	if v := tr.observe(victim, ZeroStrategy{}, ModeLoopback); v != noc.VerdictLoopback {
		t.Errorf("victim verdict = %v, want loopback", v)
	}
	// A packet already bounced must pass: otherwise two Trojans would
	// ping-pong it forever.
	bounced := powerReq(3, 119, 4000)
	bounced.LoopedBack = true
	if v := tr.observe(bounced, ZeroStrategy{}, ModeLoopback); v != noc.VerdictForward {
		t.Errorf("bounced verdict = %v, want forward", v)
	}
	if tr.Stats().Looped != 1 {
		t.Errorf("Looped = %d, want 1", tr.Stats().Looped)
	}
}

func TestInactiveModesForwardEverything(t *testing.T) {
	for _, mode := range []Mode{ModeDrop, ModeLoopback} {
		tr := NewTrojan()
		// Configured but deactivated.
		tr.observe(configPacket(7, 119, false), ZeroStrategy{}, mode)
		p := powerReq(3, 119, 4000)
		if v := tr.observe(p, ZeroStrategy{}, mode); v != noc.VerdictForward {
			t.Errorf("mode %v: inactive Trojan verdict = %v, want forward", mode, v)
		}
	}
}

func TestFalseDataModeIgnoresBoostInOtherModes(t *testing.T) {
	// In drop mode even attacker boosting is disabled: the circuit's
	// functional module is repurposed.
	tr := NewTrojan()
	s := ScaleStrategy{VictimFactor: 0.25, BoostFactor: 2}
	tr.observe(configPacket(7, 119, true), s, ModeDrop)
	agent := powerReq(7, 119, 4000)
	tr.observe(agent, s, ModeDrop)
	if agent.Tampered || agent.Payload != 4000 {
		t.Error("drop mode must not boost agents")
	}
}
