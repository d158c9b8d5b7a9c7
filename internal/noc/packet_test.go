package noc

import (
	"testing"
	"testing/quick"
)

func TestPacketTypeString(t *testing.T) {
	if TypePowerReq.String() != "POWER_REQ" {
		t.Errorf("POWER_REQ string = %q", TypePowerReq.String())
	}
	if TypeConfigCmd.String() != "CONFIG_CMD" {
		t.Errorf("CONFIG_CMD string = %q", TypeConfigCmd.String())
	}
	if PacketType(999).String() == "" {
		t.Error("unknown type should still stringify")
	}
}

func TestFlitCountTableI(t *testing.T) {
	tests := []struct {
		name string
		give *Packet
		want int
	}{
		{name: "power request is meta (1 flit)", give: &Packet{Type: TypePowerReq}, want: 1},
		{name: "power grant is meta", give: &Packet{Type: TypePowerGrant}, want: 1},
		{name: "config cmd is meta", give: &Packet{Type: TypeConfigCmd}, want: 1},
		{name: "read request is meta", give: &Packet{Type: TypeMemReadReq}, want: 1},
		{name: "read reply is data (5 flits)", give: &Packet{Type: TypeMemReadReply}, want: 5},
		{name: "write request is data", give: &Packet{Type: TypeMemWriteReq}, want: 5},
		{name: "meta with options grows", give: &Packet{Type: TypePowerReq, Options: []uint32{1, 2, 3}}, want: 3},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.give.FlitCount(); got != tt.want {
				t.Errorf("FlitCount = %d, want %d", got, tt.want)
			}
		})
	}
}

// TestFlitsStructure checks the seed stepper's serialiser (oracle_test.go):
// a data packet is a head, three body flits and a tail.
func TestFlitsStructure(t *testing.T) {
	p := &Packet{Type: TypeMemReadReply}
	fs := Flits(p)
	if len(fs) != 5 {
		t.Fatalf("len = %d, want 5", len(fs))
	}
	if !fs[0].IsHead() || fs[0].IsTail() {
		t.Error("first flit must be head only")
	}
	for i := 1; i < 4; i++ {
		if fs[i].IsHead() || fs[i].IsTail() {
			t.Errorf("flit %d must be body", i)
		}
	}
	if fs[4].IsHead() || !fs[4].IsTail() {
		t.Error("last flit must be tail only")
	}
	for i, f := range fs {
		if f.Packet != p {
			t.Errorf("flit %d lost packet pointer", i)
		}
	}
}

// TestFlitsSingle checks that the seed stepper's serialiser makes a meta
// packet one flit that is both head and tail.
func TestFlitsSingle(t *testing.T) {
	p := &Packet{Type: TypePowerReq}
	fs := Flits(p)
	if len(fs) != 1 {
		t.Fatalf("len = %d, want 1", len(fs))
	}
	if !fs[0].IsHead() || !fs[0].IsTail() {
		t.Error("single flit must be head and tail")
	}
}

func TestConfigWordRoundTrip(t *testing.T) {
	tests := []struct {
		gm     NodeID
		active bool
	}{
		{gm: 0, active: false},
		{gm: 119, active: true},
		{gm: 511, active: true},
		{gm: 65535, active: false},
	}
	for _, tt := range tests {
		gm, active := ParseConfigWord(ConfigWord(tt.gm, tt.active))
		if gm != tt.gm || active != tt.active {
			t.Errorf("round trip (%d,%v) = (%d,%v)", tt.gm, tt.active, gm, active)
		}
	}
}

// Property: ConfigWord/ParseConfigWord round-trips all 16-bit manager IDs.
func TestConfigWordProperty(t *testing.T) {
	f := func(id uint16, active bool) bool {
		gm, act := ParseConfigWord(ConfigWord(NodeID(id), active))
		return gm == NodeID(id) && act == active
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
