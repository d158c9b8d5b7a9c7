package trojan

import (
	"testing"

	"repro/internal/noc"
)

// fleetReader decodes FuzzFleetOracle's bytes, then zeros once they run
// out.
type fleetReader struct {
	b  []byte
	gm noc.NodeID // the manager of the last decoded CONFIG_CMD
}

func (r *fleetReader) next() int {
	if len(r.b) == 0 {
		return 0
	}
	c := r.b[0]
	r.b = r.b[1:]
	return int(c)
}

// fleetCase is one decoded fleet and the packets it inspects.
type fleetCase struct {
	routers  []noc.NodeID
	strategy Strategy
	mode     Mode
	packets  []fleetPacket
}

// fleetPacket is a packet and the router whose RC stage sees it.
type fleetPacket struct {
	router noc.NodeID
	p      noc.Packet
}

// decode reads a fleet: its size and routers (0–63, repeats included),
// strategy and mode, then up to 31 packets. A packet is a kind (CONFIG_CMD,
// POWER_REQ twice as often, or other traffic), a router selector (below
// 128 one of the fleet's routers, else any of the 64), and its fields; a
// POWER_REQ's destination selector of 128 or more names the manager of
// the last CONFIG_CMD, so requests meet configured Trojans.
func (r *fleetReader) decode() fleetCase {
	var c fleetCase
	for n := r.next() % 8; n > 0; n-- {
		c.routers = append(c.routers, noc.NodeID(r.next()%64))
	}
	c.strategy = [...]Strategy{ZeroStrategy{}, DefaultStrategy(), ScaleStrategy{VictimFactor: 0.5, BoostFactor: 1}}[r.next()%3]
	c.mode = [...]Mode{ModeFalseData, ModeDrop, ModeLoopback}[r.next()%3]
	for n := r.next() % 32; n > 0; n-- {
		kind, sel := r.next()%4, r.next()
		router := noc.NodeID((sel - 128) % 64)
		if sel < 128 {
			router = noc.NodeID(sel % 64)
			if len(c.routers) > 0 {
				router = c.routers[sel%len(c.routers)]
			}
		}
		var p noc.Packet
		switch kind {
		case 0:
			src, gm, active := noc.NodeID(r.next()%64), noc.NodeID(r.next()%64), r.next()&1 == 1
			p = noc.Packet{Src: src, Type: noc.TypeConfigCmd, Payload: noc.ConfigWord(gm, active)}
			for k := r.next() % 3; k > 0; k-- {
				p.Options = append(p.Options, uint32(r.next()%64), uint32(r.next()%16))
			}
			r.gm = gm
		case 1, 2:
			src, dst := noc.NodeID(r.next()%64), r.next()
			p = noc.Packet{Src: src, Dst: noc.NodeID(dst % 64), Type: noc.TypePowerReq, Payload: uint32(r.next()) * 100}
			if dst >= 128 {
				p.Dst = r.gm
			}
			flags := r.next()
			p.Tampered, p.LoopedBack = flags&1 == 1, flags&2 == 2
		default:
			p = noc.Packet{Src: noc.NodeID(r.next() % 64), Dst: noc.NodeID(r.next() % 64), Type: noc.TypeMemReadReq}
		}
		c.packets = append(c.packets, fleetPacket{router: router, p: p})
	}
	return c
}

// FuzzFleetOracle runs fleet A, then resets the same Fleet to fleet B
// and runs B beside a fresh oracle fleet (oracle_test.go, the map-based
// fleet this one replaced). Every verdict, every packet field a Trojan
// writes, and every Trojan's registers and counters must agree: a reset
// that kept anything of A — a counter, an agent register latched from
// A's hacker core — shows in B.
func FuzzFleetOracle(f *testing.F) {
	// A: Trojans at 3 and 9 latch hacker 7 and agents 30–33, then tamper
	// and boost. B: Trojans at 9 and 3 latch hacker 11 only; requests from
	// 7 and 31 are victims now.
	f.Add([]byte{
		2, 3, 9, 1, 0, 4,
		0, 0, 7, 20, 1, 1, 30, 4,
		0, 1, 7, 20, 1, 1, 30, 4,
		1, 0, 31, 128, 40, 0,
		1, 1, 2, 128, 40, 0,
		2, 9, 3, 1, 0, 4,
		0, 0, 11, 20, 1, 0,
		0, 1, 11, 20, 1, 0,
		1, 0, 7, 128, 40, 0,
		1, 1, 31, 128, 40, 0,
	})
	// Drop and loopback modes, an inactive broadcast, a duplicate router.
	f.Add([]byte{
		3, 5, 6, 7, 0, 1, 5,
		0, 0, 1, 12, 1, 2, 20, 5, 40, 3,
		1, 1, 22, 128, 9, 0,
		2, 2, 41, 128, 9, 2,
		0, 0, 1, 12, 0, 0,
		1, 0, 8, 128, 9, 0,
		2, 5, 5, 2, 2, 3,
	})
	f.Add([]byte{
		1, 60, 2, 2, 3,
		0, 0, 4, 33, 1, 0,
		2, 0, 5, 128, 3, 0,
		3, 200, 1, 2,
		4, 60, 10, 11, 12, 0, 2, 3,
		1, 130, 5, 128, 3, 1,
		0, 2, 5, 33, 1, 1, 5, 5,
		1, 1, 5, 128, 3, 0,
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := fleetReader{b: data}
		a, b := r.decode(), r.decode()
		var fleet Fleet
		for i, c := range []fleetCase{a, b} {
			oracle, oerr := newOracleFleet(c.routers, c.strategy)
			err := fleet.Reset(c.routers, c.strategy)
			if (err == nil) != (oerr == nil) {
				t.Fatalf("fleet %d %v: Reset error %v, oracle %v", i, c.routers, err, oerr)
			}
			if err != nil {
				continue
			}
			if err, oerr := fleet.SetMode(c.mode), oracle.SetMode(c.mode); err != nil || oerr != nil {
				t.Fatalf("SetMode(%v): %v, oracle %v", c.mode, err, oerr)
			}
			for k, fp := range c.packets {
				p, q := fp.p, fp.p
				got, want := fleet.InspectRC(fp.router, &p), oracle.InspectRC(fp.router, &q)
				if got != want || p.Payload != q.Payload || p.Tampered != q.Tampered || p.HTSeen != q.HTSeen {
					t.Fatalf("fleet %d packet %d at router %d: verdict %v %+v, oracle %v %+v", i, k, fp.router, got, p, want, q)
				}
			}
			if fleet.Size() != oracle.Size() || fleet.TotalStats() != oracle.TotalStats() {
				t.Fatalf("fleet %d: size %d stats %+v, oracle %d %+v", i, fleet.Size(), fleet.TotalStats(), oracle.Size(), oracle.TotalStats())
			}
			for id := noc.NodeID(0); id < 64; id++ {
				got, want := fleet.At(id), oracle.At(id)
				if (got == nil) != (want == nil) {
					t.Fatalf("fleet %d: At(%d) = %v, oracle %v", i, id, got, want)
				}
				if got != nil && (got.configured != want.configured || got.active != want.active || got.gm != want.gm || got.stats != want.stats) {
					t.Fatalf("fleet %d: Trojan at %d is %+v, oracle %+v", i, id, got, want)
				}
				for agent := noc.NodeID(0); got != nil && agent < 80; agent++ {
					if got.agents.Matches(agent) != want.agents.Matches(agent) {
						t.Fatalf("fleet %d: Trojan at %d matches agent %d: %v, oracle %v", i, id, agent, got.agents.Matches(agent), want.agents.Matches(agent))
					}
				}
			}
		}
	})
}

// TestFleetResetAllocatesNothing pins the kept table: resetting a fleet
// that has held as many Trojans at routers as high allocates nothing.
func TestFleetResetAllocatesNothing(t *testing.T) {
	var f Fleet
	big := []noc.NodeID{200, 3, 77, 9}
	small := []noc.NodeID{9, 150}
	if err := f.Reset(big, ZeroStrategy{}); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(50, func() {
		if err := f.Reset(small, ZeroStrategy{}); err != nil {
			t.Fatal(err)
		}
		f.InspectRC(9, configPacket(7, 119, true, 30, 4))
		if err := f.Reset(big, ZeroStrategy{}); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("resetting a grown fleet allocates %v times, want 0", n)
	}
	if f.At(150) != nil || f.At(200) == nil || f.At(9).Configured() {
		t.Error("reset kept a Trojan of the previous fleet")
	}
}
