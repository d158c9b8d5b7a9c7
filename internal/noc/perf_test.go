package noc

import (
	"testing"
)

// TestStatsSnapshotIsValueCopy locks in the array-based Stats contract:
// the snapshot shares no storage with the network's live counters, without
// any defensive map copying.
func TestStatsSnapshotIsValueCopy(t *testing.T) {
	n := newTestNetwork(t, 4, 4)
	n.Attach(15, func(p *Packet) {})
	if err := n.Inject(&Packet{Src: 0, Dst: 15, Type: TypePowerReq}); err != nil {
		t.Fatalf("Inject: %v", err)
	}
	if _, drained := n.RunUntilIdle(1000); !drained {
		t.Fatal("network did not drain")
	}
	s := n.Stats()
	if s.DeliveredBy[TypePowerReq] != 1 {
		t.Fatalf("DeliveredBy[POWER_REQ] = %d, want 1", s.DeliveredBy[TypePowerReq])
	}
	// Mutating every field of the snapshot must leave the live stats alone.
	s.DeliveredBy[TypePowerReq] = 999
	s.LatencySumBy[TypePowerReq] = 999
	s.Delivered = 999
	fresh := n.Stats()
	if fresh.DeliveredBy[TypePowerReq] != 1 || fresh.Delivered != 1 {
		t.Error("Stats snapshot shares storage with the live counters")
	}
	if fresh.LatencySumBy[TypePowerReq] == 999 {
		t.Error("LatencySumBy snapshot shares storage with the live counters")
	}
}

// TestStatsSnapshotAllocFree verifies the Stats accessor is a plain value
// copy — the old map-based snapshot allocated two maps per call.
func TestStatsSnapshotAllocFree(t *testing.T) {
	n := newTestNetwork(t, 4, 4)
	allocs := testing.AllocsPerRun(100, func() {
		s := n.Stats()
		_ = s.Delivered
	})
	if allocs != 0 {
		t.Errorf("Stats() allocates %v times per call, want 0", allocs)
	}
}

// TestNewAllocsIndependentOfMeshSize pins the slab layout: routers, NIs,
// VC state and flit rings are carved out of per-network slabs, so
// building a 16×16 network allocates no more often than a 4×4 one.
func TestNewAllocsIndependentOfMeshSize(t *testing.T) {
	allocs := func(side int) float64 {
		mesh := Mesh{Width: side, Height: side}
		return testing.AllocsPerRun(10, func() {
			if _, err := New(mesh, DefaultConfig()); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := allocs(4), allocs(16); small != large {
		t.Errorf("New: %v allocs for a 4×4 mesh, %v for 16×16; want equal", small, large)
	}
}

func TestAvgLatencyOutOfRangeType(t *testing.T) {
	var s Stats
	if got := s.AvgLatency(PacketType(4096)); got != 0 {
		t.Errorf("AvgLatency(out of range) = %v, want 0", got)
	}
}

// TestStepSteadyStateZeroAllocs is the allocation-regression gate for the
// hot path: once an 8×8 network is warm (link-pipeline ring at its
// high-water mark), stepping it through sustained many-to-one traffic
// must not allocate at all — under every registered routing algorithm
// (torus-xy on a torus) and under the dual-class xy+yx split.
func TestStepSteadyStateZeroAllocs(t *testing.T) {
	type variant struct {
		name string
		mesh Mesh
		cfg  Config
	}
	var variants []variant
	for _, name := range Routings.Names() {
		alg, err := RoutingByName(name)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig()
		cfg.Routing = alg
		_, wraps := alg.(WrapRouting)
		variants = append(variants, variant{name, Mesh{Width: 8, Height: 8, Wrap: wraps}, cfg})
	}
	variants = append(variants, variant{"xy+yx", Mesh{Width: 8, Height: 8}, dualClassConfig()})
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			n, err := New(v.mesh, v.cfg)
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			gm := n.Mesh().Center()
			n.Attach(gm, func(p *Packet) {})
			// Deep source queues keep every NI busy for thousands of cycles.
			for round := 0; round < 40; round++ {
				for id := NodeID(0); id < NodeID(n.Mesh().Nodes()); id++ {
					if id == gm {
						continue
					}
					p := &Packet{Src: id, Dst: gm, Type: TypePowerReq}
					if v.cfg.AltRouting != nil {
						p.Class = round % 2
					}
					if err := n.Inject(p); err != nil {
						t.Fatalf("Inject: %v", err)
					}
				}
			}
			// Warm up: the link ring reaches its steady-state capacity.
			for i := 0; i < 200; i++ {
				n.Step()
			}
			if !n.Busy() {
				t.Fatal("network drained during warmup; steady state not reached")
			}
			allocs := testing.AllocsPerRun(500, func() { n.Step() })
			if !n.Busy() {
				t.Fatal("network drained during measurement; steady state not reached")
			}
			if allocs != 0 {
				t.Errorf("steady-state Step allocates %v times per cycle, want 0", allocs)
			}
		})
	}
}

// TestBusyIsCheapAndConsistent cross-checks the O(1) live-flit counter
// against an exhaustive sweep of the network state after every cycle of a
// contended drain.
func TestBusyIsCheapAndConsistent(t *testing.T) {
	n := newTestNetwork(t, 6, 6)
	gm := n.Mesh().Center()
	n.Attach(gm, func(p *Packet) {})
	for id := NodeID(0); id < NodeID(n.Mesh().Nodes()); id++ {
		if id == gm {
			continue
		}
		if err := n.Inject(&Packet{Src: id, Dst: gm, Type: TypeMemReadReply}); err != nil {
			t.Fatalf("Inject: %v", err)
		}
	}
	sweep := func() bool {
		if n.inflLen > 0 {
			return true
		}
		for i, ni := range n.nis {
			if ni.qhead < len(ni.queue) {
				return true
			}
			for v := range n.routers[i].vcs {
				if n.routers[i].vcs[v].n > 0 {
					return true
				}
			}
		}
		return false
	}
	for cycle := 0; cycle < 100000; cycle++ {
		if n.Busy() != sweep() {
			t.Fatalf("cycle %d: Busy() = %v disagrees with exhaustive sweep", cycle, n.Busy())
		}
		if !n.Busy() {
			return
		}
		n.Step()
	}
	t.Fatal("network did not drain")
}

// TestHandlerReinjectionDoesNotCorruptVC guards the ejection port against
// a delivery handler that synchronously injects a new multi-flit packet
// while the switch is still releasing the delivered packet's VC: the VC
// must be released exactly once, on the tail. With a single VC, a leaked
// VC owner wedges the network permanently.
func TestHandlerReinjectionDoesNotCorruptVC(t *testing.T) {
	cfg := DefaultConfig()
	cfg.VCs = 1
	n, err := New(Mesh{Width: 4, Height: 1}, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	delivered := 0
	const rounds = 20
	n.Attach(0, func(p *Packet) { delivered++ })
	n.Attach(3, func(p *Packet) {
		delivered++
		if p.Type != TypeMemReadReply {
			return
		}
		// Echo every data packet with another data packet (the cache
		// hierarchy does exactly this: a fill triggers an eviction
		// writeback from inside the delivery handler).
		if err := n.Inject(&Packet{Src: 3, Dst: 0, Type: TypeMemWriteReq}); err != nil {
			t.Fatalf("handler Inject: %v", err)
		}
	})
	for i := 0; i < rounds; i++ {
		if err := n.Inject(&Packet{Src: 0, Dst: 3, Type: TypeMemReadReply}); err != nil {
			t.Fatalf("Inject: %v", err)
		}
	}
	if _, drained := n.RunUntilIdle(1_000_000); !drained {
		t.Fatalf("network wedged: %d of %d deliveries (leaked VC owner)", delivered, 2*rounds)
	}
	if delivered != 2*rounds {
		t.Fatalf("delivered = %d, want %d", delivered, 2*rounds)
	}
}

// TestWarmTrafficAllocatesNothing checks that a warm network carries
// traffic again without growing the heap: injecting a data packet and
// draining it allocates nothing once the source queue and the link ring
// have held one before.
func TestWarmTrafficAllocatesNothing(t *testing.T) {
	n := newTestNetwork(t, 4, 4)
	n.Attach(3, func(p *Packet) {})
	p := &Packet{Src: 0, Dst: 3, Type: TypeMemReadReply}
	send := func() {
		if err := n.Inject(p); err != nil {
			t.Fatalf("Inject: %v", err)
		}
		if _, drained := n.RunUntilIdle(1000); !drained {
			t.Fatal("network did not drain")
		}
	}
	send()
	if allocs := testing.AllocsPerRun(10, send); allocs != 0 {
		t.Errorf("injecting and draining a packet on a warm network allocates %v times, want 0", allocs)
	}
}
