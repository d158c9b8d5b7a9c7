package mem

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/noc"
	"repro/internal/sim"
)

// fakeEnv is a loopback environment: packets are delivered to the memory
// system itself after a fixed flight time, with no NoC in between. It lets
// the protocol be unit-tested in isolation.
type fakeEnv struct {
	k        sim.Kernel[fakeEvent]
	sys      *System
	netDelay uint64
	sent     []noc.Packet // copies, in send order, for assertions
}

// fakeEvent is a protocol step to fire, or a packet to deliver.
type fakeEvent struct {
	step    Event
	deliver bool
	pkt     noc.Packet
}

func (e *fakeEnv) Now() uint64 { return e.k.Now() }

func (e *fakeEnv) Schedule(delay uint64, ev Event) {
	e.k.Schedule(delay, fakeEvent{step: ev})
}

func (e *fakeEnv) Send(p noc.Packet) {
	e.sent = append(e.sent, p)
	e.k.Schedule(e.netDelay, fakeEvent{deliver: true, pkt: p})
}

// fire delivers a packet or fires a protocol step.
func (e *fakeEnv) fire(ev fakeEvent) {
	if ev.deliver {
		e.sys.HandlePacket(&ev.pkt)
	} else {
		e.sys.Fire(ev.step)
	}
}

// run drains the event queue deterministically.
func (e *fakeEnv) run(t *testing.T) {
	t.Helper()
	if !e.step(100000) {
		t.Fatal("protocol livelock: event queue never drains")
	}
}

// step fires at most n events and reports whether the queue drained.
func (e *fakeEnv) step(n int) bool {
	if n > 0 {
		fired := 0
		e.k.Drain(func(ev fakeEvent) {
			if fired++; fired == n {
				e.k.Stop()
			}
			e.fire(ev)
		})
	}
	return e.k.Pending() == 0
}

func (e *fakeEnv) countSent(t noc.PacketType) int {
	n := 0
	for _, p := range e.sent {
		if p.Type == t {
			n++
		}
	}
	return n
}

func newTestSystem(t *testing.T) (*System, *fakeEnv) {
	t.Helper()
	env := &fakeEnv{netDelay: 10}
	mesh := noc.Mesh{Width: 4, Height: 4}
	sys, err := NewSystem(mesh, DefaultConfig(), env)
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	env.sys = sys
	return sys, env
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := DefaultConfig()
	bad.L1Sets = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero L1 sets should fail")
	}
	bad = DefaultConfig()
	bad.MaxOutstanding = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero MSHRs should fail")
	}
}

func TestColdReadMiss(t *testing.T) {
	sys, env := newTestSystem(t)
	const addr = 100
	if !sys.Issue(2, addr, false) {
		t.Fatal("Issue rejected")
	}
	env.run(t)
	st := sys.Stats(2)
	if st.MissesCompleted != 1 {
		t.Fatalf("misses completed = %d, want 1", st.MissesCompleted)
	}
	// Cold miss: request flight + L2 + memory + reply flight.
	want := 2*env.netDelay + sys.cfg.L2Latency + sys.cfg.MemLatency
	if st.MissLatencySum != want {
		t.Errorf("latency = %d, want %d", st.MissLatencySum, want)
	}
	// Line granted Exclusive (sole reader).
	if got := sys.nodes[2].l1.Lookup(addr); got != Exclusive {
		t.Errorf("L1 state = %v, want E", got)
	}
}

func TestReadHitAfterMiss(t *testing.T) {
	sys, env := newTestSystem(t)
	sys.Issue(2, 100, false)
	env.run(t)
	if !sys.Issue(2, 100, false) {
		t.Fatal("hit rejected")
	}
	st := sys.Stats(2)
	if st.L1Hits != 1 {
		t.Errorf("L1 hits = %d, want 1", st.L1Hits)
	}
	if env.countSent(noc.TypeMemReadReq) != 1 {
		t.Error("hit must not generate traffic")
	}
}

func TestSilentEToMUpgrade(t *testing.T) {
	sys, env := newTestSystem(t)
	sys.Issue(2, 100, false) // E grant
	env.run(t)
	before := env.countSent(noc.TypeMemReadReq)
	if !sys.Issue(2, 100, true) {
		t.Fatal("write hit rejected")
	}
	if got := sys.nodes[2].l1.Lookup(100); got != Modified {
		t.Errorf("state = %v, want M after silent upgrade", got)
	}
	if env.countSent(noc.TypeMemReadReq) != before {
		t.Error("silent upgrade must not generate traffic")
	}
}

func TestTwoReadersShareThenWriteInvalidates(t *testing.T) {
	sys, env := newTestSystem(t)
	const addr = 200
	sys.Issue(1, addr, false)
	env.run(t)
	sys.Issue(3, addr, false)
	env.run(t)
	// Node 1 was recalled to give node 3 exclusivity? No: second GetS after
	// an Owned state recalls the owner and grants E to node 3.
	if got := sys.nodes[3].l1.Lookup(addr); got != Exclusive {
		t.Fatalf("node 3 state = %v, want E after recall", got)
	}
	if got := sys.nodes[1].l1.Lookup(addr); got != Invalid {
		t.Fatalf("node 1 state = %v, want I after recall", got)
	}
	// Third reader: now line is Owned by 3; 5 reads → recall again.
	sys.Issue(5, addr, false)
	env.run(t)
	if got := sys.nodes[5].l1.Lookup(addr); got != Exclusive {
		t.Errorf("node 5 state = %v, want E", got)
	}
}

func TestWriteMissGrantsModified(t *testing.T) {
	sys, env := newTestSystem(t)
	sys.Issue(4, 300, true)
	env.run(t)
	if got := sys.nodes[4].l1.Lookup(300); got != Modified {
		t.Errorf("state = %v, want M", got)
	}
}

// TestWriteInvalidatesSharers seeds a Shared line with four sharers (the
// directory never grants S on its own) and writes it from a fifth node:
// every sharer is invalidated, and the invalidations leave in ascending
// node order. The case repeats on 20 fresh systems, so an order that
// depends on map iteration fails here almost surely.
func TestWriteInvalidatesSharers(t *testing.T) {
	const addr = 400
	sharers := []noc.NodeID{2, 5, 9, 14}
	for rep := 0; rep < 20; rep++ {
		sys, env := newTestSystem(t)
		sys.nodes[sys.Home(addr)].dir[addr] = dirEntry{state: dirShared, sharers: slices.Clone(sharers)}
		for _, id := range sharers {
			sys.nodes[id].l1.Insert(addr, Shared, 0)
		}
		sys.Issue(3, addr, true) // GetX must invalidate every sharer
		env.run(t)
		if got := sys.nodes[3].l1.Lookup(addr); got != Modified {
			t.Errorf("writer state = %v, want M", got)
		}
		var dsts []noc.NodeID
		for _, p := range env.sent {
			if p.Type == noc.TypeCohInvalidate {
				dsts = append(dsts, p.Dst)
			}
		}
		if !slices.Equal(dsts, sharers) {
			t.Fatalf("system %d: invalidations went to %v, want %v in that order", rep, dsts, sharers)
		}
		for _, id := range sharers {
			if sys.nodes[id].l1.Lookup(addr) != Invalid {
				t.Errorf("sharer %d must be invalidated", id)
			}
			if got := sys.Stats(id).InvalidationsRecv; got != 1 {
				t.Errorf("sharer %d received %d invalidations, want 1", id, got)
			}
		}
	}
}

func TestSharedReadersStayShared(t *testing.T) {
	sys, env := newTestSystem(t)
	const addr = 480
	sys.nodes[sys.Home(addr)].dir[addr] = dirEntry{state: dirShared, sharers: []noc.NodeID{1}}
	sys.nodes[1].l1.Insert(addr, Shared, 0)
	sys.Issue(2, addr, false)
	env.run(t)
	if got := sys.nodes[2].l1.Lookup(addr); got != Shared {
		t.Errorf("second reader state = %v, want S", got)
	}
	if got := sys.nodes[1].l1.Lookup(addr); got != Shared {
		t.Errorf("first reader state = %v, want S (undisturbed)", got)
	}
	if got := sys.nodes[sys.Home(addr)].dir[addr].sharers; !slices.Equal(got, []noc.NodeID{1, 2}) {
		t.Errorf("sharers = %v, want [1 2]", got)
	}
}

func TestMSHRCoalescing(t *testing.T) {
	sys, env := newTestSystem(t)
	sys.Issue(2, 500, false)
	if !sys.Issue(2, 500, false) {
		t.Fatal("coalesced read rejected")
	}
	env.run(t)
	if env.countSent(noc.TypeMemReadReq) != 1 {
		t.Errorf("requests sent = %d, want 1 (coalesced)", env.countSent(noc.TypeMemReadReq))
	}
	if sys.Stats(2).MissesCompleted != 2 {
		t.Errorf("misses completed = %d, want 2", sys.Stats(2).MissesCompleted)
	}
}

func TestWriteCannotCoalesceIntoRead(t *testing.T) {
	sys, _ := newTestSystem(t)
	sys.Issue(2, 500, false)
	if sys.Issue(2, 500, true) {
		t.Fatal("write must not coalesce into in-flight read")
	}
}

// A write refused for colliding with an in-flight read is not counted:
// the core retries it, and only the accepted attempt is a write.
func TestRefusedWriteNotCounted(t *testing.T) {
	sys, _ := newTestSystem(t)
	sys.Issue(1, 500, false)
	if sys.Issue(1, 500, true) {
		t.Fatal("write must not coalesce into in-flight read")
	}
	if st := sys.Stats(1); st.Writes != 0 || st.Reads != 1 {
		t.Errorf("Writes = %d, Reads = %d after a refused write; want 0 and 1", st.Writes, st.Reads)
	}
}

func TestReadCoalescesIntoWrite(t *testing.T) {
	sys, env := newTestSystem(t)
	sys.Issue(2, 500, true)
	if !sys.Issue(2, 500, false) {
		t.Fatal("read should coalesce into in-flight write")
	}
	env.run(t)
	if sys.Stats(2).MissesCompleted != 2 {
		t.Errorf("misses completed = %d, want 2", sys.Stats(2).MissesCompleted)
	}
}

func TestMSHRCapacity(t *testing.T) {
	sys, _ := newTestSystem(t)
	for i := 0; i < sys.cfg.MaxOutstanding; i++ {
		if !sys.Issue(2, uint64(1000+i), false) {
			t.Fatalf("miss %d rejected below capacity", i)
		}
	}
	if sys.Issue(2, 9999, false) {
		t.Fatal("miss beyond MSHR capacity must be rejected")
	}
	if sys.Outstanding(2) != sys.cfg.MaxOutstanding {
		t.Errorf("Outstanding = %d, want %d", sys.Outstanding(2), sys.cfg.MaxOutstanding)
	}
}

func TestWritebackOnModifiedEviction(t *testing.T) {
	sys, env := newTestSystem(t)
	// Fill one L1 set (2 ways) with Modified lines, then one more: the LRU
	// Modified line must be written back.
	l1Sets := uint64(sys.cfg.L1Sets)
	addrs := []uint64{7, 7 + l1Sets, 7 + 2*l1Sets} // same set
	for _, a := range addrs {
		sys.Issue(2, a, true)
		env.run(t)
	}
	if sys.Stats(2).Writebacks != 1 {
		t.Fatalf("writebacks = %d, want 1", sys.Stats(2).Writebacks)
	}
	if env.countSent(noc.TypeMemWriteReq) != 1 || env.countSent(noc.TypeMemWriteAck) != 1 {
		t.Error("writeback must produce one MemWriteReq and one MemWriteAck")
	}
	// The written-back line's home directory no longer lists node 2.
	home := sys.Home(addrs[0])
	if e := sys.nodes[home].dir[addrs[0]]; e.state == dirOwned && e.owner == 2 {
		t.Error("directory still records node 2 as owner after writeback")
	}
}

func TestL2HitAfterWriteback(t *testing.T) {
	sys, env := newTestSystem(t)
	l1Sets := uint64(sys.cfg.L1Sets)
	// Write addr, evict it via two conflicting writes, then re-read: the L2
	// slice holds the line, so no memory latency is paid.
	sys.Issue(2, 7, true)
	env.run(t)
	sys.Issue(2, 7+l1Sets, true)
	env.run(t)
	sys.Issue(2, 7+2*l1Sets, true)
	env.run(t)
	latBefore := sys.Stats(2).MissLatencySum
	sys.Issue(2, 7, false)
	env.run(t)
	lat := sys.Stats(2).MissLatencySum - latBefore
	max := 2*env.netDelay + 2*sys.cfg.L2Latency // no 200-cycle memory trip
	if lat > max {
		t.Errorf("re-read after writeback took %d cycles, want ≤ %d (L2 hit)", lat, max)
	}
}

func TestHomeSerializesConflictingRequests(t *testing.T) {
	sys, env := newTestSystem(t)
	const addr = 600
	// Two different nodes write the same line concurrently: both must
	// complete, and exactly one ends as owner.
	sys.Issue(1, addr, true)
	sys.Issue(2, addr, true)
	env.run(t)
	st1 := sys.nodes[1].l1.Lookup(addr)
	st2 := sys.nodes[2].l1.Lookup(addr)
	owners := 0
	if st1 == Modified {
		owners++
	}
	if st2 == Modified {
		owners++
	}
	if owners != 1 {
		t.Fatalf("states (%v,%v): exactly one node must own the line", st1, st2)
	}
	if sys.Stats(1).MissesCompleted != 1 || sys.Stats(2).MissesCompleted != 1 {
		t.Error("both writers must complete")
	}
}

func TestVacuousAckIgnored(t *testing.T) {
	sys, _ := newTestSystem(t)
	// An unsolicited CohAck for an idle line must not panic or corrupt.
	sys.HandlePacket(&noc.Packet{Src: 1, Dst: 2, Type: noc.TypeCohAck, Payload: 777})
}

func TestDuplicateReplyIgnored(t *testing.T) {
	sys, _ := newTestSystem(t)
	sys.HandlePacket(&noc.Packet{Src: 1, Dst: 2, Type: noc.TypeMemReadReply, Payload: 777, Options: []uint32{uint32(Shared)}})
}

func TestInvalidateAtNonHolderStillAcks(t *testing.T) {
	sys, env := newTestSystem(t)
	sys.HandlePacket(&noc.Packet{Src: 5, Dst: 3, Type: noc.TypeCohInvalidate, Payload: 888})
	if env.countSent(noc.TypeCohAck) != 1 {
		t.Error("stale invalidation must still be acked")
	}
}

func TestAvgMissLatency(t *testing.T) {
	sys, env := newTestSystem(t)
	sys.Issue(2, 100, false)
	env.run(t)
	if sys.Stats(2).AvgMissLatency() <= 0 {
		t.Error("average miss latency must be positive")
	}
	var empty NodeStats
	if empty.AvgMissLatency() != 0 {
		t.Error("empty stats latency must be 0")
	}
}

func TestManyRandomOpsDrain(t *testing.T) {
	// Failure-injection style stress: a burst of random reads/writes from
	// every node over a small hot address pool must always drain with all
	// MSHRs retired — livelock or a lost reply would trip the guard.
	sys, env := newTestSystem(t)
	streams := make([]*AddressStream, 16)
	for i := range streams {
		streams[i] = NewAddressStream(0, i%4, 64, 0.4, envRand(int64(i)))
	}
	for round := 0; round < 50; round++ {
		for n := 0; n < 16; n++ {
			addr, w := streams[n].Next()
			sys.Issue(noc.NodeID(n), addr, w)
		}
		env.run(t)
	}
	for n := 0; n < 16; n++ {
		if sys.Outstanding(noc.NodeID(n)) != 0 {
			t.Fatalf("node %d still has outstanding misses", n)
		}
	}
}

// envRand returns a deterministic rand source for stress tests.
func envRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// TestTableIHierarchyAllocation bounds what building the Table I hierarchy
// allocates: with the sparse tag stores, 256 nodes' L1s and L2 slices cost
// only their set indices until traffic reaches a set (15.8 MB dense).
func TestTableIHierarchyAllocation(t *testing.T) {
	mesh := noc.Mesh{Width: 16, Height: 16}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sys, err := NewSystem(mesh, DefaultConfig(), &fakeEnv{})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	const limit = 1_600_000
	if got := after.TotalAlloc - before.TotalAlloc; got >= limit {
		t.Errorf("building the 16×16 hierarchy allocated %d bytes, want under %d", got, limit)
	}
	runtime.KeepAlive(sys)
}
