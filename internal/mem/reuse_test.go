package mem

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/noc"
)

// The meshes and cache geometries FuzzSystemReuse draws from; small
// geometries make evictions and writebacks common.
var (
	reuseMeshes = []noc.Mesh{{Width: 2, Height: 2}, {Width: 4, Height: 4}, {Width: 3, Height: 5}, {Width: 8, Height: 8}, {Width: 16, Height: 16}}
	reuseL1     = [][2]int{{4, 1}, {16, 2}, {256, 2}}
	reuseL2     = [][2]int{{8, 2}, {64, 4}, {512, 4}}
)

const (
	reuseHeader = 5  // bytes: mesh, L1, L2, latencies, MSHRs and flight time
	reuseOps    = 96 // ops decoded at most, three bytes each
	// reuseLines is the number of lines the ops address; line reuseLines
	// itself is the one every node reads before a reset.
	reuseLines = 64
)

// reuseCase is one hierarchy of FuzzSystemReuse: its mesh, configuration
// and loopback flight time (by table index where one applies), and its
// ops.
type reuseCase struct {
	mesh, l1, l2 int
	cfg          Config
	netDelay     uint64
	ops          []byte
}

// decodeReuseCase reads a case from a header and the ops after it,
// zero-padded. When differ is not nil the case takes another mesh and
// other L1 and L2 geometries than differ.
func decodeReuseCase(data []byte, differ *reuseCase) reuseCase {
	var h [reuseHeader]byte
	copy(h[:], data)
	c := reuseCase{
		mesh: int(h[0]) % len(reuseMeshes),
		l1:   int(h[1]) % len(reuseL1),
		l2:   int(h[2]) % len(reuseL2),
	}
	if differ != nil {
		// Step 1 to n-1 places on from differ's index.
		step := func(from int, b byte, n int) int { return (from + 1 + int(b)%(n-1)) % n }
		c.mesh = step(differ.mesh, h[0], len(reuseMeshes))
		c.l1 = step(differ.l1, h[1], len(reuseL1))
		c.l2 = step(differ.l2, h[2], len(reuseL2))
	}
	c.cfg = Config{
		L1Sets: reuseL1[c.l1][0], L1Ways: reuseL1[c.l1][1],
		L2Sets: reuseL2[c.l2][0], L2Ways: reuseL2[c.l2][1],
		L2Latency:      1 + uint64(h[3]%8),
		MemLatency:     10 + 40*uint64(h[3]/8%5),
		MaxOutstanding: 1 + int(h[4]%8),
	}
	c.netDelay = 1 + uint64(h[4]/8%12)
	if len(data) > reuseHeader {
		c.ops = data[reuseHeader:]
	}
	c.ops = c.ops[:min(len(c.ops)/3, reuseOps)*3]
	return c
}

// start resets sys (a fresh one when sys is nil) to the case's hierarchy
// over a new loopback.
func (c reuseCase) start(t *testing.T, sys *System) (*System, *fakeEnv) {
	t.Helper()
	if sys == nil {
		sys = new(System)
	}
	env := &fakeEnv{sys: sys, netDelay: c.netDelay}
	if err := sys.Reset(reuseMeshes[c.mesh], c.cfg, env); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	return sys, env
}

// drive issues the case's ops, each followed by up to 15 events, and
// returns every Issue's result.
func (c reuseCase) drive(sys *System, env *fakeEnv) []bool {
	nodes := reuseMeshes[c.mesh].Nodes()
	issued := make([]bool, 0, len(c.ops)/3)
	for op := c.ops; len(op) >= 3; op = op[3:] {
		issued = append(issued, sys.Issue(noc.NodeID(int(op[0])%nodes), uint64(op[1])%reuseLines, op[2]&1 != 0))
		env.step(int(op[2]>>1) % 16)
	}
	return issued
}

// leaveMidFlight drives the case, then has every node with a free MSHR
// read line reuseLines and stops when those reads reach its home: the
// first holds the line busy and the rest queue behind it, with every
// reader's miss outstanding.
func (c reuseCase) leaveMidFlight(sys *System, env *fakeEnv) {
	c.drive(sys, env)
	for id := range reuseMeshes[c.mesh].Nodes() {
		sys.Issue(noc.NodeID(id), reuseLines, false)
	}
	env.k.Run(env.Now()+c.netDelay, env.fire)
}

// FuzzSystemReuse runs case B's ops on a fresh System and on a System
// Reset from case A's mid-flight state — outstanding misses, busy lines
// with queued requests, filled caches and directories — under another
// mesh and other cache geometries. Every Issue result, every packet sent
// (in order), every node's statistics and every line's L1 and L2 state
// must match.
func FuzzSystemReuse(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		b := make([]byte, reuseHeader+3*reuseOps)
		rand.New(rand.NewSource(seed)).Read(b)
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		b := decodeReuseCase(data, nil)
		rotated := append(append([]byte(nil), data[min(len(data), reuseHeader):]...), data[:min(len(data), reuseHeader)]...)
		a := decodeReuseCase(rotated, &b)

		used, envA := a.start(t, nil)
		a.leaveMidFlight(used, envA)

		fresh, envF := b.start(t, nil)
		reused, envR := b.start(t, used)
		issuedF, issuedR := b.drive(fresh, envF), b.drive(reused, envR)
		if !envF.step(100000) || !envR.step(100000) {
			t.Fatal("protocol livelock: event queue never drains")
		}
		if !reflect.DeepEqual(issuedF, issuedR) {
			t.Fatalf("Issue results on the reset system %v, on the fresh one %v", issuedR, issuedF)
		}
		for i := range max(len(envF.sent), len(envR.sent)) {
			if i >= len(envF.sent) || i >= len(envR.sent) || !reflect.DeepEqual(envF.sent[i], envR.sent[i]) {
				t.Fatalf("packet %d differs: the reset system sent %d packets, the fresh one %d", i, len(envR.sent), len(envF.sent))
			}
		}
		for id := range fresh.nodes {
			nid := noc.NodeID(id)
			if got, want := reused.Stats(nid), fresh.Stats(nid); got != want {
				t.Fatalf("node %d stats on the reset system %+v, on the fresh one %+v", id, got, want)
			}
			for addr := uint64(0); addr <= reuseLines; addr++ {
				fl1, fl2 := fresh.nodes[id].l1.Lookup(addr), fresh.nodes[id].l2.Lookup(addr)
				rl1, rl2 := reused.nodes[id].l1.Lookup(addr), reused.nodes[id].l2.Lookup(addr)
				if fl1 != rl1 || fl2 != rl2 {
					t.Fatalf("node %d line %d: L1/L2 %v/%v on the reset system, %v/%v on the fresh one", id, addr, rl1, rl2, fl1, fl2)
				}
			}
		}
	})
}

// TestResetAllocatesNothing resets a used Table I hierarchy of 16×16
// nodes, left mid-flight, a second time after the same use: the caches'
// indices and slabs, the maps and the recyclers' lists all have room, so
// the reset allocates no byte. The test holds one P, so no other
// goroutine's allocation lands between the two readings.
func TestResetAllocatesNothing(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	ops := make([]byte, 3*reuseOps)
	rand.New(rand.NewSource(7)).Read(ops)
	c := reuseCase{mesh: len(reuseMeshes) - 1, cfg: DefaultConfig(), netDelay: 10, ops: ops}
	sys, env := c.start(t, nil)
	c.leaveMidFlight(sys, env)
	sys, env = c.start(t, sys)
	c.leaveMidFlight(sys, env)
	if sys.Outstanding(0) == 0 {
		t.Fatal("the hierarchy is not mid-flight")
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := sys.Reset(reuseMeshes[c.mesh], c.cfg, env)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got != 0 {
		t.Errorf("resetting a used 16×16 hierarchy allocated %d bytes, want 0", got)
	}
}
