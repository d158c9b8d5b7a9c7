package noc

import (
	"math/rand"
	"testing"
)

// FuzzStepperOracle steps the production network and the seed stepper
// (oracle_test.go) side by side over fuzzed meshes, routings, VC counts
// and depths, traffic classes, Trojan verdicts and traffic. Beside the
// fresh network it steps a second production network that a previous
// case — decoded from the same input with its header rotated away, so it
// may use another mesh, class split or VC count — left mid-flight and
// Reset to this case: Reset must leave nothing of the previous traffic
// behind. The reset network must agree with the fresh one on every mesh,
// and on a plain mesh both must agree with the seed stepper, on Busy()
// after every cycle, on the per-cycle delivery and inspection logs, and
// on the final Stats. The seed predates the torus, so wrapped meshes
// also get the invariants: after every cycle the live-flit count matches
// an exhaustive count and no VC holds more than BufDepth flits; the
// network drains within oracleDrainBound cycles of the last injection
// (which covers dateline deadlock freedom); and every packet is delivered
// once, at its destination, or condemned by a drop verdict. Loopback
// verdicts are the exception to draining: a routing loop may wedge the
// network, so once a packet has been looped back the case ends after
// oracleStallWindow cycles in which nothing was delivered or dropped.
func FuzzStepperOracle(f *testing.F) {
	for _, seed := range oracleSeedCorpus() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		runOracleCase(t, decodeOracleCase(data), decodeOracleCase(previousCaseInput(data)))
	})
}

// oracleDrainBound is how many cycles after its last scheduled injection
// a fuzzed network may take to drain. The largest fuzzed load (128
// packets, each echoed, through a single ejection port with one-flit
// buffers and five-cycle hops) drains in under a fifth of it; a deadlock
// never does.
const oracleDrainBound = 50_000

// oracleStallWindow is how many cycles without a delivery or a drop end
// a case in which a Trojan looped a packet back (see runOracleCase).
const oracleStallWindow = 2_000

// oracleMaxPackets caps the scheduled traffic of one fuzzed case.
const oracleMaxPackets = 128

// oracleHeaderLen is the size of a fuzz input's fixed header (see
// decodeOracleCase).
const oracleHeaderLen = 18

// previousCaseInput is the input of the case whose mid-flight network a
// case's reset network starts from: the input with its header rotated to
// the end, so the previous case's header comes from the traffic bytes.
func previousCaseInput(data []byte) []byte {
	h := min(oracleHeaderLen, len(data))
	return append(append([]byte(nil), data[h:]...), data[:h]...)
}

// oracleTypes are the packet types a fuzzed injection draws from: 1-flit
// meta packets and 5-flit data packets (meta packets with options fields
// add 2- and 3-flit packets).
var oracleTypes = [...]PacketType{
	TypePowerReq, TypePowerGrant, TypeConfigCmd, TypeMemReadReq,
	TypeMemReadReply, TypeMemWriteReq, TypeMemWriteAck, TypeCohInvalidate,
}

// oracleCase is one decoded fuzz input.
type oracleCase struct {
	mesh    Mesh
	cfg     Config
	trojans [3]oracleTrojan
	// echo answers every delivered MEM_READ_REQ with a MEM_READ_REPLY
	// injected from inside the delivery handler, the way the cache
	// hierarchy does.
	echo    bool
	traffic []oracleInjection // ascending by at
}

// oracleTrojan is one router's inspection behaviour: kind 0 ignores
// packets, 1 rewrites POWER_REQ payloads, 2 drops and 3 loops packets
// back. It acts on the packets whose ID+key is not a multiple of three,
// so verdicts depend only on the packet, never on call order.
type oracleTrojan struct {
	at   NodeID
	kind byte
	key  byte
}

// oracleInjection schedules one packet at cycle at.
type oracleInjection struct {
	at       uint64
	src, dst NodeID
	typ      PacketType
	class    int
	payload  uint32
	options  int
}

// oracleEvent is one delivery or inspection, as a log line.
type oracleEvent struct {
	cycle    uint64
	node     NodeID
	id       uint64
	payload  uint32
	hops     int
	tampered bool
}

// fuzzReader hands out fuzz bytes, then zeros once they run out.
type fuzzReader struct{ b []byte }

func (r *fuzzReader) byte() byte {
	if len(r.b) == 0 {
		return 0
	}
	c := r.b[0]
	r.b = r.b[1:]
	return c
}

func (r *fuzzReader) intn(n int) int { return int(r.byte()) % n }

// decodeOracleCase reads a fixed 18-byte header, then 4 bytes per
// scheduled packet:
//
//	0     flags: bit 0 torus, bit 1 two traffic classes, bit 2 echo
//	1, 2  width, height (1..6 on a mesh, 2..6 on a torus)
//	3, 4  routing of class 0 and class 1 (registered algorithms that
//	      suit the topology)
//	5     VCs, from the fewest the classes need up to maxVCs
//	6     BufDepth 1..6
//	7, 8  RouterCycles 1..3, LinkCycles 0..2
//	9-17  three (router, kind, key) Trojan slots
//	then  per packet: src, dst, kind (bits 0-2 type, bit 3 class,
//	      bits 4-5 cycles after the previous packet, bits 6-7 options
//	      words), payload
func decodeOracleCase(data []byte) oracleCase {
	r := fuzzReader{data}
	flags := r.byte()
	wrap := flags&1 != 0
	twoClasses := flags&2 != 0
	minSide := 1
	if wrap {
		minSide = 2
	}
	c := oracleCase{echo: flags&4 != 0}
	c.mesh = Mesh{Width: minSide + r.intn(7-minSide), Height: minSide + r.intn(7-minSide), Wrap: wrap}
	var routings []RoutingAlgorithm
	for _, alg := range Routings.All() {
		if _, wraps := alg.(WrapRouting); !wraps || wrap {
			routings = append(routings, alg)
		}
	}
	c.cfg.Routing = routings[r.intn(len(routings))]
	if alt := routings[r.intn(len(routings))]; twoClasses {
		c.cfg.AltRouting = alt
	}
	// Each class needs a VC, and a wrap-routed class two (dateline bands).
	need, wrapNeed := 1, 2
	if twoClasses {
		need, wrapNeed = 2, 4
	}
	for class := 0; class < 2; class++ {
		if _, wraps := c.cfg.classRouting(class).(WrapRouting); wraps {
			need = wrapNeed
		}
	}
	c.cfg.VCs = need + r.intn(maxVCs+1-need)
	c.cfg.BufDepth = 1 + r.intn(6)
	c.cfg.RouterCycles = 1 + r.intn(3)
	c.cfg.LinkCycles = r.intn(3)
	nodes := c.mesh.Nodes()
	for i := range c.trojans {
		c.trojans[i] = oracleTrojan{at: NodeID(r.intn(nodes)), kind: r.byte() % 4, key: r.byte()}
	}
	var at uint64
	for len(r.b) >= 4 && len(c.traffic) < oracleMaxPackets {
		src, dst, kind, payload := r.byte(), r.byte(), r.byte(), r.byte()
		at += uint64(kind >> 4 & 3)
		inj := oracleInjection{
			at:      at,
			src:     NodeID(int(src) % nodes),
			dst:     NodeID(int(dst) % nodes),
			typ:     oracleTypes[kind&7],
			payload: uint32(payload) * 997,
			options: int(kind >> 6),
		}
		if twoClasses && kind&8 != 0 {
			inj.class = 1
		}
		c.traffic = append(c.traffic, inj)
	}
	return c
}

// verdict is the fuzzed Trojan fleet's decision for p at router r.
func (c *oracleCase) verdict(r NodeID, p *Packet) Verdict {
	for _, tj := range c.trojans {
		if tj.at != r || (p.ID+uint64(tj.key))%3 == 0 {
			continue
		}
		switch tj.kind {
		case 1:
			if p.Type == TypePowerReq {
				p.Payload = p.Payload/2 + uint32(tj.key)
				p.Tampered = true
			}
		case 2:
			return VerdictDrop
		case 3:
			return VerdictLoopback
		}
	}
	return VerdictForward
}

// stepper is the surface the harness drives, common to the production
// network and the seed stepper.
type stepper interface {
	Inject(p *Packet) error
	Step()
	Busy() bool
	Now() uint64
	Stats() Stats
	Attach(id NodeID, h Handler)
	SetInspector(i Inspector)
}

// oracleRun is one network under a fuzzed case, with its logs.
type oracleRun struct {
	net         stepper
	deliveries  []oracleEvent
	inspections []oracleEvent
	injected    map[uint64]bool // every packet ID injected
	delivered   map[uint64]bool
	condemned   map[uint64]bool // packets a drop verdict discarded
	loopedBack  bool            // a loopback verdict turned some packet around
}

// attach wires the case's inspector and delivery handlers to net.
func (c *oracleCase) attach(t *testing.T, net stepper) *oracleRun {
	run := &oracleRun{
		net:       net,
		injected:  make(map[uint64]bool),
		delivered: make(map[uint64]bool),
		condemned: make(map[uint64]bool),
	}
	net.SetInspector(inspectorFunc(func(r NodeID, p *Packet) Verdict {
		v := c.verdict(r, p)
		run.inspections = append(run.inspections, oracleEvent{cycle: net.Now(), node: r, id: p.ID, payload: p.Payload, tampered: p.Tampered})
		switch v {
		case VerdictDrop:
			run.condemned[p.ID] = true
		case VerdictLoopback:
			run.loopedBack = true
		}
		return v
	}))
	for id := NodeID(0); id < NodeID(c.mesh.Nodes()); id++ {
		net.Attach(id, func(p *Packet) {
			if p.Dst != id {
				t.Fatalf("cycle %d: packet %d for node %d delivered at node %d", net.Now(), p.ID, p.Dst, id)
			}
			if run.delivered[p.ID] {
				t.Fatalf("cycle %d: packet %d delivered twice", net.Now(), p.ID)
			}
			run.delivered[p.ID] = true
			run.deliveries = append(run.deliveries, oracleEvent{
				cycle: net.Now(), node: id, id: p.ID, payload: p.Payload, hops: p.Hops, tampered: p.Tampered,
			})
			if c.echo && p.Type == TypeMemReadReq {
				run.inject(t, &Packet{Src: id, Dst: p.Src, Type: TypeMemReadReply, Class: p.Class})
			}
		})
	}
	return run
}

func (run *oracleRun) inject(t *testing.T, p *Packet) {
	if err := run.net.Inject(p); err != nil {
		t.Fatalf("Inject: %v", err)
	}
	run.injected[p.ID] = true
}

func (run *oracleRun) schedule(t *testing.T, inj oracleInjection) {
	p := &Packet{Src: inj.src, Dst: inj.dst, Type: inj.typ, Class: inj.class, Payload: inj.payload}
	if inj.options > 0 && !inj.typ.IsData() {
		p.Options = make([]uint32, inj.options)
	}
	run.inject(t, p)
}

// checkAccounting verifies the drained run's packet accounting: every
// injected packet was delivered or condemned, never both, and Stats
// agrees.
func (run *oracleRun) checkAccounting(t *testing.T) {
	t.Helper()
	s := run.net.Stats()
	if s.Injected != uint64(len(run.injected)) {
		t.Fatalf("Stats.Injected = %d, harness injected %d", s.Injected, len(run.injected))
	}
	if s.Delivered != uint64(len(run.delivered)) || s.DroppedPackets != uint64(len(run.condemned)) {
		t.Fatalf("Stats delivered/dropped = %d/%d, harness saw %d/%d",
			s.Delivered, s.DroppedPackets, len(run.delivered), len(run.condemned))
	}
	for id := range run.injected {
		if run.delivered[id] == run.condemned[id] {
			t.Fatalf("packet %d: delivered=%v condemned=%v, want exactly one", id, run.delivered[id], run.condemned[id])
		}
	}
}

// midFlight steps c's traffic through a fresh network until half of it
// has been injected and some flit is on a link, and returns the network
// with that traffic still in its queues, buffers and link pipeline.
func midFlight(t *testing.T, c oracleCase) *Network {
	net, err := New(c.mesh, c.cfg)
	if err != nil {
		t.Fatalf("New(%+v, %+v): %v", c.mesh, c.cfg, err)
	}
	run := c.attach(t, net)
	half, next := len(c.traffic)/2, 0
	var until uint64 // the last cycle to wait for a flit on a link
	if half > 0 {
		until = c.traffic[half-1].at + 64
	}
	for cycle := uint64(0); next < half || (net.inflLen == 0 && cycle <= until); cycle++ {
		for ; next < half && c.traffic[next].at == cycle; next++ {
			run.schedule(t, c.traffic[next])
		}
		net.Step()
	}
	return net
}

// oraclePeer is a stepper that must match the fresh production network
// cycle for cycle.
type oraclePeer struct {
	name string
	run  *oracleRun
}

// runOracleCase steps c's traffic through a fresh production network,
// through a network Reset from prev's mid-flight state, and on a plain
// mesh through the seed stepper, comparing the last two with the first.
func runOracleCase(t *testing.T, c, prev oracleCase) {
	net, err := New(c.mesh, c.cfg)
	if err != nil {
		t.Fatalf("New(%+v, %+v): %v", c.mesh, c.cfg, err)
	}
	reused := midFlight(t, prev)
	if err := reused.Reset(c.mesh, c.cfg); err != nil {
		t.Fatalf("Reset(%+v, %+v): %v", c.mesh, c.cfg, err)
	}
	got := c.attach(t, net)
	peers := []oraclePeer{{"reset network", c.attach(t, reused)}}
	if !c.mesh.Wrap {
		peers = append(peers, oraclePeer{"seed stepper", c.attach(t, newSeedNetwork(c.mesh, c.cfg))})
	}
	var last uint64
	if k := len(c.traffic); k > 0 {
		last = c.traffic[k-1].at
	}
	next, drained := 0, false
	var retired, stalled uint64 // packets delivered or dropped; cycles since the last
	for cycle := uint64(0); ; cycle++ {
		for ; next < len(c.traffic) && c.traffic[next].at == cycle; next++ {
			got.schedule(t, c.traffic[next])
			for _, p := range peers {
				p.run.schedule(t, c.traffic[next])
			}
		}
		if next == len(c.traffic) && !net.Busy() {
			drained = true
			break
		}
		if s := net.Stats(); s.Delivered+s.DroppedPackets != retired {
			retired, stalled = s.Delivered+s.DroppedPackets, 0
		} else if stalled++; cycle > last && stalled > oracleStallWindow && got.loopedBack {
			// A routing loop turns packets around, which can wedge a
			// wormhole network for good: that is the attack working,
			// not a stepper bug, so the case ends without draining.
			break
		}
		if cycle > last+oracleDrainBound {
			t.Fatalf("%+v %s/%v VCs=%d: network did not drain within %d cycles of the last injection",
				c.mesh, c.cfg.Routing.Name(), c.cfg.AltRouting, c.cfg.VCs, oracleDrainBound)
		}
		net.Step()
		checkNetworkInvariants(t, net)
		checkRouterMasks(t, net)
		for _, p := range peers {
			p.run.net.Step()
			if pn, ok := p.run.net.(*Network); ok {
				checkNetworkInvariants(t, pn)
				checkRouterMasks(t, pn)
			}
			if net.Busy() != p.run.net.Busy() {
				t.Fatalf("cycle %d: Busy() = %v, %s %v", net.Now(), net.Busy(), p.name, p.run.net.Busy())
			}
		}
	}
	if drained {
		got.checkAccounting(t)
	}
	for _, p := range peers {
		compareEventLogs(t, p.name, "delivery", got.deliveries, p.run.deliveries)
		compareEventLogs(t, p.name, "inspection", got.inspections, p.run.inspections)
		if gs, ps := net.Stats(), p.run.net.Stats(); gs != ps {
			t.Fatalf("Stats = %+v, %s %+v", gs, p.name, ps)
		}
	}
}

func compareEventLogs(t *testing.T, peer, what string, got, want []oracleEvent) {
	t.Helper()
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			t.Fatalf("%s %d = %+v, %s %+v", what, i, got[i], peer, want[i])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%d %s events, %s %d", len(got), what, peer, len(want))
	}
}

// checkNetworkInvariants counts every flit the network holds (source
// queues, input VCs, link pipeline) and fails unless the count matches the
// live-flit counter behind Busy and no VC holds, or has been promised,
// more than BufDepth flits. It also checks the one-packet invariant the
// VC counts rest on: an unowned VC holds, awaits and has passed no flit,
// and an owned one has passed, holds and awaits no more flits than its
// owner has; and an NI has injected fewer flits of its head packet than
// the packet has.
func checkNetworkInvariants(t *testing.T, n *Network) {
	t.Helper()
	live := n.inflLen
	for i := range n.nis {
		ni := &n.nis[i]
		live -= ni.sent
		for _, p := range ni.queue[ni.qhead:] {
			live += p.FlitCount()
		}
		if q := ni.queue[ni.qhead:]; len(q) > 0 && ni.sent >= q[0].FlitCount() {
			t.Fatalf("cycle %d: NI %d has sent %d of its head packet's %d flits", n.now, i, ni.sent, q[0].FlitCount())
		}
	}
	for i := range n.routers {
		for v := range n.routers[i].vcs {
			vc := &n.routers[i].vcs[v]
			if vc.n < 0 || vc.inflight < 0 || vc.n+vc.inflight > n.depth {
				t.Fatalf("cycle %d: router %d VC %d holds %d flits with %d in flight, depth %d",
					n.now, i, v, vc.n, vc.inflight, n.depth)
			}
			if vc.owner == nil && (vc.n != 0 || vc.inflight != 0 || vc.left != 0) {
				t.Fatalf("cycle %d: router %d VC %d has no owner but n=%d inflight=%d left=%d",
					n.now, i, v, vc.n, vc.inflight, vc.left)
			}
			if vc.owner != nil && int(vc.left+vc.n+vc.inflight) > vc.owner.FlitCount() {
				t.Fatalf("cycle %d: router %d VC %d has left=%d n=%d inflight=%d of a %d-flit packet",
					n.now, i, v, vc.left, vc.n, vc.inflight, vc.owner.FlitCount())
			}
			live += int(vc.n)
		}
	}
	if live != n.liveFlits {
		t.Fatalf("cycle %d: %d flits in the network, live-flit counter says %d", n.now, live, n.liveFlits)
	}
}

// checkRouterMasks recomputes every router's VC masks, the busy bitset and
// its count from a scan of the VC state and fails on any difference, or
// on a switch-allocation pointer outside the router's VCs.
func checkRouterMasks(t *testing.T, n *Network) {
	t.Helper()
	busyRouters := 0
	for i := range n.routers {
		r := &n.routers[i]
		var occupied, waiting uint32
		var req [numDirections]uint32
		for v := range r.vcs {
			vc := &r.vcs[v]
			bit := uint32(1) << v
			if int(vc.idx) != v {
				t.Fatalf("router %d VC %d has index %d", i, v, vc.idx)
			}
			if vc.n > 0 {
				occupied |= bit
			}
			if vc.routeValid {
				req[vc.route] |= bit
				if vc.route != Local && !vc.outVCValid {
					waiting |= bit
				}
			}
		}
		if r.occupied != occupied || r.waiting != waiting || r.req != req {
			t.Fatalf("cycle %d: router %d masks occupied=%#x waiting=%#x req=%#x, VC state says %#x %#x %#x",
				n.now, i, r.occupied, r.waiting, r.req, occupied, waiting, req)
		}
		if busy := n.busy[i/64]>>(i%64)&1 != 0; busy != (occupied != 0) {
			t.Fatalf("cycle %d: router %d busy bit %v with occupied mask %#x", n.now, i, busy, occupied)
		}
		if occupied != 0 {
			busyRouters++
		}
		for out, ptr := range r.saPtr {
			if int(ptr) >= len(r.vcs) {
				t.Fatalf("cycle %d: router %d saPtr[%d] = %d of %d VCs", n.now, i, out, ptr, len(r.vcs))
			}
		}
	}
	for id := len(n.routers); id < 64*len(n.busy); id++ {
		if n.busy[id/64]>>(id%64)&1 != 0 {
			t.Fatalf("busy bit %d set past the last router", id)
		}
	}
	if n.busyRouters != busyRouters {
		t.Fatalf("cycle %d: busyRouters = %d, %d routers hold flits", n.now, n.busyRouters, busyRouters)
	}
}

// oracleSeedCorpus covers each topology, routing, class split, verdict
// kind and echo with random traffic from a fixed source.
func oracleSeedCorpus() [][]byte {
	headers := [][]byte{
		// flags, w, h, routing, alt, VCs, depth, rc, lc, trojans (at, kind, key)×3
		{0, 3, 3, 0, 0, 3, 4, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0},   // Table I on 4×4, xy
		{4, 4, 3, 2, 0, 2, 1, 0, 0, 5, 1, 1, 9, 2, 0, 14, 3, 2},  // west-first 5×4, all verdicts, echo
		{2, 5, 5, 0, 1, 2, 2, 1, 1, 7, 1, 0, 20, 2, 1, 3, 3, 1},  // xy + yx dual class on 6×6
		{6, 2, 4, 1, 2, 0, 0, 2, 2, 4, 2, 1, 1, 3, 2, 0, 1, 5},   // yx + west-first, 1-flit buffers
		{0, 0, 5, 0, 0, 0, 2, 0, 0, 2, 3, 1, 0, 0, 0, 0, 0, 0},   // one column, one VC
		{1, 2, 2, 3, 0, 0, 4, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0},   // torus 4×4, torus-xy
		{3, 3, 2, 3, 1, 0, 1, 1, 1, 6, 1, 0, 11, 2, 1, 2, 3, 1},  // torus 5×4, torus-xy + yx, verdicts
		{7, 1, 1, 3, 3, 2, 0, 0, 2, 1, 3, 2, 2, 2, 1, 0, 1, 0},   // torus 3×3, both classes wrap, echo
		{5, 4, 4, 2, 0, 3, 2, 2, 0, 12, 2, 1, 5, 3, 2, 17, 1, 0}, // torus 6×6, west-first, echo
		{0, 5, 0, 0, 0, 5, 5, 2, 2, 1, 2, 0, 3, 3, 0, 5, 1, 1},   // one row, six VCs, deep buffers
		{4, 3, 3, 0, 0, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0},   // dense traffic, single-flit depth
		{2, 3, 3, 2, 2, 4, 3, 1, 1, 10, 3, 0, 4, 2, 2, 15, 1, 1}, // west-first both classes
	}
	rng := rand.New(rand.NewSource(1))
	corpus := make([][]byte, 0, len(headers))
	for i, h := range headers {
		traffic := make([]byte, 4*(24+8*i))
		rng.Read(traffic)
		if i == 10 {
			for k := 2; k < len(traffic); k += 4 {
				traffic[k] &^= 0x30 // every packet in the same burst
			}
		}
		corpus = append(corpus, append(append([]byte(nil), h...), traffic...))
	}
	return corpus
}
