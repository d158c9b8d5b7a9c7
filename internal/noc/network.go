package noc

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"
)

// Config holds the NoC parameters of Table I.
type Config struct {
	// VCs is the number of virtual channels per input port (Table I: 4).
	VCs int
	// BufDepth is the per-VC flit buffer depth (Table I: 5).
	BufDepth int
	// RouterCycles is the router pipeline latency (Table I: 2).
	RouterCycles int
	// LinkCycles is the link traversal latency (Table I: 1).
	LinkCycles int
	// Routing selects the routing algorithm (Table I: XY).
	Routing RoutingAlgorithm
	// AltRouting optionally enables a second traffic class with its own
	// routing algorithm on its own half of the virtual channels. Packets
	// select the class through Packet.Class. VC partitioning keeps the two
	// classes from waiting on each other, so a deadlock-free pair such as
	// XY + YX stays deadlock-free combined. Nil disables the second class.
	AltRouting RoutingAlgorithm
}

// DefaultConfig returns the Table I on-chip-network configuration.
func DefaultConfig() Config {
	return Config{
		VCs:          4,
		BufDepth:     5,
		RouterCycles: 2,
		LinkCycles:   1,
		Routing:      XYRouting{},
	}
}

// maxVCs is the most virtual channels per input port a router supports:
// a router's per-stage VC masks are 32-bit words indexed by the flattened
// (port, VC) index port*VCs+vc, so all 5×VCs input VCs must fit in 32 bits.
const maxVCs = 32 / int(numDirections)

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.VCs < 1:
		return errors.New("noc: config needs at least one virtual channel")
	case c.VCs > maxVCs:
		return fmt.Errorf("noc: config has %d virtual channels per port, the limit is %d", c.VCs, maxVCs)
	case c.BufDepth < 1:
		return errors.New("noc: config needs buffer depth of at least one flit")
	case c.RouterCycles < 1 || c.LinkCycles < 0:
		return errors.New("noc: config has invalid pipeline latencies")
	case c.Routing == nil:
		return errors.New("noc: config needs a routing algorithm")
	case c.AltRouting != nil && c.VCs < 2:
		return errors.New("noc: a second traffic class needs at least two virtual channels")
	}
	// Dateline VC management splits a class's VC range in half, so every
	// wrap-routed class needs at least two channels of its own.
	for class := 0; class < 2; class++ {
		if _, wrap := c.classRouting(class).(WrapRouting); !wrap {
			continue
		}
		if lo, hi := c.classVCRange(class); hi-lo < 2 {
			return errors.New("noc: wraparound routing needs at least two virtual channels per traffic class (for dateline management)")
		}
	}
	return nil
}

// classVCRange returns the [lo, hi) input-VC indices packets of the given
// class may occupy. Without an alternate class, class 0 owns every VC.
func (c Config) classVCRange(class int) (lo, hi int) {
	if c.AltRouting == nil {
		return 0, c.VCs
	}
	half := c.VCs / 2
	if class == 0 {
		return 0, half
	}
	return half, c.VCs
}

// classRouting returns the routing algorithm for a class.
func (c Config) classRouting(class int) RoutingAlgorithm {
	if class == 1 && c.AltRouting != nil {
		return c.AltRouting
	}
	return c.Routing
}

// Verdict is an inspector's decision about a packet at the RC stage.
type Verdict int

// Inspection verdicts. VerdictForward is deliberately the zero value: a
// packet the inspector ignores proceeds normally.
const (
	// VerdictForward routes the packet normally.
	VerdictForward Verdict = iota
	// VerdictDrop silently discards the packet — the "packet drop attack"
	// class of Section II-B.
	VerdictDrop
	// VerdictLoopback rewrites the destination to the source, bouncing the
	// packet home — the "routing loop attack" class of Section II-B.
	VerdictLoopback
)

// String implements fmt.Stringer.
func (v Verdict) String() string {
	switch v {
	case VerdictForward:
		return "forward"
	case VerdictDrop:
		return "drop"
	case VerdictLoopback:
		return "loopback"
	default:
		return fmt.Sprintf("verdict(%d)", int(v))
	}
}

// Inspector is the hardware-Trojan hook. InspectRC is invoked for every
// packet whose head flit sits in router's input buffer immediately before
// routing computation — the exact circuit position of Fig 2(b). The
// inspector may mutate the packet's payload (the paper's false-data
// attack) and/or return a non-forward verdict (the drop and routing-loop
// attack classes of Section II-B).
type Inspector interface {
	InspectRC(router NodeID, p *Packet) Verdict
}

// Handler receives packets fully ejected at a node.
type Handler func(p *Packet)

// vcState is one input virtual channel of a router. A VC belongs to one
// packet from VC allocation until that packet's tail leaves it, and the
// packet's flits arrive and leave in order, so counts describe the buffer
// exactly: the head-of-line flit is flit number left of owner. The struct
// is kept small (int32 counters, byte-sized route and index) because a
// network holds 5×VCs of them per router.
type vcState struct {
	rt *router // owning router, whose VC masks mirror this VC's state

	// owner is the packet holding this VC (wormhole allocation). It is set
	// when an upstream VC allocation reserves this channel and cleared when
	// the packet's tail flit departs the fifo.
	owner       *Packet
	reservedDst *vcState // downstream VC reserved by VC allocation

	n    int32 // flits buffered
	left int32 // owner's flits that have already left this VC
	// inflight counts flits sent toward this VC that have not yet arrived.
	inflight int32

	// Per-packet routing state for the packet at the head of the fifo.
	route      Direction
	routeValid bool
	outVCValid bool
	inspected  bool
	dropping   bool  // consume this packet's flits instead of routing them
	idx        uint8 // flattened index port*VCs+vc in rt.vcs, and rt's mask bit
}

// reset releases the VC when its packet's tail has left or been eaten,
// clearing the VC's bits from the router's route masks.
func (v *vcState) reset() {
	bit := uint32(1) << v.idx
	v.rt.req[v.route] &^= bit
	v.rt.waiting &^= bit
	v.owner = nil
	v.left = 0
	v.route = Local
	v.routeValid = false
	v.outVCValid = false
	v.inspected = false
	v.dropping = false
	v.reservedDst = nil
}

// free reports whether the VC can accept a new packet's head flit.
func (v *vcState) free() bool { return v.owner == nil && v.n == 0 && v.inflight == 0 }

// space reports whether one more flit fits (buffer + in-flight).
func (v *vcState) space(depth int32) bool { return v.n+v.inflight < depth }

// router is one mesh router. Input VCs are flattened into a single slice —
// the VC for (input port d, channel v) sits at index d*VCs+v — which is
// exactly the candidate order of the round-robin switch allocator.
//
// The pipeline stages never scan the VCs. Each router mirrors the VC state
// the stages test in bitmasks over the flattened indices (Config.Validate
// caps 5×VCs at 32), and a stage visits only the set bits, in ascending
// order — the order the scans visited them in:
//
//	occupied  VCs holding at least one flit (n > 0)
//	req[out]  VCs whose packet is routed to output out (routeValid)
//	waiting   VCs routed to a neighbour whose packet has no downstream VC
//	          yet (routeValid, route != Local, !outVCValid)
//
// vcPush and vcPop keep occupied; route compute sets req and waiting, VC
// allocation clears waiting, and vcState.reset clears both.
type router struct {
	id       NodeID
	vcs      []vcState
	occupied uint32
	waiting  uint32
	req      [numDirections]uint32
	// saPtr is the round-robin switch-allocation pointer per output port:
	// the flattened index the next arbitration for that output starts at.
	saPtr [numDirections]uint8
}

// routed returns the mask of VCs whose packet has a route.
func (r *router) routed() uint32 {
	return r.req[Local] | r.req[North] | r.req[East] | r.req[South] | r.req[West]
}

// inflightFlit is a flit traversing the router pipeline + link toward a
// downstream input VC: the next flit of dst's owner. Latency is constant,
// so a FIFO keeps arrival order.
type inflightFlit struct {
	arriveAt uint64
	dst      *vcState
}

// nodeNI is the per-node network interface: an unbounded injection queue
// (source queue) of packets, how many flits of the head-of-queue packet
// have been injected, and the VC allocated to that packet. The queue is
// drained via qhead instead of re-slicing so its backing array is reused
// across epochs.
type nodeNI struct {
	queue  []*Packet
	qhead  int
	sent   int
	injVC  *vcState // VC currently allocated to the head-of-queue packet
	active bool
}

// Stats aggregates network-level counters. The per-type tallies are fixed
// arrays indexed by PacketType, so a Stats value is a plain value copy —
// no maps, no defensive deep copy.
type Stats struct {
	Injected         uint64
	Delivered        uint64
	HopSum           uint64
	DeliveredBy      [numPacketTypes]uint64
	LatencySumBy     [numPacketTypes]uint64
	TamperedPowerReq uint64 // POWER_REQ packets delivered with Tampered set
	DroppedPackets   uint64 // packets discarded by a VerdictDrop
	LoopedBack       uint64 // packets delivered to their own source
}

// AvgLatency returns the mean injection-to-delivery latency in cycles for
// packets of type t, or 0 if none were delivered.
func (s *Stats) AvgLatency(t PacketType) float64 {
	if t >= numPacketTypes {
		return 0
	}
	n := s.DeliveredBy[t]
	if n == 0 {
		return 0
	}
	return float64(s.LatencySumBy[t]) / float64(n)
}

// Network is the cycle-stepped NoC. It is not safe for concurrent use; one
// simulation owns one network.
//
// Stepping is worklist-driven: the RC/VA/SA stages visit a router only
// while flits sit in its input buffers (the busy bitset), and within it
// only the VCs its masks select; a network interface is visited only while
// its source queue is non-empty. Both are visited in ascending node ID, so
// a Step makes the same decisions in the same order as the exhaustive
// sweep it replaced — cycle-for-cycle identical behaviour (checked against
// that sweep by FuzzStepperOracle), without the O(nodes × ports × VCs)
// cost.
type Network struct {
	mesh      Mesh
	cfg       Config
	now       uint64
	nextID    uint64
	routers   []router
	nis       []nodeNI
	handlers  []Handler
	inspector Inspector
	stats     Stats

	// Link pipeline: a growable FIFO ring of in-flight flits.
	inflight []inflightFlit
	inflHead int
	inflLen  int

	// liveFlits counts flits anywhere in the network (source queues, input
	// buffers, link pipeline), making Busy O(1).
	liveFlits int

	// busy holds one bit per router with a flit in its input VCs (bit
	// id%64 of word id/64); iterating it yields the ascending router
	// worklist of the pipeline stages. A stage adds or removes buffered
	// flits only at the router it visits, so a stage that reads each word
	// once still visits every router that holds flits when its turn comes.
	// busyRouters counts the set bits, so an idle cycle skips the stages.
	busy        []uint64
	busyRouters int
	// activeNIs lists the nodes with a non-empty source queue, sorted
	// ascending; nisDirty notes unsorted appends since the last Step.
	activeNIs []int32
	nisDirty  bool

	depth int32 // cfg.BufDepth
	// vcSlab backs every router's input VCs: router i owns the 5×VCs
	// entries from i*5*VCs. Routers and NIs are likewise single slabs, so
	// building a network costs a handful of allocations however large the
	// mesh.
	vcSlab []vcState

	// portVCs maps a flattened VC index to the mask of every VC on the same
	// input port: switch allocation masks them out once the port has sent
	// its flit for the cycle.
	portVCs []uint32

	// dateline flags the traffic classes whose routing traverses
	// wraparound links; VC allocation then bands the class's VC range into
	// a pre-dateline lower half and a post-dateline upper half, which
	// breaks the ring channel-dependency cycles of the torus.
	dateline [2]bool

	// freeFn is the reusable congestion probe handed to adaptive routing
	// algorithms; binding the probe point through freeFrom/freeClass avoids
	// allocating a fresh closure for every routed packet.
	freeFn    func(Direction) bool
	freeFrom  NodeID
	freeClass int
}

// New constructs a network over mesh with the given configuration: the
// Reset of a zero Network.
func New(mesh Mesh, cfg Config) (*Network, error) {
	n := new(Network)
	if err := n.Reset(mesh, cfg); err != nil {
		return nil, err
	}
	return n, nil
}

// Reset returns n to exactly the state New(mesh, cfg) returns — cycle
// zero, no packets, no handlers, no inspector, zero statistics — so one
// network can carry run after run. Every slab whose capacity suffices
// (routers, VC state, network interfaces, source queues, link pipeline)
// is reused; whatever the previous traffic left in the network is
// dropped. On error n is left unusable until a Reset succeeds.
func (n *Network) Reset(mesh Mesh, cfg Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if mesh.Nodes() == 0 {
		return errors.New("noc: empty mesh")
	}
	for class := 0; class < 2; class++ {
		alg := cfg.classRouting(class)
		if _, wrap := alg.(WrapRouting); wrap && !mesh.Wrap {
			return fmt.Errorf("noc: %s routing requires a wraparound topology", alg.Name())
		}
	}
	n.emptyQueues()
	nodes := mesh.Nodes()
	vcsPerRouter := int(numDirections) * cfg.VCs
	n.mesh, n.cfg = mesh, cfg
	n.now, n.nextID = 0, 0
	n.inspector = nil
	n.stats = Stats{}
	n.inflHead, n.inflLen = 0, 0
	n.liveFlits, n.busyRouters = 0, 0
	n.activeNIs, n.nisDirty = n.activeNIs[:0], false
	n.depth = int32(cfg.BufDepth)
	n.routers = resize(n.routers, nodes)
	n.nis = resizeNIs(n.nis, nodes)
	n.handlers = resize(n.handlers, nodes)
	n.vcSlab = resize(n.vcSlab, nodes*vcsPerRouter)
	n.busy = resize(n.busy, (nodes+63)/64)
	for i := range n.routers {
		r := &n.routers[i]
		r.id = NodeID(i)
		r.vcs = n.vcSlab[i*vcsPerRouter : (i+1)*vcsPerRouter]
		for v := range r.vcs {
			r.vcs[v].rt = r
			r.vcs[v].idx = uint8(v)
		}
	}
	n.portVCs = resize(n.portVCs, vcsPerRouter)
	for i := range n.portVCs {
		port := i / cfg.VCs
		n.portVCs[i] = (1<<cfg.VCs - 1) << (port * cfg.VCs)
	}
	for class := 0; class < 2; class++ {
		_, n.dateline[class] = cfg.classRouting(class).(WrapRouting)
	}
	if n.freeFn == nil {
		n.freeFn = func(d Direction) bool {
			return n.downstreamHasFreeVC(n.freeFrom, d, n.freeClass)
		}
	}
	n.freeFrom, n.freeClass = 0, 0
	return nil
}

// resize returns s with length k and every element zero, reusing its
// backing array when the capacity suffices.
func resize[T any](s []T, k int) []T {
	if cap(s) < k {
		return make([]T, k)
	}
	s = s[:k]
	clear(s)
	return s
}

// resizeNIs returns nis with length k. emptyQueues leaves every NI
// within the backing array empty with its queue's capacity, so unlike
// resize it keeps the elements.
func resizeNIs(nis []nodeNI, k int) []nodeNI {
	if cap(nis) < k {
		return make([]nodeNI, k)
	}
	return nis[:k]
}

// emptyQueues empties the source queues and the link pipeline's slots,
// keeping their capacity, ahead of a Reset that zeroes the rest.
func (n *Network) emptyQueues() {
	for i := range n.nis {
		ni := &n.nis[i]
		clear(ni.queue)
		n.nis[i] = nodeNI{queue: ni.queue[:0]}
	}
	clear(n.inflight)
}

// Mesh returns the network topology.
func (n *Network) Mesh() Mesh { return n.mesh }

// Config returns the network configuration.
func (n *Network) Config() Config { return n.cfg }

// Now returns the network cycle counter.
func (n *Network) Now() uint64 { return n.now }

// Stats returns a snapshot of the accumulated statistics. Stats holds no
// reference types, so the value copy is already defensive.
func (n *Network) Stats() Stats { return n.stats }

// Attach registers the delivery handler for node id, replacing any previous
// handler.
func (n *Network) Attach(id NodeID, h Handler) { n.handlers[id] = h }

// SetInspector installs the hardware-Trojan inspection hook (nil clears).
func (n *Network) SetInspector(i Inspector) { n.inspector = i }

// Inject queues p for transmission from p.Src. The source queue is
// unbounded, so injection never fails for a valid packet.
func (n *Network) Inject(p *Packet) error {
	if !n.mesh.Contains(n.mesh.Coord(p.Src)) || !n.mesh.Contains(n.mesh.Coord(p.Dst)) {
		return fmt.Errorf("noc: inject %v->%v outside %dx%d mesh", p.Src, p.Dst, n.mesh.Width, n.mesh.Height)
	}
	if p.Type == TypeInvalid || p.Type >= numPacketTypes {
		return fmt.Errorf("noc: inject packet with invalid type %d", p.Type)
	}
	if p.Class < 0 || p.Class > 1 {
		return fmt.Errorf("noc: inject packet with invalid class %d", p.Class)
	}
	if p.Class == 1 && n.cfg.AltRouting == nil {
		return fmt.Errorf("noc: class-1 packet without an alternate routing class")
	}
	n.nextID++
	p.ID = n.nextID
	p.InjectedAt = n.now
	p.OriginalPayload = p.Payload
	p.rx = 0
	p.dlDim, p.dlCrossed = 0, false
	ni := &n.nis[p.Src]
	ni.queue = append(ni.queue, p)
	n.liveFlits += p.FlitCount()
	if !ni.active {
		ni.active = true
		n.activeNIs = append(n.activeNIs, int32(p.Src))
		n.nisDirty = true
	}
	n.stats.Injected++
	return nil
}

// Busy reports whether any flit remains anywhere in the network.
func (n *Network) Busy() bool { return n.liveFlits > 0 }

// Step advances the network by one cycle.
func (n *Network) Step() {
	n.now++
	n.deliverArrivals()
	n.injectFromNIs()
	if n.busyRouters > 0 {
		n.routeCompute()
		n.vcAllocate()
		n.switchTraversal()
	}
}

// RunUntilIdle steps until no flits remain or maxCycles elapse. It returns
// the number of cycles stepped and whether the network drained.
func (n *Network) RunUntilIdle(maxCycles uint64) (uint64, bool) {
	var c uint64
	for ; c < maxCycles; c++ {
		if !n.Busy() {
			return c, true
		}
		n.Step()
	}
	return c, !n.Busy()
}

// vcPush buffers the next flit of a VC's owner, marking the VC occupied
// and its router busy.
func (n *Network) vcPush(vc *vcState) {
	vc.n++
	if vc.n == 1 {
		rt := vc.rt
		if rt.occupied == 0 {
			n.busy[rt.id>>6] |= 1 << (rt.id & 63)
			n.busyRouters++
		}
		rt.occupied |= 1 << vc.idx
	}
}

// vcPop removes a VC's head-of-line flit and reports whether it was its
// packet's tail.
func (n *Network) vcPop(vc *vcState) (tail bool) {
	vc.n--
	vc.left++
	if vc.n == 0 {
		rt := vc.rt
		rt.occupied &^= 1 << vc.idx
		if rt.occupied == 0 {
			n.busy[rt.id>>6] &^= 1 << (rt.id & 63)
			n.busyRouters--
		}
	}
	return int(vc.left) == vc.owner.FlitCount()
}

// linkPush appends a flit to the link-pipeline ring, growing it only when
// the sustained in-flight population exceeds every previous peak.
func (n *Network) linkPush(fl inflightFlit) {
	if n.inflLen == len(n.inflight) {
		size := 2 * len(n.inflight)
		if size < 64 {
			size = 64
		}
		grown := make([]inflightFlit, size)
		for i := 0; i < n.inflLen; i++ {
			j := n.inflHead + i
			if j >= len(n.inflight) {
				j -= len(n.inflight)
			}
			grown[i] = n.inflight[j]
		}
		n.inflight = grown
		n.inflHead = 0
	}
	tail := n.inflHead + n.inflLen
	if tail >= len(n.inflight) {
		tail -= len(n.inflight)
	}
	n.inflight[tail] = fl
	n.inflLen++
}

// deliverArrivals moves link-pipeline flits whose latency elapsed into their
// destination input VCs.
func (n *Network) deliverArrivals() {
	for n.inflLen > 0 {
		f := &n.inflight[n.inflHead]
		if f.arriveAt > n.now {
			break // FIFO: constant latency keeps arrivals ordered
		}
		n.vcPush(f.dst)
		f.dst.inflight--
		f.dst = nil
		n.inflHead++
		if n.inflHead == len(n.inflight) {
			n.inflHead = 0
		}
		n.inflLen--
	}
}

// injectFromNIs moves at most one flit per active node from the source
// queue into the router's local input port, retiring drained NIs from the
// worklist.
func (n *Network) injectFromNIs() {
	if n.nisDirty {
		slices.Sort(n.activeNIs)
		n.nisDirty = false
	}
	k := 0
	for _, id := range n.activeNIs {
		ni := &n.nis[id]
		n.injectOne(NodeID(id), ni)
		if ni.qhead < len(ni.queue) {
			n.activeNIs[k] = id
			k++
		} else {
			ni.active = false
			ni.queue = ni.queue[:0]
			ni.qhead = 0
		}
	}
	n.activeNIs = n.activeNIs[:k]
}

// injectOne attempts one flit transfer from node id's source queue.
func (n *Network) injectOne(id NodeID, ni *nodeNI) {
	p := ni.queue[ni.qhead]
	if ni.sent == 0 {
		// Allocate a free local input VC within the packet's class. The
		// Local port is direction 0, so its VCs sit at the start of the
		// flattened slice.
		r := &n.routers[id]
		lo, hi := n.cfg.classVCRange(p.Class)
		var target *vcState
		for v := lo; v < hi; v++ {
			if vc := &r.vcs[v]; vc.free() {
				target = vc
				break
			}
		}
		if target == nil {
			return // all local VCs of this class busy this cycle
		}
		target.owner = p
		ni.injVC = target
	}
	if !ni.injVC.space(n.depth) {
		return
	}
	n.vcPush(ni.injVC)
	if ni.sent++; ni.sent == p.FlitCount() {
		ni.queue[ni.qhead] = nil
		ni.qhead++
		ni.sent = 0
		ni.injVC = nil
	}
}

// routeCompute runs the RC stage: for every busy router's occupied,
// unrouted input VC (its head-of-line flit opens a packet, or it is eating
// a dropped one), inspect (Trojan hook) and route.
func (n *Network) routeCompute() {
	for w, word := range n.busy {
		for ; word != 0; word &= word - 1 {
			n.routeComputeAt(&n.routers[w<<6|bits.TrailingZeros64(word)])
		}
	}
}

// routeComputeAt runs the RC stage at one router.
func (n *Network) routeComputeAt(r *router) {
	for m := r.occupied &^ r.routed(); m != 0; m &= m - 1 {
		vc := &r.vcs[bits.TrailingZeros32(m)]
		if vc.dropping {
			n.consumeDropped(vc)
			continue
		}
		if vc.left != 0 {
			continue
		}
		p := vc.owner
		if !vc.inspected {
			// Fig 2(b): the HT sits between the input buffer and
			// the routing-computation module.
			if n.inspector != nil {
				switch n.inspector.InspectRC(r.id, p) {
				case VerdictDrop:
					vc.dropping = true
					vc.inspected = true
					n.consumeDropped(vc)
					continue
				case VerdictLoopback:
					// The malicious router bounces the packet back
					// to its source; the route below targets the
					// rewritten destination.
					p.Dst = p.Src
					p.LoopedBack = true
				}
			}
			vc.inspected = true
			p.Hops++
		}
		n.freeFrom, n.freeClass = r.id, p.Class
		vc.route = n.cfg.classRouting(p.Class).Route(n.mesh, r.id, p.Dst, n.freeFn)
		vc.routeValid = true
		bit := uint32(1) << vc.idx
		r.req[vc.route] |= bit
		if vc.route != Local {
			r.waiting |= bit
		}
	}
}

// consumeDropped discards buffered flits of a packet condemned by a
// VerdictDrop, releasing the VC once the tail has been eaten. Upstream
// flits still in the link pipeline arrive later and are eaten on
// subsequent cycles.
func (n *Network) consumeDropped(vc *vcState) {
	for vc.n > 0 {
		n.liveFlits--
		if n.vcPop(vc) {
			n.stats.DroppedPackets++
			vc.reset()
			return
		}
	}
}

// downstreamHasFreeVC reports whether the neighbour of id in direction dir
// has any completely free input VC in the packet's class — the congestion
// signal used by the adaptive routing algorithm.
func (n *Network) downstreamHasFreeVC(id NodeID, dir Direction, class int) bool {
	nb, ok := n.mesh.Neighbor(id, dir)
	if !ok {
		return false
	}
	base := int(dir.Opposite()) * n.cfg.VCs
	lo, hi := n.cfg.classVCRange(class)
	vcs := n.routers[nb].vcs
	for v := lo; v < hi; v++ {
		if vcs[base+v].free() {
			return true
		}
	}
	return false
}

// vcAllocate runs the VA stage: routed head packets at busy routers that
// still wait for a downstream VC reserve a free one in the neighbour's
// input port.
func (n *Network) vcAllocate() {
	for w, word := range n.busy {
		for ; word != 0; word &= word - 1 {
			n.vcAllocateAt(&n.routers[w<<6|bits.TrailingZeros64(word)])
		}
	}
}

// vcAllocateAt runs the VA stage at one router.
func (n *Network) vcAllocateAt(r *router) {
	for m := r.waiting & r.occupied; m != 0; m &= m - 1 {
		vc := &r.vcs[bits.TrailingZeros32(m)]
		if vc.left != 0 {
			continue
		}
		nb, ok := n.mesh.Neighbor(r.id, vc.route)
		if !ok {
			// Routing algorithms never route off-mesh; defensive.
			continue
		}
		p := vc.owner
		base := int(vc.route.Opposite()) * n.cfg.VCs
		lo, hi := n.cfg.classVCRange(p.Class)
		dim, crossed, wrap := int8(0), false, false
		if n.dateline[p.Class] {
			// Dateline banding: the class's VC range splits into a
			// pre-dateline lower half and a post-dateline upper half.
			// A packet rides the lower band until its hop crosses the
			// current dimension's wraparound link, then the upper band
			// for the rest of that dimension; switching dimensions
			// resets it. Each unidirectional ring's dependency chain is
			// therefore acyclic, which keeps the torus deadlock-free.
			dim = dimOf(vc.route)
			crossed = p.dlCrossed && p.dlDim == dim
			wrap = n.mesh.wrapsAt(r.id, vc.route)
			half := (hi - lo) / 2
			if crossed || wrap {
				lo += half
			} else {
				hi = lo + half
			}
		}
		dvcs := n.routers[nb].vcs
		for out := lo; out < hi; out++ {
			if dvc := &dvcs[base+out]; dvc.free() {
				dvc.owner = p
				vc.outVCValid = true
				vc.reservedDst = dvc
				r.waiting &^= 1 << vc.idx
				if n.dateline[p.Class] {
					p.dlDim, p.dlCrossed = dim, crossed || wrap
				}
				break
			}
		}
	}
}

// switchTraversal runs SA+ST: per output port of each busy router, one
// flit crosses the switch, respecting one-flit-per-input-port bandwidth,
// then either ejects locally or enters the link pipeline.
func (n *Network) switchTraversal() {
	for w, word := range n.busy {
		for ; word != 0; word &= word - 1 {
			r := &n.routers[w<<6|bits.TrailingZeros64(word)]
			var usedInputs uint32 // VCs of the input ports that sent this cycle
			for out := Local; out < numDirections; out++ {
				n.arbitrateOutput(r, out, &usedInputs)
			}
		}
	}
}

// arbitrateOutput picks one eligible (input, VC) for output port out and
// moves its head-of-line flit. Eligible VCs hold a flit routed to out on
// an input port that has not sent this cycle, and for a neighbour output
// they hold a downstream VC with space. Round robin takes the lowest
// eligible index at or after saPtr[out], else the lowest below it.
func (n *Network) arbitrateOutput(r *router, out Direction, usedInputs *uint32) {
	cand := r.req[out] & r.occupied &^ r.waiting &^ *usedInputs
	if cand == 0 {
		return
	}
	atOrAfter := cand >> r.saPtr[out] << r.saPtr[out]
	for _, m := range [2]uint32{atOrAfter, cand &^ atOrAfter} {
		for ; m != 0; m &= m - 1 {
			i := bits.TrailingZeros32(m)
			vc := &r.vcs[i]
			if out != Local && !vc.reservedDst.space(n.depth) {
				continue
			}
			n.traverse(r, vc, out)
			*usedInputs |= n.portVCs[i]
			r.saPtr[out] = uint8(i + 1)
			if i+1 == len(r.vcs) {
				r.saPtr[out] = 0
			}
			return
		}
	}
}

// traverse moves vc's head-of-line flit across r's switch to output out:
// ejection at the local port, otherwise the link pipeline toward the
// reserved downstream VC.
func (n *Network) traverse(r *router, vc *vcState, out Direction) {
	p := vc.owner
	tail := n.vcPop(vc)
	if out == Local {
		n.eject(r.id, p, tail)
	} else {
		vc.reservedDst.inflight++
		n.linkPush(inflightFlit{
			arriveAt: n.now + uint64(n.cfg.RouterCycles+n.cfg.LinkCycles),
			dst:      vc.reservedDst,
		})
	}
	if tail {
		vc.reset()
	}
}

// dimOf maps a direction to its mesh dimension for dateline tracking:
// 1 for the X axis (east/west), 2 for Y (north/south), 0 for Local.
func dimOf(d Direction) int8 {
	switch d {
	case East, West:
		return 1
	case North, South:
		return 2
	default:
		return 0
	}
}

// eject consumes a flit of p at its destination; delivering the tail flit
// completes the packet and fires the node handler.
func (n *Network) eject(id NodeID, p *Packet, tail bool) {
	p.rx++
	n.liveFlits--
	if !tail {
		return
	}
	if p.rx != p.FlitCount() {
		// Wormhole routing delivers flits of one packet in order on one
		// path; a mismatch indicates a simulator bug.
		panic(fmt.Sprintf("noc: packet %d ejected %d of %d flits", p.ID, p.rx, p.FlitCount()))
	}
	p.DeliveredAt = n.now
	n.stats.Delivered++
	n.stats.HopSum += uint64(p.Hops)
	n.stats.DeliveredBy[p.Type]++
	n.stats.LatencySumBy[p.Type] += p.DeliveredAt - p.InjectedAt
	if p.Type == TypePowerReq && p.Tampered {
		n.stats.TamperedPowerReq++
	}
	if p.LoopedBack {
		n.stats.LoopedBack++
	}
	if h := n.handlers[id]; h != nil {
		h(p)
	}
}
