package noc

import "fmt"

// The seed stepper: the exhaustive-sweep network the reproduction started
// from, kept as an independent oracle for the production stepper. Every
// cycle it visits every router and every input VC of every port, with
// per-VC slice fifos that store every flit and no worklists or bitmasks,
// so it shares none of the production stepper's bookkeeping. The
// production stepper must match it cycle for cycle on plain meshes
// (FuzzStepperOracle). Adapted from the seed only where today's types
// differ: Stats holds arrays, Config comes from the production package,
// and the flits below, which the production stepper no longer stores,
// dropped their unread sequence number. The seed predates the torus, so
// it has no dateline VC banding.

// FlitKind distinguishes head, body, and tail flits of a wormhole packet.
type FlitKind int

// Flit kinds. A single-flit packet is HeadTail.
const (
	HeadFlit FlitKind = iota + 1
	BodyFlit
	TailFlit
	HeadTailFlit
)

// Flit is the unit of flow control. All flits of a packet share the Packet
// pointer; only head flits trigger routing computation (and therefore the
// Trojan inspection point).
type Flit struct {
	Kind   FlitKind
	Packet *Packet
}

// IsHead reports whether the flit opens a packet.
func (f *Flit) IsHead() bool { return f.Kind == HeadFlit || f.Kind == HeadTailFlit }

// IsTail reports whether the flit closes a packet.
func (f *Flit) IsTail() bool { return f.Kind == TailFlit || f.Kind == HeadTailFlit }

// Flits serialises p into its wormhole flits.
func Flits(p *Packet) []*Flit {
	n := p.FlitCount()
	if n == 1 {
		return []*Flit{{Kind: HeadTailFlit, Packet: p}}
	}
	fs := make([]*Flit, n)
	for i := 0; i < n; i++ {
		kind := BodyFlit
		switch i {
		case 0:
			kind = HeadFlit
		case n - 1:
			kind = TailFlit
		}
		fs[i] = &Flit{Kind: kind, Packet: p}
	}
	return fs
}

// seedVC is one input virtual channel of a seed router.
type seedVC struct {
	fifo []*Flit
	// owner is the packet holding this VC (wormhole allocation). It is set
	// when an upstream VC allocation reserves this channel and cleared when
	// the packet's tail flit departs the fifo.
	owner *Packet
	// inflight counts flits sent toward this VC that have not yet arrived.
	inflight int

	// Per-packet routing state for the packet at the head of the fifo.
	route       Direction
	routeValid  bool
	outVC       int
	outVCValid  bool
	inspected   bool
	dropping    bool    // consume this packet's flits instead of routing them
	reservedDst *seedVC // downstream VC reserved by VC allocation
}

func (v *seedVC) reset() {
	v.owner = nil
	v.route = Local
	v.routeValid = false
	v.outVC = 0
	v.outVCValid = false
	v.inspected = false
	v.dropping = false
	v.reservedDst = nil
}

// free reports whether the VC can accept a new packet's head flit.
func (v *seedVC) free() bool { return v.owner == nil && len(v.fifo) == 0 && v.inflight == 0 }

// space reports whether one more flit fits (buffer + in-flight).
func (v *seedVC) space(depth int) bool { return len(v.fifo)+v.inflight < depth }

type seedRouter struct {
	id     NodeID
	inputs [numDirections][]*seedVC
	// saPtr is the round-robin switch-allocation pointer per output port,
	// indexing the flattened (input port, VC) candidate list.
	saPtr [numDirections]int
}

// seedInflight is a flit traversing the router pipeline + link toward a
// downstream input VC. Latency is constant, so a FIFO keeps arrival order.
type seedInflight struct {
	arriveAt uint64
	flit     *Flit
	dst      *seedVC
}

// seedNI is the per-node network interface: an unbounded injection queue
// (source queue) plus reassembly state for ejection.
type seedNI struct {
	queue   []*Flit
	injVC   *seedVC // VC currently allocated to the head-of-queue packet
	rxFlits map[uint64]int
}

// seedNetwork is the seed's cycle-stepped NoC.
type seedNetwork struct {
	mesh      Mesh
	cfg       Config
	now       uint64
	nextID    uint64
	routers   []*seedRouter
	nis       []*seedNI
	inflight  []seedInflight
	handlers  []Handler
	inspector Inspector
	stats     Stats
}

func newSeedNetwork(mesh Mesh, cfg Config) *seedNetwork {
	n := &seedNetwork{
		mesh:     mesh,
		cfg:      cfg,
		routers:  make([]*seedRouter, mesh.Nodes()),
		nis:      make([]*seedNI, mesh.Nodes()),
		handlers: make([]Handler, mesh.Nodes()),
	}
	for i := range n.routers {
		r := &seedRouter{id: NodeID(i)}
		for d := 0; d < int(numDirections); d++ {
			r.inputs[d] = make([]*seedVC, cfg.VCs)
			for v := range r.inputs[d] {
				r.inputs[d][v] = &seedVC{}
			}
		}
		n.routers[i] = r
		n.nis[i] = &seedNI{rxFlits: make(map[uint64]int)}
	}
	return n
}

func (n *seedNetwork) Now() uint64                 { return n.now }
func (n *seedNetwork) Stats() Stats                { return n.stats }
func (n *seedNetwork) Attach(id NodeID, h Handler) { n.handlers[id] = h }
func (n *seedNetwork) SetInspector(i Inspector)    { n.inspector = i }

// Inject queues p for transmission from p.Src.
func (n *seedNetwork) Inject(p *Packet) error {
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
	n.nis[p.Src].queue = append(n.nis[p.Src].queue, Flits(p)...)
	n.stats.Injected++
	return nil
}

// Busy reports whether any flit remains anywhere in the network.
func (n *seedNetwork) Busy() bool {
	if len(n.inflight) > 0 {
		return true
	}
	for i, ni := range n.nis {
		if len(ni.queue) > 0 {
			return true
		}
		r := n.routers[i]
		for d := 0; d < int(numDirections); d++ {
			for _, vc := range r.inputs[d] {
				if len(vc.fifo) > 0 {
					return true
				}
			}
		}
	}
	return false
}

// Step advances the network by one cycle.
func (n *seedNetwork) Step() {
	n.now++
	n.deliverArrivals()
	n.injectFromNIs()
	n.routeCompute()
	n.vcAllocate()
	n.switchTraversal()
}

func (n *seedNetwork) deliverArrivals() {
	i := 0
	for ; i < len(n.inflight); i++ {
		f := n.inflight[i]
		if f.arriveAt > n.now {
			break // FIFO: constant latency keeps arrivals ordered
		}
		f.dst.fifo = append(f.dst.fifo, f.flit)
		f.dst.inflight--
	}
	if i > 0 {
		n.inflight = n.inflight[i:]
		if len(n.inflight) == 0 {
			n.inflight = nil
		}
	}
}

func (n *seedNetwork) injectFromNIs() {
	for id, ni := range n.nis {
		if len(ni.queue) == 0 {
			continue
		}
		f := ni.queue[0]
		r := n.routers[id]
		if f.IsHead() {
			// Allocate a free local input VC within the packet's class.
			lo, hi := n.cfg.classVCRange(f.Packet.Class)
			var target *seedVC
			for _, vc := range r.inputs[Local][lo:hi] {
				if vc.free() {
					target = vc
					break
				}
			}
			if target == nil {
				continue // all local VCs of this class busy this cycle
			}
			target.owner = f.Packet
			ni.injVC = target
		}
		if ni.injVC == nil || !ni.injVC.space(n.cfg.BufDepth) {
			continue
		}
		ni.injVC.fifo = append(ni.injVC.fifo, f)
		ni.queue = ni.queue[1:]
		if len(ni.queue) == 0 {
			ni.queue = nil
		}
		if f.IsTail() {
			ni.injVC = nil
		}
	}
}

func (n *seedNetwork) routeCompute() {
	for _, r := range n.routers {
		for d := 0; d < int(numDirections); d++ {
			for _, vc := range r.inputs[d] {
				if vc.dropping {
					n.consumeDropped(vc)
					continue
				}
				if len(vc.fifo) == 0 || vc.routeValid {
					continue
				}
				head := vc.fifo[0]
				if !head.IsHead() {
					continue
				}
				p := head.Packet
				if !vc.inspected {
					if n.inspector != nil {
						switch n.inspector.InspectRC(r.id, p) {
						case VerdictDrop:
							vc.dropping = true
							vc.inspected = true
							n.consumeDropped(vc)
							continue
						case VerdictLoopback:
							p.Dst = p.Src
							p.LoopedBack = true
						}
					}
					vc.inspected = true
					p.Hops++
				}
				free := func(dir Direction) bool { return n.downstreamHasFreeVC(r.id, dir, p.Class) }
				vc.route = n.cfg.classRouting(p.Class).Route(n.mesh, r.id, p.Dst, free)
				vc.routeValid = true
			}
		}
	}
}

func (n *seedNetwork) consumeDropped(vc *seedVC) {
	for len(vc.fifo) > 0 {
		f := vc.fifo[0]
		vc.fifo = vc.fifo[1:]
		if len(vc.fifo) == 0 {
			vc.fifo = nil
		}
		if f.IsTail() {
			n.stats.DroppedPackets++
			vc.reset()
			return
		}
	}
}

func (n *seedNetwork) downstreamHasFreeVC(id NodeID, dir Direction, class int) bool {
	nb, ok := n.mesh.Neighbor(id, dir)
	if !ok {
		return false
	}
	in := dir.Opposite()
	lo, hi := n.cfg.classVCRange(class)
	for _, vc := range n.routers[nb].inputs[in][lo:hi] {
		if vc.free() {
			return true
		}
	}
	return false
}

func (n *seedNetwork) vcAllocate() {
	for _, r := range n.routers {
		for d := 0; d < int(numDirections); d++ {
			for _, vc := range r.inputs[d] {
				if !vc.routeValid || vc.outVCValid || vc.route == Local {
					continue
				}
				if len(vc.fifo) == 0 || !vc.fifo[0].IsHead() {
					continue
				}
				nb, ok := n.mesh.Neighbor(r.id, vc.route)
				if !ok {
					continue
				}
				in := vc.route.Opposite()
				lo, hi := n.cfg.classVCRange(vc.fifo[0].Packet.Class)
				for outIdx, dvc := range n.routers[nb].inputs[in][lo:hi] {
					if dvc.free() {
						dvc.owner = vc.fifo[0].Packet
						vc.outVC = lo + outIdx
						vc.outVCValid = true
						vc.reservedDst = dvc
						break
					}
				}
			}
		}
	}
}

func (n *seedNetwork) switchTraversal() {
	for _, r := range n.routers {
		var usedInput [numDirections]bool
		for out := 0; out < int(numDirections); out++ {
			n.arbitrateOutput(r, Direction(out), &usedInput)
		}
	}
}

func (n *seedNetwork) arbitrateOutput(r *seedRouter, out Direction, usedInput *[numDirections]bool) {
	total := int(numDirections) * n.cfg.VCs
	start := r.saPtr[out]
	for k := 0; k < total; k++ {
		idx := (start + k) % total
		d := Direction(idx / n.cfg.VCs)
		vc := r.inputs[d][idx%n.cfg.VCs]
		if usedInput[d] || len(vc.fifo) == 0 || !vc.routeValid || vc.route != out {
			continue
		}
		if out != Local {
			if !vc.outVCValid || !vc.reservedDst.space(n.cfg.BufDepth) {
				continue
			}
		}
		f := vc.fifo[0]
		vc.fifo = vc.fifo[1:]
		if len(vc.fifo) == 0 {
			vc.fifo = nil
		}
		usedInput[d] = true
		r.saPtr[out] = (idx + 1) % total

		if out == Local {
			n.eject(r.id, f)
		} else {
			vc.reservedDst.inflight++
			n.inflight = append(n.inflight, seedInflight{
				arriveAt: n.now + uint64(n.cfg.RouterCycles+n.cfg.LinkCycles),
				flit:     f,
				dst:      vc.reservedDst,
			})
		}
		if f.IsTail() {
			vc.reset()
		}
		return
	}
}

func (n *seedNetwork) eject(id NodeID, f *Flit) {
	ni := n.nis[id]
	p := f.Packet
	ni.rxFlits[p.ID]++
	if !f.IsTail() {
		return
	}
	if ni.rxFlits[p.ID] != p.FlitCount() {
		panic(fmt.Sprintf("noc: packet %d ejected %d of %d flits", p.ID, ni.rxFlits[p.ID], p.FlitCount()))
	}
	delete(ni.rxFlits, p.ID)
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
