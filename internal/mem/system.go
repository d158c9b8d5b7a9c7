package mem

import (
	"fmt"
	"slices"

	"repro/internal/noc"
)

// Env is the environment the memory system runs in: a clock, a queue of
// future protocol steps, and a fabric to send packets into. The core
// simulator implements it over the event kernel and the NoC; tests may
// use a loopback fake.
type Env interface {
	// Now returns the current cycle.
	Now() uint64
	// Schedule hands ev to (*System).Fire after delay cycles; events due
	// in the same cycle fire in the order they were scheduled.
	Schedule(delay uint64, ev Event)
	// Send injects a copy of p into the NoC.
	Send(p noc.Packet)
}

// Config holds the memory-hierarchy parameters of Table I.
type Config struct {
	// L1Sets and L1Ways give the private L1-D geometry (16 KB, 2-way, 32 B
	// lines → 256×2).
	L1Sets, L1Ways int
	// L2Sets and L2Ways give the per-node shared L2 slice geometry. Table I
	// says 64 KB per slice with 64 B lines; this model keys both levels at
	// the 32 B L1-line granularity, so the slice is 2048 lines → 512×4.
	L2Sets, L2Ways int
	// L2Latency is the L2 slice access latency in cycles (Table I: 6).
	L2Latency uint64
	// MemLatency is the main-memory latency in cycles (Table I: 200).
	MemLatency uint64
	// MaxOutstanding is the per-core MSHR count.
	MaxOutstanding int
}

// DefaultConfig returns the Table I memory configuration.
func DefaultConfig() Config {
	l1s, l1w := L1DGeometry()
	return Config{
		L1Sets: l1s, L1Ways: l1w,
		L2Sets: 512, L2Ways: 4,
		L2Latency:      6,
		MemLatency:     200,
		MaxOutstanding: 8,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.L1Sets <= 0 || c.L1Ways <= 0 || c.L2Sets <= 0 || c.L2Ways <= 0 {
		return fmt.Errorf("mem: nonpositive cache geometry")
	}
	if c.MaxOutstanding <= 0 {
		return fmt.Errorf("mem: need at least one MSHR")
	}
	return nil
}

// request kinds carried in MemReadReq Options[0].
const (
	reqGetS uint32 = 0 // read, shared
	reqGetX uint32 = 1 // write, exclusive
)

// reqOptions and grantOptions are the one-word Options fields of requests
// (by kind) and data replies (by granted state). Packets share them:
// nothing writes a packet's Options, and FlitCount reads only its length.
var (
	reqOptions   = [...][]uint32{reqGetS: {reqGetS}, reqGetX: {reqGetX}}
	grantOptions = [...][]uint32{
		Shared:    {uint32(Shared)},
		Exclusive: {uint32(Exclusive)},
		Modified:  {uint32(Modified)},
	}
)

type dirState int

const (
	dirUncached dirState = iota
	dirShared
	dirOwned
)

// dirEntry is the full-map directory record for one line at its home
// node. The zero entry is an uncached line.
type dirEntry struct {
	state   dirState
	sharers []noc.NodeID // ascending, while state is dirShared
	owner   noc.NodeID
}

// homeTxn serialises protocol transactions per line at the home node.
type homeTxn struct {
	kind      uint32 // reqGetS, reqGetX, or wbKind
	requester noc.NodeID
	waitAcks  int
	queue     []queuedReq
}

const wbKind uint32 = 2

type queuedReq struct {
	kind      uint32
	requester noc.NodeID
}

// waiter is one core-side memory operation coalesced into an MSHR.
type waiter struct {
	issuedAt uint64
	write    bool
}

type mshrEntry struct {
	write   bool
	waiters []waiter
}

// recycler owns every MSHR entry or home transaction a system has made.
// get hands back the entry put last, before it allocates one; the
// caller empties what it gets. reset frees every entry in the order they
// were made, so the entries a run gets, and the storage they kept, do not
// depend on what the previous run left in flight.
type recycler[T any] struct {
	all, free []*T
}

func (r *recycler[T]) get() *T {
	if k := len(r.free); k > 0 {
		x := r.free[k-1]
		r.free = r.free[:k-1]
		return x
	}
	x := new(T)
	r.all = append(r.all, x)
	return x
}

func (r *recycler[T]) put(x *T) { r.free = append(r.free, x) }

func (r *recycler[T]) reset() { r.free = append(r.free[:0], r.all...) }

// Event is one deferred step of the protocol at a home node: the system
// schedules it through Env, and the environment hands it back to Fire
// when it falls due. Events are plain records, so scheduling one
// allocates nothing.
type Event struct {
	kind  eventKind
	home  noc.NodeID
	addr  uint64
	req   noc.NodeID
	grant LineState
}

type eventKind uint8

const (
	// evProcess: the L2 access latency has passed; consult the directory.
	evProcess eventKind = iota
	// evFill: main memory answered; install the line in the L2 slice and
	// grant it.
	evFill
)

// NodeStats counts per-node memory events.
type NodeStats struct {
	Reads, Writes     uint64
	L1Hits            uint64
	MissesCompleted   uint64
	MissLatencySum    uint64
	Writebacks        uint64
	InvalidationsRecv uint64
}

// AvgMissLatency returns the mean L1-miss round-trip latency in cycles.
func (s NodeStats) AvgMissLatency() float64 {
	if s.MissesCompleted == 0 {
		return 0
	}
	return float64(s.MissLatencySum) / float64(s.MissesCompleted)
}

type nodeState struct {
	l1, l2 Cache
	dir    map[uint64]dirEntry
	busy   map[uint64]*homeTxn
	mshr   map[uint64]*mshrEntry
	stats  NodeStats
}

// System is the distributed MESI memory hierarchy. One instance covers the
// whole chip: node i's private L1, L2 slice, and directory partition live in
// nodes[i]. It is not safe for concurrent use.
type System struct {
	mesh  noc.Mesh
	cfg   Config
	env   Env
	nodes []nodeState
	mshrs recycler[mshrEntry]
	txns  recycler[homeTxn]
}

// NewSystem builds the hierarchy over mesh: the reset of a zero System.
func NewSystem(mesh noc.Mesh, cfg Config, env Env) (*System, error) {
	s := new(System)
	if err := s.Reset(mesh, cfg, env); err != nil {
		return nil, err
	}
	return s, nil
}

// Reset makes s the hierarchy NewSystem(mesh, cfg, env) returns — empty
// caches and directories, nothing in flight, zero statistics — keeping
// its storage: the nodes, the caches' set indices and slabs, the maps,
// and every MSHR entry and home transaction, in flight or not. Storage
// is reallocated only when the mesh or a cache geometry outgrows it.
func (s *System) Reset(mesh noc.Mesh, cfg Config, env Env) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	s.mesh, s.cfg, s.env = mesh, cfg, env
	n := mesh.Nodes()
	if k := cap(s.nodes); k < n {
		s.nodes = append(s.nodes[:k], make([]nodeState, n-k)...)
	}
	s.nodes = s.nodes[:n]
	for i := range s.nodes {
		ns := &s.nodes[i]
		ns.l1.reset(cfg.L1Sets, cfg.L1Ways)
		ns.l2.reset(cfg.L2Sets, cfg.L2Ways)
		if ns.dir == nil {
			ns.dir = make(map[uint64]dirEntry)
			ns.busy = make(map[uint64]*homeTxn)
			ns.mshr = make(map[uint64]*mshrEntry)
		}
		clear(ns.dir)
		clear(ns.busy)
		clear(ns.mshr)
		ns.stats = NodeStats{}
	}
	s.mshrs.reset()
	s.txns.reset()
	return nil
}

// Home returns the home node of a line (address-interleaved L2).
func (s *System) Home(addr uint64) noc.NodeID {
	return noc.NodeID(addr % uint64(s.mesh.Nodes()))
}

// Stats returns node id's counters.
func (s *System) Stats(id noc.NodeID) NodeStats { return s.nodes[id].stats }

// Outstanding returns the number of in-flight L1 misses at node id.
func (s *System) Outstanding(id noc.NodeID) int { return len(s.nodes[id].mshr) }

// Issue performs one memory operation (line-granularity read or write) at
// node. It returns false when the operation cannot be accepted this cycle
// (MSHRs full, or a write colliding with an in-flight read) — the caller
// models this as a core stall and retries.
func (s *System) Issue(node noc.NodeID, addr uint64, write bool) bool {
	ns := &s.nodes[node]
	if write {
		ns.stats.Writes++
	} else {
		ns.stats.Reads++
	}
	st := ns.l1.Lookup(addr)
	switch {
	case st == Modified, st == Exclusive && !write, st == Shared && !write:
		ns.l1.Touch(addr, s.env.Now())
		ns.stats.L1Hits++
		return true
	case st == Exclusive && write:
		// Silent E→M upgrade: the MESI win, no traffic.
		ns.l1.SetState(addr, Modified)
		ns.l1.Touch(addr, s.env.Now())
		ns.stats.L1Hits++
		return true
	}
	// Miss (or S-hit write needing an upgrade): go through the MSHR.
	if e, ok := ns.mshr[addr]; ok {
		if write && !e.write {
			// Cannot coalesce a write into an in-flight read; the refused
			// write is retried, and counted, when it is accepted.
			ns.stats.Writes--
			return false
		}
		e.waiters = append(e.waiters, waiter{issuedAt: s.env.Now(), write: write})
		return true
	}
	if len(ns.mshr) >= s.cfg.MaxOutstanding {
		if write {
			ns.stats.Writes--
		} else {
			ns.stats.Reads--
		}
		return false
	}
	e := s.mshrs.get()
	e.write = write
	e.waiters = append(e.waiters[:0], waiter{issuedAt: s.env.Now(), write: write})
	ns.mshr[addr] = e
	kind := reqGetS
	if write {
		kind = reqGetX
	}
	s.env.Send(noc.Packet{
		Src: node, Dst: s.Home(addr), Type: noc.TypeMemReadReq,
		Payload: uint32(addr), Options: reqOptions[kind],
	})
	return true
}

// HandlePacket dispatches a memory-protocol packet delivered at its
// destination node. The caller (the chip model) wires every node's NoC
// handler to this method; nothing keeps p once it returns.
func (s *System) HandlePacket(p *noc.Packet) {
	addr := uint64(p.Payload)
	switch p.Type {
	case noc.TypeMemReadReq:
		s.homeReceive(p.Dst, queuedReq{kind: p.Options[0], requester: p.Src}, addr)
	case noc.TypeMemWriteReq:
		s.homeReceive(p.Dst, queuedReq{kind: wbKind, requester: p.Src}, addr)
	case noc.TypeMemReadReply:
		s.completeMiss(p.Dst, addr, LineState(p.Options[0]))
	case noc.TypeMemWriteAck:
		// Writeback completion: fire-and-forget at the requester.
	case noc.TypeCohInvalidate:
		s.invalidateAt(p.Dst, addr, p.Src)
	case noc.TypeCohAck:
		s.ackAt(p.Dst, addr)
	}
}

// Fire runs a protocol step the system scheduled, once it is due.
func (s *System) Fire(ev Event) {
	switch ev.kind {
	case evProcess:
		s.homeProcess(ev.home, ev.addr)
	case evFill:
		s.nodes[ev.home].l2.Insert(ev.addr, Shared, s.env.Now())
		s.homeGrant(ev.home, ev.addr, ev.req, ev.grant)
	}
}

// homeReceive enqueues or starts a home-side transaction for addr.
func (s *System) homeReceive(home noc.NodeID, req queuedReq, addr uint64) {
	ns := &s.nodes[home]
	if txn, busy := ns.busy[addr]; busy {
		txn.queue = append(txn.queue, req)
		return
	}
	txn := s.txns.get()
	*txn = homeTxn{kind: req.kind, requester: req.requester, queue: txn.queue[:0]}
	ns.busy[addr] = txn
	s.env.Schedule(s.cfg.L2Latency, Event{kind: evProcess, home: home, addr: addr})
}

// homeProcess runs after the L2 access latency and consults the directory.
func (s *System) homeProcess(home noc.NodeID, addr uint64) {
	ns := &s.nodes[home]
	txn := ns.busy[addr]
	entry := ns.dir[addr]
	switch txn.kind {
	case wbKind:
		// Owner writes back a Modified line: install in L2, release
		// ownership. A stale writeback (ownership already recalled) still
		// gets an ack.
		if entry.state == dirOwned && entry.owner == txn.requester {
			entry.state = dirUncached
		}
		ns.dir[addr] = entry
		ns.l2.Insert(addr, Modified, s.env.Now())
		s.env.Send(noc.Packet{Src: home, Dst: txn.requester, Type: noc.TypeMemWriteAck, Payload: uint32(addr)})
		s.homeFinish(home, addr)

	case reqGetS:
		switch entry.state {
		case dirOwned:
			if entry.owner == txn.requester {
				// Requester lost the line silently (L1 eviction of E) and
				// re-reads: grant E again.
				s.homeGrant(home, addr, txn.requester, Exclusive)
				return
			}
			// Recall the line from its owner, then grant exclusively.
			txn.waitAcks = 1
			s.env.Send(noc.Packet{Src: home, Dst: entry.owner, Type: noc.TypeCohInvalidate, Payload: uint32(addr)})
		case dirShared:
			s.homeGrant(home, addr, txn.requester, Shared)
		default: // dirUncached
			s.fetchIntoL2ThenGrant(home, addr, txn.requester, Exclusive)
		}

	case reqGetX:
		switch entry.state {
		case dirOwned:
			if entry.owner == txn.requester {
				s.homeGrant(home, addr, txn.requester, Modified)
				return
			}
			txn.waitAcks = 1
			s.env.Send(noc.Packet{Src: home, Dst: entry.owner, Type: noc.TypeCohInvalidate, Payload: uint32(addr)})
		case dirShared:
			// The sharer list ascends, so the invalidations leave in node
			// order.
			acks := 0
			for _, sh := range entry.sharers {
				if sh == txn.requester {
					continue
				}
				acks++
				s.env.Send(noc.Packet{Src: home, Dst: sh, Type: noc.TypeCohInvalidate, Payload: uint32(addr)})
			}
			if acks == 0 {
				s.homeGrant(home, addr, txn.requester, Modified)
				return
			}
			txn.waitAcks = acks
		default: // dirUncached
			s.fetchIntoL2ThenGrant(home, addr, txn.requester, Modified)
		}
	}
}

// fetchIntoL2ThenGrant models the L2 lookup for an uncached line: an L2 hit
// grants immediately, a miss pays the main-memory latency and installs the
// line in the slice.
func (s *System) fetchIntoL2ThenGrant(home noc.NodeID, addr uint64, req noc.NodeID, grant LineState) {
	ns := &s.nodes[home]
	if ns.l2.Lookup(addr) != Invalid {
		ns.l2.Touch(addr, s.env.Now())
		s.homeGrant(home, addr, req, grant)
		return
	}
	s.env.Schedule(s.cfg.MemLatency, Event{kind: evFill, home: home, addr: addr, req: req, grant: grant})
}

// homeGrant sends the data reply, updates the directory, and unblocks the
// line.
func (s *System) homeGrant(home noc.NodeID, addr uint64, req noc.NodeID, grant LineState) {
	ns := &s.nodes[home]
	entry := ns.dir[addr]
	switch grant {
	case Shared:
		if entry.state != dirShared {
			entry.state = dirShared
			entry.sharers = entry.sharers[:0]
		}
		if i, found := slices.BinarySearch(entry.sharers, req); !found {
			entry.sharers = slices.Insert(entry.sharers, i, req)
		}
	case Exclusive, Modified:
		entry.state = dirOwned
		entry.owner = req
		entry.sharers = entry.sharers[:0]
	}
	ns.dir[addr] = entry
	s.env.Send(noc.Packet{
		Src: home, Dst: req, Type: noc.TypeMemReadReply,
		Payload: uint32(addr), Options: grantOptions[grant],
	})
	s.homeFinish(home, addr)
}

// homeFinish releases the per-line lock and starts the next queued
// transaction, if any, in the same record.
func (s *System) homeFinish(home noc.NodeID, addr uint64) {
	ns := &s.nodes[home]
	txn := ns.busy[addr]
	if txn == nil {
		return
	}
	if len(txn.queue) == 0 {
		delete(ns.busy, addr)
		s.txns.put(txn)
		return
	}
	next := txn.queue[0]
	txn.queue = txn.queue[:copy(txn.queue, txn.queue[1:])]
	txn.kind, txn.requester, txn.waitAcks = next.kind, next.requester, 0
	s.env.Schedule(s.cfg.L2Latency, Event{kind: evProcess, home: home, addr: addr})
}

// invalidateAt handles a CohInvalidate at a (possibly former) line holder.
func (s *System) invalidateAt(node noc.NodeID, addr uint64, home noc.NodeID) {
	ns := &s.nodes[node]
	ns.l1.Invalidate(addr)
	ns.stats.InvalidationsRecv++
	// A Modified line's data rides back with the ack in this model.
	s.env.Send(noc.Packet{Src: node, Dst: home, Type: noc.TypeCohAck, Payload: uint32(addr)})
}

// ackAt handles a CohAck at the home node.
func (s *System) ackAt(home noc.NodeID, addr uint64) {
	txn, ok := s.nodes[home].busy[addr]
	if !ok || txn.waitAcks == 0 {
		return // vacuous ack from a stale sharer
	}
	txn.waitAcks--
	if txn.waitAcks > 0 {
		return
	}
	grant := Modified
	if txn.kind == reqGetS {
		// After a recall the requester is the only holder: grant Exclusive.
		grant = Exclusive
	}
	s.homeGrant(home, addr, txn.requester, grant)
}

// completeMiss installs the granted line at the requester and retires all
// coalesced waiters.
func (s *System) completeMiss(node noc.NodeID, addr uint64, grant LineState) {
	ns := &s.nodes[node]
	e, ok := ns.mshr[addr]
	if !ok {
		return // defensive: duplicate reply
	}
	delete(ns.mshr, addr)
	evAddr, evState, evicted := ns.l1.Insert(addr, grant, s.env.Now())
	if evicted && evState == Modified {
		ns.stats.Writebacks++
		s.env.Send(noc.Packet{Src: node, Dst: s.Home(evAddr), Type: noc.TypeMemWriteReq, Payload: uint32(evAddr)})
	}
	now := s.env.Now()
	for _, w := range e.waiters {
		ns.stats.MissesCompleted++
		ns.stats.MissLatencySum += now - w.issuedAt
	}
	s.mshrs.put(e)
}
