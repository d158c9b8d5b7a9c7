package mem

import (
	"fmt"

	"repro/internal/noc"
)

// Env is the environment the memory system runs in: a clock, a way to
// schedule future work, and a fabric to inject packets into. The core
// simulator implements it over the event kernel and the NoC; tests may use
// a loopback fake.
type Env interface {
	// Now returns the current cycle.
	Now() uint64
	// Schedule runs fn after delay cycles.
	Schedule(delay uint64, fn func())
	// Inject sends a packet into the NoC.
	Inject(p *noc.Packet) error
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

// dirEntry is the full-map directory record for one line at its home node.
type dirEntry struct {
	state   dirState
	sharers map[noc.NodeID]struct{}
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
	l1    *Cache
	l2    *Cache
	dir   map[uint64]*dirEntry
	busy  map[uint64]*homeTxn
	mshr  map[uint64]*mshrEntry
	stats NodeStats
}

// System is the distributed MESI memory hierarchy. One instance covers the
// whole chip: node i's private L1, L2 slice, and directory partition live in
// nodes[i]. It is not safe for concurrent use.
type System struct {
	mesh  noc.Mesh
	cfg   Config
	env   Env
	nodes []*nodeState
	// freeMSHRs holds retired MSHR entries, their waiter lists truncated,
	// for the next miss.
	freeMSHRs []*mshrEntry
}

// NewSystem builds the hierarchy over mesh.
func NewSystem(mesh noc.Mesh, cfg Config, env Env) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &System{mesh: mesh, cfg: cfg, env: env, nodes: make([]*nodeState, mesh.Nodes())}
	for i := range s.nodes {
		s.nodes[i] = &nodeState{
			l1:   NewCache(cfg.L1Sets, cfg.L1Ways),
			l2:   NewCache(cfg.L2Sets, cfg.L2Ways),
			dir:  make(map[uint64]*dirEntry),
			busy: make(map[uint64]*homeTxn),
			mshr: make(map[uint64]*mshrEntry),
		}
	}
	return s, nil
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
	ns := s.nodes[node]
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
	e := s.takeMSHR()
	e.write = write
	e.waiters = append(e.waiters, waiter{issuedAt: s.env.Now(), write: write})
	ns.mshr[addr] = e
	kind := reqGetS
	if write {
		kind = reqGetX
	}
	s.send(&noc.Packet{
		Src: node, Dst: s.Home(addr), Type: noc.TypeMemReadReq,
		Payload: uint32(addr), Options: reqOptions[kind],
	})
	return true
}

// HandlePacket dispatches a memory-protocol packet delivered at its
// destination node. The caller (the chip model) wires every node's NoC
// handler to this method.
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

func (s *System) send(p *noc.Packet) {
	if err := s.env.Inject(p); err != nil {
		// Inject only fails for malformed packets; that is a simulator bug,
		// not a runtime condition.
		panic(fmt.Sprintf("mem: inject: %v", err))
	}
}

// homeReceive enqueues or starts a home-side transaction for addr.
func (s *System) homeReceive(home noc.NodeID, req queuedReq, addr uint64) {
	ns := s.nodes[home]
	if txn, busy := ns.busy[addr]; busy {
		txn.queue = append(txn.queue, req)
		return
	}
	ns.busy[addr] = &homeTxn{kind: req.kind, requester: req.requester}
	s.env.Schedule(s.cfg.L2Latency, func() { s.homeProcess(home, addr) })
}

// homeProcess runs after the L2 access latency and consults the directory.
func (s *System) homeProcess(home noc.NodeID, addr uint64) {
	ns := s.nodes[home]
	txn := ns.busy[addr]
	entry, ok := ns.dir[addr]
	if !ok {
		entry = &dirEntry{state: dirUncached}
		ns.dir[addr] = entry
	}
	switch txn.kind {
	case wbKind:
		// Owner writes back a Modified line: install in L2, release
		// ownership. A stale writeback (ownership already recalled) still
		// gets an ack.
		if entry.state == dirOwned && entry.owner == txn.requester {
			entry.state = dirUncached
			entry.sharers = nil
		}
		ns.l2.Insert(addr, Modified, s.env.Now())
		s.send(&noc.Packet{Src: home, Dst: txn.requester, Type: noc.TypeMemWriteAck, Payload: uint32(addr)})
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
			s.send(&noc.Packet{Src: home, Dst: entry.owner, Type: noc.TypeCohInvalidate, Payload: uint32(addr)})
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
			s.send(&noc.Packet{Src: home, Dst: entry.owner, Type: noc.TypeCohInvalidate, Payload: uint32(addr)})
		case dirShared:
			acks := 0
			for sh := range entry.sharers {
				if sh == txn.requester {
					continue
				}
				acks++
				s.send(&noc.Packet{Src: home, Dst: sh, Type: noc.TypeCohInvalidate, Payload: uint32(addr)})
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
	ns := s.nodes[home]
	if ns.l2.Lookup(addr) != Invalid {
		ns.l2.Touch(addr, s.env.Now())
		s.homeGrant(home, addr, req, grant)
		return
	}
	s.env.Schedule(s.cfg.MemLatency, func() {
		ns.l2.Insert(addr, Shared, s.env.Now())
		s.homeGrant(home, addr, req, grant)
	})
}

// homeGrant sends the data reply, updates the directory, and unblocks the
// line.
func (s *System) homeGrant(home noc.NodeID, addr uint64, req noc.NodeID, grant LineState) {
	ns := s.nodes[home]
	entry := ns.dir[addr]
	switch grant {
	case Shared:
		if entry.state != dirShared {
			entry.state = dirShared
			entry.sharers = make(map[noc.NodeID]struct{})
		}
		if entry.sharers == nil {
			entry.sharers = make(map[noc.NodeID]struct{})
		}
		entry.sharers[req] = struct{}{}
	case Exclusive, Modified:
		entry.state = dirOwned
		entry.owner = req
		entry.sharers = nil
	}
	s.send(&noc.Packet{
		Src: home, Dst: req, Type: noc.TypeMemReadReply,
		Payload: uint32(addr), Options: grantOptions[grant],
	})
	s.homeFinish(home, addr)
}

// homeFinish releases the per-line lock and starts the next queued
// transaction, if any.
func (s *System) homeFinish(home noc.NodeID, addr uint64) {
	ns := s.nodes[home]
	txn := ns.busy[addr]
	if txn == nil {
		return
	}
	if len(txn.queue) == 0 {
		delete(ns.busy, addr)
		return
	}
	next := txn.queue[0]
	rest := txn.queue[1:]
	ns.busy[addr] = &homeTxn{kind: next.kind, requester: next.requester, queue: rest}
	s.env.Schedule(s.cfg.L2Latency, func() { s.homeProcess(home, addr) })
}

// invalidateAt handles a CohInvalidate at a (possibly former) line holder.
func (s *System) invalidateAt(node noc.NodeID, addr uint64, home noc.NodeID) {
	ns := s.nodes[node]
	ns.l1.Invalidate(addr)
	ns.stats.InvalidationsRecv++
	// A Modified line's data rides back with the ack in this model.
	s.send(&noc.Packet{Src: node, Dst: home, Type: noc.TypeCohAck, Payload: uint32(addr)})
}

// ackAt handles a CohAck at the home node.
func (s *System) ackAt(home noc.NodeID, addr uint64) {
	ns := s.nodes[home]
	txn, ok := ns.busy[addr]
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
	entry := ns.dir[addr]
	entry.state = dirUncached
	entry.sharers = nil
	s.homeGrant(home, addr, txn.requester, grant)
}

// completeMiss installs the granted line at the requester and retires all
// coalesced waiters.
func (s *System) completeMiss(node noc.NodeID, addr uint64, grant LineState) {
	ns := s.nodes[node]
	e, ok := ns.mshr[addr]
	if !ok {
		return // defensive: duplicate reply
	}
	delete(ns.mshr, addr)
	evAddr, evState, evicted := ns.l1.Insert(addr, grant, s.env.Now())
	if evicted && evState == Modified {
		ns.stats.Writebacks++
		s.send(&noc.Packet{Src: node, Dst: s.Home(evAddr), Type: noc.TypeMemWriteReq, Payload: uint32(evAddr)})
	}
	now := s.env.Now()
	for _, w := range e.waiters {
		ns.stats.MissesCompleted++
		ns.stats.MissLatencySum += now - w.issuedAt
	}
	e.waiters = e.waiters[:0]
	s.freeMSHRs = append(s.freeMSHRs, e)
}

// takeMSHR returns an MSHR entry with no waiters, recycled when one is
// free.
func (s *System) takeMSHR() *mshrEntry {
	if k := len(s.freeMSHRs); k > 0 {
		e := s.freeMSHRs[k-1]
		s.freeMSHRs = s.freeMSHRs[:k-1]
		return e
	}
	return &mshrEntry{}
}
