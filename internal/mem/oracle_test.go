package mem

import "testing"

// denseCache is the tag store as it was before Cache went sparse: every
// set's ways allocated and zeroed up front. It is kept verbatim, renamed,
// as the oracle FuzzCacheOracle checks the sparse store against.
type denseCache struct {
	sets  int
	ways  int
	lines []cacheLine // sets × ways, row-major
}

// newDenseCache builds a cache with the given geometry. sets and ways must be
// positive.
func newDenseCache(sets, ways int) *denseCache {
	if sets <= 0 || ways <= 0 {
		panic("mem: cache geometry must be positive")
	}
	return &denseCache{sets: sets, ways: ways, lines: make([]cacheLine, sets*ways)}
}

func (c *denseCache) set(addr uint64) []cacheLine {
	s := int(addr % uint64(c.sets))
	return c.lines[s*c.ways : (s+1)*c.ways]
}

// Lookup returns the state of addr, or Invalid if absent.
func (c *denseCache) Lookup(addr uint64) LineState {
	for i := range c.set(addr) {
		l := &c.set(addr)[i]
		if l.state != Invalid && l.tag == addr {
			return l.state
		}
	}
	return Invalid
}

// Touch refreshes the LRU stamp of addr if present.
func (c *denseCache) Touch(addr uint64, now uint64) {
	set := c.set(addr)
	for i := range set {
		if set[i].state != Invalid && set[i].tag == addr {
			set[i].lastUse = now
			return
		}
	}
}

// SetState changes the MESI state of a resident line; it is a no-op for an
// absent line.
func (c *denseCache) SetState(addr uint64, st LineState) {
	set := c.set(addr)
	for i := range set {
		if set[i].state != Invalid && set[i].tag == addr {
			set[i].state = st
			return
		}
	}
}

// Insert installs addr with state st, evicting the LRU way if the set is
// full. It returns the evicted line's address and state when an eviction
// happened.
func (c *denseCache) Insert(addr uint64, st LineState, now uint64) (evictedAddr uint64, evictedState LineState, evicted bool) {
	set := c.set(addr)
	// Already present: state upgrade in place.
	for i := range set {
		if set[i].state != Invalid && set[i].tag == addr {
			set[i].state = st
			set[i].lastUse = now
			return 0, Invalid, false
		}
	}
	victim := 0
	for i := range set {
		if set[i].state == Invalid {
			victim = i
			evicted = false
			set[victim] = cacheLine{tag: addr, state: st, lastUse: now}
			return 0, Invalid, false
		}
		if set[i].lastUse < set[victim].lastUse {
			victim = i
		}
	}
	evictedAddr, evictedState, evicted = set[victim].tag, set[victim].state, true
	set[victim] = cacheLine{tag: addr, state: st, lastUse: now}
	return evictedAddr, evictedState, evicted
}

// Invalidate removes addr and returns its prior state.
func (c *denseCache) Invalidate(addr uint64) LineState {
	set := c.set(addr)
	for i := range set {
		if set[i].state != Invalid && set[i].tag == addr {
			prev := set[i].state
			set[i] = cacheLine{}
			return prev
		}
	}
	return Invalid
}

// Occupancy returns the number of valid lines, for tests and debugging.
func (c *denseCache) Occupancy() int {
	n := 0
	for i := range c.lines {
		if c.lines[i].state != Invalid {
			n++
		}
	}
	return n
}

// Cache operations the oracle fuzz target decodes from an op byte's low
// nibble; the high nibble picks the state Insert and SetState write.
const (
	opLookup = iota
	opTouch
	opSetState
	opInsert
	opInvalidate
	numOps
)

// cacheOp is one fuzz record: an op, the state it writes (0 Shared,
// 1 Exclusive, 2 Modified), an address and a `now`.
type cacheOp struct{ op, state, addr, now byte }

// cacheOps encodes a geometry byte pair and ops the way FuzzCacheOracle
// decodes them.
func cacheOps(sets, ways byte, ops ...cacheOp) []byte {
	b := []byte{sets, ways}
	for _, o := range ops {
		b = append(b, o.op|o.state<<4, o.addr, o.now)
	}
	return b
}

// FuzzCacheOracle drives the sparse Cache and the dense oracle with the
// same operations and fails on the first return value or Occupancy that
// differs, and on any line whose state differs at the end.
//
// The first two bytes pick the geometry: 1–64 sets and 1–8 ways. Each
// following 3-byte record is one op: the op and a state, an address below
// 4×sets (so sets fill and evict), and a `now` below 4 (so LRU stamps tie
// and the lowest-index tie-break decides). The sparse store starts on a
// slab whose spare capacity holds valid-looking garbage, so a set carved
// without zeroing would show.
func FuzzCacheOracle(f *testing.F) {
	f.Add(cacheOps(0, 0, cacheOp{opInsert, 0, 0, 1}, cacheOp{opLookup, 0, 0, 0}))
	// Two sets, two ways: three inserts into set 0 at one stamp (the third
	// evicts on a tie), then set 1 reached while set 0 is the only block.
	f.Add(cacheOps(1, 1,
		cacheOp{opInsert, 0, 0, 1}, cacheOp{opInsert, 1, 2, 1}, cacheOp{opInsert, 2, 4, 1},
		cacheOp{opLookup, 0, 1, 0}, cacheOp{opInsert, 0, 3, 2}, cacheOp{opInsert, 0, 5, 2},
		cacheOp{opInsert, 0, 7, 2}, cacheOp{opTouch, 0, 2, 3}, cacheOp{opInsert, 0, 6, 3}))
	// One set, four ways: ties, touches, state changes and invalidations.
	f.Add(cacheOps(0, 3,
		cacheOp{opInsert, 0, 1, 0}, cacheOp{opInsert, 0, 2, 0}, cacheOp{opInsert, 0, 3, 1},
		cacheOp{opInsert, 0, 4, 1}, cacheOp{opInsert, 0, 5, 1}, cacheOp{opTouch, 0, 2, 2},
		cacheOp{opSetState, 2, 3, 0}, cacheOp{opInvalidate, 0, 4, 0}, cacheOp{opInsert, 0, 6, 0},
		cacheOp{opInsert, 1, 7, 0}, cacheOp{opInsert, 0, 8, 0}))
	// Sixteen sets, two ways: untouched sets queried between inserts.
	f.Add(cacheOps(15, 1,
		cacheOp{opLookup, 0, 3, 0}, cacheOp{opInsert, 1, 17, 1}, cacheOp{opTouch, 0, 33, 1},
		cacheOp{opSetState, 2, 49, 0}, cacheOp{opInvalidate, 0, 20, 0}, cacheOp{opInsert, 0, 4, 1},
		cacheOp{opInsert, 0, 36, 1}, cacheOp{opInsert, 0, 52, 1}, cacheOp{opLookup, 0, 20, 0},
		cacheOp{opInsert, 2, 1, 2}, cacheOp{opInsert, 0, 33, 2}, cacheOp{opInvalidate, 0, 17, 0}))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		sets, ways := 1+int(data[0]%64), 1+int(data[1]%8)
		dense := newDenseCache(sets, ways)
		sparse := NewCache(sets, ways)
		sparse.slab = dirtySlab(sets * ways)[:0]
		span := uint64(4 * sets)
		for i, rec := 0, data[2:]; len(rec) >= 3; i, rec = i+1, rec[3:] {
			op, st := int(rec[0]&0xF)%numOps, LineState(1+int(rec[0]>>4)%3)
			addr, now := uint64(rec[1])%span, uint64(rec[2]%4)
			switch op {
			case opLookup:
				if got, want := sparse.Lookup(addr), dense.Lookup(addr); got != want {
					t.Fatalf("op %d: Lookup(%d) = %v, oracle %v", i, addr, got, want)
				}
			case opTouch:
				sparse.Touch(addr, now)
				dense.Touch(addr, now)
			case opSetState:
				sparse.SetState(addr, st)
				dense.SetState(addr, st)
			case opInsert:
				ga, gs, ge := sparse.Insert(addr, st, now)
				wa, ws, we := dense.Insert(addr, st, now)
				if ga != wa || gs != ws || ge != we {
					t.Fatalf("op %d: Insert(%d, %v, %d) = (%d, %v, %v), oracle (%d, %v, %v)",
						i, addr, st, now, ga, gs, ge, wa, ws, we)
				}
			case opInvalidate:
				if got, want := sparse.Invalidate(addr), dense.Invalidate(addr); got != want {
					t.Fatalf("op %d: Invalidate(%d) = %v, oracle %v", i, addr, got, want)
				}
			}
			if got, want := sparse.Occupancy(), dense.Occupancy(); got != want {
				t.Fatalf("op %d: Occupancy = %d, oracle %d", i, got, want)
			}
		}
		for a := uint64(0); a < span; a++ {
			if got, want := sparse.Lookup(a), dense.Lookup(a); got != want {
				t.Fatalf("at the end: Lookup(%d) = %v, oracle %v", a, got, want)
			}
		}
	})
}

// dirtySlab returns n cache lines that all look valid, with tags no fuzzed
// address reaches.
func dirtySlab(n int) []cacheLine {
	s := make([]cacheLine, n)
	for i := range s {
		s[i] = cacheLine{tag: 1<<63 | uint64(i), state: Modified, lastUse: 1 << 40}
	}
	return s
}
