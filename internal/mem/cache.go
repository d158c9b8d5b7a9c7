// Package mem implements the shared-memory substrate of Table I: private
// per-tile L1 caches, an address-interleaved shared L2 (one slice per
// node), a MESI directory protocol whose messages travel on the NoC, and a
// flat main-memory model with 200-cycle latency.
//
// Addresses throughout the package are cache-line numbers at the 32-byte
// L1 line granularity, and both levels' tag stores are keyed by them; the
// L2 slice holds Table I's 64 KB as 2048 such lines (see Config).
package mem

import "slices"

// LineState is a MESI cache-line state.
type LineState int

// MESI states. Invalid is deliberately the zero value.
const (
	Invalid LineState = iota
	Shared
	Exclusive
	Modified
)

// String implements fmt.Stringer.
func (s LineState) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	case Modified:
		return "M"
	default:
		return "?"
	}
}

type cacheLine struct {
	tag     uint64
	state   LineState
	lastUse uint64
}

// Cache is a set-associative, LRU-replacement tag store. Only tags and MESI
// states are modelled; data contents never matter to the experiments.
//
// The store is sparse: a run touches a few percent of its sets, so a set's
// ways are carved from a slab on the first insert into that set, and a set
// never inserted into answers every query as an empty set does.
type Cache struct {
	sets int
	ways int
	// slot[s] is 0 while set s has no ways, else 1 + the index of its
	// block of ways in slab.
	slot []uint32
	slab []cacheLine // materialised sets, ways consecutive, row-major
}

// NewCache builds a cache with the given geometry: the reset of a zero
// Cache. sets and ways must be positive.
func NewCache(sets, ways int) *Cache {
	c := new(Cache)
	c.reset(sets, ways)
	return c
}

// reset empties c and gives it the geometry sets × ways. It zeroes the
// set index and truncates the slab, allocating a new index only when
// sets outgrows the old one.
func (c *Cache) reset(sets, ways int) {
	if sets <= 0 || ways <= 0 {
		panic("mem: cache geometry must be positive")
	}
	c.sets, c.ways = sets, ways
	if cap(c.slot) < sets {
		c.slot = make([]uint32, sets)
	} else {
		c.slot = c.slot[:sets]
		clear(c.slot)
	}
	c.slab = c.slab[:0]
}

// L1DGeometry returns the Table I L1-D geometry: 16 KB, 2-way, 32 B lines →
// 256 sets.
func L1DGeometry() (sets, ways int) { return 256, 2 }

// set returns addr's set, or nil while no insert has reached it.
func (c *Cache) set(addr uint64) []cacheLine {
	k := int(c.slot[addr%uint64(c.sets)])
	if k == 0 {
		return nil
	}
	off := (k - 1) * c.ways
	return c.slab[off : off+c.ways : off+c.ways]
}

// materialise carves addr's set from the slab, zeroed, and returns it.
func (c *Cache) materialise(addr uint64) []cacheLine {
	n := len(c.slab)
	if n+c.ways > cap(c.slab) {
		// Room for eight more sets at least; append's doubling beyond.
		c.slab = slices.Grow(c.slab, 8*c.ways)
	}
	c.slab = c.slab[:n+c.ways]
	set := c.slab[n:]
	clear(set)
	c.slot[addr%uint64(c.sets)] = uint32(n/c.ways) + 1
	return set
}

// Lookup returns the state of addr, or Invalid if absent.
func (c *Cache) Lookup(addr uint64) LineState {
	set := c.set(addr)
	for i := range set {
		if set[i].state != Invalid && set[i].tag == addr {
			return set[i].state
		}
	}
	return Invalid
}

// Touch refreshes the LRU stamp of addr if present.
func (c *Cache) Touch(addr uint64, now uint64) {
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
func (c *Cache) SetState(addr uint64, st LineState) {
	set := c.set(addr)
	for i := range set {
		if set[i].state != Invalid && set[i].tag == addr {
			set[i].state = st
			return
		}
	}
}

// Insert installs addr with state st, evicting the LRU way if the set is
// full; among equally old ways the lowest-indexed one goes. It returns the
// evicted line's address and state when an eviction happened.
func (c *Cache) Insert(addr uint64, st LineState, now uint64) (evictedAddr uint64, evictedState LineState, evicted bool) {
	set := c.set(addr)
	if set == nil {
		set = c.materialise(addr)
	}
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
			set[i] = cacheLine{tag: addr, state: st, lastUse: now}
			return 0, Invalid, false
		}
		if set[i].lastUse < set[victim].lastUse {
			victim = i
		}
	}
	evictedAddr, evictedState = set[victim].tag, set[victim].state
	set[victim] = cacheLine{tag: addr, state: st, lastUse: now}
	return evictedAddr, evictedState, true
}

// Invalidate removes addr and returns its prior state.
func (c *Cache) Invalidate(addr uint64) LineState {
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
func (c *Cache) Occupancy() int {
	n := 0
	for i := range c.slab {
		if c.slab[i].state != Invalid {
			n++
		}
	}
	return n
}
