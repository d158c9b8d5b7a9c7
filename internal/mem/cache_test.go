package mem

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestLineStateString(t *testing.T) {
	tests := []struct {
		give LineState
		want string
	}{
		{Invalid, "I"}, {Shared, "S"}, {Exclusive, "E"}, {Modified, "M"}, {LineState(9), "?"},
	}
	for _, tt := range tests {
		if got := tt.give.String(); got != tt.want {
			t.Errorf("%d.String() = %q, want %q", tt.give, got, tt.want)
		}
	}
}

func TestCacheInsertLookup(t *testing.T) {
	c := NewCache(4, 2)
	if st := c.Lookup(5); st != Invalid {
		t.Fatalf("empty cache Lookup = %v", st)
	}
	c.Insert(5, Shared, 1)
	if st := c.Lookup(5); st != Shared {
		t.Fatalf("Lookup after insert = %v, want S", st)
	}
	if c.Occupancy() != 1 {
		t.Errorf("Occupancy = %d, want 1", c.Occupancy())
	}
}

func TestCacheInsertUpgradesInPlace(t *testing.T) {
	c := NewCache(4, 2)
	c.Insert(5, Shared, 1)
	_, _, evicted := c.Insert(5, Modified, 2)
	if evicted {
		t.Error("re-insert must not evict")
	}
	if st := c.Lookup(5); st != Modified {
		t.Errorf("state = %v, want M", st)
	}
	if c.Occupancy() != 1 {
		t.Errorf("Occupancy = %d, want 1", c.Occupancy())
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := NewCache(1, 2) // one set, two ways
	c.Insert(10, Shared, 1)
	c.Insert(20, Shared, 2)
	c.Touch(10, 3) // 10 is now most recent; 20 is LRU
	evAddr, evState, evicted := c.Insert(30, Exclusive, 4)
	if !evicted || evAddr != 20 || evState != Shared {
		t.Fatalf("evicted (%d,%v,%v), want (20,S,true)", evAddr, evState, evicted)
	}
	if c.Lookup(10) == Invalid || c.Lookup(30) == Invalid {
		t.Error("resident lines lost")
	}
	if c.Lookup(20) != Invalid {
		t.Error("evicted line still present")
	}
}

func TestCacheInvalidate(t *testing.T) {
	c := NewCache(4, 2)
	c.Insert(7, Modified, 1)
	if prev := c.Invalidate(7); prev != Modified {
		t.Errorf("Invalidate returned %v, want M", prev)
	}
	if c.Lookup(7) != Invalid {
		t.Error("line still present after invalidate")
	}
	if prev := c.Invalidate(7); prev != Invalid {
		t.Errorf("second Invalidate returned %v, want I", prev)
	}
}

func TestCacheSetStateAbsentNoop(t *testing.T) {
	c := NewCache(4, 2)
	c.SetState(9, Modified) // must not panic or create the line
	if c.Lookup(9) != Invalid {
		t.Error("SetState must not materialise lines")
	}
}

func TestCacheSetConflict(t *testing.T) {
	// Addresses 0, 4, 8 map to the same set in a 4-set cache.
	c := NewCache(4, 2)
	c.Insert(0, Shared, 1)
	c.Insert(4, Shared, 2)
	c.Insert(8, Shared, 3)
	if c.Lookup(0) != Invalid {
		t.Error("LRU line 0 should have been evicted")
	}
	if c.Lookup(4) == Invalid || c.Lookup(8) == Invalid {
		t.Error("recent lines must remain")
	}
}

func TestTableIGeometries(t *testing.T) {
	s, w := L1DGeometry()
	if s*w*32 != 16*1024 {
		t.Errorf("L1D geometry %dx%d x32B = %d, want 16KB", s, w, s*w*32)
	}
	if w != 2 {
		t.Errorf("L1D ways = %d, want 2 (Table I)", w)
	}
	// Both levels are keyed by 32 B line number, so Table I's 64 KB slice
	// is 2048 lines.
	cfg := DefaultConfig()
	if got := cfg.L2Sets * cfg.L2Ways * 32; got != 64*1024 {
		t.Errorf("L2 slice geometry %dx%d x32B = %d, want 64KB", cfg.L2Sets, cfg.L2Ways, got)
	}
}

// Property: occupancy never exceeds capacity and Lookup always agrees with
// the last Insert/Invalidate for an address.
func TestCacheOccupancyBound(t *testing.T) {
	f := func(ops []uint16) bool {
		c := NewCache(8, 2)
		for i, op := range ops {
			addr := uint64(op % 64)
			switch op % 3 {
			case 0, 1:
				c.Insert(addr, Shared, uint64(i))
			case 2:
				c.Invalidate(addr)
			}
			if c.Occupancy() > 16 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestAddressStreamDeterministicAndBounded(t *testing.T) {
	a := NewAddressStream(2, 3, 1024, 0.3, rand.New(rand.NewSource(5)))
	b := NewAddressStream(2, 3, 1024, 0.3, rand.New(rand.NewSource(5)))
	for i := 0; i < 200; i++ {
		aAddr, aW := a.Next()
		bAddr, bW := b.Next()
		if aAddr != bAddr || aW != bW {
			t.Fatal("same seed must give same stream")
		}
		if aAddr>>32 != 0 {
			t.Fatalf("address %x exceeds 32 bits", aAddr)
		}
		app := (aAddr >> 24) & 0xFF
		if app != 3 {
			t.Fatalf("app field = %d, want 3", app)
		}
	}
}

func TestAddressStreamSeparatesThreads(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := NewAddressStream(0, 0, 512, 0, rng)
	b := NewAddressStream(0, 1, 512, 0, rand.New(rand.NewSource(9)))
	aPriv := make(map[uint64]bool)
	bPriv := make(map[uint64]bool)
	for i := 0; i < 500; i++ {
		if addr, _ := a.Next(); (addr>>regionBits)&0x3FF != 0 {
			aPriv[addr] = true
		}
		if addr, _ := b.Next(); (addr>>regionBits)&0x3FF != 0 {
			bPriv[addr] = true
		}
	}
	for addr := range aPriv {
		if bPriv[addr] {
			t.Fatalf("private regions overlap at %x", addr)
		}
	}
	if len(aPriv) == 0 || len(bPriv) == 0 {
		t.Fatal("streams generated no private accesses")
	}
}

func TestAddressStreamSharedRegionOverlaps(t *testing.T) {
	a := NewAddressStream(1, 0, 256, 0, rand.New(rand.NewSource(1)))
	b := NewAddressStream(1, 1, 256, 0, rand.New(rand.NewSource(2)))
	shared := func(s *AddressStream) map[uint64]bool {
		m := make(map[uint64]bool)
		for i := 0; i < 2000; i++ {
			if addr, _ := s.Next(); (addr>>regionBits)&0x3FF == 0 {
				m[addr] = true
			}
		}
		return m
	}
	sa, sb := shared(a), shared(b)
	overlap := 0
	for addr := range sa {
		if sb[addr] {
			overlap++
		}
	}
	if overlap == 0 {
		t.Fatal("threads of one app must share lines (drives coherence)")
	}
}

func TestAddressStreamClampsWorkingSet(t *testing.T) {
	s := NewAddressStream(0, 0, 1<<20, 0, rand.New(rand.NewSource(3)))
	if s.lines != 1<<regionBits {
		t.Errorf("lines = %d, want clamp to %d", s.lines, 1<<regionBits)
	}
	z := NewAddressStream(0, 0, 0, 0, rand.New(rand.NewSource(3)))
	if z.lines != 1 {
		t.Errorf("lines = %d, want clamp to 1", z.lines)
	}
}

func TestAddressStreamWriteFraction(t *testing.T) {
	s := NewAddressStream(0, 0, 256, 0.5, rand.New(rand.NewSource(11)))
	writes := 0
	const n = 5000
	for i := 0; i < n; i++ {
		if _, w := s.Next(); w {
			writes++
		}
	}
	frac := float64(writes) / n
	if frac < 0.45 || frac > 0.55 {
		t.Errorf("write fraction = %v, want about 0.5", frac)
	}
}
