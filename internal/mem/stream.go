package mem

import (
	"math/rand"

	"repro/internal/exp"
)

// AddressStream generates the synthetic per-thread address trace that
// replaces real benchmark memory traces (see the substitution table in
// DESIGN.md). Each thread works over a private region plus a region shared
// by all threads of its application — the shared fraction is what drives
// MESI coherence traffic between threads. Within a region the stream is
// mostly sequential with occasional random jumps, giving the cache a
// realistic mix of spatial locality and capacity misses.
//
// Addresses are 32-byte line numbers that fit the 32-bit packet payload:
// bits [24..31] identify the application, bits [14..23] the region (0 is
// the shared region, k ≥ 1 thread k−1's private region), bits [0..13] the
// line within the region.
type AddressStream struct {
	rng        *rand.Rand
	shared     uint64 // shared-region base
	private    uint64 // private-region base
	lines      uint64 // region size in lines
	pos        uint64 // sequential cursor
	sharedFrac float64
	seqFrac    float64
	writeFrac  float64
}

const regionBits = 14 // max 16384 lines per region

// NewAddressStream builds the stream for thread threadIdx of application
// appIdx. workingSetLines is clamped to the 14-bit region size; writeFrac
// is the probability that an access is a write.
func NewAddressStream(appIdx, threadIdx, workingSetLines int, writeFrac float64, rng *rand.Rand) *AddressStream {
	s := makeAddressStream(appIdx, threadIdx, workingSetLines, writeFrac, rng)
	return &s
}

// Reset makes s the stream NewAddressStream builds over
// rand.New(exp.NewSource(seed)), re-seeding the source s already owns in
// place — the same sequence without a new source — or making one the
// first time.
func (s *AddressStream) Reset(appIdx, threadIdx, workingSetLines int, writeFrac float64, seed int64) {
	rng := s.rng
	if rng == nil {
		rng = rand.New(exp.NewSource(seed))
	} else {
		rng.Seed(seed)
	}
	*s = makeAddressStream(appIdx, threadIdx, workingSetLines, writeFrac, rng)
}

// makeAddressStream is NewAddressStream by value.
func makeAddressStream(appIdx, threadIdx, workingSetLines int, writeFrac float64, rng *rand.Rand) AddressStream {
	lines := uint64(workingSetLines)
	if lines < 1 {
		lines = 1
	}
	if lines > 1<<regionBits {
		lines = 1 << regionBits
	}
	base := uint64(appIdx+1) << 24
	return AddressStream{
		rng:        rng,
		shared:     base, // region slot 0
		private:    base | uint64(threadIdx+1)<<regionBits,
		lines:      lines,
		sharedFrac: 0.3,
		seqFrac:    0.7,
		writeFrac:  writeFrac,
	}
}

// Next returns the next (line address, isWrite) pair of the trace.
func (s *AddressStream) Next() (addr uint64, write bool) {
	base := s.private
	if s.rng.Float64() < s.sharedFrac {
		base = s.shared
	}
	var off uint64
	if s.rng.Float64() < s.seqFrac {
		s.pos = (s.pos + 1) % s.lines
		off = s.pos
	} else {
		off = uint64(s.rng.Intn(int(s.lines)))
	}
	return base | off, s.rng.Float64() < s.writeFrac
}
