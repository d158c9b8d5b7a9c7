package defense

import (
	"slices"

	"repro/internal/noc"
)

// DualPathVoter implements route-diverse request verification: every core
// sends its power request twice, once over the primary routing class (XY)
// and once over the alternate one (YX). Because the two minimal paths share
// only their endpoints, a Trojan sitting on one path rewrites one copy and
// the manager sees a mismatch — detection with no router hardware at all.
//
// The repair policy takes the larger copy: the paper's attack cuts victim
// requests, so the untampered copy is the larger one. A boosted attacker
// request also survives as the larger copy, which is why deployments chain
// the voter with a RangeGuard that clamps super-peak values.
//
// Blind spot (tested): when both paths cross active Trojans the two copies
// carry the same rewritten value and no mismatch is visible.
//
// The zero value is an empty voter.
type DualPathVoter struct {
	// pending holds each core's unpaired copy, indexed by core ID.
	pending []pendingCopy
	// unpaired is Flush's result, reused.
	unpaired []UnpairedCopy

	// Pairs counts completed two-copy comparisons.
	Pairs uint64
	// Mismatches counts pairs whose copies disagreed.
	Mismatches uint64
	// Unpaired counts copies left alone at an epoch flush — a destroyed
	// duplicate is itself an anomaly signal.
	Unpaired uint64
}

type pendingCopy struct {
	value    uint32
	tampered bool
	set      bool
}

// Reset empties the voter and zeroes its counters, keeping its buffers.
func (v *DualPathVoter) Reset() {
	*v = DualPathVoter{pending: v.pending[:0], unpaired: v.unpaired[:0]}
}

// Observe feeds one delivered request copy. When the second copy of a pair
// arrives, ready is true and final carries the repaired value; tamperedAny
// reports whether either copy was modified in flight (measurement only).
func (v *DualPathVoter) Observe(core noc.NodeID, value uint32, tampered bool) (final uint32, tamperedAny, ready, mismatch bool) {
	if n := len(v.pending); int(core) >= n {
		v.pending = slices.Grow(v.pending, int(core)+1-n)[:core+1]
		clear(v.pending[n:])
	}
	first := v.pending[core]
	if !first.set {
		v.pending[core] = pendingCopy{value: value, tampered: tampered, set: true}
		return 0, false, false, false
	}
	v.pending[core] = pendingCopy{}
	v.Pairs++
	final = max(first.value, value)
	mismatch = first.value != value
	if mismatch {
		v.Mismatches++
	}
	return final, first.tampered || tampered, true, mismatch
}

// Flush clears the copies whose partners never arrived this epoch — lost
// to a dropping Trojan or still in flight — and returns them in core
// order. Each counts as Unpaired. The result is valid until the next
// Flush or Reset.
func (v *DualPathVoter) Flush() []UnpairedCopy {
	v.unpaired = v.unpaired[:0]
	for core, c := range v.pending {
		if c.set {
			v.unpaired = append(v.unpaired, UnpairedCopy{Core: noc.NodeID(core), Value: c.value, Tampered: c.tampered})
			v.pending[core] = pendingCopy{}
		}
	}
	v.Unpaired += uint64(len(v.unpaired))
	return v.unpaired
}

// UnpairedCopy is a request copy whose duplicate never arrived.
type UnpairedCopy struct {
	Core     noc.NodeID
	Value    uint32
	Tampered bool
}
