package defense

import (
	"sort"

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
type DualPathVoter struct {
	pending map[noc.NodeID]pendingCopy

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
}

// NewDualPathVoter returns an empty voter.
func NewDualPathVoter() *DualPathVoter {
	return &DualPathVoter{pending: make(map[noc.NodeID]pendingCopy)}
}

// Observe feeds one delivered request copy. When the second copy of a pair
// arrives, ready is true and final carries the repaired value; tamperedAny
// reports whether either copy was modified in flight (measurement only).
func (v *DualPathVoter) Observe(core noc.NodeID, value uint32, tampered bool) (final uint32, tamperedAny, ready, mismatch bool) {
	first, ok := v.pending[core]
	if !ok {
		v.pending[core] = pendingCopy{value: value, tampered: tampered}
		return 0, false, false, false
	}
	delete(v.pending, core)
	v.Pairs++
	final = value
	if first.value > final {
		final = first.value
	}
	mismatch = first.value != value
	if mismatch {
		v.Mismatches++
	}
	return final, first.tampered || tampered, true, mismatch
}

// Flush returns (and clears) the copies whose partners never arrived this
// epoch — lost to a dropping Trojan or still in flight. Each counts as
// Unpaired. Results are sorted by core for determinism.
func (v *DualPathVoter) Flush() []UnpairedCopy {
	if len(v.pending) == 0 {
		return nil
	}
	out := make([]UnpairedCopy, 0, len(v.pending))
	for core, c := range v.pending {
		out = append(out, UnpairedCopy{Core: core, Value: c.value, Tampered: c.tampered})
		v.Unpaired++
	}
	v.pending = make(map[noc.NodeID]pendingCopy)
	sort.Slice(out, func(i, j int) bool { return out[i].Core < out[j].Core })
	return out
}

// UnpairedCopy is a request copy whose duplicate never arrived.
type UnpairedCopy struct {
	Core     noc.NodeID
	Value    uint32
	Tampered bool
}
