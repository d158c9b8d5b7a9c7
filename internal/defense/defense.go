// Package defense implements manager-side countermeasures against the
// paper's false-data power-budgeting attack. The paper's conclusion calls
// for "more research on detection and protection against such attacks";
// this package provides two deployable request-integrity filters and the
// machinery to chain them.
//
// Both filters run at the global manager on the values as received — they
// assume nothing about the NoC and need no extra hardware in the routers,
// which is exactly where the Trojans hide.
package defense

import (
	"fmt"
	"strings"

	"repro/internal/budget"
	"repro/internal/noc"
)

// RangeGuard flags and clamps requests outside the physically plausible
// [MinMW, MaxMW] window derived from the DVFS table. It defeats rewrites
// that leave the plausible envelope — the Fig 2 circuit's all-zero rewrite
// and boosts beyond peak power — but is blind to proportional scaling
// inside the envelope.
type RangeGuard struct {
	// MinMW is the lowest plausible request: the bottom DVFS level.
	MinMW uint32
	// MaxMW is the highest plausible request: the top DVFS level.
	MaxMW uint32
}

var _ budget.RequestFilter = RangeGuard{}

// NewRangeGuard builds the guard from a DVFS level table in milliwatts
// (ascending).
func NewRangeGuard(levelsMW []uint32) (RangeGuard, error) {
	if len(levelsMW) == 0 {
		return RangeGuard{}, fmt.Errorf("defense: range guard needs a DVFS table")
	}
	return RangeGuard{MinMW: levelsMW[0], MaxMW: levelsMW[len(levelsMW)-1]}, nil
}

// Name implements budget.RequestFilter.
func (RangeGuard) Name() string { return "range-guard" }

// FilterRequest implements budget.RequestFilter. The guard remembers
// nothing, so it ignores mem.
func (g RangeGuard) FilterRequest(_ noc.NodeID, mw uint32, _ *budget.CoreMemory) (uint32, bool) {
	switch {
	case mw < g.MinMW:
		return g.MinMW, true
	case mw > g.MaxMW:
		return g.MaxMW, true
	default:
		return mw, false
	}
}

// HistoryGuard flags requests that deviate sharply from the core's own
// request history (an exponentially weighted moving average) and
// substitutes the historical value. It catches attacks that switch on
// after a clean observation window — including the paper's duty-cycled
// activation — but is blind to a Trojan that was active from the first
// epoch, because the history itself is then poisoned. That failure mode is
// deliberate and tested: it is the honest limitation of anomaly detection
// against persistent false-data injection. The guard keeps each core's
// EWMA in the run's filter memory.
type HistoryGuard struct {
	// Alpha is the EWMA weight of the newest sample, in (0, 1].
	Alpha float64
	// Tolerance is the allowed relative deviation from the EWMA before a
	// request is flagged (for example 0.5 = ±50 %).
	Tolerance float64
}

var _ budget.RequestFilter = HistoryGuard{}

// NewHistoryGuard returns a guard with the given EWMA weight and relative
// tolerance; out-of-range parameters fall back to 0.3 and 0.5.
func NewHistoryGuard(alpha, tolerance float64) HistoryGuard {
	if alpha <= 0 || alpha > 1 {
		alpha = 0.3
	}
	if tolerance <= 0 {
		tolerance = 0.5
	}
	return HistoryGuard{Alpha: alpha, Tolerance: tolerance}
}

// Name implements budget.RequestFilter.
func (HistoryGuard) Name() string { return "history-guard" }

// FilterRequest implements budget.RequestFilter.
func (g HistoryGuard) FilterRequest(core noc.NodeID, mw uint32, mem *budget.CoreMemory) (uint32, bool) {
	prev, seen := mem.Get(int(core))
	v := float64(mw)
	if !seen {
		mem.Put(int(core), v)
		return mw, false
	}
	dev := v - prev
	if dev < 0 {
		dev = -dev
	}
	if prev > 0 && dev/prev >= g.Tolerance {
		// Suspect: substitute the history and do NOT absorb the outlier.
		return uint32(prev), true
	}
	mem.Put(int(core), (1-g.Alpha)*prev+g.Alpha*v)
	return mw, false
}

// Chain applies filters in order; the output of one feeds the next. A
// request is flagged if any stage flags it. Every stage gets the same
// filter memory, one value per core, so a chain can hold at most one
// stage that remembers (one history guard); no registered defense chains
// two.
type Chain struct {
	Filters []budget.RequestFilter
}

var _ budget.RequestFilter = Chain{}

// NewChain builds a filter chain.
func NewChain(filters ...budget.RequestFilter) Chain { return Chain{Filters: filters} }

// Name implements budget.RequestFilter.
func (c Chain) Name() string {
	names := make([]string, len(c.Filters))
	for i, f := range c.Filters {
		names[i] = f.Name()
	}
	return strings.Join(names, "+")
}

// FilterRequest implements budget.RequestFilter.
func (c Chain) FilterRequest(core noc.NodeID, mw uint32, mem *budget.CoreMemory) (uint32, bool) {
	flagged := false
	for _, f := range c.Filters {
		var fl bool
		mw, fl = f.FilterRequest(core, mw, mem)
		flagged = flagged || fl
	}
	return mw, flagged
}
