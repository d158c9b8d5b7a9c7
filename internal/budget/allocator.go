// Package budget implements the chip's power-budgeting subsystem of the
// paper's Section II-A: the global manager that solicits per-core power
// requests over the NoC and the allocation algorithms that divide the chip
// budget among cores.
//
// Four allocator families from the paper's related work are provided —
// proportional fair share, a sensitivity-ordered greedy heuristic [8], a
// multiple-choice-knapsack dynamic program [9], and a PI controller [12] —
// because the paper claims the attack works "irrespective of the power
// budgeting algorithms"; the allocator ablation benchmark tests exactly
// that claim.
package budget

import (
	"cmp"
	"slices"

	"repro/internal/registry"
)

// Request is one core's power solicitation as the global manager sees it.
// RequestMW arrives in a POWER_REQ packet (and may have been tampered with
// in flight); the hint fields are OS-level knowledge held by the manager
// itself and are not carried on the NoC, so Trojans cannot touch them.
type Request struct {
	// Core is the requesting core.
	Core int
	// RequestMW is the requested power in milliwatts as received.
	RequestMW uint32
	// Sensitivity is the Φ hint (Definition 5) for the application running
	// on this core.
	Sensitivity float64
	// LevelsMW are the core's selectable DVFS power draws, ascending, in
	// milliwatts.
	LevelsMW []uint32
	// LevelValues are the expected throughputs at each level (same length
	// as LevelsMW), used by value-aware allocators.
	LevelValues []float64
}

// Allocator divides a chip budget among requests. Implementations must be
// deterministic and must produce one grant per request, in order. An
// allocator is an immutable value holding only its parameters: whatever
// it remembers from call to call lives in the State it is handed, so one
// allocator serves any number of concurrent runs.
type Allocator interface {
	// Allocate appends per-core grants in milliwatts, one per request in
	// order, to dst and returns the extended slice, as append does: pass
	// dst[:0] to reuse a buffer, nil for a fresh one. The sum of grants
	// must not exceed budgetMW (modulo sub-milliwatt rounding). st is the
	// run's allocator state; pass the same State to every call of one run.
	Allocate(dst []uint32, budgetMW uint64, reqs []Request, st *State) []uint32
	// Name identifies the allocator in reports and benchmarks.
	Name() string
}

// State is what the allocators remember across the Allocate calls of one
// run, and the buffers they reuse. Its zero value is ready to use; a
// Manager keeps one and forgets its values on Reset, keeping the buffers.
type State struct {
	pi    CoreMemory // the PI controller's tracked grant per core
	raw   []float64  // the PI controller's tracked grants of one call
	order []int      // Greedy's upgrade order
	dp    dpScratch  // the DP's table
}

// CoreMemory is what a stateful plugin remembers per core: one value per
// core ID, unset until Put. Its zero value is empty.
type CoreMemory struct {
	cells []memoryCell
}

type memoryCell struct {
	v   float64
	set bool
}

// Get returns core's value and whether one was Put.
func (m *CoreMemory) Get(core int) (float64, bool) {
	if core < len(m.cells) {
		return m.cells[core].v, m.cells[core].set
	}
	return 0, false
}

// Put sets core's value.
func (m *CoreMemory) Put(core int, v float64) {
	m.cells = cover(m.cells, core)
	m.cells[core] = memoryCell{v: v, set: true}
}

// forget unsets every core's value, keeping the storage.
func (m *CoreMemory) forget() { m.cells = m.cells[:0] }

// Registry is the allocator plugin registry. The four built-in families
// register here with default parameters; external axes (the SDK, the
// campaign engine, CLI flags) resolve and enumerate allocators through it.
var Registry = registry.New[Allocator]("budget", "allocator")

func init() {
	Registry.Register("fair", func() Allocator { return FairShare{} })
	Registry.Register("greedy", func() Allocator { return Greedy{} })
	Registry.Register("dp", func() Allocator { return NewDPKnapsack(50) })
	Registry.Register("pi", func() Allocator { return NewPIController(0.5) })
}

// ByName returns the named allocator with default parameters.
func ByName(name string) (Allocator, error) { return Registry.Lookup(name) }

// All returns one instance of every allocator, for ablations, in
// registration order (fair, greedy, dp, pi).
func All() []Allocator { return Registry.All() }

// FairShare grants each core its request when the budget covers the total,
// and scales all requests proportionally when it does not. This is the
// baseline policy and the one under which the attack mechanism is easiest
// to see: shrinking a victim's request directly shrinks its share.
type FairShare struct{}

var _ Allocator = FairShare{}

// Name implements Allocator.
func (FairShare) Name() string { return "fair" }

// extend returns dst grown by n zero grants, and the grown tail.
func extend(dst []uint32, n int) (out, tail []uint32) {
	out = slices.Grow(dst, n)[:len(dst)+n]
	tail = out[len(dst):]
	clear(tail)
	return out, tail
}

// Allocate implements Allocator.
func (FairShare) Allocate(dst []uint32, budgetMW uint64, reqs []Request, _ *State) []uint32 {
	dst, grants := extend(dst, len(reqs))
	var total uint64
	for _, r := range reqs {
		total += uint64(r.RequestMW)
	}
	if total == 0 {
		return dst
	}
	if total <= budgetMW {
		for i, r := range reqs {
			grants[i] = r.RequestMW
		}
		return dst
	}
	scale := float64(budgetMW) / float64(total)
	for i, r := range reqs {
		grants[i] = uint32(float64(r.RequestMW) * scale)
	}
	return dst
}

// Greedy is the heuristic allocator modelled on user-experience-oriented
// power adaptation [8]: every core first receives its lowest-level power,
// then the remaining budget is spent upgrading cores in descending order of
// their sensitivity hint, never past their request.
type Greedy struct{}

var _ Allocator = Greedy{}

// Name implements Allocator.
func (Greedy) Name() string { return "greedy" }

// Allocate implements Allocator.
func (Greedy) Allocate(dst []uint32, budgetMW uint64, reqs []Request, st *State) []uint32 {
	dst, grants := extend(dst, len(reqs))
	var spent uint64
	for i, r := range reqs {
		base := baseLevelMW(r)
		grants[i] = base
		spent += uint64(base)
	}
	order := st.order[:0]
	for i := range reqs {
		order = append(order, i)
	}
	st.order = order
	slices.SortStableFunc(order, func(a, b int) int {
		ra, rb := &reqs[a], &reqs[b]
		if ra.Sensitivity != rb.Sensitivity {
			if ra.Sensitivity > rb.Sensitivity {
				return -1
			}
			return 1
		}
		return cmp.Compare(ra.Core, rb.Core)
	})
	for _, i := range order {
		r := reqs[i]
		for _, lvl := range r.LevelsMW {
			if lvl <= grants[i] || lvl > r.RequestMW {
				continue
			}
			delta := uint64(lvl - grants[i])
			if spent+delta > budgetMW {
				break
			}
			spent += delta
			grants[i] = lvl
		}
	}
	return dst
}

// baseLevelMW is the mandatory floor grant for a request: the lowest DVFS
// level, or zero when the request carries no level table.
func baseLevelMW(r Request) uint32 {
	if len(r.LevelsMW) == 0 {
		return 0
	}
	base := r.LevelsMW[0]
	if base > r.RequestMW {
		// Even the floor exceeds the (possibly tampered) request: honour
		// the request value — this is precisely how a zeroed request
		// starves a victim.
		return r.RequestMW
	}
	return base
}
