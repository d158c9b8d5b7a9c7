package budget

import (
	"fmt"
	"slices"

	"repro/internal/noc"
)

// CoreInfo is the manager's OS-level knowledge about one core: which
// application class runs there and what its DVFS menu looks like. It never
// travels on the NoC, so hardware Trojans cannot corrupt it — only the
// request values are exposed.
type CoreInfo struct {
	// Sensitivity is the application's Φ (Definition 5).
	Sensitivity float64
	// LevelsMW are the core's DVFS power draws, ascending, in milliwatts.
	LevelsMW []uint32
	// LevelValues are expected throughputs per level.
	LevelValues []float64
}

// Grant is one core's power allocation for the next epoch.
type Grant struct {
	Core    noc.NodeID
	GrantMW uint32
}

// RequestFilter is a manager-side integrity check on incoming request
// values — the defensive counterpart to the paper's attack (its conclusion
// calls for "more research on detection and protection"). FilterRequest
// returns the value the manager should actually use and whether the
// original was flagged as suspect. Filters see only what real hardware
// would see: the core ID and the payload as received. A filter is an
// immutable value holding only its parameters: what it learns from the
// request stream lives in mem, the run's filter memory.
type RequestFilter interface {
	FilterRequest(core noc.NodeID, mw uint32, mem *CoreMemory) (useMW uint32, flagged bool)
	// Name identifies the filter in reports.
	Name() string
}

// Manager is the global manager core (Section II-A): it collects POWER_REQ
// packets during an epoch and runs the allocator at the epoch boundary.
type Manager struct {
	node     noc.NodeID
	alloc    Allocator
	budgetMW uint64
	filter   RequestFilter
	// state and memory are what the allocator and the filter remember
	// across epochs.
	state  State
	memory CoreMemory
	// info and pending are indexed by core ID: the OS-level knowledge and
	// the request latched this epoch (npending of them are set).
	info     []CoreInfo
	pending  []latched
	npending int
	// reqs, grants and out are AllocateEpoch's buffers, reused every
	// epoch.
	reqs   []Request
	grants []uint32
	out    []Grant

	// ReceivedTotal counts all POWER_REQ packets ever accepted.
	ReceivedTotal uint64
	// TamperedTotal counts accepted requests that were modified in flight.
	// The real manager cannot see this bit — it exists for measurement.
	TamperedTotal uint64
	// FlaggedTotal counts requests the filter marked suspect.
	FlaggedTotal uint64
	// RepairedTampered counts requests that were both tampered in flight
	// and flagged by the filter — true positives, for detection metrics.
	RepairedTampered uint64
}

// latched is one core's request for the current epoch.
type latched struct {
	mw  uint32
	set bool
}

// NewManager creates a global manager at node with the given allocator and
// chip budget.
func NewManager(node noc.NodeID, alloc Allocator, budgetMW uint64) (*Manager, error) {
	m := new(Manager)
	if err := m.Reset(node, alloc, budgetMW); err != nil {
		return nil, err
	}
	return m, nil
}

// Reset returns m to the state NewManager(node, alloc, budgetMW) returns
// — no core information, no pending requests, no filter, nothing the
// allocator or a filter remembered, zero counters — keeping its buffers
// for the next run.
func (m *Manager) Reset(node noc.NodeID, alloc Allocator, budgetMW uint64) error {
	if alloc == nil {
		return fmt.Errorf("budget: manager needs an allocator")
	}
	if budgetMW == 0 {
		return fmt.Errorf("budget: manager needs a nonzero budget")
	}
	*m = Manager{
		node:     node,
		alloc:    alloc,
		budgetMW: budgetMW,
		info:     m.info[:0],
		pending:  m.pending[:0],
		reqs:     m.reqs[:0],
		grants:   m.grants[:0],
		out:      m.out[:0],
		state:    m.state,
		memory:   m.memory,
	}
	m.state.pi.forget()
	m.memory.forget()
	return nil
}

// cover returns s extended with zero values, if need be, to hold index i.
func cover[T any](s []T, i int) []T {
	n := len(s)
	if i < n {
		return s
	}
	s = slices.Grow(s, i+1-n)[:i+1]
	clear(s[n:])
	return s
}

// Node returns the manager's NoC node.
func (m *Manager) Node() noc.NodeID { return m.node }

// BudgetMW returns the chip power budget in milliwatts.
func (m *Manager) BudgetMW() uint64 { return m.budgetMW }

// Allocator returns the active allocation algorithm.
func (m *Manager) Allocator() Allocator { return m.alloc }

// SetCoreInfo registers OS-level knowledge for a core.
func (m *Manager) SetCoreInfo(core noc.NodeID, info CoreInfo) {
	m.info = cover(m.info, int(core))
	m.info[core] = info
}

// SetFilter installs a request-integrity filter (nil clears).
func (m *Manager) SetFilter(f RequestFilter) { m.filter = f }

// HandleRequest latches one delivered POWER_REQ packet. Later requests from
// the same core within an epoch overwrite earlier ones.
func (m *Manager) HandleRequest(p *noc.Packet) {
	if p.Type != noc.TypePowerReq || p.Dst != m.node {
		return
	}
	value := p.Payload
	if m.filter != nil {
		use, flagged := m.filter.FilterRequest(p.Src, value, &m.memory)
		if flagged {
			m.FlaggedTotal++
			if p.Tampered {
				m.RepairedTampered++
			}
		}
		value = use
	}
	m.pending = cover(m.pending, int(p.Src))
	if !m.pending[p.Src].set {
		m.npending++
	}
	m.pending[p.Src] = latched{mw: value, set: true}
	m.ReceivedTotal++
	if p.Tampered {
		m.TamperedTotal++
	}
}

// PendingCount returns the number of cores with a request this epoch.
func (m *Manager) PendingCount() int { return m.npending }

// AllocateEpoch runs the allocator over the epoch's requests, clears the
// pending set, and returns the grants sorted by core ID. The returned
// slice is reused by the next AllocateEpoch; a caller that keeps grants
// copies them.
func (m *Manager) AllocateEpoch() []Grant {
	if m.npending == 0 {
		return nil
	}
	m.reqs, m.out = m.reqs[:0], m.out[:0]
	for c, req := range m.pending {
		if !req.set {
			continue
		}
		var info CoreInfo
		if c < len(m.info) {
			info = m.info[c]
		}
		m.reqs = append(m.reqs, Request{
			Core:        c,
			RequestMW:   req.mw,
			Sensitivity: info.Sensitivity,
			LevelsMW:    info.LevelsMW,
			LevelValues: info.LevelValues,
		})
		m.out = append(m.out, Grant{Core: noc.NodeID(c)})
		m.pending[c] = latched{}
	}
	m.npending = 0
	m.grants = m.alloc.Allocate(m.grants[:0], m.budgetMW, m.reqs, &m.state)
	for i := range m.out {
		m.out[i].GrantMW = m.grants[i]
	}
	return m.out
}
