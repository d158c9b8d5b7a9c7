// Package trojan implements the paper's hardware Trojan (Section III): a
// tiny circuit of two registers and three comparators that sits between a
// router's input buffer and its routing-computation module (Fig 2), snoops
// CONFIG_CMD packets to learn the global manager's identity and its
// activation state, and rewrites the payload of POWER_REQ packets that are
// headed to the global manager from non-attacker cores.
package trojan

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/noc"
)

// AgentMatcher is the Trojan's attacker-identification hardware. Fig 2
// draws a single attacker-ID register; real campaigns run attacker
// applications across many contiguous cores, so the matcher also supports a
// small number of base/length range registers (configured through the
// CONFIG_CMD options field). This is the one place the implementation
// extends the paper's circuit, and it stays hardware-plausible: a range
// register is two comparators.
type AgentMatcher struct {
	singles map[noc.NodeID]struct{}
	ranges  []agentRange
}

type agentRange struct {
	base  noc.NodeID
	count int
}

// maxAgentRegisters bounds the matcher's register file, as real Trojan
// hardware would.
const maxAgentRegisters = 8

// AddSingle registers one attacker core ID. It silently drops entries
// beyond the register-file capacity, as saturating hardware would.
func (a *AgentMatcher) AddSingle(id noc.NodeID) {
	if a.singles == nil {
		a.singles = make(map[noc.NodeID]struct{})
	}
	if len(a.singles)+len(a.ranges) >= maxAgentRegisters {
		return
	}
	a.singles[id] = struct{}{}
}

// AddRange registers a contiguous block of attacker core IDs. A range the
// matcher already holds takes no second register, as AddSingle's IDs do
// not, so repeated CONFIG_CMD broadcasts of one range cannot fill the
// register file.
func (a *AgentMatcher) AddRange(base noc.NodeID, count int) {
	r := agentRange{base: base, count: count}
	if count <= 0 || slices.Contains(a.ranges, r) {
		return
	}
	if len(a.singles)+len(a.ranges) >= maxAgentRegisters {
		return
	}
	a.ranges = append(a.ranges, r)
}

// Matches reports whether id is a registered attacker agent.
func (a *AgentMatcher) Matches(id noc.NodeID) bool {
	if _, ok := a.singles[id]; ok {
		return true
	}
	for _, r := range a.ranges {
		if id >= r.base && id < r.base+noc.NodeID(r.count) {
			return true
		}
	}
	return false
}

// Mode selects which Section II-B DoS attack class the Trojan implements.
// The paper's contribution is the false-data attack; the drop and
// routing-loop modes exist as taxonomy baselines for comparison.
type Mode int

// Attack modes.
const (
	// ModeFalseData rewrites power-request payloads (the paper's attack).
	ModeFalseData Mode = iota + 1
	// ModeDrop discards matching packets (packet-drop attack).
	ModeDrop
	// ModeLoopback bounces matching packets to their source (routing-loop
	// attack).
	ModeLoopback
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeFalseData:
		return "false-data"
	case ModeDrop:
		return "drop"
	case ModeLoopback:
		return "loopback"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Stats counts one Trojan's activity.
type Stats struct {
	// PowerReqSeen counts POWER_REQ packets that crossed the router.
	PowerReqSeen uint64
	// Modified counts payload rewrites performed.
	Modified uint64
	// Boosted counts attacker-request increases performed.
	Boosted uint64
	// Dropped counts packets condemned in ModeDrop.
	Dropped uint64
	// Looped counts packets bounced in ModeLoopback.
	Looped uint64
	// ConfigsSeen counts CONFIG_CMD packets observed.
	ConfigsSeen uint64
}

// Trojan is one implanted HT instance in one router.
type Trojan struct {
	router noc.NodeID

	// Local registers per Fig 2(a).
	gm         noc.NodeID
	configured bool
	active     bool
	agents     AgentMatcher

	stats Stats
}

// NewTrojan implants an unconfigured, inactive Trojan at router id.
func NewTrojan(router noc.NodeID) *Trojan { return &Trojan{router: router} }

// Router returns the infected router's node ID.
func (t *Trojan) Router() noc.NodeID { return t.router }

// Configured reports whether a CONFIG_CMD has been latched.
func (t *Trojan) Configured() bool { return t.configured }

// Active reports the current activation state.
func (t *Trojan) Active() bool { return t.active }

// Stats returns the Trojan's activity counters.
func (t *Trojan) Stats() Stats { return t.stats }

// observe processes one packet passing the infected router's RC stage,
// applying strategy when the trigger condition of Section III-B holds. The
// returned verdict is VerdictForward except for the drop and loopback
// taxonomy modes.
func (t *Trojan) observe(p *noc.Packet, strategy Strategy, mode Mode) noc.Verdict {
	switch p.Type {
	case noc.TypeConfigCmd:
		t.latchConfig(p)
	case noc.TypePowerReq:
		t.stats.PowerReqSeen++
		if !t.configured || !t.active || p.Dst != t.gm {
			return noc.VerdictForward
		}
		p.HTSeen = true
		if t.agents.Matches(p.Src) {
			if boosted, ok := strategy.TamperAttacker(p.Payload); ok && !p.Tampered && mode == ModeFalseData {
				p.Payload = boosted
				p.Tampered = true
				t.stats.Boosted++
			}
			return noc.VerdictForward
		}
		// Trigger condition met: destination is the global manager and the
		// source is not a hacker agent.
		switch mode {
		case ModeDrop:
			t.stats.Dropped++
			return noc.VerdictDrop
		case ModeLoopback:
			if p.LoopedBack {
				return noc.VerdictForward // already bounced once
			}
			t.stats.Looped++
			return noc.VerdictLoopback
		}
		// ModeFalseData: the functional module rewrites the power-request
		// value. Rewrites are idempotent across multiple HTs on one path:
		// the first infected router does the damage.
		if p.Tampered {
			return noc.VerdictForward
		}
		p.Payload = strategy.TamperVictim(p.Payload)
		p.Tampered = true
		t.stats.Modified++
	}
	return noc.VerdictForward
}

// latchConfig stores the attacker's parameters from a CONFIG_CMD packet:
// the global manager ID and activation signal from the packed type word
// (Fig 1b), the hacker agent's own ID from the source-address field, and
// optional (base, count) agent ranges from the options field.
func (t *Trojan) latchConfig(p *noc.Packet) {
	t.stats.ConfigsSeen++
	gm, active := noc.ParseConfigWord(p.Payload)
	t.gm = gm
	t.active = active
	t.configured = true
	t.agents.AddSingle(p.Src)
	for i := 0; i+1 < len(p.Options); i += 2 {
		t.agents.AddRange(noc.NodeID(p.Options[i]), int(p.Options[i+1]))
	}
}

// Fleet is the set of Trojans implanted in a chip. It implements
// noc.Inspector, dispatching RC-stage packets to the Trojan in the matching
// router.
type Fleet struct {
	trojans  map[noc.NodeID]*Trojan
	strategy Strategy
	mode     Mode
}

var _ noc.Inspector = (*Fleet)(nil)

// NewFleet implants Trojans at the given routers with the given payload
// strategy, in the paper's false-data mode. Duplicate router IDs are
// rejected.
func NewFleet(routers []noc.NodeID, strategy Strategy) (*Fleet, error) {
	if strategy == nil {
		return nil, fmt.Errorf("trojan: fleet needs a strategy")
	}
	f := &Fleet{
		trojans:  make(map[noc.NodeID]*Trojan, len(routers)),
		strategy: strategy,
		mode:     ModeFalseData,
	}
	for _, r := range routers {
		if _, dup := f.trojans[r]; dup {
			return nil, fmt.Errorf("trojan: duplicate Trojan at router %d", r)
		}
		f.trojans[r] = NewTrojan(r)
	}
	return f, nil
}

// SetMode switches the fleet to another Section II-B attack class.
func (f *Fleet) SetMode(m Mode) error {
	switch m {
	case ModeFalseData, ModeDrop, ModeLoopback:
		f.mode = m
		return nil
	default:
		return fmt.Errorf("trojan: invalid mode %d", int(m))
	}
}

// Mode returns the fleet's attack class.
func (f *Fleet) Mode() Mode { return f.mode }

// InspectRC implements noc.Inspector.
func (f *Fleet) InspectRC(router noc.NodeID, p *noc.Packet) noc.Verdict {
	if t, ok := f.trojans[router]; ok {
		return t.observe(p, f.strategy, f.mode)
	}
	return noc.VerdictForward
}

// Size returns the number of implanted Trojans.
func (f *Fleet) Size() int { return len(f.trojans) }

// Locations returns the infected router IDs in ascending order.
func (f *Fleet) Locations() []noc.NodeID {
	out := make([]noc.NodeID, 0, len(f.trojans))
	for r := range f.trojans {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// At returns the Trojan at router id, or nil.
func (f *Fleet) At(id noc.NodeID) *Trojan { return f.trojans[id] }

// TotalStats sums all Trojans' counters.
func (f *Fleet) TotalStats() Stats {
	var s Stats
	for _, t := range f.trojans {
		s.PowerReqSeen += t.stats.PowerReqSeen
		s.Modified += t.stats.Modified
		s.Boosted += t.stats.Boosted
		s.Dropped += t.stats.Dropped
		s.Looped += t.stats.Looped
		s.ConfigsSeen += t.stats.ConfigsSeen
	}
	return s
}
