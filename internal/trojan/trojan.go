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

	"repro/internal/noc"
)

// AgentMatcher is the Trojan's attacker-identification hardware. Fig 2
// draws a single attacker-ID register; real campaigns run attacker
// applications across many contiguous cores, so the matcher also supports a
// small number of base/length range registers (configured through the
// CONFIG_CMD options field). This is the one place the implementation
// extends the paper's circuit, and it stays hardware-plausible: a range
// register is two comparators. The register file is fixed storage, as in
// hardware: the zero value is empty.
type AgentMatcher struct {
	regs [maxAgentRegisters]agentRange
	n    int // registers in use
}

// agentRange is one register: a (base, count) range, or the single ID
// base when count is 0.
type agentRange struct {
	base  noc.NodeID
	count int
}

// maxAgentRegisters bounds the matcher's register file, as real Trojan
// hardware would.
const maxAgentRegisters = 8

// holds reports whether the matcher has register r.
func (a *AgentMatcher) holds(r agentRange) bool {
	return slices.Contains(a.regs[:a.n], r)
}

// AddSingle registers one attacker core ID. An ID the matcher already
// holds takes no second register, and it silently drops entries beyond
// the register-file capacity, as saturating hardware would.
func (a *AgentMatcher) AddSingle(id noc.NodeID) {
	r := agentRange{base: id}
	if a.n >= maxAgentRegisters || a.holds(r) {
		return
	}
	a.regs[a.n] = r
	a.n++
}

// AddRange registers a contiguous block of attacker core IDs. A range the
// matcher already holds takes no second register, as AddSingle's IDs do
// not, so repeated CONFIG_CMD broadcasts of one range cannot fill the
// register file.
func (a *AgentMatcher) AddRange(base noc.NodeID, count int) {
	r := agentRange{base: base, count: count}
	if count <= 0 || a.holds(r) {
		return
	}
	if a.n >= maxAgentRegisters {
		return
	}
	a.regs[a.n] = r
	a.n++
}

// Matches reports whether id is a registered attacker agent.
func (a *AgentMatcher) Matches(id noc.NodeID) bool {
	for _, r := range a.regs[:a.n] {
		if r.count == 0 && id == r.base || r.count > 0 && id >= r.base && id < r.base+noc.NodeID(r.count) {
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
	// Local registers per Fig 2(a).
	gm         noc.NodeID
	configured bool
	active     bool
	agents     AgentMatcher

	stats Stats
}

// NewTrojan returns an unconfigured, inactive Trojan.
func NewTrojan() *Trojan { return new(Trojan) }

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
// router: a presence mask over router IDs says which routers hold one, and
// a router-indexed table says where it is. Reset rewrites a fleet in place,
// so a fleet kept with a run's state allocates nothing once it has grown.
type Fleet struct {
	present  noc.NodeSet
	slot     []int32  // router -> index in trojans, read only when present
	trojans  []Trojan // in the order the routers were given
	strategy Strategy
	mode     Mode
}

var _ noc.Inspector = (*Fleet)(nil)

// NewFleet implants Trojans at the given routers with the given payload
// strategy, in the paper's false-data mode. Duplicate router IDs are
// rejected.
func NewFleet(routers []noc.NodeID, strategy Strategy) (*Fleet, error) {
	f := new(Fleet)
	if err := f.Reset(routers, strategy); err != nil {
		return nil, err
	}
	return f, nil
}

// Reset makes f the fleet NewFleet(routers, strategy) returns: unconfigured,
// inactive Trojans with empty registers and zero counters, in false-data
// mode. It keeps f's storage. After an error f is unusable until the next
// successful Reset.
func (f *Fleet) Reset(routers []noc.NodeID, strategy Strategy) error {
	if strategy == nil {
		return fmt.Errorf("trojan: fleet needs a strategy")
	}
	f.strategy, f.mode = strategy, ModeFalseData
	f.present.Clear()
	f.trojans = f.trojans[:0]
	for _, r := range routers {
		if r < 0 {
			return fmt.Errorf("trojan: invalid router %d", r)
		}
		if f.present.Has(r) {
			return fmt.Errorf("trojan: duplicate Trojan at router %d", r)
		}
		if int(r) >= len(f.slot) {
			f.slot = append(f.slot, make([]int32, int(r)+1-len(f.slot))...)
		}
		f.present.Add(r)
		f.slot[r] = int32(len(f.trojans))
		f.trojans = append(f.trojans, Trojan{})
	}
	return nil
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
	if f.present.Has(router) {
		return f.trojans[f.slot[router]].observe(p, f.strategy, f.mode)
	}
	return noc.VerdictForward
}

// Size returns the number of implanted Trojans.
func (f *Fleet) Size() int { return len(f.trojans) }

// At returns the Trojan at router id, or nil.
func (f *Fleet) At(id noc.NodeID) *Trojan {
	if !f.present.Has(id) {
		return nil
	}
	return &f.trojans[f.slot[id]]
}

// TotalStats sums all Trojans' counters.
func (f *Fleet) TotalStats() Stats {
	var s Stats
	for i := range f.trojans {
		t := &f.trojans[i]
		s.PowerReqSeen += t.stats.PowerReqSeen
		s.Modified += t.stats.Modified
		s.Boosted += t.stats.Boosted
		s.Dropped += t.stats.Dropped
		s.Looped += t.stats.Looped
		s.ConfigsSeen += t.stats.ConfigsSeen
	}
	return s
}
