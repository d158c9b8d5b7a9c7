package trojan

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/noc"
)

// This file keeps the Trojan fleet and its agent matcher as they were
// before the router-indexed table and the fixed register file, verbatim
// but for their names, as the oracle of FuzzFleetOracle: a map of
// separately allocated Trojans, and a map plus a slice of registers.

// oracleAgentMatcher is the oracleTrojan's attacker-identification hardware. Fig 2
// draws a single attacker-ID register; real campaigns run attacker
// applications across many contiguous cores, so the matcher also supports a
// small number of base/length range registers (configured through the
// CONFIG_CMD options field). This is the one place the implementation
// extends the paper's circuit, and it stays hardware-plausible: a range
// register is two comparators.
type oracleAgentMatcher struct {
	singles map[noc.NodeID]struct{}
	ranges  []oracleAgentRange
}

type oracleAgentRange struct {
	base  noc.NodeID
	count int
}

// oracleMaxAgentRegisters bounds the matcher's register file, as real oracleTrojan
// hardware would.
const oracleMaxAgentRegisters = 8

// AddSingle registers one attacker core ID. It silently drops entries
// beyond the register-file capacity, as saturating hardware would.
func (a *oracleAgentMatcher) AddSingle(id noc.NodeID) {
	if a.singles == nil {
		a.singles = make(map[noc.NodeID]struct{})
	}
	if len(a.singles)+len(a.ranges) >= oracleMaxAgentRegisters {
		return
	}
	a.singles[id] = struct{}{}
}

// AddRange registers a contiguous block of attacker core IDs. A range the
// matcher already holds takes no second register, as AddSingle's IDs do
// not, so repeated CONFIG_CMD broadcasts of one range cannot fill the
// register file.
func (a *oracleAgentMatcher) AddRange(base noc.NodeID, count int) {
	r := oracleAgentRange{base: base, count: count}
	if count <= 0 || slices.Contains(a.ranges, r) {
		return
	}
	if len(a.singles)+len(a.ranges) >= oracleMaxAgentRegisters {
		return
	}
	a.ranges = append(a.ranges, r)
}

// Matches reports whether id is a registered attacker agent.
func (a *oracleAgentMatcher) Matches(id noc.NodeID) bool {
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

// oracleTrojan is one implanted HT instance in one router.
type oracleTrojan struct {
	router noc.NodeID

	// Local registers per Fig 2(a).
	gm         noc.NodeID
	configured bool
	active     bool
	agents     oracleAgentMatcher

	stats Stats
}

// newOracleTrojan implants an unconfigured, inactive oracleTrojan at router id.
func newOracleTrojan(router noc.NodeID) *oracleTrojan { return &oracleTrojan{router: router} }

// Router returns the infected router's node ID.
func (t *oracleTrojan) Router() noc.NodeID { return t.router }

// observe processes one packet passing the infected router's RC stage,
// applying strategy when the trigger condition of Section III-B holds. The
// returned verdict is VerdictForward except for the drop and loopback
// taxonomy modes.
func (t *oracleTrojan) observe(p *noc.Packet, strategy Strategy, mode Mode) noc.Verdict {
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
func (t *oracleTrojan) latchConfig(p *noc.Packet) {
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

// oracleFleet is the set of Trojans implanted in a chip. It implements
// noc.Inspector, dispatching RC-stage packets to the oracleTrojan in the matching
// router.
type oracleFleet struct {
	trojans  map[noc.NodeID]*oracleTrojan
	strategy Strategy
	mode     Mode
}

var _ noc.Inspector = (*oracleFleet)(nil)

// newOracleFleet implants Trojans at the given routers with the given payload
// strategy, in the paper's false-data mode. Duplicate router IDs are
// rejected.
func newOracleFleet(routers []noc.NodeID, strategy Strategy) (*oracleFleet, error) {
	if strategy == nil {
		return nil, fmt.Errorf("trojan: fleet needs a strategy")
	}
	f := &oracleFleet{
		trojans:  make(map[noc.NodeID]*oracleTrojan, len(routers)),
		strategy: strategy,
		mode:     ModeFalseData,
	}
	for _, r := range routers {
		if _, dup := f.trojans[r]; dup {
			return nil, fmt.Errorf("trojan: duplicate oracleTrojan at router %d", r)
		}
		f.trojans[r] = newOracleTrojan(r)
	}
	return f, nil
}

// SetMode switches the fleet to another Section II-B attack class.
func (f *oracleFleet) SetMode(m Mode) error {
	switch m {
	case ModeFalseData, ModeDrop, ModeLoopback:
		f.mode = m
		return nil
	default:
		return fmt.Errorf("trojan: invalid mode %d", int(m))
	}
}

// Mode returns the fleet's attack class.
func (f *oracleFleet) Mode() Mode { return f.mode }

// InspectRC implements noc.Inspector.
func (f *oracleFleet) InspectRC(router noc.NodeID, p *noc.Packet) noc.Verdict {
	if t, ok := f.trojans[router]; ok {
		return t.observe(p, f.strategy, f.mode)
	}
	return noc.VerdictForward
}

// Size returns the number of implanted Trojans.
func (f *oracleFleet) Size() int { return len(f.trojans) }

// Locations returns the infected router IDs in ascending order.
func (f *oracleFleet) Locations() []noc.NodeID {
	out := make([]noc.NodeID, 0, len(f.trojans))
	for r := range f.trojans {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// At returns the oracleTrojan at router id, or nil.
func (f *oracleFleet) At(id noc.NodeID) *oracleTrojan { return f.trojans[id] }

// TotalStats sums all Trojans' counters.
func (f *oracleFleet) TotalStats() Stats {
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
