package defense

import (
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/budget"
	"repro/internal/noc"
)

var testLevels = []uint32{700, 1200, 1800, 2500, 3300, 4000}

func TestNewRangeGuard(t *testing.T) {
	g, err := NewRangeGuard(testLevels)
	if err != nil {
		t.Fatal(err)
	}
	if g.MinMW != 700 || g.MaxMW != 4000 {
		t.Errorf("guard = %+v", g)
	}
	if _, err := NewRangeGuard(nil); err == nil {
		t.Error("empty table must fail")
	}
}

func TestRangeGuardClamps(t *testing.T) {
	g, _ := NewRangeGuard(testLevels)
	tests := []struct {
		name     string
		give     uint32
		wantMW   uint32
		wantFlag bool
	}{
		{name: "zeroed request (Fig 2 rewrite)", give: 0, wantMW: 700, wantFlag: true},
		{name: "below floor", give: 500, wantMW: 700, wantFlag: true},
		{name: "in range passes", give: 2000, wantMW: 2000, wantFlag: false},
		{name: "exact bounds pass", give: 4000, wantMW: 4000, wantFlag: false},
		{name: "boost beyond peak", give: 6000, wantMW: 4000, wantFlag: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, flagged := g.FilterRequest(1, tt.give, nil)
			if got != tt.wantMW || flagged != tt.wantFlag {
				t.Errorf("FilterRequest(%d) = (%d,%v), want (%d,%v)", tt.give, got, flagged, tt.wantMW, tt.wantFlag)
			}
		})
	}
}

// Property: range guard output is always within bounds.
func TestRangeGuardAlwaysInRange(t *testing.T) {
	g, _ := NewRangeGuard(testLevels)
	f := func(mw uint32) bool {
		got, _ := g.FilterRequest(0, mw, nil)
		return got >= g.MinMW && got <= g.MaxMW
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHistoryGuardFlagsSuddenDrop(t *testing.T) {
	g, mem := NewHistoryGuard(0.3, 0.5), new(budget.CoreMemory)
	// Clean history: the core asks for its peak every epoch.
	for i := 0; i < 5; i++ {
		if _, flagged := g.FilterRequest(1, 3960, mem); flagged {
			t.Fatal("steady history must not flag")
		}
	}
	// The Trojan activates: the request arrives quartered.
	use, flagged := g.FilterRequest(1, 990, mem)
	if !flagged {
		t.Fatal("75% drop must be flagged")
	}
	if use != 3960 {
		t.Errorf("substituted value = %d, want history 3960", use)
	}
	// The outlier must not poison the history.
	if _, flagged := g.FilterRequest(1, 3960, mem); flagged {
		t.Error("return to normal must not flag")
	}
}

func TestHistoryGuardFlagsSuddenBoost(t *testing.T) {
	g, mem := NewHistoryGuard(0.3, 0.5), new(budget.CoreMemory)
	for i := 0; i < 3; i++ {
		g.FilterRequest(2, 3960, mem)
	}
	if _, flagged := g.FilterRequest(2, 5940, mem); !flagged {
		t.Error("1.5x boost must be flagged")
	}
}

func TestHistoryGuardBlindToPersistentAttack(t *testing.T) {
	// The honest limitation: a Trojan active from the very first request
	// poisons the history and is never flagged.
	g, mem := NewHistoryGuard(0.3, 0.5), new(budget.CoreMemory)
	for i := 0; i < 10; i++ {
		if _, flagged := g.FilterRequest(3, 990, mem); flagged {
			t.Fatal("persistent tampered value looks like a clean history")
		}
	}
}

func TestHistoryGuardToleratesDrift(t *testing.T) {
	g, mem := NewHistoryGuard(0.5, 0.5), new(budget.CoreMemory)
	// Gradual 20% steps stay under the 50% tolerance.
	for _, v := range []uint32{1000, 1200, 1400, 1600, 1900} {
		if _, flagged := g.FilterRequest(4, v, mem); flagged {
			t.Fatalf("gradual drift to %d must not flag", v)
		}
	}
}

// A reset manager forgets the history guard's EWMAs: the same requests
// get the grants and flags a fresh manager gives.
func TestHistoryGuardReset(t *testing.T) {
	epochs := func(m *budget.Manager, mws ...uint32) ([]budget.Grant, uint64) {
		m.SetFilter(NewHistoryGuard(0.3, 0.5))
		var all []budget.Grant
		for _, mw := range mws {
			m.HandleRequest(&noc.Packet{Src: 1, Dst: 9, Type: noc.TypePowerReq, Payload: mw})
			all = append(all, m.AllocateEpoch()...)
		}
		return all, m.FlaggedTotal
	}
	fresh, err := budget.NewManager(9, budget.FairShare{}, 8000)
	if err != nil {
		t.Fatal(err)
	}
	want, wantFlagged := epochs(fresh, 100, 120, 4000)
	m, _ := budget.NewManager(9, budget.FairShare{}, 8000)
	epochs(m, 4000, 4000, 4000)
	if err := m.Reset(9, budget.FairShare{}, 8000); err != nil {
		t.Fatal(err)
	}
	if got, flagged := epochs(m, 100, 120, 4000); !slices.Equal(got, want) || flagged != wantFlagged {
		t.Errorf("after Reset: grants %v, %d flagged; fresh manager %v, %d", got, flagged, want, wantFlagged)
	}
}

func TestHistoryGuardParameterClamping(t *testing.T) {
	g := NewHistoryGuard(-1, -1)
	if g.Alpha != 0.3 || g.Tolerance != 0.5 {
		t.Errorf("defaults not applied: %+v", g)
	}
}

func TestChainCombinesFilters(t *testing.T) {
	rg, _ := NewRangeGuard(testLevels)
	c, mem := NewChain(rg, NewHistoryGuard(0.3, 0.5)), new(budget.CoreMemory)
	if c.Name() != "range-guard+history-guard" {
		t.Errorf("Name = %q", c.Name())
	}
	// Build a clean history through the chain.
	for i := 0; i < 4; i++ {
		if _, flagged := c.FilterRequest(1, 3960, mem); flagged {
			t.Fatal("clean requests must pass the chain")
		}
	}
	// A zeroed request: the range guard clamps to 700, then the history
	// guard still sees a >50% deviation from 3960 and substitutes it.
	use, flagged := c.FilterRequest(1, 0, mem)
	if !flagged {
		t.Fatal("chain must flag a zeroed request")
	}
	if use != 3960 {
		t.Errorf("chain substituted %d, want 3960", use)
	}
}

func TestChainEmptyPassesThrough(t *testing.T) {
	c := NewChain()
	use, flagged := c.FilterRequest(1, 1234, nil)
	if use != 1234 || flagged {
		t.Error("empty chain must be the identity")
	}
}

func TestManagerIntegration(t *testing.T) {
	// End-to-end with the budget manager: flagged tampered requests are
	// repaired before allocation.
	m, err := budget.NewManager(9, budget.FairShare{}, 8000)
	if err != nil {
		t.Fatal(err)
	}
	rg, _ := NewRangeGuard(testLevels)
	m.SetFilter(rg)
	m.HandleRequest(&noc.Packet{Src: 1, Dst: 9, Type: noc.TypePowerReq, Payload: 0, Tampered: true})
	m.HandleRequest(&noc.Packet{Src: 2, Dst: 9, Type: noc.TypePowerReq, Payload: 3960})
	if m.FlaggedTotal != 1 || m.RepairedTampered != 1 {
		t.Errorf("flagged/repaired = %d/%d, want 1/1", m.FlaggedTotal, m.RepairedTampered)
	}
	grants := m.AllocateEpoch()
	if grants[0].GrantMW != 700 {
		t.Errorf("repaired grant = %d, want clamped floor 700", grants[0].GrantMW)
	}
}
