package metrics

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/noc"
)

func TestPerformanceChange(t *testing.T) {
	if got := PerformanceChange(3, 2); got != 1.5 {
		t.Errorf("Θ = %v, want 1.5", got)
	}
	if got := PerformanceChange(1, 0); got != 0 {
		t.Errorf("Θ with zero baseline = %v, want 0", got)
	}
}

func TestAttackEffectQ(t *testing.T) {
	// 2 attackers improved to 1.2, 1.4; 3 victims degraded to 0.5, 0.6, 0.7.
	q := AttackEffectQ([]float64{1.2, 1.4}, []float64{0.5, 0.6, 0.7})
	want := (3.0 * 2.6) / (2.0 * 1.8)
	if math.Abs(q-want) > 1e-12 {
		t.Errorf("Q = %v, want %v", q, want)
	}
}

func TestAttackEffectQNeutralIsOne(t *testing.T) {
	// No performance change anywhere: Q must be exactly 1.
	q := AttackEffectQ([]float64{1, 1}, []float64{1, 1, 1})
	if q != 1 {
		t.Errorf("neutral Q = %v, want 1", q)
	}
}

func TestAttackEffectQEdgeCases(t *testing.T) {
	if got := AttackEffectQ(nil, []float64{1}); got != 0 {
		t.Errorf("no attackers Q = %v, want 0", got)
	}
	if got := AttackEffectQ([]float64{1}, nil); got != 0 {
		t.Errorf("no victims Q = %v, want 0", got)
	}
	if got := AttackEffectQ([]float64{1}, []float64{0}); !math.IsInf(got, 1) {
		t.Errorf("collapsed victims Q = %v, want +Inf", got)
	}
}

// Property: Q increases when any attacker improves or any victim degrades.
func TestAttackEffectQMonotonicity(t *testing.T) {
	f := func(a, v uint8) bool {
		base := AttackEffectQ([]float64{1}, []float64{1})
		up := AttackEffectQ([]float64{1 + float64(a)/255}, []float64{1})
		down := AttackEffectQ([]float64{1}, []float64{1 + float64(v)/255})
		return up >= base && down <= base
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestVirtualCenter(t *testing.T) {
	m := noc.Mesh{Width: 8, Height: 8}
	nodes := []noc.NodeID{m.ID(noc.Coord{X: 1, Y: 1}), m.ID(noc.Coord{X: 3, Y: 5})}
	ox, oy, err := VirtualCenter(m, nodes)
	if err != nil {
		t.Fatalf("VirtualCenter: %v", err)
	}
	if ox != 2 || oy != 3 {
		t.Errorf("ω = (%v,%v), want (2,3)", ox, oy)
	}
}

func TestVirtualCenterEmpty(t *testing.T) {
	m := noc.Mesh{Width: 4, Height: 4}
	if _, _, err := VirtualCenter(m, nil); !errors.Is(err, ErrNoNodes) {
		t.Fatalf("err = %v, want ErrNoNodes", err)
	}
}

func TestDistanceRho(t *testing.T) {
	m := noc.Mesh{Width: 8, Height: 8}
	gm := m.ID(noc.Coord{X: 0, Y: 0})
	nodes := []noc.NodeID{m.ID(noc.Coord{X: 2, Y: 2}), m.ID(noc.Coord{X: 4, Y: 4})}
	rho, err := DistanceRho(m, gm, nodes)
	if err != nil {
		t.Fatalf("DistanceRho: %v", err)
	}
	if rho != 6 { // center (3,3): |0-3|+|0-3|
		t.Errorf("ρ = %v, want 6", rho)
	}
}

func TestDensityEta(t *testing.T) {
	m := noc.Mesh{Width: 8, Height: 8}
	// Cluster of one node: η = 0.
	one := []noc.NodeID{m.ID(noc.Coord{X: 3, Y: 3})}
	eta, err := DensityEta(m, one)
	if err != nil || eta != 0 {
		t.Errorf("singleton η = %v (%v), want 0", eta, err)
	}
	// Two nodes 4 apart: center midway, each 2 away → η = 2.
	two := []noc.NodeID{m.ID(noc.Coord{X: 1, Y: 3}), m.ID(noc.Coord{X: 5, Y: 3})}
	eta, err = DensityEta(m, two)
	if err != nil || eta != 2 {
		t.Errorf("pair η = %v (%v), want 2", eta, err)
	}
}

func TestDensityEtaTightVsSpread(t *testing.T) {
	m := noc.Mesh{Width: 16, Height: 16}
	tight := []noc.NodeID{
		m.ID(noc.Coord{X: 7, Y: 7}), m.ID(noc.Coord{X: 8, Y: 7}),
		m.ID(noc.Coord{X: 7, Y: 8}), m.ID(noc.Coord{X: 8, Y: 8}),
	}
	spread := []noc.NodeID{
		m.ID(noc.Coord{X: 0, Y: 0}), m.ID(noc.Coord{X: 15, Y: 0}),
		m.ID(noc.Coord{X: 0, Y: 15}), m.ID(noc.Coord{X: 15, Y: 15}),
	}
	etaT, _ := DensityEta(m, tight)
	etaS, _ := DensityEta(m, spread)
	if etaT >= etaS {
		t.Errorf("tight η %v must be below spread η %v", etaT, etaS)
	}
}

func TestInfectionRateXYNoTrojans(t *testing.T) {
	m := noc.Mesh{Width: 8, Height: 8}
	if got := InfectionRateXY(NewCovers(m, m.Center()), setOf(), nil); got != 0 {
		t.Errorf("rate = %v, want 0", got)
	}
}

func TestInfectionRateXYManagerRouterInterceptsAll(t *testing.T) {
	// An HT in the manager's own router sees every request: rate 1.
	m := noc.Mesh{Width: 8, Height: 8}
	gm := m.Center()
	if got := InfectionRateXY(NewCovers(m, gm), setOf(gm), nil); got != 1 {
		t.Errorf("rate = %v, want 1", got)
	}
}

func TestInfectionRateXYSingleOffPathTrojan(t *testing.T) {
	// GM at origin; HT at the far corner: only the corner node itself is
	// infected (its own requests start in the infected router).
	m := noc.Mesh{Width: 8, Height: 8}
	gm := m.ID(noc.Coord{X: 0, Y: 0})
	far := m.ID(noc.Coord{X: 7, Y: 7})
	want := 1.0 / 63.0
	if got := InfectionRateXY(NewCovers(m, gm), setOf(far), nil); math.Abs(got-want) > 1e-12 {
		t.Errorf("rate = %v, want %v", got, want)
	}
}

func TestInfectionRateXYColumnTrojan(t *testing.T) {
	// With the GM at (0,0) and XY routing, an HT at (0, y) for y > 0
	// intercepts every source with Y > y in column 0 plus all rows below…
	// check against an explicit path walk.
	m := noc.Mesh{Width: 4, Height: 4}
	gm := m.ID(noc.Coord{X: 0, Y: 0})
	ht := m.ID(noc.Coord{X: 0, Y: 2})
	infected := map[noc.NodeID]bool{ht: true}
	got := InfectionRateXY(NewCovers(m, gm), setOf(ht), nil)
	// Exhaustive check.
	hit := 0
	for id := noc.NodeID(0); id < 16; id++ {
		if id == gm {
			continue
		}
		for _, r := range m.PathXY(id, gm) {
			if infected[r] {
				hit++
				break
			}
		}
	}
	want := float64(hit) / 15
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("rate = %v, want %v", got, want)
	}
}

func TestInfectionRateXYCustomSources(t *testing.T) {
	m := noc.Mesh{Width: 4, Height: 4}
	gm := m.ID(noc.Coord{X: 0, Y: 0})
	infected := setOf(m.ID(noc.Coord{X: 1, Y: 0}))
	hot := m.ID(noc.Coord{X: 3, Y: 0})  // XY path crosses (1,0)
	cold := m.ID(noc.Coord{X: 0, Y: 3}) // path stays in column 0
	for _, tc := range []struct {
		name    string
		sources []noc.NodeID
		want    float64
	}{
		{"hot", []noc.NodeID{hot}, 1},
		{"cold", []noc.NodeID{cold}, 0},
		{"hot and cold", []noc.NodeID{hot, cold}, 0.5},
		{"empty", []noc.NodeID{}, 0},
		// A listed source counts once per listing.
		{"hot twice and cold", []noc.NodeID{hot, cold, hot}, 2.0 / 3},
		// nil means every non-manager source: (1,0), (2,0) and (3,0) of 15.
		{"nil", nil, 3.0 / 15},
	} {
		if got := InfectionRateXY(NewCovers(m, gm), infected, tc.sources); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("%s sources: rate = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// Property: the closed-form predictor agrees exactly with walking PathXY
// for random HT sets.
func TestInfectionRateXYAgreesWithPathWalk(t *testing.T) {
	m := noc.Mesh{Width: 6, Height: 5}
	gm := m.Center()
	covers := NewCovers(m, gm)
	f := func(raw []uint8) bool {
		infected := make(map[noc.NodeID]bool)
		var set noc.NodeSet
		for _, r := range raw {
			infected[noc.NodeID(int(r)%m.Nodes())] = true
			set.Add(noc.NodeID(int(r) % m.Nodes()))
		}
		got := InfectionRateXY(covers, &set, nil)
		hit, total := 0, 0
		for id := noc.NodeID(0); id < noc.NodeID(m.Nodes()); id++ {
			if id == gm {
				continue
			}
			total++
			for _, r := range m.PathXY(id, gm) {
				if infected[r] {
					hit++
					break
				}
			}
		}
		want := float64(hit) / float64(total)
		return math.Abs(got-want) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// setOf returns the set of ids.
func setOf(ids ...noc.NodeID) *noc.NodeSet {
	s := new(noc.NodeSet)
	s.Set(ids)
	return s
}

func TestInfectionCounter(t *testing.T) {
	var c InfectionCounter
	if c.Rate() != 0 {
		t.Error("empty counter rate must be 0")
	}
	c.Observe(&noc.Packet{Type: noc.TypePowerReq})
	c.Observe(&noc.Packet{Type: noc.TypePowerReq, HTSeen: true})
	c.Observe(&noc.Packet{Type: noc.TypePowerReq, HTSeen: true, Tampered: true})
	c.Observe(&noc.Packet{Type: noc.TypeMemReadReq, Tampered: true, HTSeen: true}) // ignored
	if c.Delivered != 3 || c.Infected != 2 || c.Tampered != 1 {
		t.Errorf("counter = %+v, want 3/2/1", c)
	}
	if c.Rate() != 2.0/3.0 {
		t.Errorf("rate = %v, want 2/3", c.Rate())
	}
}
