package attack

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/metrics"
	"repro/internal/noc"
)

func TestBalancedForInfectionRateBalancesGroups(t *testing.T) {
	m := mesh16()
	gm := m.Center()
	rng := rand.New(rand.NewSource(9))
	// Two disjoint groups: left half vs right half of the mesh.
	var left, right []noc.NodeID
	for id := noc.NodeID(0); id < noc.NodeID(m.Nodes()); id++ {
		if id == gm {
			continue
		}
		if m.Coord(id).X < m.Width/2 {
			left = append(left, id)
		} else {
			right = append(right, id)
		}
	}
	target := 0.5
	p, rate := BalancedForInfectionRate(m, gm, target, [][]noc.NodeID{left, right}, 10, rng)
	if p.Size() == 0 {
		t.Fatal("empty placement")
	}
	if math.Abs(rate-target) > 0.2 {
		t.Errorf("overall rate %v too far from %v", rate, target)
	}
	var infected noc.NodeSet
	p.Infected(&infected)
	covers := metrics.NewCovers(m, gm)
	lRate := metrics.InfectionRateXY(covers, &infected, left)
	rRate := metrics.InfectionRateXY(covers, &infected, right)
	if math.Abs(lRate-rRate) > 0.45 {
		t.Errorf("group rates %v vs %v are badly unbalanced", lRate, rRate)
	}
}

func TestBalancedForInfectionRateDegenerate(t *testing.T) {
	m := mesh16()
	if p, _ := BalancedForInfectionRate(m, m.Center(), 0, nil, 5, rand.New(rand.NewSource(1))); p.Size() != 0 {
		t.Error("zero target must place nothing")
	}
	// Empty groups are skipped, not fatal.
	p, _ := BalancedForInfectionRate(m, m.Center(), 0.4, [][]noc.NodeID{nil, {}}, 5, rand.New(rand.NewSource(1)))
	if p.Size() == 0 {
		t.Error("empty groups must not prevent placement")
	}
}

// The per-group rates BalancedForInfectionRate scores a fleet by.
func TestRateOverSubsets(t *testing.T) {
	m := noc.Mesh{Width: 4, Height: 4}
	gm := m.ID(noc.Coord{X: 0, Y: 0})
	var infected noc.NodeSet
	Placement{Nodes: []noc.NodeID{m.ID(noc.Coord{X: 1, Y: 0})}}.Infected(&infected)
	covers := metrics.NewCovers(m, gm)
	hot := m.ID(noc.Coord{X: 3, Y: 0})  // path crosses (1,0)
	cold := m.ID(noc.Coord{X: 0, Y: 3}) // path stays in column 0
	if got := metrics.InfectionRateXY(covers, &infected, []noc.NodeID{hot}); got != 1 {
		t.Errorf("hot source rate = %v, want 1", got)
	}
	if got := metrics.InfectionRateXY(covers, &infected, []noc.NodeID{cold}); got != 0 {
		t.Errorf("cold source rate = %v, want 0", got)
	}
	if got := metrics.InfectionRateXY(covers, &infected, []noc.NodeID{}); got != 0 {
		t.Errorf("empty sources = %v, want 0", got)
	}
	// nil means all non-manager sources: must agree with listing them.
	var all []noc.NodeID
	for id := noc.NodeID(0); id < noc.NodeID(m.Nodes()); id++ {
		if id != gm {
			all = append(all, id)
		}
	}
	got := metrics.InfectionRateXY(covers, &infected, nil)
	want := metrics.InfectionRateXY(covers, &infected, all)
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("nil sources = %v, all sources listed = %v", got, want)
	}
}

func TestRegionClusterTightWhenRngNil(t *testing.T) {
	m := mesh16()
	p, err := CenterCluster(m, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	// nil rng packs the tightest: the 4 nodes nearest the mesh centre.
	eta, _ := metrics.DensityEta(m, p.Nodes)
	if eta > 1.2 {
		t.Errorf("packed center cluster η = %v, want ≤ 1.2", eta)
	}
}

func TestRegionClusterSamplesWiderWithRng(t *testing.T) {
	m := mesh16()
	packed, _ := CenterCluster(m, 8, nil)
	etaPacked, _ := metrics.DensityEta(m, packed.Nodes)
	// Averaged over seeds, the sampled cluster is at least as spread out.
	sum := 0.0
	const trials = 10
	for s := int64(0); s < trials; s++ {
		sampled, err := CenterCluster(m, 8, rand.New(rand.NewSource(s)))
		if err != nil {
			t.Fatal(err)
		}
		eta, _ := metrics.DensityEta(m, sampled.Nodes)
		sum += eta
	}
	if sum/trials < etaPacked {
		t.Errorf("sampled mean η %v below packed η %v", sum/trials, etaPacked)
	}
}

func TestRegionClusterRespectsExclude(t *testing.T) {
	m := mesh16()
	gm := m.Center()
	for s := int64(0); s < 5; s++ {
		p, err := CenterCluster(m, 8, rand.New(rand.NewSource(s)), gm)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range p.Nodes {
			if n == gm {
				t.Fatal("excluded manager was infected")
			}
		}
	}
}

func TestCornerClusterStaysNearCorner(t *testing.T) {
	m := mesh16()
	p, err := CornerCluster(m, 8, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range p.Nodes {
		c := m.Coord(n)
		if c.X+c.Y > 8 {
			t.Errorf("corner-cluster node %v too far from (0,0)", c)
		}
	}
}

func TestRankPlacementsOrderingAndDedup(t *testing.T) {
	m := mesh16()
	gm := m.Center()
	rng := rand.New(rand.NewSource(6))
	var samples []Sample
	for i := 0; i < 40; i++ {
		p, err := RandomPlacement(m, 1+rng.Intn(12), rng, gm)
		if err != nil {
			t.Fatal(err)
		}
		f, err := FeaturesFor(m, gm, p)
		if err != nil {
			t.Fatal(err)
		}
		f.VictimPhi, f.AttackerPhi = []float64{1}, []float64{1}
		samples = append(samples, Sample{Features: f, Q: -0.4*f.Rho + 0.1*float64(f.M) + 2})
	}
	model, err := FitEffectModel(samples)
	if err != nil {
		t.Fatal(err)
	}
	top, evaluated, err := RankPlacements(m, gm, model, OptimizeOptions{
		MaxHTs: 12, CenterStride: 4, RadiusMax: 3,
		VictimPhi: []float64{1}, AttackerPhi: []float64{1},
	}, 5)
	if err != nil {
		t.Fatalf("RankPlacements: %v", err)
	}
	if evaluated == 0 || len(top) != 5 {
		t.Fatalf("evaluated=%d len(top)=%d", evaluated, len(top))
	}
	seen := make(map[string]bool)
	for i, c := range top {
		if i > 0 && c.PredictedQ > top[i-1].PredictedQ {
			t.Fatal("shortlist not sorted descending")
		}
		key := placementKey(c.Placement)
		if seen[key] {
			t.Fatal("duplicate placement in shortlist")
		}
		seen[key] = true
	}
}

func TestRankPlacementsValidation(t *testing.T) {
	m := mesh16()
	model := &EffectModel{coeffs: []float64{0, 0, 0}, intercept: 1}
	if _, _, err := RankPlacements(m, 0, nil, OptimizeOptions{MaxHTs: 2}, 1); err == nil {
		t.Error("nil model must fail")
	}
	if _, _, err := RankPlacements(m, 0, model, OptimizeOptions{MaxHTs: 2}, 0); err == nil {
		t.Error("k=0 must fail")
	}
	if _, _, err := RankPlacements(m, 0, model, OptimizeOptions{MaxHTs: 2, MinHTs: 3}, 1); err == nil {
		t.Error("MinHTs > MaxHTs must fail")
	}
}

func TestInsertCandidateKeepsBestK(t *testing.T) {
	var top []Candidate
	for _, q := range []float64{1, 5, 3, 4, 2} {
		top = insertCandidate(top, Candidate{PredictedQ: q}, 3)
	}
	if len(top) != 3 {
		t.Fatalf("len = %d, want 3", len(top))
	}
	want := []float64{5, 4, 3}
	for i, w := range want {
		if top[i].PredictedQ != w {
			t.Fatalf("top = %v, want %v", top, want)
		}
	}
}
