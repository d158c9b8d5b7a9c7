package attack

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/metrics"
	"repro/internal/noc"
)

func mesh16() noc.Mesh { return noc.Mesh{Width: 16, Height: 16} }

func TestCenterClusterIsTight(t *testing.T) {
	m := mesh16()
	p, err := CenterCluster(m, 8, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatalf("CenterCluster: %v", err)
	}
	if p.Size() != 8 {
		t.Fatalf("size = %d, want 8", p.Size())
	}
	eta, err := metrics.DensityEta(m, p.Nodes)
	if err != nil {
		t.Fatal(err)
	}
	if eta > 2 {
		t.Errorf("center cluster η = %v, want tight (≤ 2)", eta)
	}
	rho, _ := metrics.DistanceRho(m, m.Center(), p.Nodes)
	if rho > 1.5 {
		t.Errorf("center cluster ρ to mesh center = %v, want ≈ 0", rho)
	}
}

func TestCornerClusterIsFarFromCenter(t *testing.T) {
	m := mesh16()
	p, err := CornerCluster(m, 8, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatalf("CornerCluster: %v", err)
	}
	rho, _ := metrics.DistanceRho(m, m.Center(), p.Nodes)
	if rho < 8 {
		t.Errorf("corner cluster ρ to center = %v, want far (≥ 8)", rho)
	}
}

func TestRandomPlacementProperties(t *testing.T) {
	m := mesh16()
	rng := rand.New(rand.NewSource(1))
	gm := m.Center()
	p, err := RandomPlacement(m, 20, rng, gm)
	if err != nil {
		t.Fatalf("RandomPlacement: %v", err)
	}
	if p.Size() != 20 {
		t.Fatalf("size = %d, want 20", p.Size())
	}
	seen := make(map[noc.NodeID]bool)
	for _, n := range p.Nodes {
		if seen[n] {
			t.Fatal("duplicate node in placement")
		}
		seen[n] = true
		if n == gm {
			t.Fatal("excluded node was placed")
		}
	}
}

func TestRandomPlacementDeterministicPerSeed(t *testing.T) {
	m := mesh16()
	a, _ := RandomPlacement(m, 10, rand.New(rand.NewSource(7)))
	b, _ := RandomPlacement(m, 10, rand.New(rand.NewSource(7)))
	for i := range a.Nodes {
		if a.Nodes[i] != b.Nodes[i] {
			t.Fatal("same seed must give same placement")
		}
	}
}

func TestPlacementValidation(t *testing.T) {
	m := mesh16()
	if _, err := CenterCluster(m, 0, nil); err == nil {
		t.Error("zero count must fail")
	}
	if _, err := CornerCluster(m, 1000, nil); err == nil {
		t.Error("oversized count must fail")
	}
	if _, err := RandomPlacement(m, 300, rand.New(rand.NewSource(1))); err == nil {
		t.Error("oversized random placement must fail")
	}
	if _, err := RingCluster(m, noc.Coord{}, 0, 1); err == nil {
		t.Error("zero ring count must fail")
	}
}

func TestRingClusterControlsEta(t *testing.T) {
	m := mesh16()
	center := noc.Coord{X: 8, Y: 8}
	tight, err := RingCluster(m, center, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	spread, err := RingCluster(m, center, 8, 6)
	if err != nil {
		t.Fatal(err)
	}
	etaT, _ := metrics.DensityEta(m, tight.Nodes)
	etaS, _ := metrics.DensityEta(m, spread.Nodes)
	if etaT >= etaS {
		t.Errorf("radius 0 η %v must be below radius 6 η %v", etaT, etaS)
	}
}

func TestRingClusterExcludes(t *testing.T) {
	m := mesh16()
	gm := m.ID(noc.Coord{X: 8, Y: 8})
	p, err := RingCluster(m, noc.Coord{X: 8, Y: 8}, 5, 0, gm)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range p.Nodes {
		if n == gm {
			t.Fatal("excluded manager was infected")
		}
	}
}

func TestInfectedSet(t *testing.T) {
	p := Placement{Nodes: []noc.NodeID{3, 7}}
	var inf noc.NodeSet
	inf.Add(60) // replaced, not kept
	p.Infected(&inf)
	if !inf.Has(3) || !inf.Has(7) || inf.Has(5) || inf.Has(60) || inf.Len() != 2 {
		t.Errorf("Infected() = %v", inf.Words())
	}
}

func TestForInfectionRateReachesTarget(t *testing.T) {
	m := mesh16()
	gm := m.Center()
	for _, target := range []float64{0.2, 0.5, 0.8, 0.95} {
		p, achieved := ForInfectionRate(m, gm, target, 64)
		if achieved < target {
			t.Errorf("target %v: achieved only %v with %d HTs", target, achieved, p.Size())
		}
		// Cross-check against the closed-form predictor.
		var infected noc.NodeSet
		p.Infected(&infected)
		rate := metrics.InfectionRateXY(metrics.NewCovers(m, gm), &infected, nil)
		if math.Abs(rate-achieved) > 1e-12 {
			t.Errorf("achieved %v disagrees with predictor %v", achieved, rate)
		}
		for _, n := range p.Nodes {
			if n == gm {
				t.Error("manager router must never be infected")
			}
		}
	}
}

func TestForInfectionRateBudgetBound(t *testing.T) {
	m := mesh16()
	gm := m.Center()
	p, achieved := ForInfectionRate(m, gm, 0.99, 2)
	if p.Size() > 2 {
		t.Errorf("placement used %d HTs, budget was 2", p.Size())
	}
	if achieved >= 0.99 {
		t.Log("2 HTs unexpectedly reached 99% — suspicious but not impossible")
	}
}

func TestForInfectionRateDegenerate(t *testing.T) {
	m := mesh16()
	if p, r := ForInfectionRate(m, m.Center(), 0, 5); p.Size() != 0 || r != 0 {
		t.Error("zero target must place nothing")
	}
	if p, _ := ForInfectionRate(m, m.Center(), 0.5, 0); p.Size() != 0 {
		t.Error("zero budget must place nothing")
	}
}

// Property: greedy cover monotonicity — more HT budget never lowers the
// achievable infection rate.
func TestForInfectionRateMonotonic(t *testing.T) {
	m := noc.Mesh{Width: 8, Height: 8}
	gm := m.Center()
	f := func(seedRaw uint8) bool {
		target := 0.3 + float64(seedRaw)/255*0.6
		_, r1 := ForInfectionRate(m, gm, target, 4)
		_, r2 := ForInfectionRate(m, gm, target, 16)
		return r2 >= r1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestFeaturesFor(t *testing.T) {
	m := mesh16()
	p, _ := CenterCluster(m, 4, nil)
	f, err := FeaturesFor(m, m.Corner(), p)
	if err != nil {
		t.Fatalf("FeaturesFor: %v", err)
	}
	if f.M != 4 {
		t.Errorf("M = %d, want 4", f.M)
	}
	if f.Rho <= 0 {
		t.Errorf("ρ = %v, want > 0 for corner manager", f.Rho)
	}
}

func TestFeaturesForEmpty(t *testing.T) {
	if _, err := FeaturesFor(mesh16(), 0, Placement{}); err == nil {
		t.Error("empty placement must fail")
	}
}

func TestFeatureVectorOrder(t *testing.T) {
	f := Features{Rho: 1, Eta: 2, M: 3, VictimPhi: []float64{4, 5}, AttackerPhi: []float64{6}}
	v := f.Vector()
	want := []float64{1, 2, 3, 4, 5, 6}
	if len(v) != len(want) {
		t.Fatalf("vector = %v", v)
	}
	for i := range want {
		if v[i] != want[i] {
			t.Fatalf("vector = %v, want %v", v, want)
		}
	}
}

// synthSamples draws campaigns from a known linear ground truth so the fit
// can be verified exactly.
func synthSamples(n int, rng *rand.Rand) []Sample {
	samples := make([]Sample, n)
	for i := range samples {
		f := Features{
			Rho:         rng.Float64() * 10,
			Eta:         rng.Float64() * 5,
			M:           1 + rng.Intn(30),
			VictimPhi:   []float64{rng.Float64(), rng.Float64()},
			AttackerPhi: []float64{rng.Float64()},
		}
		q := -0.3*f.Rho - 0.2*f.Eta + 0.1*float64(f.M) +
			0.5*f.VictimPhi[0] + 0.7*f.VictimPhi[1] + 1.1*f.AttackerPhi[0] + 2.0
		samples[i] = Sample{Features: f, Q: q}
	}
	return samples
}

func TestFitEffectModelRecoversCoefficients(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	model, err := FitEffectModel(synthSamples(60, rng))
	if err != nil {
		t.Fatalf("FitEffectModel: %v", err)
	}
	a1, a2, a3, b, c, a0 := model.Coefficients()
	checks := []struct {
		name string
		got  float64
		want float64
	}{
		{"a1", a1, -0.3}, {"a2", a2, -0.2}, {"a3", a3, 0.1},
		{"b1", b[0], 0.5}, {"b2", b[1], 0.7}, {"c1", c[0], 1.1}, {"a0", a0, 2.0},
	}
	for _, ch := range checks {
		if math.Abs(ch.got-ch.want) > 1e-9 {
			t.Errorf("%s = %v, want %v", ch.name, ch.got, ch.want)
		}
	}
	if model.R2() < 0.999 {
		t.Errorf("R2 = %v, want ≈ 1 on noiseless data", model.R2())
	}
}

func TestFitEffectModelPredicts(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	samples := synthSamples(60, rng)
	model, err := FitEffectModel(samples)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range samples[:5] {
		if math.Abs(model.Predict(s.Features)-s.Q) > 1e-9 {
			t.Errorf("prediction %v, want %v", model.Predict(s.Features), s.Q)
		}
	}
}

func TestFitEffectModelShapeMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	samples := synthSamples(10, rng)
	samples[3].Features.VictimPhi = []float64{1}
	if _, err := FitEffectModel(samples); err == nil {
		t.Error("inconsistent Φ shapes must fail")
	}
}

func TestFitEffectModelEmpty(t *testing.T) {
	if _, err := FitEffectModel(nil); err == nil {
		t.Error("no samples must fail")
	}
}

func TestOptimizePlacementPrefersNearAndMany(t *testing.T) {
	// Ground truth: Q falls with ρ, rises with m. The optimiser must pick
	// the maximum HT count clustered next to the manager.
	m := mesh16()
	gm := m.Center()
	rng := rand.New(rand.NewSource(6))
	var samples []Sample
	for i := 0; i < 80; i++ {
		p, err := RandomPlacement(m, 1+rng.Intn(16), rng, gm)
		if err != nil {
			t.Fatal(err)
		}
		f, err := FeaturesFor(m, gm, p)
		if err != nil {
			t.Fatal(err)
		}
		f.VictimPhi = []float64{1}
		f.AttackerPhi = []float64{1}
		samples = append(samples, Sample{Features: f, Q: -0.5*f.Rho - 0.1*f.Eta + 0.2*float64(f.M) + 3})
	}
	model, err := FitEffectModel(samples)
	if err != nil {
		t.Fatal(err)
	}
	best, evaluated, err := OptimizePlacement(m, gm, model, OptimizeOptions{
		MaxHTs: 16, CenterStride: 3, RadiusMax: 4,
		VictimPhi: []float64{1}, AttackerPhi: []float64{1},
	})
	if err != nil {
		t.Fatalf("OptimizePlacement: %v", err)
	}
	if evaluated == 0 {
		t.Fatal("no candidates evaluated")
	}
	if best.Features.M != 16 {
		t.Errorf("best M = %d, want the full 16 (coefficient positive)", best.Features.M)
	}
	if best.Features.Rho > 2 {
		t.Errorf("best ρ = %v, want near manager", best.Features.Rho)
	}
	for _, n := range best.Placement.Nodes {
		if n == gm {
			t.Error("optimal placement must not infect the manager router")
		}
	}
}

func TestOptimizePlacementValidation(t *testing.T) {
	m := mesh16()
	if _, _, err := OptimizePlacement(m, 0, nil, OptimizeOptions{MaxHTs: 4}); err == nil {
		t.Error("nil model must fail")
	}
	model := &EffectModel{}
	if _, _, err := OptimizePlacement(m, 0, model, OptimizeOptions{MaxHTs: 0}); err == nil {
		t.Error("zero MaxHTs must fail")
	}
}
