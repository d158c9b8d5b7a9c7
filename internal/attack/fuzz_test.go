package attack

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/exp"
	"repro/internal/noc"
)

// fuzzReader hands out fuzz bytes, then zeros once they run out.
type fuzzReader struct{ b []byte }

func (r *fuzzReader) next() int {
	if len(r.b) == 0 {
		return 0
	}
	c := r.b[0]
	r.b = r.b[1:]
	return int(c)
}

// fuzzMesh reads a mesh of 1 to max routers a side, wrapped into a torus
// when both sides reach 2.
func (r *fuzzReader) mesh(max int) noc.Mesh {
	m := noc.Mesh{Width: 1 + r.next()%max, Height: 1 + r.next()%max}
	m.Wrap = r.next()&1 == 1 && m.Width >= 2 && m.Height >= 2
	return m
}

// samePlacement reports how a generator's result differs from its
// oracle's, or "" when the nodes, the error and the next draw of each
// random source all agree.
func samePlacement(got, want Placement, gotErr, wantErr error, gotRNG, wantRNG *rand.Rand) string {
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		return fmt.Sprintf("error %v, oracle %v", gotErr, wantErr)
	}
	if !slices.Equal(got.Nodes, want.Nodes) || (got.Nodes == nil) != (want.Nodes == nil) {
		return fmt.Sprintf("nodes %v, oracle %v", got.Nodes, want.Nodes)
	}
	if gotRNG != nil {
		if g, w := gotRNG.Int63(), wantRNG.Int63(); g != w {
			return fmt.Sprintf("next draw %d, oracle %d: the generators drew differently", g, w)
		}
	}
	return ""
}

// FuzzGeneratorOracle runs every placement generator, pooled and on one
// Scratch that the previous case left dirty, beside its verbatim oracle
// from oracle_test.go with identically seeded sources. Each input decodes
// two cases, each a mesh (mesh or torus), a fleet size (0 and oversized
// included), a seed, an exclude list (the manager, repeats and IDs off the
// mesh included), a ring center and radius in half hops (so distance ties
// abound), and whether the clusters sample or pack.
func FuzzGeneratorOracle(f *testing.F) {
	f.Add([]byte{7, 7, 0, 12, 1, 2, 2, 27, 27, 4, 4, 5, 0, 3, 3, 1, 5, 1, 0, 9, 2, 1, 40, 3, 3, 7, 1})
	f.Add([]byte{15, 7, 1, 200, 0, 9, 3, 0, 60, 255, 8, 1, 6, 9, 1, 1, 4, 0, 0, 3, 0, 2})
	f.Add([]byte{3, 3, 1, 3, 7, 7, 1, 5, 2, 2, 0, 0, 0, 0, 2, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1})
	f.Add([]byte{11, 5, 0, 20, 4, 4, 4, 13, 13, 13, 99, 6, 3, 11, 0, 5, 5, 0, 30, 1, 2, 5, 2, 9, 7, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := fuzzReader{data}
		var s Scratch
		for c := 0; c < 2; c++ {
			m := r.mesh(16)
			nodes := m.Nodes()
			count := r.next() % (nodes + 2)
			seed := int64(r.next()<<8 | r.next())
			exclude := make([]noc.NodeID, r.next()%5)
			for i := range exclude {
				exclude[i] = noc.NodeID(r.next()*7%(nodes+3) - 1)
			}
			center := noc.Coord{X: r.next()%(m.Width+2) - 1, Y: r.next()%(m.Height+2) - 1}
			radius := float64(r.next()%24) / 2
			sample := r.next()&1 == 1
			rngs := func() (*rand.Rand, *rand.Rand) {
				if !sample {
					return nil, nil
				}
				return rand.New(exp.NewSource(seed)), rand.New(rand.NewSource(seed))
			}
			where := fmt.Sprintf("case %d: %+v, %d HTs, seed %d, exclude %v", c, m, count, seed, exclude)
			cluster := []struct {
				name              string
				pooled, onScratch func(*rand.Rand) (Placement, error)
				oracle            func(*rand.Rand) (Placement, error)
			}{
				{"CenterCluster",
					func(g *rand.Rand) (Placement, error) { return CenterCluster(m, count, g, exclude...) },
					func(g *rand.Rand) (Placement, error) { return s.CenterCluster(m, count, g, exclude...) },
					func(g *rand.Rand) (Placement, error) { return oracleCenterCluster(m, count, g, exclude...) }},
				{"CornerCluster",
					func(g *rand.Rand) (Placement, error) { return CornerCluster(m, count, g, exclude...) },
					func(g *rand.Rand) (Placement, error) { return s.CornerCluster(m, count, g, exclude...) },
					func(g *rand.Rand) (Placement, error) { return oracleCornerCluster(m, count, g, exclude...) }},
			}
			for _, g := range cluster {
				for _, run := range []func(*rand.Rand) (Placement, error){g.pooled, g.onScratch} {
					gotRNG, wantRNG := rngs()
					got, gotErr := run(gotRNG)
					want, wantErr := g.oracle(wantRNG)
					if d := samePlacement(got, want, gotErr, wantErr, gotRNG, wantRNG); d != "" {
						t.Fatalf("%s %s: %s", where, g.name, d)
					}
				}
			}
			for _, onScratch := range []bool{false, true} {
				gotRNG, wantRNG := rand.New(exp.NewSource(seed)), rand.New(rand.NewSource(seed))
				random, ring := RandomPlacement, RingCluster
				if onScratch {
					random, ring = s.RandomPlacement, s.RingCluster
				}
				got, gotErr := random(m, count, gotRNG, exclude...)
				want, wantErr := oracleRandomPlacement(m, count, wantRNG, exclude...)
				if d := samePlacement(got, want, gotErr, wantErr, gotRNG, wantRNG); d != "" {
					t.Fatalf("%s RandomPlacement (scratch %v): %s", where, onScratch, d)
				}
				got, gotErr = ring(m, center, count, radius, exclude...)
				want, wantErr = oracleRingCluster(m, center, count, radius, exclude...)
				if d := samePlacement(got, want, gotErr, wantErr, nil, nil); d != "" {
					t.Fatalf("%s RingCluster(center %v, radius %v, scratch %v): %s", where, center, radius, onScratch, d)
				}
			}
		}
	})
}

// FuzzSearchOracle runs the fleet searches beside their verbatim oracles:
// ForInfectionRate's greedy cover and BalancedForInfectionRate's scored
// random search, the latter from identically seeded sources. The bytes
// choose the mesh (mesh or torus), the manager, the target (0 to 1 in
// twentieths), the HT budget, the trials per size and up to three source
// groups, which may repeat a source or list the manager.
func FuzzSearchOracle(f *testing.F) {
	f.Add([]byte{7, 7, 0, 27, 10, 20, 3, 2, 5, 1, 2, 3, 4, 5, 8, 9, 9, 27, 0, 11})
	f.Add([]byte{9, 9, 1, 40, 19, 50, 1, 1, 30, 0, 40, 40, 3, 7, 12})
	f.Add([]byte{3, 2, 0, 1, 20, 9, 2, 3, 0, 4, 1, 1, 2, 3, 4, 1, 0})
	f.Add([]byte{5, 8, 1, 13, 7, 3, 0, 0, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := fuzzReader{data}
		m := r.mesh(10)
		nodes := m.Nodes()
		gm := noc.NodeID(r.next() * 7 % nodes)
		target := float64(r.next()%21) / 20
		maxHTs := r.next() % (nodes + 1)
		trials := r.next() % 4
		groups := make([][]noc.NodeID, r.next()%4)
		for i := range groups {
			groups[i] = make([]noc.NodeID, r.next()%(nodes+3))
			for j := range groups[i] {
				groups[i][j] = noc.NodeID(r.next() * 5 % nodes)
			}
		}
		seed := int64(r.next())
		where := fmt.Sprintf("%+v, manager %d, target %v", m, gm, target)

		got, gotRate := ForInfectionRate(m, gm, target, maxHTs)
		want, wantRate := oracleForInfectionRate(m, gm, target, maxHTs)
		if d := samePlacement(got, want, nil, nil, nil, nil); d != "" || !sameFloat(gotRate, wantRate) {
			t.Fatalf("%s ForInfectionRate(max %d): %s; rate %v, oracle %v", where, maxHTs, d, gotRate, wantRate)
		}
		gotRNG, wantRNG := rand.New(exp.NewSource(seed)), rand.New(rand.NewSource(seed))
		got, gotRate = BalancedForInfectionRate(m, gm, target, groups, trials, gotRNG)
		want, wantRate = oracleBalancedForInfectionRate(m, gm, target, groups, trials, wantRNG)
		if d := samePlacement(got, want, nil, nil, gotRNG, wantRNG); d != "" || !sameFloat(gotRate, wantRate) {
			t.Fatalf("%s BalancedForInfectionRate(groups %v, trials %d): %s; rate %v, oracle %v", where, groups, trials, d, gotRate, wantRate)
		}
	})
}

// sameFloat is == that also equates two NaNs (a one-router mesh has no
// sources, so its greedy rate is 0/0).
func sameFloat(a, b float64) bool { return a == b || math.IsNaN(a) && math.IsNaN(b) }

// TestGeneratorsOnScratchAllocateNothing pins the kept buffers: once a
// Scratch has grown, drawing a placement on it allocates nothing.
func TestGeneratorsOnScratchAllocateNothing(t *testing.T) {
	m := noc.Mesh{Width: 16, Height: 16}
	gm := m.Center()
	rng := rand.New(exp.NewSource(1))
	var s Scratch
	for name, gen := range map[string]func() (Placement, error){
		"random": func() (Placement, error) { return s.RandomPlacement(m, 20, rng, gm) },
		"center": func() (Placement, error) { return s.CenterCluster(m, 20, rng, gm) },
		"corner": func() (Placement, error) { return s.CornerCluster(m, 20, rng, gm) },
		"ring":   func() (Placement, error) { return s.RingCluster(m, m.Coord(gm), 20, 3, gm) },
	} {
		gen()
		if n := testing.AllocsPerRun(20, func() {
			if _, err := gen(); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("%s placement on a grown Scratch allocates %v times, want 0", name, n)
		}
	}
}
