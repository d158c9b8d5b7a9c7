package exp

import (
	"math"
	"math/rand"
	"testing"
)

// sourceEdgeSeeds are the seeds where math/rand's seed reduction changes
// branch: zero (replaced by 89482311), ±1, the modulus 2³¹−1 and its
// neighbours, the int64 extremes, and the replacement seed itself.
var sourceEdgeSeeds = []int64{
	0, 1, -1, 2, int32max, -int32max, int32max - 1, -(int32max - 1), int32max + 1,
	-(int32max + 1), 2 * int32max, math.MaxInt64, math.MinInt64, math.MinInt64 + 1,
	89482311, -89482311, 1 << 31, 1 << 40, 12345,
}

// compareSources draws the same sequence of calls from rand.Rand over
// NewSource(seed) and over math/rand's own source, and reports the first
// difference. It covers every rand.Rand method the simulator calls, and
// re-seeds both mid-stream.
func compareSources(t *testing.T, seed int64) {
	t.Helper()
	got, want := rand.New(NewSource(seed)), rand.New(rand.NewSource(seed))
	check := func(what string, a, b any) {
		t.Helper()
		if a != b {
			t.Fatalf("seed %d: %s = %v, math/rand gives %v", seed, what, a, b)
		}
	}
	for round := 0; round < 2; round++ {
		for i := 0; i < 700; i++ {
			check("Int63", got.Int63(), want.Int63())
		}
		for i := 0; i < 100; i++ {
			check("Uint64", got.Uint64(), want.Uint64())
			check("Float64", got.Float64(), want.Float64())
			n := 1 + i*i*i
			check("Intn", got.Intn(n), want.Intn(n))
		}
		pg, pw := got.Perm(40), want.Perm(40)
		for i := range pg {
			check("Perm", pg[i], pw[i])
		}
		sg, sw := make([]int, 30), make([]int, 30)
		for i := range sg {
			sg[i], sw[i] = i, i
		}
		got.Shuffle(len(sg), func(i, j int) { sg[i], sg[j] = sg[j], sg[i] })
		want.Shuffle(len(sw), func(i, j int) { sw[i], sw[j] = sw[j], sw[i] })
		for i := range sg {
			check("Shuffle", sg[i], sw[i])
		}
		seed = seed*31 + 7
		got.Seed(seed)
		want.Seed(seed)
	}
}

// TestSourceMatchesMathRand pins NewSource to math/rand's source at the
// edge seeds and at a spread of others.
func TestSourceMatchesMathRand(t *testing.T) {
	seeds := append([]int64(nil), sourceEdgeSeeds...)
	for i := int64(0); i < 200; i++ {
		seeds = append(seeds, i*7919-400, i<<33|i)
	}
	for _, s := range seeds {
		compareSources(t, s)
	}
}

// FuzzSourceOracle checks NewSource against math/rand at any seed.
func FuzzSourceOracle(f *testing.F) {
	for _, s := range sourceEdgeSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, seed int64) { compareSources(t, seed) })
}

// TestSourceSeedAllocatesNothing pins re-seeding in place.
func TestSourceSeedAllocatesNothing(t *testing.T) {
	rng := rand.New(NewSource(1))
	seed := int64(0)
	if n := testing.AllocsPerRun(100, func() { seed++; rng.Seed(seed) }); n != 0 {
		t.Errorf("Seed allocates %v times, want 0", n)
	}
}

func BenchmarkSourceSeed(b *testing.B) {
	b.Run("exp", func(b *testing.B) {
		s := NewSource(1)
		for i := 0; i < b.N; i++ {
			s.Seed(int64(i))
		}
	})
	b.Run("math-rand", func(b *testing.B) {
		s := rand.NewSource(1)
		for i := 0; i < b.N; i++ {
			s.Seed(int64(i))
		}
	})
}
