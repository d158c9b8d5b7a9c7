package core

import (
	"context"
	"testing"

	"repro/internal/results"
)

// curveTable runs an infection-curve (E3/E4) trial space as one shard and
// assembles its table, as the campaign engine does; series 0 is the
// center manager, series 1 the corner.
func curveTable(t *testing.T, size int, counts []int, trials int, seed int64) *results.InfectionTable {
	t.Helper()
	return trialTable(t, InfectionCurve(size, counts, trials), seed)
}

// distributionTable runs a distribution (E5/E6) trial space as one shard
// and assembles its table; series 0..2 are center, random, corner.
func distributionTable(t *testing.T, sizes []int, denominator, trials int, seed int64) *results.InfectionTable {
	t.Helper()
	return trialTable(t, Distribution(sizes, denominator, trials), seed)
}

// trialTable runs a whole trial space and assembles its table.
func trialTable(t *testing.T, trials InfectionTrials, seed int64) *results.InfectionTable {
	t.Helper()
	raw, err := trials.Run(context.Background(), seed, 0, 0, trials.Space())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	tab, err := trials.Table("E3", "3", seed, raw)
	if err != nil {
		t.Fatalf("Table: %v", err)
	}
	return tab
}

func TestInfectionCurveTrends(t *testing.T) {
	counts := []int{0, 5, 10, 20, 30}
	pts := curveTable(t, 64, counts, 20, 1).Points
	if len(pts) != len(counts) {
		t.Fatalf("points = %d, want %d", len(pts), len(counts))
	}
	const center, corner = 0, 1
	// Fig 3 trend 1: more HTs → higher infection (monotone in the mean).
	for i := 1; i < len(pts); i++ {
		if pts[i].Rates[center] < pts[i-1].Rates[center] {
			t.Errorf("center series not increasing at %d HTs", pts[i].X)
		}
	}
	// Fig 3 trend 2: corner manager suffers higher infection than center.
	for i := 1; i < len(pts); i++ {
		if pts[i].Rates[corner] <= pts[i].Rates[center] {
			t.Errorf("at %d HTs corner rate %v not above center %v",
				counts[i], pts[i].Rates[corner], pts[i].Rates[center])
		}
	}
	if pts[0].Rates[center] != 0 || pts[0].Rates[corner] != 0 {
		t.Error("zero HTs must give zero infection")
	}
}

func TestDistributionOrdering(t *testing.T) {
	sizes := []int{64, 128, 256, 512}
	pts := distributionTable(t, sizes, 16, 10, 1).Points
	// Fig 4's headline ordering: center > random > corner at every size.
	for i, size := range sizes {
		center, random, corner := pts[i].Rates[0], pts[i].Rates[1], pts[i].Rates[2]
		if !(center > random && random > corner) {
			t.Errorf("size %d: ordering violated center=%v random=%v corner=%v",
				size, center, random, corner)
		}
	}
}

func TestDistributionDenominator(t *testing.T) {
	// HTs = size/8 must infect at least as much as size/16 (more HTs).
	sizes := []int{64, 256}
	th16 := distributionTable(t, sizes, 16, 5, 1).Points
	th8 := distributionTable(t, sizes, 8, 5, 1).Points
	for i := range sizes {
		// The sampling region grows with the fleet, so the comparison is
		// statistical: allow a small tolerance.
		if th8[i].Rates[0]+0.05 < th16[i].Rates[0] {
			t.Errorf("size %d: size/8 rate %v below size/16 rate %v", sizes[i], th8[i].Rates[0], th16[i].Rates[0])
		}
	}
}

// shardCase is one malformed input a trial-grid runner must reject.
type shardCase struct {
	name string
	run  func() ([]float64, error)
}

func runRejectCases(t *testing.T, cases []shardCase) {
	t.Helper()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := tc.run(); err == nil {
				t.Error("want an error")
			}
		})
	}
}

// TestInfectionVsHTCountValidation pins that the E3/E4 trial space,
// InfectionCurve, rejects malformed inputs instead of coercing them.
func TestInfectionVsHTCountValidation(t *testing.T) {
	curve := func(size, trials, lo, hi int) func() ([]float64, error) {
		return func() ([]float64, error) {
			return InfectionCurve(size, []int{1}, trials).Run(context.Background(), 1, 1, lo, hi)
		}
	}
	runRejectCases(t, []shardCase{
		{"size 0", curve(0, 1, 0, 2)},
		{"trials 0", curve(64, 0, 0, 0)},
		{"range past space", curve(64, 1, 1, 3)},
		{"negative lo", curve(64, 1, -1, 1)},
	})
}

// TestInfectionByDistributionValidation pins that the E5/E6 trial space,
// Distribution, rejects malformed inputs instead of coercing them.
func TestInfectionByDistributionValidation(t *testing.T) {
	dist := func(size, denominator, trials, lo, hi int) func() ([]float64, error) {
		return func() ([]float64, error) {
			return Distribution([]int{size}, denominator, trials).Run(context.Background(), 1, 1, lo, hi)
		}
	}
	runRejectCases(t, []shardCase{
		{"size 0", dist(0, 16, 1, 0, 3)},
		{"trials 0", dist(64, 16, 0, 0, 0)},
		{"denominator 0", dist(64, 0, 1, 0, 3)},
		{"range past space", dist(64, 16, 1, 2, 4)},
		{"inverted range", dist(64, 16, 1, 2, 1)},
	})
}

func TestQVsInfectionRises(t *testing.T) {
	cfg := fastConfig()
	cell, err := QVsInfection(context.Background(), cfg, "mix-1", 8, []float64{0, 0.5, 0.95})
	if err != nil {
		t.Fatalf("QVsInfection: %v", err)
	}
	points := cell.Effect
	if len(points) != 3 {
		t.Fatalf("points = %d, want 3", len(points))
	}
	if points[0].Q != 1 {
		t.Errorf("zero-infection Q = %v, want exactly 1", points[0].Q)
	}
	if !(points[2].Q > points[1].Q && points[1].Q > points[0].Q) {
		t.Errorf("Q not increasing: %v, %v, %v", points[0].Q, points[1].Q, points[2].Q)
	}
	// Fig 6 shape at the top point: attackers above 1, victims below 1.
	for _, app := range cell.Apps {
		if app.TargetInfection != 0.95 {
			continue
		}
		switch app.Role {
		case RoleAttacker.String():
			if app.Change < 1 {
				t.Errorf("attacker %s Θ = %v, want ≥ 1", app.App, app.Change)
			}
		case RoleVictim.String():
			if app.Change >= 1 {
				t.Errorf("victim %s Θ = %v, want < 1", app.App, app.Change)
			}
		}
	}
}

func TestQVsInfectionUnknownMix(t *testing.T) {
	if _, err := QVsInfection(context.Background(), fastConfig(), "mix-9", 8, []float64{0.5}); err == nil {
		t.Error("unknown mix must fail")
	}
}

func TestOptimalVsRandomImproves(t *testing.T) {
	cfg := fastConfig()
	study, err := OptimalVsRandom(context.Background(), cfg, "mix-1", 8, 8, 8, 3)
	if err != nil {
		t.Fatalf("OptimalVsRandom: %v", err)
	}
	if study.Evaluated == 0 {
		t.Error("enumeration evaluated nothing")
	}
	if study.RandomQMean <= 0 {
		t.Errorf("random Q mean = %v", study.RandomQMean)
	}
	// Section V-C: the optimised placement must beat the random average.
	if study.OptimalQ <= study.RandomQMean {
		t.Errorf("optimal Q %v not above random mean %v", study.OptimalQ, study.RandomQMean)
	}
	if study.ImprovementPct <= 0 {
		t.Errorf("improvement = %v%%, want positive", study.ImprovementPct)
	}
}

func TestOptimalVsRandomValidation(t *testing.T) {
	if _, err := OptimalVsRandom(context.Background(), fastConfig(), "mix-1", 8, 8, 2, 3); err == nil {
		t.Error("too few samples must fail")
	}
	if _, err := OptimalVsRandom(context.Background(), fastConfig(), "mix-9", 8, 8, 8, 3); err == nil {
		t.Error("unknown mix must fail")
	}
}
