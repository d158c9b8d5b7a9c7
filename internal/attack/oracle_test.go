package attack

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/noc"
)

// This file keeps the placement generators, the fleet searches and the
// closed-form infection rate as they were before router bitsets and kept
// buffers, verbatim but for their names, as the oracles of
// fuzz_test.go. They build maps and fresh slices on every call.

// Placement is a set of Trojan-infected routers.
// oracleInfected returns the placement as a membership set.
func oracleInfected(p Placement) map[noc.NodeID]bool {
	m := make(map[noc.NodeID]bool, len(p.Nodes))
	for _, n := range p.Nodes {
		m[n] = true
	}
	return m
}

// oracleNearestTo returns the count mesh nodes closest to the real-valued
// coordinate (cx, cy) by Manhattan distance, excluding the given nodes,
// with deterministic tie-breaking by node ID.
func oracleNearestTo(m noc.Mesh, cx, cy float64, count int, exclude map[noc.NodeID]bool) []noc.NodeID {
	type scored struct {
		id noc.NodeID
		d  float64
	}
	all := make([]scored, 0, m.Nodes())
	for id := noc.NodeID(0); id < noc.NodeID(m.Nodes()); id++ {
		if exclude[id] {
			continue
		}
		c := m.Coord(id)
		all = append(all, scored{id: id, d: math.Abs(float64(c.X)-cx) + math.Abs(float64(c.Y)-cy)})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].d != all[j].d {
			return all[i].d < all[j].d
		}
		return all[i].id < all[j].id
	})
	if count > len(all) {
		count = len(all)
	}
	out := make([]noc.NodeID, count)
	for i := 0; i < count; i++ {
		out[i] = all[i].id
	}
	return out
}

// oracleCenterCluster places count Trojans "close to the center of the chip"
// (Fig 4): drawn randomly from the smallest central region holding at
// least twice the fleet, so the cluster is concentrated but does not
// deterministically seal every router adjacent to a central manager. Nodes
// in exclude (typically the manager) are never infected. A nil rng packs
// the cluster tightly instead of sampling.
func oracleCenterCluster(m noc.Mesh, count int, rng *rand.Rand, exclude ...noc.NodeID) (Placement, error) {
	cx := float64(m.Width-1) / 2
	cy := float64(m.Height-1) / 2
	return oracleRegionCluster(m, cx, cy, count, rng, exclude)
}

// oracleCornerCluster places count Trojans in "a concentrated area near one
// corner" (Fig 4), sampled like oracleCenterCluster but around (0, 0).
func oracleCornerCluster(m noc.Mesh, count int, rng *rand.Rand, exclude ...noc.NodeID) (Placement, error) {
	return oracleRegionCluster(m, 0, 0, count, rng, exclude)
}

// oracleRegionCluster samples count nodes from the smallest Manhattan ball
// around (cx, cy) containing at least 2×count eligible nodes.
func oracleRegionCluster(m noc.Mesh, cx, cy float64, count int, rng *rand.Rand, exclude []noc.NodeID) (Placement, error) {
	if err := validateCount(m, count); err != nil {
		return Placement{}, err
	}
	ex := make(map[noc.NodeID]bool, len(exclude))
	for _, e := range exclude {
		ex[e] = true
	}
	// Eligible nodes ordered by distance from the region center.
	pool := oracleNearestTo(m, cx, cy, m.Nodes(), ex)
	if count > len(pool) {
		return Placement{}, fmt.Errorf("attack: %d Trojans exceed %d eligible nodes", count, len(pool))
	}
	regionSize := 2 * count
	if regionSize > len(pool) {
		regionSize = len(pool)
	}
	region := pool[:regionSize]
	var nodes []noc.NodeID
	if rng == nil {
		nodes = append(nodes, region[:count]...)
	} else {
		picks := rng.Perm(len(region))[:count]
		nodes = make([]noc.NodeID, count)
		for i, p := range picks {
			nodes[i] = region[p]
		}
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	return Placement{Nodes: nodes}, nil
}

// oracleRandomPlacement draws count distinct routers uniformly — the "HTs
// distributed randomly" distribution of Fig 4. Nodes in exclude are never
// chosen.
func oracleRandomPlacement(m noc.Mesh, count int, rng *rand.Rand, exclude ...noc.NodeID) (Placement, error) {
	if err := validateCount(m, count); err != nil {
		return Placement{}, err
	}
	ex := make(map[noc.NodeID]bool, len(exclude))
	for _, e := range exclude {
		ex[e] = true
	}
	pool := make([]noc.NodeID, 0, m.Nodes())
	for id := noc.NodeID(0); id < noc.NodeID(m.Nodes()); id++ {
		if !ex[id] {
			pool = append(pool, id)
		}
	}
	if count > len(pool) {
		return Placement{}, fmt.Errorf("attack: %d Trojans exceed %d eligible nodes", count, len(pool))
	}
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	nodes := make([]noc.NodeID, count)
	copy(nodes, pool[:count])
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	return Placement{Nodes: nodes}, nil
}

// oracleRingCluster places count Trojans whose Manhattan distance to the given
// center is as close to radius as possible. radius 0 reproduces a tight
// cluster; larger radii spread the fleet, raising the Definition 8 η. The
// exclude set (typically the global manager) is never infected.
func oracleRingCluster(m noc.Mesh, center noc.Coord, count int, radius float64, exclude ...noc.NodeID) (Placement, error) {
	if err := validateCount(m, count); err != nil {
		return Placement{}, err
	}
	ex := make(map[noc.NodeID]bool, len(exclude))
	for _, e := range exclude {
		ex[e] = true
	}
	type scored struct {
		id noc.NodeID
		d  float64
	}
	all := make([]scored, 0, m.Nodes())
	for id := noc.NodeID(0); id < noc.NodeID(m.Nodes()); id++ {
		if ex[id] {
			continue
		}
		c := m.Coord(id)
		md := math.Abs(float64(c.X-center.X)) + math.Abs(float64(c.Y-center.Y))
		all = append(all, scored{id: id, d: math.Abs(md - radius)})
	}
	if count > len(all) {
		return Placement{}, fmt.Errorf("attack: %d Trojans exceed %d eligible nodes", count, len(all))
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].d != all[j].d {
			return all[i].d < all[j].d
		}
		return all[i].id < all[j].id
	})
	nodes := make([]noc.NodeID, count)
	for i := 0; i < count; i++ {
		nodes[i] = all[i].id
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	return Placement{Nodes: nodes}, nil
}

// oracleBalancedForInfectionRate searches random placements, growing the fleet
// until the target is reachable, for the Fig 5/6 sweeps. Unlike the greedy
// cover of oracleForInfectionRate, random fleets intercept sources in unbiased
// proportion. Among them it prefers one whose infection rate is near
// target overall AND within each source group (typically the victim cores
// and the attacker cores), so that a lucky fleet covering exactly one
// application's quadrant does not distort the Q-versus-infection curve.
func oracleBalancedForInfectionRate(m noc.Mesh, gm noc.NodeID, target float64, groups [][]noc.NodeID, trialsPerSize int, rng *rand.Rand) (Placement, float64) {
	if target <= 0 {
		return Placement{}, 0
	}
	if trialsPerSize < 1 {
		trialsPerSize = 1
	}
	var (
		best      Placement
		bestRate  float64
		bestScore = math.Inf(1)
	)
	maxHTs := m.Nodes() - 1
	for size := 1; size <= maxHTs; size = growFleet(size) {
		reached := false
		for trial := 0; trial < trialsPerSize; trial++ {
			p, err := oracleRandomPlacement(m, size, rng, gm)
			if err != nil {
				break
			}
			infected := oracleInfected(p)
			rate := oracleInfectionRateXY(m, gm, infected, nil)
			score := math.Abs(rate - target)
			for _, g := range groups {
				if len(g) == 0 {
					continue
				}
				score += math.Abs(oracleInfectionRateXY(m, gm, infected, g)-target) / float64(len(groups))
			}
			if score < bestScore {
				best, bestRate, bestScore = p, rate, score
			}
			if rate >= target {
				reached = true
			}
		}
		if reached {
			break
		}
	}
	return best, bestRate
}

// oracleForInfectionRate greedily builds a placement achieving at least the
// target infection rate against the given manager under XY routing, using
// at most maxHTs Trojans (greedy set cover over source paths). The
// manager's own router is never infected. It returns the placement and the
// achieved rate, which can fall short when maxHTs is too small.
func oracleForInfectionRate(m noc.Mesh, gm noc.NodeID, target float64, maxHTs int) (Placement, float64) {
	if target <= 0 || maxHTs < 1 {
		return Placement{}, 0
	}
	// Path sets per source.
	sources := make([]noc.NodeID, 0, m.Nodes()-1)
	for id := noc.NodeID(0); id < noc.NodeID(m.Nodes()); id++ {
		if id != gm {
			sources = append(sources, id)
		}
	}
	coverage := make(map[noc.NodeID][]int) // router -> indexes of sources it covers
	for si, src := range sources {
		for _, r := range m.PathXY(src, gm) {
			if r == gm {
				continue
			}
			coverage[r] = append(coverage[r], si)
		}
	}
	covered := make([]bool, len(sources))
	nCovered := 0
	var picked []noc.NodeID
	for len(picked) < maxHTs && float64(nCovered)/float64(len(sources)) < target {
		// needed is how many more sources must be covered to hit the
		// target. Prefer the router whose marginal gain meets the need
		// with the LEAST overshoot; when no single router suffices, take
		// the largest gain. This keeps achieved rates close to requested
		// ones across the whole Fig 5 sweep instead of jumping straight
		// to a high-coverage hub next to the manager.
		needed := int(math.Ceil(target*float64(len(sources)))) - nCovered
		bestOver, bestOverGain := noc.NodeID(-1), int(^uint(0)>>1) // min gain ≥ needed
		bestUnder, bestUnderGain := noc.NodeID(-1), 0              // max gain < needed
		for id := noc.NodeID(0); id < noc.NodeID(m.Nodes()); id++ {
			srcs, ok := coverage[id]
			if !ok {
				continue
			}
			gain := 0
			for _, si := range srcs {
				if !covered[si] {
					gain++
				}
			}
			if gain == 0 {
				continue
			}
			if gain >= needed && gain < bestOverGain {
				bestOver, bestOverGain = id, gain
			}
			if gain < needed && gain > bestUnderGain {
				bestUnder, bestUnderGain = id, gain
			}
		}
		best := bestOver
		if best < 0 {
			best = bestUnder
		}
		if best < 0 {
			break
		}
		picked = append(picked, best)
		for _, si := range coverage[best] {
			if !covered[si] {
				covered[si] = true
				nCovered++
			}
		}
		delete(coverage, best)
	}
	sort.Slice(picked, func(i, j int) bool { return picked[i] < picked[j] })
	return Placement{Nodes: picked}, float64(nCovered) / float64(len(sources))
}

// oracleInfectionRateXY is metrics.InfectionRateXY as it was before
// covers: it walks every source's route and looks each router up in a map.
func oracleInfectionRateXY(m noc.Mesh, gm noc.NodeID, infected map[noc.NodeID]bool, sources []noc.NodeID) float64 {
	if len(infected) == 0 {
		return 0
	}
	hit, total := 0, 0
	if sources == nil {
		for id := noc.NodeID(0); id < noc.NodeID(m.Nodes()); id++ {
			if id == gm {
				continue
			}
			total++
			if oraclePathCrossesInfected(m, id, gm, infected) {
				hit++
			}
		}
	} else {
		total = len(sources)
		for _, src := range sources {
			if oraclePathCrossesInfected(m, src, gm, infected) {
				hit++
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(hit) / float64(total)
}

// oraclePathCrossesInfected walks the PathXY route without materialising it.
func oraclePathCrossesInfected(m noc.Mesh, src, dst noc.NodeID, infected map[noc.NodeID]bool) bool {
	c, cd := m.Coord(src), m.Coord(dst)
	if infected[m.ID(c)] {
		return true
	}
	for c != cd {
		c = m.StepToward(c, cd)
		if infected[m.ID(c)] {
			return true
		}
	}
	return false
}
