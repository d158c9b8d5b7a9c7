// Package attack implements the attacker's planning toolkit from Section
// IV: Trojan placement generators (the center/random/corner distributions
// of Fig 4 and parameterised clusters), the linear attack-effect model of
// Eqn 9, and the exhaustive placement optimiser of Eqns 10–11.
package attack

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"sync"

	"repro/internal/metrics"
	"repro/internal/noc"
)

// Placement is a set of Trojan-infected routers.
type Placement struct {
	Nodes []noc.NodeID
}

// Infected makes s the placement's membership set, keeping s's storage.
func (p Placement) Infected(s *noc.NodeSet) { s.Set(p.Nodes) }

// Size returns the number of Trojans.
func (p Placement) Size() int { return len(p.Nodes) }

func validateCount(m noc.Mesh, count int) error {
	if count < 1 {
		return fmt.Errorf("attack: placement needs at least one Trojan, got %d", count)
	}
	if count > m.Nodes() {
		return fmt.Errorf("attack: %d Trojans exceed %d-node mesh", count, m.Nodes())
	}
	return nil
}

// Scratch holds the placement generators' working buffers. A caller that
// draws placement after placement (a trial loop, a fleet search) keeps
// one and allocates nothing once it has grown; the package-level
// generators take one from a pool and return a copy of what they drew.
// The zero value is ready to use. A Scratch is not safe for concurrent
// use.
type Scratch struct {
	exclude noc.NodeSet
	ids     []noc.NodeID
	scored  []scoredNode
	perm    []int
	nodes   []noc.NodeID
}

// scoredNode is a node and its distance from a generator's target.
type scoredNode struct {
	id noc.NodeID
	d  float64
}

// byDistance orders nodes by distance, then by ID: a total order, so any
// sort yields the same sequence.
func byDistance(a, b scoredNode) int {
	if a.d != b.d {
		return cmp.Compare(a.d, b.d)
	}
	return cmp.Compare(a.id, b.id)
}

var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

// pooled runs gen on a pooled Scratch and returns a copy of the placement
// it drew, which the Scratch's next use would overwrite.
func pooled(gen func(s *Scratch) (Placement, error)) (Placement, error) {
	s := scratchPool.Get().(*Scratch)
	p, err := gen(s)
	p.Nodes = slices.Clone(p.Nodes)
	scratchPool.Put(s)
	return p, err
}

// excluding makes s's exclude set hold exclude's routers.
func (s *Scratch) excluding(exclude []noc.NodeID) {
	s.exclude.Clear()
	for _, e := range exclude {
		if e >= 0 {
			s.exclude.Add(e)
		}
	}
}

// permute is rng.Perm(n) written into s's buffer: the same loop, so it
// draws exactly what Perm draws.
func (s *Scratch) permute(rng *rand.Rand, n int) []int {
	if cap(s.perm) < n {
		s.perm = make([]int, n)
	}
	m := s.perm[:n]
	for i := 0; i < n; i++ {
		j := rng.Intn(i + 1)
		m[i] = m[j]
		m[j] = i
	}
	return m
}

// placed sorts s's drawn nodes and returns them as a placement that
// aliases s.
func (s *Scratch) placed() Placement {
	slices.Sort(s.nodes)
	return Placement{Nodes: s.nodes}
}

// nearest returns the mesh nodes outside s's exclude set ordered by
// Manhattan distance from the real-valued coordinate (cx, cy), ties by
// node ID.
func (s *Scratch) nearest(m noc.Mesh, cx, cy float64) []scoredNode {
	s.scored = s.scored[:0]
	for id := noc.NodeID(0); id < noc.NodeID(m.Nodes()); id++ {
		if s.exclude.Has(id) {
			continue
		}
		c := m.Coord(id)
		s.scored = append(s.scored, scoredNode{id: id, d: math.Abs(float64(c.X)-cx) + math.Abs(float64(c.Y)-cy)})
	}
	slices.SortFunc(s.scored, byDistance)
	return s.scored
}

// CenterCluster places count Trojans "close to the center of the chip"
// (Fig 4): drawn randomly from the smallest central region holding at
// least twice the fleet, so the cluster is concentrated but does not
// deterministically seal every router adjacent to a central manager. Nodes
// in exclude (typically the manager) are never infected. A nil rng packs
// the cluster tightly instead of sampling.
func CenterCluster(m noc.Mesh, count int, rng *rand.Rand, exclude ...noc.NodeID) (Placement, error) {
	return pooled(func(s *Scratch) (Placement, error) { return s.CenterCluster(m, count, rng, exclude...) })
}

// CenterCluster is the package's CenterCluster on s's buffers; the
// placement aliases s until its next use.
func (s *Scratch) CenterCluster(m noc.Mesh, count int, rng *rand.Rand, exclude ...noc.NodeID) (Placement, error) {
	cx := float64(m.Width-1) / 2
	cy := float64(m.Height-1) / 2
	return s.regionCluster(m, cx, cy, count, rng, exclude)
}

// CornerCluster places count Trojans in "a concentrated area near one
// corner" (Fig 4), sampled like CenterCluster but around (0, 0).
func CornerCluster(m noc.Mesh, count int, rng *rand.Rand, exclude ...noc.NodeID) (Placement, error) {
	return pooled(func(s *Scratch) (Placement, error) { return s.CornerCluster(m, count, rng, exclude...) })
}

// CornerCluster is the package's CornerCluster on s's buffers; the
// placement aliases s until its next use.
func (s *Scratch) CornerCluster(m noc.Mesh, count int, rng *rand.Rand, exclude ...noc.NodeID) (Placement, error) {
	return s.regionCluster(m, 0, 0, count, rng, exclude)
}

// regionCluster samples count nodes from the smallest Manhattan ball
// around (cx, cy) containing at least 2×count eligible nodes.
func (s *Scratch) regionCluster(m noc.Mesh, cx, cy float64, count int, rng *rand.Rand, exclude []noc.NodeID) (Placement, error) {
	if err := validateCount(m, count); err != nil {
		return Placement{}, err
	}
	s.excluding(exclude)
	// Eligible nodes ordered by distance from the region center.
	pool := s.nearest(m, cx, cy)
	if count > len(pool) {
		return Placement{}, fmt.Errorf("attack: %d Trojans exceed %d eligible nodes", count, len(pool))
	}
	region := pool[:min(2*count, len(pool))]
	s.nodes = s.nodes[:0]
	if rng == nil {
		for _, n := range region[:count] {
			s.nodes = append(s.nodes, n.id)
		}
	} else {
		for _, p := range s.permute(rng, len(region))[:count] {
			s.nodes = append(s.nodes, region[p].id)
		}
	}
	return s.placed(), nil
}

// RandomPlacement draws count distinct routers uniformly — the "HTs
// distributed randomly" distribution of Fig 4. Nodes in exclude are never
// chosen.
func RandomPlacement(m noc.Mesh, count int, rng *rand.Rand, exclude ...noc.NodeID) (Placement, error) {
	return pooled(func(s *Scratch) (Placement, error) { return s.RandomPlacement(m, count, rng, exclude...) })
}

// RandomPlacement is the package's RandomPlacement on s's buffers; the
// placement aliases s until its next use.
func (s *Scratch) RandomPlacement(m noc.Mesh, count int, rng *rand.Rand, exclude ...noc.NodeID) (Placement, error) {
	if err := validateCount(m, count); err != nil {
		return Placement{}, err
	}
	s.excluding(exclude)
	pool := s.ids[:0]
	for id := noc.NodeID(0); id < noc.NodeID(m.Nodes()); id++ {
		if !s.exclude.Has(id) {
			pool = append(pool, id)
		}
	}
	s.ids = pool
	if count > len(pool) {
		return Placement{}, fmt.Errorf("attack: %d Trojans exceed %d eligible nodes", count, len(pool))
	}
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	s.nodes = append(s.nodes[:0], pool[:count]...)
	return s.placed(), nil
}

// RingCluster places count Trojans whose Manhattan distance to the given
// center is as close to radius as possible. radius 0 reproduces a tight
// cluster; larger radii spread the fleet, raising the Definition 8 η. The
// exclude set (typically the global manager) is never infected.
func RingCluster(m noc.Mesh, center noc.Coord, count int, radius float64, exclude ...noc.NodeID) (Placement, error) {
	return pooled(func(s *Scratch) (Placement, error) { return s.RingCluster(m, center, count, radius, exclude...) })
}

// RingCluster is the package's RingCluster on s's buffers; the placement
// aliases s until its next use.
func (s *Scratch) RingCluster(m noc.Mesh, center noc.Coord, count int, radius float64, exclude ...noc.NodeID) (Placement, error) {
	if err := validateCount(m, count); err != nil {
		return Placement{}, err
	}
	s.excluding(exclude)
	s.scored = s.scored[:0]
	for id := noc.NodeID(0); id < noc.NodeID(m.Nodes()); id++ {
		if s.exclude.Has(id) {
			continue
		}
		c := m.Coord(id)
		md := math.Abs(float64(c.X-center.X)) + math.Abs(float64(c.Y-center.Y))
		s.scored = append(s.scored, scoredNode{id: id, d: math.Abs(md - radius)})
	}
	if count > len(s.scored) {
		return Placement{}, fmt.Errorf("attack: %d Trojans exceed %d eligible nodes", count, len(s.scored))
	}
	slices.SortFunc(s.scored, byDistance)
	s.nodes = s.nodes[:0]
	for _, n := range s.scored[:count] {
		s.nodes = append(s.nodes, n.id)
	}
	return s.placed(), nil
}

func growFleet(size int) int {
	if size < 8 {
		return size + 1
	}
	return size + size/4
}

// BalancedForInfectionRate searches random placements, growing the fleet
// until the target is reachable, for the Fig 5/6 sweeps. Unlike the greedy
// cover of ForInfectionRate, random fleets intercept sources in unbiased
// proportion. Among them it prefers one whose infection rate is near
// target overall AND within each source group (typically the victim cores
// and the attacker cores), so that a lucky fleet covering exactly one
// application's quadrant does not distort the Q-versus-infection curve.
func BalancedForInfectionRate(m noc.Mesh, gm noc.NodeID, target float64, groups [][]noc.NodeID, trialsPerSize int, rng *rand.Rand) (Placement, float64) {
	if target <= 0 {
		return Placement{}, 0
	}
	if trialsPerSize < 1 {
		trialsPerSize = 1
	}
	covers := metrics.NewCovers(m, gm)
	s := scratchPool.Get().(*Scratch)
	defer scratchPool.Put(s)
	var (
		best      []noc.NodeID
		bestRate  float64
		bestScore = math.Inf(1)
		infected  noc.NodeSet
	)
	maxHTs := m.Nodes() - 1
	for size := 1; size <= maxHTs; size = growFleet(size) {
		reached := false
		for trial := 0; trial < trialsPerSize; trial++ {
			p, err := s.RandomPlacement(m, size, rng, gm)
			if err != nil {
				break
			}
			p.Infected(&infected)
			rate := metrics.InfectionRateXY(covers, &infected, nil)
			score := math.Abs(rate - target)
			for _, g := range groups {
				if len(g) == 0 {
					continue
				}
				score += math.Abs(metrics.InfectionRateXY(covers, &infected, g)-target) / float64(len(groups))
			}
			if score < bestScore {
				best, bestRate, bestScore = append(best[:0], p.Nodes...), rate, score
			}
			if rate >= target {
				reached = true
			}
		}
		if reached {
			break
		}
	}
	return Placement{Nodes: best}, bestRate
}

// ForInfectionRate greedily builds a placement achieving at least the
// target infection rate against the given manager under XY routing, using
// at most maxHTs Trojans (greedy set cover over source paths). The
// manager's own router is never infected. It returns the placement and the
// achieved rate, which can fall short when maxHTs is too small.
func ForInfectionRate(m noc.Mesh, gm noc.NodeID, target float64, maxHTs int) (Placement, float64) {
	if target <= 0 || maxHTs < 1 {
		return Placement{}, 0
	}
	// Every source but the manager; no router but the manager's covers the
	// manager, so the covers of the candidates count sources only.
	sources := m.Nodes() - 1
	covers := metrics.NewCovers(m, gm)
	covered := make([]uint64, covers.Words())
	nCovered := 0
	var picked []noc.NodeID
	for len(picked) < maxHTs && float64(nCovered)/float64(sources) < target {
		// needed is how many more sources must be covered to hit the
		// target. Prefer the router whose marginal gain meets the need
		// with the LEAST overshoot; when no single router suffices, take
		// the largest gain. This keeps achieved rates close to requested
		// ones across the whole Fig 5 sweep instead of jumping straight
		// to a high-coverage hub next to the manager.
		needed := int(math.Ceil(target*float64(sources))) - nCovered
		bestOver, bestOverGain := noc.NodeID(-1), int(^uint(0)>>1) // min gain ≥ needed
		bestUnder, bestUnderGain := noc.NodeID(-1), 0              // max gain < needed
		for id := noc.NodeID(0); id < noc.NodeID(m.Nodes()); id++ {
			if id == gm {
				continue
			}
			gain := 0
			for w, c := range covered {
				gain += bits.OnesCount64(covers.Word(id, w) &^ c)
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
		for w := range covered {
			gained := covers.Word(best, w) &^ covered[w]
			covered[w] |= gained
			nCovered += bits.OnesCount64(gained)
		}
	}
	slices.Sort(picked)
	return Placement{Nodes: picked}, float64(nCovered) / float64(sources)
}
