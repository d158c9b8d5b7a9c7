package metrics

import (
	"math/bits"

	"repro/internal/noc"
)

// Covers indexes one manager's power-request routes on one mesh by
// router. The cover of router r is the set of sources whose Mesh.PathXY
// route to the manager crosses r: straight-line XY on a plain mesh, the
// minimal wraparound path of TorusRouting on a torus, so prediction and
// simulation trace the same routers on either topology. Both endpoints
// count: an HT in the source's own router or in the manager's router sees
// the packet at its RC stage, so the manager's router covers every
// source, the manager itself included. Covers are read-only once built
// and safe for concurrent use: build them once per chip and manager, not
// per trial.
type Covers struct {
	gm    noc.NodeID
	nodes int
	words int // source words per cover, ⌈nodes/64⌉
	// bits holds the covers word-major: word w of router r's cover is
	// bits[w*nodes+r], bit s%64 of it source s = 64w + s%64.
	bits []uint64
}

// NewCovers builds the covers of every router of m toward manager gm.
func NewCovers(m noc.Mesh, gm noc.NodeID) *Covers {
	n := m.Nodes()
	c := &Covers{gm: gm, nodes: n, words: (n + 63) / 64}
	c.bits = make([]uint64, c.words*n)
	dst := m.Coord(gm)
	for src := 0; src < n; src++ {
		row := c.bits[(src>>6)*n : (src>>6+1)*n]
		bit := uint64(1) << (uint(src) & 63)
		cur := m.Coord(noc.NodeID(src))
		row[src] |= bit
		for cur != dst {
			cur = m.StepToward(cur, dst)
			row[m.ID(cur)] |= bit
		}
	}
	return c
}

// Words returns the number of 64-source words in one cover.
func (c *Covers) Words() int { return c.words }

// Word returns word w of router r's cover: bit i is whether the route of
// source 64w+i crosses r.
func (c *Covers) Word(r noc.NodeID, w int) uint64 { return c.bits[w*c.nodes+int(r)] }

// hitWord returns word w of the union of the infected routers' covers:
// the sources of that word whose route crosses an infected router.
// Infected IDs outside the mesh cover nothing.
func (c *Covers) hitWord(infected *noc.NodeSet, w int) uint64 {
	row := c.bits[w*c.nodes : (w+1)*c.nodes]
	var u uint64
	for i, word := range infected.Words() {
		for word != 0 {
			r := i<<6 | bits.TrailingZeros64(word)
			if r >= c.nodes {
				return u
			}
			u |= row[r]
			word &= word - 1
		}
	}
	return u
}

// InfectionRateXY is the closed-form infection-rate predictor for
// deterministic dimension-order routing: the fraction of sources whose
// power requests cross at least one infected router on the way to the
// manager c was built for. A source is hit when its bit is in the union
// of the infected routers' covers. Sources defaults to every node except
// the manager when nil; a listed source is tested once per listing, so a
// repeated source counts twice. Listed sources must be nodes of the mesh.
func InfectionRateXY(c *Covers, infected *noc.NodeSet, sources []noc.NodeID) float64 {
	if infected.Len() == 0 {
		return 0
	}
	hit, total := 0, 0
	if sources == nil {
		total = c.nodes - 1
		for w := 0; w < c.words; w++ {
			u := c.hitWord(infected, w)
			if w == int(c.gm)>>6 {
				u &^= 1 << (uint(c.gm) & 63) // the manager is no source
			}
			hit += bits.OnesCount64(u)
		}
	} else {
		total = len(sources)
		last, u := -1, uint64(0)
		for _, src := range sources {
			if w := int(src) >> 6; w != last {
				last, u = w, c.hitWord(infected, w)
			}
			hit += int(u >> (uint(src) & 63) & 1)
		}
	}
	if total == 0 {
		return 0
	}
	return float64(hit) / float64(total)
}

// InfectionCounter measures the realised infection rate from a simulation:
// the fraction of delivered POWER_REQ packets that crossed an active Trojan
// (HTSeen). Packets whose payload was actually rewritten are counted
// separately in Tampered.
type InfectionCounter struct {
	// Delivered counts POWER_REQ packets that reached the manager.
	Delivered uint64
	// Infected counts those that crossed at least one active Trojan.
	Infected uint64
	// Tampered counts those whose payload was modified.
	Tampered uint64
}

// Observe records one delivered power-request packet.
func (c *InfectionCounter) Observe(p *noc.Packet) {
	if p.Type != noc.TypePowerReq {
		return
	}
	c.Delivered++
	if p.HTSeen {
		c.Infected++
	}
	if p.Tampered {
		c.Tampered++
	}
}

// Rate returns the measured infection rate, or 0 before any delivery.
func (c *InfectionCounter) Rate() float64 {
	if c.Delivered == 0 {
		return 0
	}
	return float64(c.Infected) / float64(c.Delivered)
}
