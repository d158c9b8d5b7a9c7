package metrics

import "repro/internal/noc"

// InfectionRateXY is the closed-form infection-rate predictor for
// deterministic dimension-order routing: the fraction of source nodes
// whose power requests cross at least one infected router on the way to
// the global manager. The walked path is Mesh.PathXY's — straight-line XY
// on a plain mesh, the minimal wraparound path of TorusRouting on a
// torus — so prediction and simulation trace the same routers on either
// topology. Sources defaults to every node except the manager when nil.
// Both endpoints count: an HT in the source's own router or in the
// manager's router sees the packet at its RC stage.
func InfectionRateXY(m noc.Mesh, gm noc.NodeID, infected map[noc.NodeID]bool, sources []noc.NodeID) float64 {
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
			if pathCrossesInfected(m, id, gm, infected) {
				hit++
			}
		}
	} else {
		total = len(sources)
		for _, src := range sources {
			if pathCrossesInfected(m, src, gm, infected) {
				hit++
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(hit) / float64(total)
}

// pathCrossesInfected walks the PathXY route without materialising it.
func pathCrossesInfected(m noc.Mesh, src, dst noc.NodeID, infected map[noc.NodeID]bool) bool {
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
