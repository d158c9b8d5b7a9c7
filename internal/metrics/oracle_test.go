package metrics

import (
	"testing"

	"repro/internal/noc"
)

// oracleInfectionRateXY is InfectionRateXY as it was before covers, kept
// verbatim (renamed) as the oracle the covers are fuzzed against: it walks
// every source's route and looks each router up in a map.
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

// FuzzInfectionOracle compares InfectionRateXY over covers with the
// verbatim path walk. The bytes choose the mesh (1–24 by 1–24, torus
// when both sides reach 2), the manager, an infected set (which may hold
// the manager's router) and a sources list (nil, or one that may repeat a
// source or list the manager). The two rates must be the same float.
func FuzzInfectionOracle(f *testing.F) {
	f.Add([]byte{7, 7, 0, 27, 3, 5, 9, 27, 0})
	f.Add([]byte{3, 3, 1, 4, 1, 4, 3, 4, 4, 0, 8})
	f.Add([]byte{15, 15, 0, 120, 6, 1, 2, 3, 4, 5, 120, 6, 7, 7, 120, 9, 200})
	f.Add([]byte{1, 0, 0, 0, 1, 0, 0})
	f.Add([]byte{20, 11, 1, 0, 9, 250, 17, 33, 77, 140, 201, 66, 3, 8, 12, 0, 5, 5, 5, 0, 1, 2})
	f.Add([]byte{31, 23, 1, 200, 2, 200, 100, 1, 200})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		m := noc.Mesh{Width: 1 + next()%24, Height: 1 + next()%24}
		m.Wrap = next()&1 == 1 && m.Width >= 2 && m.Height >= 2
		nodes := m.Nodes()
		gm := noc.NodeID(next() * 7 % nodes)
		infected := map[noc.NodeID]bool{}
		var set noc.NodeSet
		for k := next() % 40; k > 0; k-- {
			id := noc.NodeID(next() * 3 % nodes)
			infected[id] = true
			set.Add(id)
		}
		var sources []noc.NodeID
		if n := next() % 50; n > 0 {
			sources = make([]noc.NodeID, 0, n-1)
			for i := 1; i < n; i++ {
				sources = append(sources, noc.NodeID(next()*5%nodes))
			}
		}
		covers := NewCovers(m, gm)
		if got, want := InfectionRateXY(covers, &set, sources), oracleInfectionRateXY(m, gm, infected, sources); got != want {
			t.Fatalf("%+v, manager %d, infected %v, sources %v: rate %v, path walk %v", m, gm, set.Words(), sources, got, want)
		}
		if got, want := InfectionRateXY(covers, &set, nil), oracleInfectionRateXY(m, gm, infected, nil); got != want {
			t.Fatalf("%+v, manager %d, infected %v, all sources: rate %v, path walk %v", m, gm, set.Words(), got, want)
		}
	})
}
