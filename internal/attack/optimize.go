package attack

import (
	"fmt"
	"slices"

	"repro/internal/noc"
)

// Candidate is one evaluated point of the Eqn 10 search space.
type Candidate struct {
	Placement  Placement
	Features   Features
	PredictedQ float64
}

// OptimizeOptions bounds the Eqn 10–11 exhaustive enumeration.
type OptimizeOptions struct {
	// MaxHTs is the constraint M_HT of Eqn 11.
	MaxHTs int
	// MinHTs floors the fleet-size sweep (default 1). Set it equal to
	// MaxHTs to optimise at a fixed fleet size, as the Section V-C
	// comparison does — necessary when the model was trained on a single
	// fleet size and therefore carries no m coefficient.
	MinHTs int
	// CenterStride subsamples the candidate cluster centers; 1 enumerates
	// every mesh coordinate.
	CenterStride int
	// RadiusMax caps the ring radius (η control); 0 derives it from the
	// mesh diagonal.
	RadiusMax int
	// VictimPhi and AttackerPhi are the mix's Φ vectors, passed through to
	// the model.
	VictimPhi, AttackerPhi []float64
}

// OptimizePlacement solves Eqn 10 by exhaustive enumeration, exactly as the
// paper prescribes: it sweeps the number of HTs, the cluster center
// (controlling ρ), and the ring radius (controlling η), materialises each
// candidate placement, and keeps the one whose model-predicted Q is
// largest. The manager's router is never infected. It returns the best
// candidate and the number of placements evaluated.
func OptimizePlacement(m noc.Mesh, gm noc.NodeID, model *EffectModel, opts OptimizeOptions) (Candidate, int, error) {
	top, evaluated, err := RankPlacements(m, gm, model, opts, 1)
	if err != nil {
		return Candidate{}, evaluated, err
	}
	return top[0], evaluated, nil
}

// RankPlacements runs the Eqn 10 enumeration and returns the k candidates
// with the highest model-predicted Q, best first, deduplicated by node set.
// A linear model extrapolates, so serious attackers validate the shortlist
// by simulation before committing silicon — that is what the Section V-C
// reproduction does with this function.
func RankPlacements(m noc.Mesh, gm noc.NodeID, model *EffectModel, opts OptimizeOptions, k int) ([]Candidate, int, error) {
	if model == nil {
		return nil, 0, fmt.Errorf("attack: optimizer needs a fitted model")
	}
	if opts.MaxHTs < 1 {
		return nil, 0, fmt.Errorf("attack: MaxHTs must be positive")
	}
	if k < 1 {
		return nil, 0, fmt.Errorf("attack: need k ≥ 1")
	}
	minHTs := opts.MinHTs
	if minHTs < 1 {
		minHTs = 1
	}
	if minHTs > opts.MaxHTs {
		return nil, 0, fmt.Errorf("attack: MinHTs %d exceeds MaxHTs %d", minHTs, opts.MaxHTs)
	}
	stride := opts.CenterStride
	if stride < 1 {
		stride = 1
	}
	radiusMax := opts.RadiusMax
	if radiusMax <= 0 {
		radiusMax = (m.Width + m.Height) / 4
	}

	var top []Candidate
	seen := make(map[string]bool)
	s := scratchPool.Get().(*Scratch)
	defer scratchPool.Put(s)
	evaluated := 0
	// The paper's three enumeration axes: m, distance (via center), and
	// density (via radius).
	for count := minHTs; count <= opts.MaxHTs; count++ {
		for cy := 0; cy < m.Height; cy += stride {
			for cx := 0; cx < m.Width; cx += stride {
				for radius := 0; radius <= radiusMax; radius++ {
					p, err := s.RingCluster(m, noc.Coord{X: cx, Y: cy}, count, float64(radius), gm)
					if err != nil {
						return nil, evaluated, err
					}
					f, err := FeaturesFor(m, gm, p)
					if err != nil {
						return nil, evaluated, err
					}
					f.VictimPhi = opts.VictimPhi
					f.AttackerPhi = opts.AttackerPhi
					q := model.Predict(f)
					evaluated++
					if len(top) == k && q <= top[k-1].PredictedQ {
						continue
					}
					key := placementKey(p)
					if seen[key] {
						continue
					}
					seen[key] = true
					p.Nodes = slices.Clone(p.Nodes) // p aliases s
					top = insertCandidate(top, Candidate{Placement: p, Features: f, PredictedQ: q}, k)
				}
			}
		}
	}
	if len(top) == 0 {
		return nil, evaluated, fmt.Errorf("attack: enumeration produced no candidates")
	}
	return top, evaluated, nil
}

func placementKey(p Placement) string {
	b := make([]byte, 0, 4*len(p.Nodes))
	for _, n := range p.Nodes {
		b = append(b, byte(n>>8), byte(n), ',', ' ')
	}
	return string(b)
}

// insertCandidate keeps the slice sorted descending by PredictedQ with at
// most k entries.
func insertCandidate(top []Candidate, c Candidate, k int) []Candidate {
	pos := len(top)
	for pos > 0 && top[pos-1].PredictedQ < c.PredictedQ {
		pos--
	}
	top = append(top, Candidate{})
	copy(top[pos+1:], top[pos:])
	top[pos] = c
	if len(top) > k {
		top = top[:k]
	}
	return top
}
