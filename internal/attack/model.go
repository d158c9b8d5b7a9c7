package attack

import (
	"fmt"

	"repro/internal/mathx"
	"repro/internal/noc"

	"repro/internal/metrics"
)

// Features are the explanatory variables of the Eqn 9 linear model for one
// attack campaign.
type Features struct {
	// Rho is Definition 7: Manhattan distance between the global manager
	// and the Trojans' virtual center.
	Rho float64
	// Eta is Definition 8: mean Manhattan distance from the virtual center
	// to each Trojan.
	Eta float64
	// M is the number of Trojans.
	M int
	// VictimPhi are the victim applications' Φ values (Definition 5), in a
	// fixed order.
	VictimPhi []float64
	// AttackerPhi are the attacker applications' Φ values.
	AttackerPhi []float64
}

// FeaturesFor computes the geometric features of a placement against a
// manager position, leaving the Φ vectors to the caller.
func FeaturesFor(m noc.Mesh, gm noc.NodeID, p Placement) (Features, error) {
	rho, err := metrics.DistanceRho(m, gm, p.Nodes)
	if err != nil {
		return Features{}, fmt.Errorf("attack: features: %w", err)
	}
	eta, err := metrics.DensityEta(m, p.Nodes)
	if err != nil {
		return Features{}, fmt.Errorf("attack: features: %w", err)
	}
	return Features{Rho: rho, Eta: eta, M: p.Size()}, nil
}

// Vector flattens the features into the Eqn 9 regressor order:
// [ρ, η, m, Φ_γ1…Φ_γV, Φ_δ1…Φ_δA].
func (f Features) Vector() []float64 {
	out := make([]float64, 0, 3+len(f.VictimPhi)+len(f.AttackerPhi))
	out = append(out, f.Rho, f.Eta, float64(f.M))
	out = append(out, f.VictimPhi...)
	out = append(out, f.AttackerPhi...)
	return out
}

// Sample is one observed campaign: features plus the measured attack
// effect Q.
type Sample struct {
	Features Features
	Q        float64
}

// EffectModel is the fitted Eqn 9 model. Regressor columns that are
// constant across the training samples — the Φ columns are constant
// whenever all samples come from one Table III mix — cannot be identified
// separately from the intercept; they are dropped from the regression (a
// zero coefficient) and absorbed into a0.
type EffectModel struct {
	// NumVictims and NumAttackers fix the Φ-vector shape.
	NumVictims, NumAttackers int

	coeffs    []float64 // full-width, zeros at dropped columns
	intercept float64
	r2        float64
}

// FitEffectModel fits the exact Eqn 9 regression. All samples must share
// one victim/attacker shape.
func FitEffectModel(samples []Sample) (*EffectModel, error) {
	if len(samples) == 0 {
		return nil, fmt.Errorf("attack: no samples")
	}
	nV := len(samples[0].Features.VictimPhi)
	nA := len(samples[0].Features.AttackerPhi)
	x := make([][]float64, len(samples))
	y := make([]float64, len(samples))
	for i, s := range samples {
		if len(s.Features.VictimPhi) != nV || len(s.Features.AttackerPhi) != nA {
			return nil, fmt.Errorf("attack: sample %d has inconsistent Φ shape", i)
		}
		x[i] = s.Features.Vector()
		y[i] = s.Q
	}
	m := &EffectModel{NumVictims: nV, NumAttackers: nA}
	if err := m.fit(x, y); err != nil {
		return nil, err
	}
	return m, nil
}

// fit runs OLS over the non-constant columns and expands the coefficient
// vector back to full width.
func (m *EffectModel) fit(x [][]float64, y []float64) error {
	width := len(x[0])
	keep := make([]int, 0, width)
	for j := 0; j < width; j++ {
		lo, hi := x[0][j], x[0][j]
		for _, row := range x {
			if row[j] < lo {
				lo = row[j]
			}
			if row[j] > hi {
				hi = row[j]
			}
		}
		if hi-lo > 1e-12 {
			keep = append(keep, j)
		}
	}
	reduced := make([][]float64, len(x))
	for i, row := range x {
		r := make([]float64, len(keep))
		for k, j := range keep {
			r[k] = row[j]
		}
		reduced[i] = r
	}
	m.coeffs = make([]float64, width)
	if len(keep) == 0 {
		// Every regressor constant: the model is just the mean of Q.
		m.intercept = mathx.Mean(y)
		m.r2 = 0
		return nil
	}
	ols, err := mathx.FitOLS(reduced, y)
	if err != nil {
		return fmt.Errorf("attack: fit: %w", err)
	}
	for k, j := range keep {
		m.coeffs[j] = ols.Coeffs[k]
	}
	m.intercept = ols.Intercept
	m.r2 = ols.R2
	return nil
}

// Predict evaluates the fitted model on features f.
func (m *EffectModel) Predict(f Features) float64 {
	v := f.Vector()
	s := m.intercept
	for j, c := range m.coeffs {
		if j < len(v) {
			s += c * v[j]
		}
	}
	return s
}

// R2 returns the training-set coefficient of determination.
func (m *EffectModel) R2() float64 { return m.r2 }

// Coefficients returns (a1, a2, a3) for (ρ, η, m), the per-victim b and
// per-attacker c coefficients, and the intercept a0, matching Eqn 9's
// naming. Dropped (constant) columns report a zero coefficient.
func (m *EffectModel) Coefficients() (a1, a2, a3 float64, b, c []float64, a0 float64) {
	co := m.coeffs
	a1, a2, a3 = co[0], co[1], co[2]
	b = append(b, co[3:3+m.NumVictims]...)
	c = append(c, co[3+m.NumVictims:]...)
	return a1, a2, a3, b, c, m.intercept
}
