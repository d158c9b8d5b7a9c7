// Package power models per-core DVFS and the chip power budget of the
// paper's Section II-A system model (levels and budget fraction from
// Table I). Cores run
// at one of a small set of voltage/frequency levels; a core's power is
// P(f) = P_static + C_eff·V(f)²·f, the standard CMOS dynamic-power model.
// With C_eff in nanofarads and f in GHz the dynamic term comes out directly
// in watts.
package power

import (
	"errors"
	"fmt"
	"math"
)

// VFLevel is one DVFS operating point.
type VFLevel struct {
	// FreqGHz is the clock frequency at this level.
	FreqGHz float64
	// VoltV is the supply voltage at this level.
	VoltV float64
}

// Model describes one core's power characteristics over a DVFS table.
// Levels must be sorted by ascending frequency.
type Model struct {
	// Levels is the DVFS table, ascending in frequency.
	Levels []VFLevel
	// CeffNF is the effective switched capacitance in nF.
	CeffNF float64
	// StaticW is the leakage (frequency-independent) power in watts.
	StaticW float64
}

// DefaultLevels returns a six-point 45 nm-class DVFS table from 0.5 GHz at
// 0.70 V to 3.0 GHz at 1.20 V.
func DefaultLevels() []VFLevel {
	return []VFLevel{
		{FreqGHz: 0.5, VoltV: 0.70},
		{FreqGHz: 1.0, VoltV: 0.80},
		{FreqGHz: 1.5, VoltV: 0.90},
		{FreqGHz: 2.0, VoltV: 1.00},
		{FreqGHz: 2.5, VoltV: 1.10},
		{FreqGHz: 3.0, VoltV: 1.20},
	}
}

// DefaultModel returns the per-core model used throughout the experiments:
// about 4.0 W at the top level and 0.7 W at the bottom one.
func DefaultModel() *Model {
	return &Model{Levels: DefaultLevels(), CeffNF: 0.8, StaticW: 0.5}
}

// Validate reports structural problems with the model.
func (m *Model) Validate() error {
	if len(m.Levels) == 0 {
		return errors.New("power: model has no DVFS levels")
	}
	for i, l := range m.Levels {
		if l.FreqGHz <= 0 || l.VoltV <= 0 {
			return fmt.Errorf("power: level %d has nonpositive frequency or voltage", i)
		}
		if i > 0 && l.FreqGHz <= m.Levels[i-1].FreqGHz {
			return fmt.Errorf("power: level %d not ascending in frequency", i)
		}
	}
	if m.CeffNF <= 0 || m.StaticW < 0 {
		return errors.New("power: invalid capacitance or static power")
	}
	return nil
}

// NumLevels returns the number of DVFS levels.
func (m *Model) NumLevels() int { return len(m.Levels) }

// Power returns the core power in watts at DVFS level idx.
func (m *Model) Power(idx int) float64 {
	l := m.Levels[idx]
	return m.StaticW + m.CeffNF*l.VoltV*l.VoltV*l.FreqGHz
}

// PowerMW returns Power(idx) in integer milliwatts, the unit carried in the
// 32-bit POWER_REQ payload.
func (m *Model) PowerMW(idx int) uint32 { return uint32(math.Round(m.Power(idx) * 1000)) }

// LevelsMW returns PowerMW of every level, ascending: the milliwatt table
// the budget manager allocates over and the range guard bounds requests
// by.
func (m *Model) LevelsMW() []uint32 {
	mw := make([]uint32, len(m.Levels))
	for i := range mw {
		mw[i] = m.PowerMW(i)
	}
	return mw
}

// Freq returns the frequency in GHz at level idx.
func (m *Model) Freq(idx int) float64 { return m.Levels[idx].FreqGHz }

// MinPower and MaxPower return the wattage extremes of the table.
func (m *Model) MinPower() float64 { return m.Power(0) }

// MaxPower returns the power at the top DVFS level.
func (m *Model) MaxPower() float64 { return m.Power(len(m.Levels) - 1) }

// LevelForBudget returns the highest level whose power fits within budget
// watts. If even the lowest level exceeds the budget the core still runs at
// level 0 (a core cannot be switched off in this model) and ok is false.
func (m *Model) LevelForBudget(budget float64) (level int, ok bool) {
	level, ok = 0, false
	for i := range m.Levels {
		if m.Power(i) <= budget {
			level, ok = i, true
		}
	}
	return level, ok
}
