package budget

import "slices"

// DPKnapsack is the dynamic-programming allocator modelled on fine-grained
// runtime power budgeting [9]. It solves a multiple-choice knapsack: each
// core picks exactly one DVFS level (capped at its request), the total
// power must fit the budget, and the summed level value (expected
// throughput) is maximised. The budget axis is quantised to QuantMW
// milliwatts to bound the table.
type DPKnapsack struct {
	// QuantMW is the budget quantisation step in milliwatts.
	QuantMW uint32
}

var _ Allocator = DPKnapsack{}

// NewDPKnapsack returns a DP allocator with the given quantisation step
// (clamped to at least 1 mW).
func NewDPKnapsack(quantMW uint32) DPKnapsack {
	if quantMW < 1 {
		quantMW = 1
	}
	return DPKnapsack{QuantMW: quantMW}
}

// Name implements Allocator.
func (DPKnapsack) Name() string { return "dp" }

// dpChoice is one (power, value) candidate of a core.
type dpChoice struct {
	mw    uint32
	units int
	value float64
}

// dpScratch is the table of one Allocate call: the candidates, the two
// rolling rows and the pick table. It lives in the run's State, so the
// table is allocated once and then reused dirty: each call writes every
// entry it reads before reading it.
type dpScratch struct {
	choices []dpChoice
	first   []int
	rows    []float64
	pick    []int16
}

// sized returns s with length n, reusing its backing array when the
// capacity suffices; the elements keep whatever they held.
func sized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Allocate implements Allocator.
func (d DPKnapsack) Allocate(dst []uint32, budgetMW uint64, reqs []Request, st *State) []uint32 {
	sc := &st.dp
	dst, grants := extend(dst, len(reqs))
	if len(reqs) == 0 {
		return dst
	}
	quant := uint64(d.QuantMW)
	cols := int(budgetMW/quant) + 1

	// Core i's candidate (power, value) pairs are choices[first[i]:first[i+1]]:
	// every level at or below the core's request, or the bare request when
	// no level fits (a starved core runs on whatever it was granted). The
	// table lives in a few flat slices, so even a fresh table allocates
	// as often for many requests as for few.
	size := 0
	for _, r := range reqs {
		size += 1 + len(r.LevelsMW)
	}
	choices := slices.Grow(sc.choices[:0], size)
	first := sized(sc.first, len(reqs)+1)
	for i, r := range reqs {
		first[i] = len(choices)
		// The zero-grant choice keeps the program feasible for any budget
		// and lets the optimiser park a core — which is exactly what
		// happens to a victim whose request was tampered to zero.
		choices = append(choices, dpChoice{mw: 0, units: 0, value: 0})
		for li, lvl := range r.LevelsMW {
			if lvl > r.RequestMW {
				break
			}
			v := 0.0
			if li < len(r.LevelValues) {
				v = r.LevelValues[li]
			}
			// Ceiling quantisation guarantees the un-quantised grant sum
			// never exceeds the budget.
			choices = append(choices, dpChoice{mw: lvl, units: int((uint64(lvl) + quant - 1) / quant), value: v})
		}
	}
	first[len(reqs)] = len(choices)
	sc.choices, sc.first = choices, first

	const negInf = -1e18
	// best[j] = max value using cores processed so far with j budget units;
	// pick[i*cols+j] = chosen level index for core i at state j. best and
	// next are two rolling rows, swapped after each core. No state above
	// reach — the units of the cores done so far, summed — is reachable,
	// so each core's loop and row initialisation stop there.
	rows := sized(sc.rows, 2*cols)
	pick := sized(sc.pick, len(reqs)*cols)
	sc.rows, sc.pick = rows, pick
	best, next := rows[:cols], rows[cols:]
	best[0] = 0
	reach := 0
	for i := range reqs {
		cs := choices[first[i]:first[i+1]]
		top := reach
		for _, c := range cs {
			top = max(top, reach+c.units)
		}
		top = min(top, cols-1)
		row := pick[i*cols : i*cols+top+1]
		for j := range row {
			next[j] = negInf
			row[j] = -1
		}
		for j := 0; j <= reach; j++ {
			if best[j] == negInf {
				continue
			}
			for ci, c := range cs {
				nj := j + c.units
				if nj >= cols {
					continue
				}
				if v := best[j] + c.value; v > next[nj] {
					next[nj] = v
					row[nj] = int16(ci)
				}
			}
		}
		best, next = next, best
		reach = top
	}

	// Find the best reachable end state and trace back.
	bestJ, bestV := -1, negInf
	for j := 0; j <= reach; j++ {
		if best[j] > bestV {
			bestV, bestJ = best[j], j
		}
	}
	if bestJ < 0 {
		return dst // no feasible assignment: everyone gets zero
	}
	j := bestJ
	for i := len(reqs) - 1; i >= 0; i-- {
		ci := pick[i*cols+j]
		if ci < 0 {
			// Unreachable in a consistent table; grant the floor.
			continue
		}
		c := choices[first[i]+int(ci)]
		grants[i] = c.mw
		j -= c.units
	}
	return dst
}
