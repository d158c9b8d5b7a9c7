package budget

import (
	"testing"
)

// oracleDP is the multiple-choice-knapsack allocator as it stood before
// its scratch was pooled and its column loop bounded: every core sweeps
// every budget column. FuzzDPOracle holds DPKnapsack to its grants.
type oracleDP struct {
	QuantMW uint32
}

// Allocate is the reference DP, kept verbatim.
func (d oracleDP) Allocate(budgetMW uint64, reqs []Request) []uint32 {
	grants := make([]uint32, len(reqs))
	if len(reqs) == 0 {
		return grants
	}
	quant := uint64(d.QuantMW)
	cols := int(budgetMW/quant) + 1

	// Core i's candidate (power, value) pairs are choices[first[i]:first[i+1]]:
	// every level at or below the core's request, or the bare request when
	// no level fits (a starved core runs on whatever it was granted). The
	// table lives in a few flat slices, so the allocation count does not
	// grow with the number of requests.
	type choice struct {
		mw    uint32
		units int
		value float64
	}
	size := 0
	for _, r := range reqs {
		size += 1 + len(r.LevelsMW)
	}
	choices := make([]choice, 0, size)
	first := make([]int, len(reqs)+1)
	for i, r := range reqs {
		first[i] = len(choices)
		// The zero-grant choice keeps the program feasible for any budget
		// and lets the optimiser park a core — which is exactly what
		// happens to a victim whose request was tampered to zero.
		choices = append(choices, choice{mw: 0, units: 0, value: 0})
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
			choices = append(choices, choice{mw: lvl, units: int((uint64(lvl) + quant - 1) / quant), value: v})
		}
	}
	first[len(reqs)] = len(choices)

	const negInf = -1e18
	// best[j] = max value using cores processed so far with j budget units;
	// pick[i*cols+j] = chosen level index for core i at state j. best and
	// next are two rolling rows, swapped after each core.
	rows := make([]float64, 2*cols)
	best, next := rows[:cols], rows[cols:]
	for j := range best {
		best[j] = negInf
	}
	best[0] = 0
	pick := make([]int16, len(reqs)*cols)
	for i := range reqs {
		row := pick[i*cols : (i+1)*cols]
		for j := range next {
			next[j] = negInf
			row[j] = -1
		}
		cs := choices[first[i]:first[i+1]]
		for j := 0; j < cols; j++ {
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
	}

	// Find the best reachable end state and trace back.
	bestJ, bestV := -1, negInf
	for j := 0; j < cols; j++ {
		if best[j] > bestV {
			bestV, bestJ = best[j], j
		}
	}
	if bestJ < 0 {
		return grants // no feasible assignment: everyone gets zero
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
	return grants
}

// dpCase is one decoded FuzzDPOracle input.
type dpCase struct {
	quant  uint32
	budget uint64
	reqs   []Request
}

// decodeDPCase reads a 4-byte header, two level tables and 2 bytes per
// request:
//
//	0     request count 0..70
//	1     quantisation step 1..200 mW
//	2     budget, in 1/200ths of the summed requests (0 to 1.275×)
//	3     levels per table 1..6 (bits 0-2) for both tables
//	then  per table and level: a units step (1..8 quanta) and an offset
//	      below the quantum boundary, then a value byte (value/16)
//	then  per request: kind (bits 0-1: zero, a level, between levels,
//	      above the top level; bit 2: table) and a level or offset byte
//
// Levels are ascending and rarely multiples of the quantum, so ceiling
// quantisation matters; values need not rise with the level, and repeat
// often enough to exercise ties.
func decodeDPCase(data []byte) dpCase {
	r := dpReader{data}
	n := int(r.byte()) % 71
	c := dpCase{quant: 1 + uint32(r.byte())%200}
	frac := uint64(r.byte())
	nLevels := 1 + int(r.byte())%6
	var levels [2][]uint32
	var values [2][]float64
	for tb := range levels {
		units := uint32(0)
		for k := 0; k < nLevels; k++ {
			units += 1 + uint32(r.byte())%8
			off := uint32(r.byte()) % c.quant
			levels[tb] = append(levels[tb], units*c.quant-off)
			values[tb] = append(values[tb], float64(r.byte())/16)
		}
	}
	var sum uint64
	for i := 0; i < n; i++ {
		kind, arg := r.byte(), r.byte()
		tb := int(kind>>2) & 1
		lv := levels[tb]
		top := lv[len(lv)-1]
		var mw uint32
		switch kind & 3 {
		case 0:
			mw = 0
		case 1:
			mw = lv[int(arg)%len(lv)]
		case 2:
			mw = uint32(arg) * top / 255
		default:
			mw = top + 1 + uint32(arg)%c.quant
		}
		c.reqs = append(c.reqs, Request{
			Core: i, RequestMW: mw, Sensitivity: float64(kind >> 3),
			LevelsMW: lv, LevelValues: values[tb],
		})
		sum += uint64(mw)
	}
	c.budget = sum * frac / 200
	return c
}

// dpReader hands out fuzz bytes, then zeros once they run out.
type dpReader struct{ b []byte }

func (r *dpReader) byte() byte {
	if len(r.b) == 0 {
		return 0
	}
	c := r.b[0]
	r.b = r.b[1:]
	return c
}

// FuzzDPOracle checks DPKnapsack's grants against the reference DP,
// element by element, on fuzzed request sets (zero requests and requests
// above the top level included), quantisation steps and budgets. Each
// case runs twice: on a fresh table, and on the dirty table a larger call
// (every request twice, over more than twice the budget) left behind.
func FuzzDPOracle(f *testing.F) {
	f.Add([]byte{0, 49, 100, 5})
	f.Add([]byte{3, 0, 150, 2, 1, 0, 9, 2, 0, 20, 1, 0, 9, 2, 0, 20, 1, 0, 1, 3, 2, 200})
	f.Add([]byte{64, 99, 90, 5, 3, 7, 16, 5, 3, 30, 2, 1, 41, 7, 0, 52, 1, 9, 60, 4, 2, 18, 3, 6, 28, 2, 5, 33,
		1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20})
	f.Add([]byte{70, 199, 255, 4, 7, 199, 255, 7, 0, 255, 7, 199, 1, 7, 0, 2, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7})
	f.Add([]byte{40, 0, 60, 3, 0, 0, 16, 0, 0, 16, 0, 0, 16, 0, 0, 16, 0, 0, 16, 0, 0, 16, 5, 1, 6, 2, 7, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		c := decodeDPCase(data)
		want := oracleDP{QuantMW: c.quant}.Allocate(c.budget, c.reqs)
		dp := NewDPKnapsack(c.quant)
		fresh := dp.Allocate(nil, c.budget, c.reqs, new(State))
		dirty := new(State)
		larger := append(append([]Request(nil), c.reqs...), c.reqs...)
		dp.Allocate(nil, 2*c.budget+uint64(c.quant)*64, larger, dirty)
		reused := dp.Allocate(nil, c.budget, c.reqs, dirty)
		for pass, got := range [][]uint32{fresh, reused} {
			if len(got) != len(want) {
				t.Fatalf("pass %d: %d grants, reference %d", pass, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("pass %d: grant %d = %d, reference %d (quant %d, budget %d, %d requests)",
						pass, i, got[i], want[i], c.quant, c.budget, len(c.reqs))
				}
			}
		}
	})
}
