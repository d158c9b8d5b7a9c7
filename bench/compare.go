package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
)

// compareResults prints, for every workload present on both sides, each
// end-to-end metric's change from side a to side b against its bound,
// and the untraced op timings' change without one, one row per workload,
// and reports whether any end-to-end metric regressed beyond its bound. A
// side is one or more result files: with two or more runs a side's value
// is their median and its spread the runs' interquartile range over the
// median; a single run falls back to its within-run spread. A metric whose
// spread is wider than its bound is "unresolved" — not evidence of a
// change either way — unless every run of b beats every run of a. Both
// sides must have measured for the same --seconds.
func compareResults(a, b []string, w io.Writer) (breach bool, err error) {
	sa, secA, err := loadSide(a)
	if err != nil {
		return false, err
	}
	sb, secB, err := loadSide(b)
	if err != nil {
		return false, err
	}
	if secA != secB {
		return false, fmt.Errorf("the sides measured for %d s and %d s; compare runs of equal length", secA, secB)
	}
	metrics := append(append([]metricDef(nil), endToEnd...), untracedTiming...)
	fmt.Fprintf(w, "%-16s", "workload")
	for _, m := range metrics {
		fmt.Fprintf(w, " %-30s", m.Name)
	}
	fmt.Fprintf(w, "\n%-16s", "bound")
	for _, m := range metrics {
		bound := "none"
		if m.Bound > 0 {
			bound = fmt.Sprintf("%.0f%%", m.Bound*100)
		}
		fmt.Fprintf(w, " %-30s", fmt.Sprintf("%s (%s better)", bound, m.Better))
	}
	fmt.Fprintln(w)
	rows := 0
	for _, wd := range workloads {
		ra, rb := sa[wd.name], sb[wd.name]
		if len(ra) == 0 || len(rb) == 0 {
			continue
		}
		rows++
		fmt.Fprintf(w, "%-16s", wd.name)
		for _, m := range metrics {
			cell, bad := compareMetric(m, ra, rb)
			breach = breach || bad
			fmt.Fprintf(w, " %-30s", cell)
		}
		fmt.Fprintf(w, "   (%d vs %d runs)\n", len(ra), len(rb))
	}
	if rows == 0 {
		return false, fmt.Errorf("the two sides share no workload")
	}
	return breach, nil
}

// compareMetric renders one cell and reports a regression beyond bound. A
// metric without a bound reads "better" or "worse" only when the change
// exceeds the spread and every run of one side beats every run of the
// other, and never breaches.
func compareMetric(m metricDef, ra, rb []*workloadResult) (string, bool) {
	va, sa := sideValues(m.Name, ra)
	vb, sb := sideValues(m.Name, rb)
	if len(va) == 0 || len(vb) == 0 {
		return "missing", false
	}
	ma, mb := median(va), median(vb)
	delta := (mb - ma) / math.Abs(ma)
	worse := delta
	if m.Better == "higher" {
		worse = -delta
	}
	sp := math.Max(sa, sb)
	if len(va) >= 2 && len(vb) >= 2 {
		sp = math.Max(spread(va), spread(vb))
	}
	spText := "sp ?"
	if !math.IsNaN(sp) {
		spText = fmt.Sprintf("sp %.1f%%", sp*100)
	}
	// Without a bound, a change counts only when it exceeds the spread.
	beyondNoise := math.Abs(delta) > sp
	verdict := "ok"
	bad := false
	switch {
	case m.Bound == 0 && beyondNoise && allBetter(m, va, vb):
		verdict = "better"
	case m.Bound == 0 && beyondNoise && allBetter(m, vb, va):
		verdict = "worse"
	case m.Bound == 0:
		verdict = "-"
	case sp > m.Bound && allBetter(m, va, vb):
		verdict = "better"
	case sp > m.Bound:
		verdict = "unresolved"
	case worse > m.Bound:
		verdict = "REGRESSION"
		bad = true
	}
	return fmt.Sprintf("%+.1f%% %s (%s)", delta*100, verdict, spText), bad
}

// sideValues collects one metric over a side's runs, with the widest
// within-run spread any of them recorded (NaN when none did).
func sideValues(name string, rs []*workloadResult) ([]float64, float64) {
	var vals []float64
	sp := math.NaN()
	for _, r := range rs {
		v, ok := r.Metrics[name]
		if !ok {
			continue
		}
		vals = append(vals, v.Value)
		if v.Spread != nil && (math.IsNaN(sp) || *v.Spread > sp) {
			sp = *v.Spread
		}
	}
	return vals, sp
}

// allBetter reports whether every value of b beats every value of a.
func allBetter(m metricDef, a, b []float64) bool {
	for _, x := range a {
		for _, y := range b {
			if (m.Better == "lower" && y >= x) || (m.Better == "higher" && y <= x) {
				return false
			}
		}
	}
	return true
}

// loadSide reads result files, groups their workload sections by name and
// returns the --seconds they all measured for.
func loadSide(paths []string) (map[string][]*workloadResult, int, error) {
	out := make(map[string][]*workloadResult)
	seconds := 0
	for _, p := range paths {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, 0, err
		}
		var rf resultFile
		if err := json.Unmarshal(b, &rf); err != nil {
			return nil, 0, fmt.Errorf("%s: %w", p, err)
		}
		if seconds != 0 && rf.Stamp.Seconds != seconds {
			return nil, 0, fmt.Errorf("%s measured for %d s, the side's other files for %d s", p, rf.Stamp.Seconds, seconds)
		}
		seconds = rf.Stamp.Seconds
		for _, r := range rf.Workloads {
			out[r.Name] = append(out[r.Name], r)
		}
	}
	if len(out) == 0 {
		return nil, 0, fmt.Errorf("no workload results in %s", strings.Join(paths, ","))
	}
	return out, seconds, nil
}
