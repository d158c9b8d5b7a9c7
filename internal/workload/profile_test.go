package workload

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/power"
)

const testMemLat = 60 // ns, a typical uncontended round trip in this NoC

func TestAllContainsTableII(t *testing.T) {
	want := []string{
		"streamcluster", "swaptions", "ferret", "fluidanimate", "blackscholes",
		"freqmine", "dedup", "canneal", "vips", // PARSEC
		"barnes", "raytrace", // SPLASH-2
	}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("All() has %d benchmarks, want %d", len(all), len(want))
	}
	for _, name := range want {
		if _, err := ByName(name); err != nil {
			t.Errorf("ByName(%q): %v", name, err)
		}
	}
}

func TestAllSortedAndCopied(t *testing.T) {
	a := All()
	for i := 1; i < len(a); i++ {
		if a[i-1].Name >= a[i].Name {
			t.Fatalf("All() not sorted at %d: %q >= %q", i, a[i-1].Name, a[i].Name)
		}
	}
	a[0].Name = "mutated"
	if All()[0].Name == "mutated" {
		t.Error("All() must return a copy")
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName("quake3"); err == nil {
		t.Error("unknown benchmark should fail")
	}
}

func TestSuitesLabelled(t *testing.T) {
	for _, p := range All() {
		if p.Suite != "PARSEC" && p.Suite != "SPLASH-2" {
			t.Errorf("%s has suite %q", p.Name, p.Suite)
		}
	}
	b, _ := ByName("barnes")
	if b.Suite != "SPLASH-2" {
		t.Errorf("barnes suite = %q, want SPLASH-2", b.Suite)
	}
}

func TestThroughputIncreasesWithFrequency(t *testing.T) {
	for _, p := range All() {
		prev := 0.0
		for _, f := range []float64{0.5, 1.0, 1.5, 2.0, 2.5, 3.0} {
			cur := p.Throughput(f, testMemLat)
			if cur <= prev {
				t.Errorf("%s: throughput not increasing at %v GHz", p.Name, f)
			}
			prev = cur
		}
	}
}

func TestIPCDecreasesWithLatency(t *testing.T) {
	for _, p := range All() {
		if p.IPC(2.0, 30) < p.IPC(2.0, 200) {
			t.Errorf("%s: IPC should not improve with slower memory", p.Name)
		}
	}
}

func TestComputeBoundScalesBetter(t *testing.T) {
	// The paper's premise: instruction-bounded applications gain more from
	// frequency than memory-bounded ones. blackscholes (compute) must show
	// a larger relative speed-up from 0.5 to 3.0 GHz than canneal (memory).
	bs, _ := ByName("blackscholes")
	cn, _ := ByName("canneal")
	speedup := func(p Profile) float64 {
		return p.Throughput(3.0, testMemLat) / p.Throughput(0.5, testMemLat)
	}
	if speedup(bs) <= speedup(cn) {
		t.Errorf("blackscholes speedup %v should exceed canneal %v", speedup(bs), speedup(cn))
	}
}

func TestSensitivityOrdersComputeAboveMemory(t *testing.T) {
	freqs := []float64{0.5, 1.0, 1.5, 2.0, 2.5, 3.0}
	sw, _ := ByName("swaptions")
	sc, _ := ByName("streamcluster")
	if sw.Sensitivity(freqs, testMemLat) <= sc.Sensitivity(freqs, testMemLat) {
		t.Error("compute-bound swaptions must be more budget-sensitive than streamcluster (Definition 4)")
	}
}

func TestSensitivityNonNegativeAndFinite(t *testing.T) {
	freqs := []float64{0.5, 1.0, 1.5, 2.0, 2.5, 3.0}
	for _, p := range All() {
		s := p.Sensitivity(freqs, testMemLat)
		if s <= 0 || s != s {
			t.Errorf("%s sensitivity = %v", p.Name, s)
		}
	}
}

func TestSensitivityDegenerateInputs(t *testing.T) {
	p, _ := ByName("vips")
	if got := p.Sensitivity(nil, testMemLat); got != 0 {
		t.Errorf("empty freq list sensitivity = %v, want 0", got)
	}
	if got := p.Sensitivity([]float64{2.0}, testMemLat); got != 0 {
		t.Errorf("single freq sensitivity = %v, want 0", got)
	}
	if got := p.Sensitivity([]float64{2.0, 2.0}, testMemLat); got != 0 {
		t.Errorf("repeated freq sensitivity = %v, want 0", got)
	}
}

// TestSensitivitySumsAdjacentSlopes checks Definition 4 on a profile with
// no memory stalls: Throughput is f/CPICore, a slope of exactly 2 between
// any two levels here, so φ over three levels is 2 + 2.
func TestSensitivitySumsAdjacentSlopes(t *testing.T) {
	p := Profile{CPICore: 0.5}
	if got := p.Sensitivity([]float64{1, 2, 3}, testMemLat); got != 4 {
		t.Errorf("φ = %v, want 4", got)
	}
}

// TestSensitivityAbsoluteSlope checks that a pair listed in descending
// frequency still adds its absolute slope, and that equal adjacent
// frequencies are skipped.
func TestSensitivityAbsoluteSlope(t *testing.T) {
	p := Profile{CPICore: 0.5}
	for _, tc := range []struct {
		freqs []float64
		want  float64
	}{
		{[]float64{2, 1}, 2},
		{[]float64{1, 3, 2}, 4},
		{[]float64{1, 1, 2}, 2},
	} {
		if got := p.Sensitivity(tc.freqs, testMemLat); got != tc.want {
			t.Errorf("φ over %v = %v, want %v", tc.freqs, got, tc.want)
		}
	}
}

// TestSensitivityTableIOrdering pins the ordering Sensitivity's doc comment
// relies on: at the Table I DVFS levels and the 60 ns baseline latency,
// compute-bound blackscholes is about ten times as budget-sensitive as
// memory-bound canneal.
func TestSensitivityTableIOrdering(t *testing.T) {
	var freqs []float64
	for _, l := range power.DefaultLevels() {
		freqs = append(freqs, l.FreqGHz)
	}
	bs, _ := ByName("blackscholes")
	cn, _ := ByName("canneal")
	phiBS, phiCN := bs.Sensitivity(freqs, testMemLat), cn.Sensitivity(freqs, testMemLat)
	if phiBS <= phiCN {
		t.Errorf("blackscholes φ = %v, want above canneal's %v", phiBS, phiCN)
	}
	if math.Abs(phiBS-5.19) > 0.01 || math.Abs(phiCN-0.52) > 0.01 {
		t.Errorf("φ = %v (blackscholes), %v (canneal), want about 5.19 and 0.52", phiBS, phiCN)
	}
}

func TestMemOpsPerNsScalesWithMPI(t *testing.T) {
	cn, _ := ByName("canneal")
	sw, _ := ByName("swaptions")
	if cn.MemOpsPerNs(2.0, testMemLat) <= sw.MemOpsPerNs(2.0, testMemLat) {
		t.Error("memory-bound canneal must generate more NoC traffic than swaptions")
	}
}

// Property: throughput is always positive and bounded by f/CPICore.
func TestThroughputBounds(t *testing.T) {
	f := func(fRaw, latRaw uint8) bool {
		fGHz := 0.5 + float64(fRaw)/255*2.5
		lat := float64(latRaw)
		for _, p := range All() {
			th := p.Throughput(fGHz, lat)
			if th <= 0 || th > fGHz/p.CPICore+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMixesMatchTableIII(t *testing.T) {
	ms := Mixes()
	if len(ms) != 4 {
		t.Fatalf("Mixes() returned %d, want 4", len(ms))
	}
	tests := []struct {
		name          string
		wantAttackers int
		wantVictims   int
	}{
		{"mix-1", 2, 2},
		{"mix-2", 2, 2},
		{"mix-3", 1, 3},
		{"mix-4", 3, 1},
	}
	for _, tt := range tests {
		m, err := MixByName(tt.name)
		if err != nil {
			t.Fatalf("MixByName(%q): %v", tt.name, err)
		}
		if len(m.Attackers) != tt.wantAttackers || len(m.Victims) != tt.wantVictims {
			t.Errorf("%s has %d attackers / %d victims, want %d/%d",
				tt.name, len(m.Attackers), len(m.Victims), tt.wantAttackers, tt.wantVictims)
		}
		if err := m.Validate(); err != nil {
			t.Errorf("%s: %v", tt.name, err)
		}
	}
}

func TestMixByNameUnknown(t *testing.T) {
	if _, err := MixByName("mix-9"); err == nil {
		t.Error("unknown mix should fail")
	}
}

func TestMixValidateRejectsBadMixes(t *testing.T) {
	tests := []struct {
		name string
		give Mix
	}{
		{name: "unknown app", give: Mix{Name: "x", Attackers: []string{"doom"}, Victims: []string{"vips"}}},
		{name: "duplicate app", give: Mix{Name: "x", Attackers: []string{"vips"}, Victims: []string{"vips"}}},
		{name: "no victims", give: Mix{Name: "x", Attackers: []string{"vips"}}},
		{name: "no attackers", give: Mix{Name: "x", Victims: []string{"vips"}}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.give.Validate(); err == nil {
				t.Error("Validate should fail")
			}
		})
	}
}

func TestMixApps(t *testing.T) {
	m, _ := MixByName("mix-4")
	apps := m.Apps()
	if len(apps) != 4 {
		t.Fatalf("Apps = %v, want 4 entries", apps)
	}
	if apps[0] != "barnes" || apps[3] != "raytrace" {
		t.Errorf("Apps order = %v, want attackers first", apps)
	}
}
