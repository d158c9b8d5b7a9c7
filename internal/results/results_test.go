package results

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"io"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// sampleMeta builds a deterministic provenance block for table fixtures.
func sampleMeta(id string) Meta {
	return Meta{Experiment: id, Title: "fixture " + id, Seed: 7, Workers: 2,
		ConfigHash: "abc123def456", Revision: "unknown"}
}

// tables returns one populated fixture of every typed table.
func tables() []Table {
	return []Table{
		&ConfigTable{Meta: sampleMeta("E1"), Entries: []ConfigEntry{
			{Key: "processors", Value: "256"}, {Key: "mesh", Value: "16x16 2D mesh"},
		}},
		&AreaPowerTable{Meta: sampleMeta("E2"), Transistors: 864,
			HTAreaUm2: 12.17, HTPowerUW: 0.55, RouterAreaUm2: 71814, RouterPowerUW: 31881,
			Fleets: []AreaPowerRow{{HTs: 1, Nodes: 1, AreaUm2: 12.17, AreaPct: 0.017, PowerUW: 0.55, PowerPct: 0.0017}}},
		&InfectionTable{Meta: sampleMeta("E3"), XLabel: "hts",
			Series: []string{"gm-center", "gm-corner"},
			Points: []InfectionRow{{X: 0, Rates: []float64{0, 0}}, {X: 5, Rates: []float64{0.17142857142857143, 0.48888888888888893}}}},
		&EffectTable{Meta: sampleMeta("E7"), Rows: []EffectRow{
			{Mix: "mix-1", TargetInfection: 0.4, MeasuredInfection: 0.3944, HTs: 3, Q: 1.809}}},
		&AppEffectTable{Meta: sampleMeta("E8"), Rows: []AppEffectRow{
			{Mix: "mix-1", TargetInfection: 0.4, App: "barnes", Role: "attacker", Theta: 34.88, Change: 1.07}}},
		&PlacementTable{Meta: sampleMeta("E9"), Rows: []PlacementRow{
			{Mix: "mix-1", HTs: 16, RandomQMean: 1.43, RandomQStd: 0.3, OptimalQ: 2.86,
				ImprovementPct: 99.6, ModelR2: 0.71, Evaluated: 80}}},
		&AblationTable{Meta: sampleMeta("E10"), Rows: []AblationRow{
			{Allocator: "fair", Q: 2.917, Infection: 0.75}, {Allocator: "dp", Q: 3.824, Infection: 0.75}}},
		&VariantTable{Meta: sampleMeta("X1"), Rows: []VariantRow{
			{Mode: "false-data", Q: 2.79, VictimChange: 0.385, AttackerChange: 1.074, Dropped: 0, Looped: 0}}},
		&DefenseTable{Meta: sampleMeta("X2"), Rows: []DefenseRow{
			{Defense: "range-guard", Q: 1.2, Flagged: 30, Repaired: 28, FalsePositives: 2}}},
		&CampaignTable{Meta: sampleMeta("run"), Q: 1.269, InfectionMeasured: 0.517, InfectionPredicted: 0.517,
			Rows: []CampaignAppRow{{App: "barnes", Role: "attacker", Cores: 15, Theta: 34.88, Baseline: 34.88, Change: 1}}},
	}
}

// TestJSONRoundTrip marshals every table type and decodes it back into a
// fresh value of the same type; the result must be deeply equal.
func TestJSONRoundTrip(t *testing.T) {
	for _, tab := range tables() {
		var buf bytes.Buffer
		if err := WriteJSON(&buf, tab); err != nil {
			t.Fatalf("%s: WriteJSON: %v", tab.TableMeta().Experiment, err)
		}
		back := reflect.New(reflect.TypeOf(tab).Elem()).Interface()
		if err := json.Unmarshal(buf.Bytes(), back); err != nil {
			t.Fatalf("%s: unmarshal: %v", tab.TableMeta().Experiment, err)
		}
		if !reflect.DeepEqual(tab, back) {
			t.Errorf("%s: round trip mismatch:\n got %+v\nwant %+v", tab.TableMeta().Experiment, back, tab)
		}
	}
}

// TestCSVRoundTrip re-parses the CSV emitter's output: the header must be
// ColumnNames, every numeric cell must parse back to its exact float64,
// and the metadata preamble must carry the experiment ID.
func TestCSVRoundTrip(t *testing.T) {
	for _, tab := range tables() {
		id := tab.TableMeta().Experiment
		var buf bytes.Buffer
		if err := WriteCSV(&buf, tab); err != nil {
			t.Fatalf("%s: WriteCSV: %v", id, err)
		}
		if !strings.Contains(buf.String(), "# experiment: "+id) {
			t.Errorf("%s: missing metadata preamble", id)
		}
		r := csv.NewReader(&buf)
		r.Comment = '#'
		recs, err := r.ReadAll()
		if err != nil {
			t.Fatalf("%s: reparse: %v", id, err)
		}
		if !reflect.DeepEqual(recs[0], tab.ColumnNames()) {
			t.Errorf("%s: header = %v, want %v", id, recs[0], tab.ColumnNames())
		}
		rows := tab.RowValues()
		if len(recs)-1 != len(rows) {
			t.Fatalf("%s: %d CSV rows, want %d", id, len(recs)-1, len(rows))
		}
		for ri, row := range rows {
			for ci, cell := range row {
				got := recs[ri+1][ci]
				switch want := cell.(type) {
				case float64:
					f, err := strconv.ParseFloat(got, 64)
					if err != nil || f != want {
						t.Errorf("%s[%d][%d]: %q does not round-trip to %v", id, ri, ci, got, want)
					}
				case string:
					if got != want {
						t.Errorf("%s[%d][%d] = %q, want %q", id, ri, ci, got, want)
					}
				}
			}
		}
	}
}

// TestWriteText smoke-checks the human rendering: title line, header, and
// one body row.
func TestWriteText(t *testing.T) {
	for _, tab := range tables() {
		var buf bytes.Buffer
		if err := WriteText(&buf, tab); err != nil {
			t.Fatalf("%s: WriteText: %v", tab.TableMeta().Experiment, err)
		}
		out := buf.String()
		m := tab.TableMeta()
		if !strings.Contains(out, m.Experiment+" · "+m.Title) {
			t.Errorf("%s: missing title line in %q", m.Experiment, out)
		}
		if !strings.Contains(out, tab.ColumnNames()[0]) {
			t.Errorf("%s: missing header in %q", m.Experiment, out)
		}
		if lines := strings.Count(out, "\n"); lines != 2+len(tab.RowValues()) {
			t.Errorf("%s: %d lines, want %d", m.Experiment, lines, 2+len(tab.RowValues()))
		}
	}
}

// TestHashConfig pins the fingerprint contract: stable for equal params,
// different for different params.
func TestHashConfig(t *testing.T) {
	type params struct {
		Size   int `json:"size"`
		Trials int `json:"trials"`
	}
	a := HashConfig(params{64, 50})
	if a != HashConfig(params{64, 50}) {
		t.Error("hash not stable for equal params")
	}
	if a == HashConfig(params{64, 51}) {
		t.Error("hash collision for different params")
	}
	if len(a) != 12 {
		t.Errorf("hash length %d, want 12", len(a))
	}
}

// TestWriteArtifact checks the file pair lands under the lower-cased
// experiment ID.
func TestWriteArtifact(t *testing.T) {
	dir := t.TempDir()
	jsonPath, csvPath, err := WriteArtifact(dir, tables()[2])
	if err != nil {
		t.Fatalf("WriteArtifact: %v", err)
	}
	if !strings.HasSuffix(jsonPath, "e3.json") || !strings.HasSuffix(csvPath, "e3.csv") {
		t.Errorf("paths = %q, %q", jsonPath, csvPath)
	}
}

// TestMetaCarriesGoVersion asserts NewMeta stamps the running toolchain
// and both machine emitters carry it.
func TestMetaCarriesGoVersion(t *testing.T) {
	m := NewMeta("E1", "t", 1, 0, struct{}{})
	if m.GoVersion != runtime.Version() {
		t.Fatalf("GoVersion = %q, want %q", m.GoVersion, runtime.Version())
	}
	tab := &ConfigTable{Meta: m, Entries: []ConfigEntry{{Key: "k", Value: "v"}}}
	var j, c bytes.Buffer
	if err := WriteJSON(&j, tab); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(j.String(), `"go_version": "`+runtime.Version()+`"`) {
		t.Errorf("JSON missing go_version: %s", j.String())
	}
	if err := WriteCSV(&c, tab); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(c.String(), "# go: "+runtime.Version()+"\n") {
		t.Errorf("CSV preamble missing go line: %s", c.String())
	}
}

// TestWriteFormatDispatchesEveryFormat verifies the single render path
// matches the dedicated emitters and rejects unknown formats.
func TestWriteFormatDispatchesEveryFormat(t *testing.T) {
	tab := &ConfigTable{Meta: NewMeta("E1", "t", 1, 0, struct{}{}), Entries: []ConfigEntry{{Key: "k", Value: "v"}}}
	emitters := map[string]func(io.Writer, Table) error{
		"json": WriteJSON, "csv": WriteCSV, "txt": WriteText,
	}
	if got, want := len(Formats()), len(emitters); got != want {
		t.Fatalf("Formats() lists %d formats, want %d", got, want)
	}
	for _, format := range Formats() {
		var direct, dispatched bytes.Buffer
		if err := emitters[format](&direct, tab); err != nil {
			t.Fatal(err)
		}
		if err := WriteFormat(&dispatched, tab, format); err != nil {
			t.Fatal(err)
		}
		if direct.String() != dispatched.String() {
			t.Errorf("WriteFormat(%q) differs from the dedicated emitter", format)
		}
		if ContentType(format) == "" {
			t.Errorf("ContentType(%q) empty", format)
		}
	}
	if err := WriteFormat(&bytes.Buffer{}, tab, "xml"); err == nil || !strings.Contains(err.Error(), "unknown format") {
		t.Errorf("WriteFormat(xml) = %v, want unknown-format error", err)
	}
}

// TestRevisionParsesBuildInfoOnce pins the memo: after the first call,
// Revision — read for every table's Meta and every health check —
// allocates nothing and answers the same.
func TestRevisionParsesBuildInfoOnce(t *testing.T) {
	first := Revision()
	if n := testing.AllocsPerRun(100, func() {
		if Revision() != first {
			t.Fatal("Revision changed between calls")
		}
	}); n != 0 {
		t.Errorf("Revision allocates %v times per call after the first, want 0", n)
	}
}
