package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"unicode/utf8"
)

// This file pins the two /v1/metrics renderings: a promlint-style
// validator over the Prometheus text exposition (run both against live
// scrapes and against deliberately broken documents, so the validator
// itself is known to have teeth), the frozen key set of the JSON
// rendering, and the tear-freedom of the counter snapshot under
// concurrent load.

// metricNameRE and labelNameRE are the Prometheus identifier grammars.
var (
	metricNameRE = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelNameRE  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// lintPrometheus validates a text exposition document the way promlint
// does, returning every problem found (empty means clean). Checks: every
// line is UTF-8; HELP then TYPE precede a family's samples, each exactly
// once; TYPE is counter|gauge|histogram; counter families end in _total;
// metric and label names match the identifier grammar; label values are
// quoted with no escapes but \\, \" and \n; values parse as floats; no
// duplicate series; histogram bucket counts are non-decreasing in le
// order and the +Inf bucket equals the family's _count sample.
func lintPrometheus(doc string) []string {
	var problems []string
	bad := func(format string, args ...any) { problems = append(problems, fmt.Sprintf(format, args...)) }

	helped := map[string]bool{}
	typed := map[string]string{}
	sampled := map[string]bool{}
	seenSeries := map[string]bool{}
	type bucket struct {
		le    float64
		inf   bool
		count float64
	}
	buckets := map[string][]bucket{}
	counts := map[string]float64{}

	// family resolves a sample name to the metric family it belongs to:
	// histogram samples use the _bucket/_sum/_count suffixes.
	family := func(name string) string {
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			base := strings.TrimSuffix(name, suffix)
			if base != name && typed[base] == "histogram" {
				return base
			}
		}
		return name
	}

	for _, line := range strings.Split(doc, "\n") {
		if line == "" {
			continue
		}
		if !utf8.ValidString(line) {
			bad("line %q is not valid UTF-8", line)
		}
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, _, ok := strings.Cut(rest, " ")
			if !ok {
				bad("HELP line %q has no help text", line)
				continue
			}
			if helped[name] {
				bad("duplicate HELP for %s", name)
			}
			helped[name] = true
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, kind, _ := strings.Cut(rest, " ")
			switch kind {
			case "counter", "gauge", "histogram":
			default:
				bad("%s has unknown type %q", name, kind)
			}
			if !helped[name] {
				bad("TYPE for %s precedes its HELP", name)
			}
			if _, dup := typed[name]; dup {
				bad("duplicate TYPE for %s", name)
			}
			if sampled[name] {
				bad("TYPE for %s appears after its samples", name)
			}
			typed[name] = kind
			if kind == "counter" && !strings.HasSuffix(name, "_total") {
				bad("counter %s should have the _total suffix", name)
			}
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}

		name, labels, pairs, value, err := parseSample(line)
		if err != nil {
			bad("sample line %q: %v", line, err)
			continue
		}
		if !metricNameRE.MatchString(name) {
			bad("invalid metric name %q", name)
		}
		fam := family(name)
		if _, ok := typed[fam]; !ok {
			bad("sample %s has no TYPE", name)
		}
		sampled[fam] = true
		val, err := strconv.ParseFloat(value, 64)
		if err != nil {
			bad("sample %s has unparseable value %q", name, value)
		}
		var le string
		var hasLe bool
		for _, p := range pairs {
			if p[0] == "le" {
				le, hasLe = p[1], true
			}
		}
		series := name + "{" + labels + "}"
		if seenSeries[series] {
			bad("duplicate series %s", series)
		}
		seenSeries[series] = true

		if typed[fam] == "histogram" {
			switch {
			case strings.HasSuffix(name, "_bucket"):
				if !hasLe {
					bad("histogram sample %s has no le label", name)
					continue
				}
				b := bucket{count: val}
				if le == "+Inf" {
					b.inf = true
				} else if b.le, err = strconv.ParseFloat(le, 64); err != nil {
					bad("histogram %s has unparseable le %q", fam, le)
					continue
				}
				buckets[fam] = append(buckets[fam], b)
			case strings.HasSuffix(name, "_count"):
				counts[fam] = val
			}
		}
	}

	for fam, bs := range buckets {
		sawInf := false
		for i, b := range bs {
			if i > 0 {
				prev := bs[i-1]
				if prev.inf {
					bad("histogram %s has a bucket after +Inf", fam)
				} else if !b.inf && b.le <= prev.le {
					bad("histogram %s le bounds not increasing at %g", fam, b.le)
				}
				if b.count < prev.count {
					bad("histogram %s bucket counts decrease at le=%g", fam, b.le)
				}
			}
			if b.inf {
				sawInf = true
				if c, ok := counts[fam]; ok && b.count != c {
					bad("histogram %s +Inf bucket %g != _count %g", fam, b.count, c)
				}
			}
		}
		if !sawInf {
			bad("histogram %s has no +Inf bucket", fam)
		}
	}
	for name := range typed {
		if !helped[name] {
			bad("%s has TYPE but no HELP", name)
		}
	}
	sort.Strings(problems)
	return problems
}

// parseSample splits a sample line into its metric name, its label body
// as written (the series identity), the unescaped label pairs, and its
// value.
func parseSample(line string) (name, labels string, pairs [][2]string, value string, err error) {
	end := strings.IndexAny(line, "{ ")
	if end < 0 {
		return "", "", nil, "", errors.New("no value")
	}
	name, rest := line[:end], line[end:]
	if body, ok := strings.CutPrefix(rest, "{"); ok {
		if pairs, rest, err = parseLabels(body); err != nil {
			return "", "", nil, "", err
		}
		labels = body[:len(body)-len(rest)-1]
	}
	value, ok := strings.CutPrefix(rest, " ")
	if !ok || value == "" || strings.Contains(value, " ") {
		return "", "", nil, "", errors.New("want one space-separated value")
	}
	return name, labels, pairs, value, nil
}

// parseLabels reads name="value" pairs from body, the text after a
// sample's opening brace, through the closing brace, unescaping each
// value by the text format's rules: \\, \" and \n are the only escapes.
// rest is what follows the closing brace.
func parseLabels(body string) (pairs [][2]string, rest string, err error) {
	s := body
	for !strings.HasPrefix(s, "}") {
		k, v, ok := strings.Cut(s, "=")
		if !ok || !labelNameRE.MatchString(k) || !strings.HasPrefix(v, `"`) {
			return nil, "", fmt.Errorf("malformed label %q", s)
		}
		var val strings.Builder
		s = v[1:]
		for {
			if s == "" {
				return nil, "", fmt.Errorf("label %s has an unterminated value", k)
			}
			c := s[0]
			s = s[1:]
			if c == '"' {
				break
			}
			if c == '\\' {
				if s == "" {
					return nil, "", fmt.Errorf("label %s has an unterminated value", k)
				}
				switch s[0] {
				case '\\', '"':
					val.WriteByte(s[0])
				case 'n':
					val.WriteByte('\n')
				default:
					return nil, "", fmt.Errorf("label %s has invalid escape \\%c", k, s[0])
				}
				s = s[1:]
				continue
			}
			val.WriteByte(c)
		}
		pairs = append(pairs, [2]string{k, val.String()})
		if r, ok := strings.CutPrefix(s, ","); ok {
			s = r
		} else if !strings.HasPrefix(s, "}") {
			return nil, "", fmt.Errorf("malformed label %q: want , or } after the value", k)
		}
	}
	return pairs, s[1:], nil
}

// promSamples parses a text exposition into series → value, keyed by
// each sample's name and label body as written.
func promSamples(t *testing.T, doc string) map[string]float64 {
	t.Helper()
	out := make(map[string]float64)
	for _, line := range strings.Split(doc, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, labels, _, value, err := parseSample(line)
		if err != nil {
			t.Fatalf("sample line %q: %v", line, err)
		}
		v, err := strconv.ParseFloat(value, 64)
		if err != nil {
			t.Fatalf("sample line %q: %v", line, err)
		}
		if labels != "" {
			name += "{" + labels + "}"
		}
		out[name] = v
	}
	return out
}

// sumSeries adds up every series of one family in a promSamples map.
func sumSeries(m map[string]float64, family string) (sum float64, series int) {
	for k, v := range m {
		if k == family || strings.HasPrefix(k, family+"{") {
			sum += v
			series++
		}
	}
	return sum, series
}

// scrapePrometheus fetches /v1/metrics?format=prometheus and asserts the
// exposition content type.
func scrapePrometheus(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/v1/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("prometheus scrape = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != promContentType {
		t.Fatalf("Content-Type = %q, want %q", ct, promContentType)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestPrometheusExpositionPassesLint drives the service through a
// campaign (miss then hit), scrapes the Prometheus rendering, and runs
// the full validator over it, plus spot checks of the families the load
// harness's metric join depends on.
func TestPrometheusExpositionPassesLint(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	st := postJSON(t, ts.URL+"/v1/campaigns", testSpec, http.StatusAccepted)
	waitState(t, ts.URL, st.ID)
	st2 := postJSON(t, ts.URL+"/v1/campaigns", testSpec, http.StatusAccepted)
	waitState(t, ts.URL, st2.ID)

	doc := scrapePrometheus(t, ts.URL)
	if problems := lintPrometheus(doc); len(problems) > 0 {
		t.Fatalf("live scrape failed lint:\n  %s", strings.Join(problems, "\n  "))
	}
	for _, want := range []string{
		"htserved_jobs_submitted_total 2",
		`htserved_cache_lookups_total{tier="memory"} 1`,
		`htserved_cache_lookups_total{tier="miss"} 1`,
		"htserved_job_duration_seconds_count 2",
		`htserved_job_duration_seconds_bucket{le="+Inf"} 2`,
		"htserved_sse_subscribers 0",
		"htserved_epochs_observed_total ",
	} {
		if !strings.Contains(doc, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
	// Every family carries the namespace.
	for _, line := range strings.Split(doc, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !strings.HasPrefix(line, promNamespace+"_") {
			t.Errorf("sample outside the %s namespace: %q", promNamespace, line)
		}
	}
}

// TestPrometheusLintCatchesBadDocuments proves the validator has teeth:
// each corrupted document must be flagged with the expected problem.
func TestPrometheusLintCatchesBadDocuments(t *testing.T) {
	cases := []struct {
		name string
		doc  string
		want string // substring of a reported problem
	}{
		{
			name: "counter without _total",
			doc:  "# HELP x_jobs Jobs.\n# TYPE x_jobs counter\nx_jobs 1\n",
			want: "should have the _total suffix",
		},
		{
			name: "sample without TYPE",
			doc:  "x_jobs_total 1\n",
			want: "has no TYPE",
		},
		{
			name: "TYPE without HELP",
			doc:  "# TYPE x_up gauge\nx_up 1\n",
			want: "precedes its HELP",
		},
		{
			name: "unknown type",
			doc:  "# HELP x_s S.\n# TYPE x_s summary\nx_s 1\n",
			want: "unknown type",
		},
		{
			name: "duplicate series",
			doc:  "# HELP x_up U.\n# TYPE x_up gauge\nx_up 1\nx_up 2\n",
			want: "duplicate series",
		},
		{
			name: "unparseable value",
			doc:  "# HELP x_up U.\n# TYPE x_up gauge\nx_up one\n",
			want: "unparseable value",
		},
		{
			name: "histogram buckets decrease",
			doc: "# HELP x_d D.\n# TYPE x_d histogram\n" +
				`x_d_bucket{le="1"} 5` + "\n" + `x_d_bucket{le="2"} 3` + "\n" +
				`x_d_bucket{le="+Inf"} 5` + "\nx_d_sum 4\nx_d_count 5\n",
			want: "bucket counts decrease",
		},
		{
			name: "histogram le not increasing",
			doc: "# HELP x_d D.\n# TYPE x_d histogram\n" +
				`x_d_bucket{le="2"} 1` + "\n" + `x_d_bucket{le="1"} 2` + "\n" +
				`x_d_bucket{le="+Inf"} 2` + "\nx_d_sum 1\nx_d_count 2\n",
			want: "le bounds not increasing",
		},
		{
			name: "histogram missing +Inf",
			doc: "# HELP x_d D.\n# TYPE x_d histogram\n" +
				`x_d_bucket{le="1"} 1` + "\nx_d_sum 1\nx_d_count 1\n",
			want: "no +Inf bucket",
		},
		{
			name: "histogram +Inf disagrees with _count",
			doc: "# HELP x_d D.\n# TYPE x_d histogram\n" +
				`x_d_bucket{le="1"} 1` + "\n" + `x_d_bucket{le="+Inf"} 1` + "\nx_d_sum 1\nx_d_count 2\n",
			want: "+Inf bucket 1 != _count 2",
		},
		{
			name: "malformed label",
			doc:  "# HELP x_up U.\n# TYPE x_up gauge\n" + `x_up{9bad="v"} 1` + "\n",
			want: "malformed label",
		},
		{
			name: "label escape outside the text format",
			doc:  "# HELP x_up U.\n# TYPE x_up gauge\n" + `x_up{tenant="a\tb"} 1` + "\n",
			want: `invalid escape \t`,
		},
		{
			name: "label value not UTF-8",
			doc:  "# HELP x_up U.\n# TYPE x_up gauge\n" + "x_up{tenant=\"a\xffb\"} 1\n",
			want: "not valid UTF-8",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			problems := lintPrometheus(tc.doc)
			for _, p := range problems {
				if strings.Contains(p, tc.want) {
					return
				}
			}
			t.Fatalf("lint missed the defect: want a problem containing %q, got %v", tc.want, problems)
		})
	}
}

// TestMetricsJSONKeysUnchanged freezes the JSON rendering's key set: the
// Prometheus format is additive, the expvar-style object other tooling
// scrapes must not gain or lose keys. The durability counters
// (journal_*, shards_checkpointed/resumed, shard_hedges,
// worker_breaker_opens) and then the observability keys (the three
// latency-attribution sample counts and the go_* runtime stats) were
// added here deliberately, with this list updated in the same change —
// growth is allowed only when it is this visible.
func TestMetricsJSONKeysUnchanged(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	m := metricsSnapshot(t, ts.URL)
	want := []string{
		"cache_corrupt_quarantined", "cache_disk_hits", "cache_hits", "cache_misses",
		"epochs_observed", "epochs_per_sec",
		"gate_wait_seconds_count",
		"go_gc_pause_seconds_total", "go_goroutines", "go_heap_alloc_bytes",
		"jobs_cancelled", "jobs_done", "jobs_failed", "jobs_queued", "jobs_rejected",
		"jobs_running", "jobs_started", "jobs_submitted", "jobs_timed_out",
		"journal_appends", "journal_replayed",
		"panics_recovered", "queue_wait_seconds_count", "requests_shed", "shard_hedges",
		"shard_rtt_seconds_count",
		"shards_checkpointed", "shards_resumed", "single_flight_dedup",
		"sse_events_dropped", "uptime_seconds", "worker_breaker_opens",
	}
	got := make([]string, 0, len(m))
	for k := range m {
		got = append(got, k)
	}
	sort.Strings(got)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("JSON metrics keys changed:\n got  %v\n want %v", got, want)
	}
}

// TestMetricsUnknownFormatRejected pins the format negotiation: only
// "" (JSON) and "prometheus" are known.
func TestMetricsUnknownFormatRejected(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	resp, err := http.Get(ts.URL + "/v1/metrics?format=xml")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("format=xml = %d, want 400", resp.StatusCode)
	}
}

// TestMetricsSnapshotInvariantsUnderLoad hammers the service with
// concurrent submissions (misses, cache hits, and single-flight
// duplicates) while scraping continuously, and asserts the cross-counter
// identities in every single scrape — the tear-freedom the one-lock
// snapshot guarantees. Under -race this is also the data-race audit of
// the counter rework.
func TestMetricsSnapshotInvariantsUnderLoad(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, Jobs: 2, QueueDepth: 64})

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				// Distinct seeds force misses; the repeat of seed 1 exercises
				// the cache-hit and single-flight paths concurrently.
				seed := g*100 + i
				if i%3 == 0 {
					seed = 1
				}
				body := fmt.Sprintf(`{"cores":64,"threads":4,"hts":4,"epochs":4,"seed":%d,"workers":1}`, seed)
				resp, err := http.Post(ts.URL+"/v1/sims", "application/json", strings.NewReader(body))
				if err == nil {
					resp.Body.Close()
				}
			}
		}(g)
	}
	go func() { wg.Wait(); close(stop) }()

	check := func(m map[string]any) {
		f := func(k string) float64 { v, _ := m[k].(float64); return v }
		submitted := f("jobs_submitted")
		tiers := f("cache_hits") + f("cache_disk_hits") + f("cache_misses") + f("single_flight_dedup")
		if submitted != tiers {
			t.Fatalf("torn scrape: jobs_submitted %v != cache-tier sum %v", submitted, tiers)
		}
		if done := f("jobs_done"); done > f("jobs_started")+f("single_flight_dedup") {
			t.Fatalf("torn scrape: jobs_done %v > jobs_started %v + single_flight %v",
				done, f("jobs_started"), f("single_flight_dedup"))
		}
		if f("jobs_timed_out") > f("jobs_failed") {
			t.Fatalf("torn scrape: jobs_timed_out %v > jobs_failed %v", f("jobs_timed_out"), f("jobs_failed"))
		}
		if term := f("jobs_done") + f("jobs_failed") + f("jobs_cancelled"); term > submitted {
			t.Fatalf("torn scrape: %v terminal counts for %v submissions", term, submitted)
		}
	}
	for {
		select {
		case <-stop:
			// Drain to terminal, then the final identity must hold exactly.
			for _, st := range listJobs(t, ts.URL) {
				waitState(t, ts.URL, st.ID)
			}
			m := metricsSnapshot(t, ts.URL)
			check(m)
			if problems := lintPrometheus(scrapePrometheus(t, ts.URL)); len(problems) > 0 {
				t.Fatalf("post-load scrape failed lint:\n  %s", strings.Join(problems, "\n  "))
			}
			return
		default:
			check(metricsSnapshot(t, ts.URL))
		}
	}
}

// listJobs fetches /v1/jobs.
func listJobs(t *testing.T, base string) []jobStatus {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Jobs []jobStatus `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out.Jobs
}
