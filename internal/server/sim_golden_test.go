package server

import (
	"bytes"
	"net/http"
	"runtime"
	"testing"
)

// goldenSims are the POST /v1/sims bodies whose run.json and run.csv are
// pinned under testdata/. Between them they reach every branch of a
// sim's run (a named placement; an infection target) and of defense
// resolution (no defense; a request filter with dual-path verification),
// budget-only and with cache traffic. CI's htserved smoke POSTs the first
// one over a real socket and diffs it against the same files.
var goldenSims = []struct{ name, body string }{
	{"sim-ring", `{"cores":64,"threads":15,"hts":6,"placement":"ring","epochs":6}`},
	{"sim-infection", `{"cores":64,"threads":15,"infection":0.5,"defense":"dual-path+range","mem":true,"epochs":6}`},
}

// simGoldenFiles pairs each pinned artifact with its testdata file name.
var simGoldenFiles = map[string]string{"run.json": ".json", "run.csv": ".csv"}

// assertSimGolden compares one finished sim's artifacts, with the
// toolchain stamp normalised as the campaign goldens do, against
// testdata/<name>.{json,csv}; -update rewrites them.
func assertSimGolden(t *testing.T, base, id, name string) {
	t.Helper()
	for artifact, ext := range simGoldenFiles {
		checkGolden(t, name+ext, normalizeGoVersion(fetch(t, base, id, artifact)))
	}
}

// normalizeGoVersion replaces the running toolchain's version with the
// placeholder the golden files carry.
func normalizeGoVersion(b []byte) []byte {
	return bytes.ReplaceAll(b, []byte(runtime.Version()), []byte("<goversion>"))
}

// TestSimArtifactsGolden pins the bytes a sim job serves: the golden
// bodies run through the service must reproduce the checked-in
// artifacts exactly.
func TestSimArtifactsGolden(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	for _, g := range goldenSims {
		st := postJSON(t, ts.URL+"/v1/sims", g.body, http.StatusAccepted)
		if done := waitState(t, ts.URL, st.ID); done.State != jobDone {
			t.Fatalf("%s finished %s (%s), want done", g.name, done.State, done.Error)
		}
		assertSimGolden(t, ts.URL, st.ID, g.name)
	}
}
