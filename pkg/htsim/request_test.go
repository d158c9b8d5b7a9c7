package htsim

import "testing"

// TestValidateFitMatchesRun checks Validate's fit rules against the runs
// they stand for, at 64 cores: for every mix at the thread counts around
// its limit, and for every placement at 63 and 64 Trojans, Validate
// accepts a request iff Prepare places its Trojans and every app gets a
// core.
func TestValidateFitMatchesRun(t *testing.T) {
	check := func(r Request) {
		t.Helper()
		r.Normalize()
		verr := r.Validate()
		sim, sc, _, err := r.Prepare()
		if err == nil {
			_, err = sim.System().PlaceApps(sc)
		}
		if (verr == nil) != (err == nil) {
			t.Errorf("%s, %d threads, %d %s Trojans: Validate says %v, the run %v",
				r.Mix, r.Threads, r.HTs, r.Placement, verr, err)
		}
	}
	for _, mix := range Mixes() {
		for threads := 14; threads <= 32; threads++ {
			check(Request{Cores: 64, Mix: mix, Threads: threads, HTs: 4, Epochs: 4})
		}
	}
	for _, placement := range Placements() {
		for _, hts := range []int{63, 64} {
			check(Request{Cores: 64, Threads: 15, HTs: hts, Placement: placement, Epochs: 4})
		}
	}
}
