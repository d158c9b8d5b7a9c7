package defense

import "testing"

func TestVoterPairsAndRepairs(t *testing.T) {
	var v DualPathVoter
	// First copy: tampered down to 990.
	_, _, ready, _ := v.Observe(3, 990, true)
	if ready {
		t.Fatal("single copy must not be ready")
	}
	// Second copy: clean 3960.
	final, tamperedAny, ready, mismatch := v.Observe(3, 3960, false)
	if !ready || !mismatch {
		t.Fatalf("ready=%v mismatch=%v, want true/true", ready, mismatch)
	}
	if final != 3960 {
		t.Errorf("repaired value = %d, want the larger copy 3960", final)
	}
	if !tamperedAny {
		t.Error("tamperedAny must carry the first copy's bit")
	}
	if v.Pairs != 1 || v.Mismatches != 1 {
		t.Errorf("counters = %d/%d, want 1/1", v.Pairs, v.Mismatches)
	}
}

func TestVoterAgreementIsNotMismatch(t *testing.T) {
	var v DualPathVoter
	v.Observe(3, 3960, false)
	_, _, ready, mismatch := v.Observe(3, 3960, false)
	if !ready || mismatch {
		t.Fatalf("identical copies: ready=%v mismatch=%v", ready, mismatch)
	}
	if v.Mismatches != 0 {
		t.Error("agreement must not count as mismatch")
	}
}

func TestVoterBlindWhenBothPathsTampered(t *testing.T) {
	// Both copies rewritten to the same value: invisible, by design.
	var v DualPathVoter
	v.Observe(3, 990, true)
	final, _, ready, mismatch := v.Observe(3, 990, true)
	if !ready || mismatch {
		t.Fatalf("equal tampered copies: ready=%v mismatch=%v", ready, mismatch)
	}
	if final != 990 {
		t.Errorf("final = %d, want the (tampered) agreed value", final)
	}
}

func TestVoterFlushUnpaired(t *testing.T) {
	var v DualPathVoter
	v.Observe(3, 990, true)
	v.Observe(7, 3960, false)
	left := v.Flush()
	if len(left) != 2 {
		t.Fatalf("flush = %d entries, want 2", len(left))
	}
	if left[0].Core != 3 || left[1].Core != 7 {
		t.Errorf("flush order = %v, want sorted by core", left)
	}
	if v.Unpaired != 2 {
		t.Errorf("Unpaired = %d, want 2", v.Unpaired)
	}
	if got := v.Flush(); len(got) != 0 {
		t.Errorf("second flush = %v, want empty", got)
	}
}

// A reset voter pairs nothing left from before the reset and counts from
// zero.
func TestVoterReset(t *testing.T) {
	var v DualPathVoter
	v.Observe(3, 990, true)
	v.Observe(5, 3960, false)
	v.Observe(5, 3960, false)
	v.Reset()
	if v.Pairs != 0 || v.Mismatches != 0 || v.Unpaired != 0 {
		t.Errorf("counters after Reset = %d/%d/%d, want zero", v.Pairs, v.Mismatches, v.Unpaired)
	}
	if _, _, ready, _ := v.Observe(3, 3960, false); ready {
		t.Error("a copy from before the reset must not pair")
	}
	if left := v.Flush(); len(left) != 1 || left[0] != (UnpairedCopy{Core: 3, Value: 3960}) {
		t.Errorf("flush after Reset = %v, want only the new copy", left)
	}
}

func TestVoterIndependentCores(t *testing.T) {
	var v DualPathVoter
	v.Observe(1, 100, false)
	if _, _, ready, _ := v.Observe(2, 200, false); ready {
		t.Fatal("copies from different cores must not pair")
	}
}
