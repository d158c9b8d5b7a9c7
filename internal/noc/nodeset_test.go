package noc

import (
	"math/rand"
	"slices"
	"testing"
)

// TestNodeSetMatchesMap drives a NodeSet and a map through the same
// random adds, clears and sets, and compares membership, size and the
// bit words after every step.
func TestNodeSetMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var s NodeSet
	m := map[NodeID]bool{}
	for step := 0; step < 2000; step++ {
		switch op := rng.Intn(20); {
		case op == 0:
			s.Clear()
			clear(m)
		case op == 1:
			ids := make([]NodeID, rng.Intn(8))
			for i := range ids {
				ids[i] = NodeID(rng.Intn(300))
			}
			s.Set(ids)
			clear(m)
			for _, id := range ids {
				m[id] = true
			}
		default:
			id := NodeID(rng.Intn(300))
			s.Add(id)
			m[id] = true
		}
		var want []NodeID
		for id := NodeID(-2); id < 330; id++ {
			if s.Has(id) != m[id] {
				t.Fatalf("step %d: Has(%d) = %v, want %v", step, id, s.Has(id), m[id])
			}
			if m[id] {
				want = append(want, id)
			}
		}
		if s.Len() != len(want) {
			t.Fatalf("step %d: Len = %d, want %d", step, s.Len(), len(want))
		}
		var got []NodeID
		for w, word := range s.Words() {
			for b := 0; b < 64; b++ {
				if word>>b&1 == 1 {
					got = append(got, NodeID(w*64+b))
				}
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("step %d: words hold %v, want %v", step, got, want)
		}
	}
}

// TestNodeSetKeepsStorage pins the reuse the set exists for: once it has
// held its largest ID, clearing and refilling it allocates nothing.
func TestNodeSetKeepsStorage(t *testing.T) {
	var s NodeSet
	ids := []NodeID{3, 511, 64, 200}
	s.Set(ids)
	if n := testing.AllocsPerRun(100, func() {
		s.Set(ids)
		s.Add(0)
	}); n != 0 {
		t.Errorf("refilling a grown set allocates %v times, want 0", n)
	}
	s.Clear()
	s.Add(70)
	if s.Has(511) || s.Has(3) || !s.Has(70) || s.Len() != 1 {
		t.Errorf("after Clear and Add(70): set holds %v", s.Words())
	}
}
