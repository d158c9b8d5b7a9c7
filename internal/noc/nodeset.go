package noc

import "math/bits"

// NodeSet is a set of node IDs, one bit per ID: bit i%64 of word i/64
// holds ID i. The zero value is the empty set and Add grows it; Clear
// empties it and keeps its words, so a set kept across trials or runs
// stops allocating once it has held its largest ID. IDs are never
// negative.
type NodeSet struct {
	words []uint64
}

// Add puts id in the set.
func (s *NodeSet) Add(id NodeID) {
	w := int(id) >> 6
	if w >= len(s.words) {
		n := len(s.words)
		if w < cap(s.words) {
			s.words = s.words[:w+1]
			clear(s.words[n:])
		} else {
			s.words = append(s.words, make([]uint64, w+1-n)...)
		}
	}
	s.words[w] |= 1 << (uint(id) & 63)
}

// Has reports whether id is in the set.
func (s *NodeSet) Has(id NodeID) bool {
	w := int(id) >> 6
	return id >= 0 && w < len(s.words) && s.words[w]>>(uint(id)&63)&1 != 0
}

// Clear empties the set.
func (s *NodeSet) Clear() { s.words = s.words[:0] }

// Set makes the set hold exactly ids.
func (s *NodeSet) Set(ids []NodeID) {
	s.Clear()
	for _, id := range ids {
		s.Add(id)
	}
}

// Len returns the number of IDs in the set.
func (s *NodeSet) Len() int {
	n := 0
	for _, w := range s.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// Words returns the set's bit words, which alias the set: ID i is bit
// i%64 of word i/64, and IDs past the last word are absent.
func (s *NodeSet) Words() []uint64 { return s.words }
