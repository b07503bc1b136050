// Package bmset implements a bounded multiset of integer values in [1,k]
// as a bucket-count array plus an occupancy bitmap. It is the storage for
// value-model output queues, which the paper treats as priority queues:
// transmission pops the maximum value, push-out pops the minimum, and the
// MRD policy needs |Q| and the value sum of Q to compute |Q|/avg(Q).
//
// mult[v] counts the copies of v, and bit v of the occupancy words is set
// exactly when mult[v] > 0. Add and Remove are O(1). Min and Max scan the
// occupancy words with one trailing- or leading-zero count per word, so
// they are O(k/64): a single word for every k <= 63, which covers every
// Fig. 5 panel. The value-model admission policies (LQD, MVD, MRD)
// consult a queue's minimum on every congested arrival, which makes Min
// the single hottest query in the paper-scale sweeps.
package bmset

import (
	"fmt"
	"math/bits"
)

// Set is a multiset of values in [1,k]. The zero value is unusable; use
// New.
type Set struct {
	k     int
	mult  []int32  // multiplicities, indexed by value; mult[0] stays 0
	occ   []uint64 // bit v set iff mult[v] > 0
	size  int
	total int64 // sum of all elements
}

// New returns an empty multiset accepting values in [1,k].
func New(k int) *Set {
	if k < 1 {
		panic(fmt.Sprintf("bmset: bound k=%d must be >= 1", k))
	}
	return &Set{
		k:    k,
		mult: make([]int32, k+1),
		occ:  make([]uint64, k>>6+1),
	}
}

// Len returns the number of stored elements (with multiplicity).
func (s *Set) Len() int { return s.size }

// Empty reports whether the set holds no elements.
func (s *Set) Empty() bool { return s.size == 0 }

// Sum returns the sum of all stored elements.
func (s *Set) Sum() int64 { return s.total }

// Add inserts one copy of v. It panics if v is outside [1,k].
//
//smb:hotpath
func (s *Set) Add(v int) {
	if v < 1 || v > s.k {
		s.badValue("Add", v)
	}
	s.mult[v]++
	s.occ[v>>6] |= 1 << (v & 63)
	s.size++
	s.total += int64(v)
}

// Remove deletes one copy of v. It panics if v is not present: removing an
// absent element indicates a simulator bug.
//
//smb:hotpath
func (s *Set) Remove(v int) {
	if v < 1 || v > s.k || s.mult[v] == 0 {
		s.badValue("Remove", v)
	}
	s.remove(v)
}

// remove deletes one present copy of v.
//
//smb:hotpath
func (s *Set) remove(v int) {
	s.mult[v]--
	if s.mult[v] == 0 {
		s.occ[v>>6] &^= 1 << (v & 63)
	}
	s.size--
	s.total -= int64(v)
}

// Min returns the smallest stored value. It panics on an empty set.
//
//smb:hotpath
func (s *Set) Min() int {
	for i, w := range s.occ {
		if w != 0 {
			return i<<6 | bits.TrailingZeros64(w)
		}
	}
	s.empty("Min")
	return 0
}

// Max returns the largest stored value. It panics on an empty set.
//
//smb:hotpath
func (s *Set) Max() int {
	for i := len(s.occ) - 1; i >= 0; i-- {
		if w := s.occ[i]; w != 0 {
			return i<<6 | (63 - bits.LeadingZeros64(w))
		}
	}
	s.empty("Max")
	return 0
}

// PopMin removes and returns the smallest stored value.
//
//smb:hotpath
func (s *Set) PopMin() int {
	v := s.Min()
	s.remove(v)
	return v
}

// PopMax removes and returns the largest stored value.
//
//smb:hotpath
func (s *Set) PopMax() int {
	v := s.Max()
	s.remove(v)
	return v
}

// PopMaxN removes the n largest stored values and returns their sum. It
// empties whole buckets at a time, so its cost follows the number of
// distinct values popped, not n. It panics if n is negative or exceeds Len().
//
//smb:hotpath
func (s *Set) PopMaxN(n int) int64 {
	if uint(n) > uint(s.size) {
		s.empty("PopMaxN")
	}
	var sum int64
	for left := n; left > 0; {
		v := s.Max()
		c := min(int(s.mult[v]), left)
		s.mult[v] -= int32(c)
		if s.mult[v] == 0 {
			s.occ[v>>6] &^= 1 << (v & 63)
		}
		sum += int64(c) * int64(v)
		left -= c
	}
	s.size -= n
	s.total -= sum
	return sum
}

// Clear removes all elements.
func (s *Set) Clear() {
	clear(s.mult)
	clear(s.occ)
	s.size = 0
	s.total = 0
}

// Values returns all stored elements in ascending order (with
// multiplicity). Intended for tests and debugging; O(k + n).
func (s *Set) Values() []int {
	out := make([]int, 0, s.size)
	for v := 1; v <= s.k; v++ {
		for c := s.mult[v]; c > 0; c-- {
			out = append(out, v)
		}
	}
	return out
}

// empty and badValue are the out-of-line panics of the hot methods.
// Keeping them out of line keeps the panic message's allocation out of
// every caller that inlines a hot method.
//
//go:noinline
//smb:hotpath
func (s *Set) empty(op string) {
	//smb:alloc-ok panic on a violated invariant, unreachable in a correct simulator
	panic(fmt.Sprintf("bmset: %s on a set of %d elements", op, s.size))
}

//go:noinline
//smb:hotpath
func (s *Set) badValue(op string, v int) {
	//smb:alloc-ok panic on a violated invariant, unreachable in a correct simulator
	panic(fmt.Sprintf("bmset: %s(%d): value absent or out of range [1,%d]", op, v, s.k))
}
