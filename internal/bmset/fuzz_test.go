package bmset

import (
	"sort"
	"testing"
)

// refMultiset is the obviously correct reference model: a sorted slice.
type refMultiset []int

func (r *refMultiset) add(v int) {
	i := sort.SearchInts(*r, v)
	*r = append(*r, 0)
	copy((*r)[i+1:], (*r)[i:])
	(*r)[i] = v
}

func (r *refMultiset) removeAt(i int) int {
	v := (*r)[i]
	*r = append((*r)[:i], (*r)[i+1:]...)
	return v
}

func (r refMultiset) sum() int64 {
	var t int64
	for _, v := range r {
		t += int64(v)
	}
	return t
}

func (r refMultiset) contains(v int) bool {
	i := sort.SearchInts(r, v)
	return i < len(r) && r[i] == v
}

// FuzzSetVsSortedSlice interprets the fuzz input as a program over the
// multiset and replays it against a sorted-slice model, cross-checking
// every query after every operation.
//
// The first byte picks the bound: k = b%16 + 1 values, shifted up by
// base = 56 when bit 4 is set, so those values straddle the boundary
// between the first two occupancy words (bit 63 to bit 64). Each
// following byte is an operation: op = b % 8 (0-1 Add, 2 PopMin,
// 3 PopMax, 4 Remove, 5 PopMaxN, 6 Remove of a possibly absent value,
// 7 Clear), with the value or count derived from b / 8.
func FuzzSetVsSortedSlice(f *testing.F) {
	f.Add([]byte{4, 0, 8, 16, 2, 3, 0, 5, 6})              // add/pop churn, k=5
	f.Add([]byte{0, 0, 0, 0, 2, 2})                        // k=1 degenerate
	f.Add([]byte{15, 0, 9, 17, 25, 33, 4, 4, 3, 2, 7, 0})  // removes then clear
	f.Add([]byte{7, 1, 9, 17, 25, 5, 13, 21, 6, 14, 22})   // multi-pops and absent removes
	f.Add([]byte{11, 0, 8, 3, 0, 8, 2, 0, 8, 4, 12, 5, 6}) // extreme churn
	f.Add([]byte{31, 0, 56, 64, 120, 3, 2, 61, 0, 8, 13})  // values 57..72 across the word boundary
	f.Fuzz(func(t *testing.T, program []byte) {
		if len(program) == 0 {
			return
		}
		span := int(program[0]%16) + 1
		base := 0
		if program[0]&16 != 0 {
			base = 56
		}
		s := New(base + span)
		var ref refMultiset
		for step, b := range program[1:] {
			op, arg := int(b%8), int(b/8)
			switch op {
			case 0, 1:
				v := base + arg%span + 1
				s.Add(v)
				ref.add(v)
			case 2:
				if len(ref) == 0 {
					continue
				}
				if got, want := s.PopMin(), ref.removeAt(0); got != want {
					t.Fatalf("step %d: PopMin = %d, want %d", step, got, want)
				}
			case 3:
				if len(ref) == 0 {
					continue
				}
				if got, want := s.PopMax(), ref.removeAt(len(ref)-1); got != want {
					t.Fatalf("step %d: PopMax = %d, want %d", step, got, want)
				}
			case 4:
				if len(ref) == 0 {
					continue
				}
				v := ref[arg%len(ref)] // always present
				s.Remove(v)
				ref.removeAt(sort.SearchInts(ref, v))
			case 5:
				n := arg % (len(ref) + 1)
				var want int64
				for c := 0; c < n; c++ {
					want += int64(ref.removeAt(len(ref) - 1))
				}
				if got := s.PopMaxN(n); got != want {
					t.Fatalf("step %d: PopMaxN(%d) = %d, want %d", step, n, got, want)
				}
			case 6:
				v := base + arg%(span+2) - 1 // out-of-range values too
				if ref.contains(v) {
					s.Remove(v)
					ref.removeAt(sort.SearchInts(ref, v))
					break
				}
				func() {
					defer func() {
						if recover() == nil {
							t.Fatalf("step %d: Remove(%d) of an absent value did not panic", step, v)
						}
					}()
					s.Remove(v)
				}()
			case 7:
				s.Clear()
				ref = ref[:0]
			}
			// Full observable state after every operation.
			if s.Len() != len(ref) {
				t.Fatalf("step %d: Len = %d, want %d", step, s.Len(), len(ref))
			}
			if s.Empty() != (len(ref) == 0) {
				t.Fatalf("step %d: Empty = %v with %d elements", step, s.Empty(), len(ref))
			}
			if got, want := s.Sum(), ref.sum(); got != want {
				t.Fatalf("step %d: Sum = %d, want %d", step, got, want)
			}
			if len(ref) > 0 {
				if got, want := s.Min(), ref[0]; got != want {
					t.Fatalf("step %d: Min = %d, want %d", step, got, want)
				}
				if got, want := s.Max(), ref[len(ref)-1]; got != want {
					t.Fatalf("step %d: Max = %d, want %d", step, got, want)
				}
			}
			vals := s.Values()
			if len(vals) != len(ref) {
				t.Fatalf("step %d: Values len %d, want %d", step, len(vals), len(ref))
			}
			for i, want := range ref {
				if vals[i] != want {
					t.Fatalf("step %d: Values[%d] = %d, want %d", step, i, vals[i], want)
				}
			}
		}
	})
}
