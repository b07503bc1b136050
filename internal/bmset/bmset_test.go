package bmset

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestNewPanicsOnBadBound(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(0) did not panic")
		}
	}()
	New(0)
}

func TestEmptySet(t *testing.T) {
	s := New(10)
	if !s.Empty() || s.Len() != 0 || s.Sum() != 0 {
		t.Errorf("fresh set: Empty=%v Len=%d Sum=%d", s.Empty(), s.Len(), s.Sum())
	}
	if got := s.PopMaxN(0); got != 0 {
		t.Errorf("PopMaxN(0) on empty = %d, want 0", got)
	}
	if got := s.Values(); len(got) != 0 {
		t.Errorf("Values() on empty = %v", got)
	}
}

func TestAddRemoveCounts(t *testing.T) {
	s := New(5)
	s.Add(3)
	s.Add(3)
	s.Add(1)
	if got := s.Values(); len(got) != 3 || got[0] != 1 || got[1] != 3 || got[2] != 3 {
		t.Errorf("Values() = %v, want [1 3 3]", got)
	}
	if got := s.Len(); got != 3 {
		t.Errorf("Len() = %d, want 3", got)
	}
	if got := s.Sum(); got != 7 {
		t.Errorf("Sum() = %d, want 7", got)
	}
	s.Remove(3)
	if got := s.Values(); len(got) != 2 || got[1] != 3 {
		t.Errorf("after Remove: Values() = %v, want [1 3]", got)
	}
	if got := s.Sum(); got != 4 {
		t.Errorf("after Remove: Sum() = %d, want 4", got)
	}
	s.Remove(3)
	if got := s.Max(); got != 1 {
		t.Errorf("after emptying bucket 3: Max() = %d, want 1", got)
	}
}

func TestMinMaxPop(t *testing.T) {
	s := New(9)
	for _, v := range []int{5, 2, 9, 2, 7} {
		s.Add(v)
	}
	if got := s.Min(); got != 2 {
		t.Errorf("Min() = %d, want 2", got)
	}
	if got := s.Max(); got != 9 {
		t.Errorf("Max() = %d, want 9", got)
	}
	if got := s.PopMin(); got != 2 {
		t.Errorf("PopMin() = %d, want 2", got)
	}
	if got := s.PopMin(); got != 2 {
		t.Errorf("second PopMin() = %d, want 2", got)
	}
	if got := s.PopMax(); got != 9 {
		t.Errorf("PopMax() = %d, want 9", got)
	}
	if got := s.Values(); len(got) != 2 || got[0] != 5 || got[1] != 7 {
		t.Errorf("Values() = %v, want [5 7]", got)
	}
}

func TestPopMaxN(t *testing.T) {
	s := New(8)
	for _, v := range []int{4, 1, 8, 4, 6, 1, 1, 8} {
		s.Add(v)
	}
	// Takes all of bucket 8, then bucket 6, then one of the two 4s.
	if got := s.PopMaxN(4); got != 8+8+6+4 {
		t.Errorf("PopMaxN(4) = %d, want %d", got, 8+8+6+4)
	}
	if got := s.Values(); len(got) != 4 || got[3] != 4 || got[2] != 1 {
		t.Errorf("Values() = %v, want [1 1 1 4]", got)
	}
	if s.Len() != 4 || s.Sum() != 7 || s.Max() != 4 {
		t.Errorf("Len=%d Sum=%d Max=%d, want 4 7 4", s.Len(), s.Sum(), s.Max())
	}
	if got := s.PopMaxN(4); got != 7 || !s.Empty() {
		t.Errorf("PopMaxN(4) = %d Empty=%v, want 7 true", got, s.Empty())
	}
}

// TestWordBoundaries places values on either side of the 64-bit
// occupancy-word boundaries for bounds that need one, two and many
// words.
func TestWordBoundaries(t *testing.T) {
	for _, k := range []int{1, 63, 64, 65, 128, 1024} {
		s := New(k)
		var vals []int
		for _, v := range []int{1, 63, 64, 127, 128, k} {
			if v <= k {
				s.Add(v)
				vals = append(vals, v)
			}
		}
		sort.Ints(vals)
		if got, want := s.Min(), vals[0]; got != want {
			t.Errorf("k=%d: Min() = %d, want %d", k, got, want)
		}
		if got, want := s.Max(), vals[len(vals)-1]; got != want {
			t.Errorf("k=%d: Max() = %d, want %d", k, got, want)
		}
		// Pop from alternate ends: every pop crosses to the next
		// occupied word once a boundary value is gone.
		lo, hi := 0, len(vals)-1
		for i := 0; lo <= hi; i++ {
			if i%2 == 0 {
				if got := s.PopMax(); got != vals[hi] {
					t.Fatalf("k=%d: PopMax() = %d, want %d", k, got, vals[hi])
				}
				hi--
			} else {
				if got := s.PopMin(); got != vals[lo] {
					t.Fatalf("k=%d: PopMin() = %d, want %d", k, got, vals[lo])
				}
				lo++
			}
		}
		for name, op := range map[string]func(){
			"Min": func() { s.Min() },
			"Max": func() { s.Max() },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("k=%d: %s on emptied set did not panic", k, name)
					}
				}()
				op()
			}()
		}
		// Refill across the boundary and drain in one PopMaxN.
		var sum int64
		for _, v := range vals {
			s.Add(v)
			s.Add(v)
			sum += 2 * int64(v)
		}
		if got := s.PopMaxN(s.Len()); got != sum || !s.Empty() {
			t.Errorf("k=%d: PopMaxN(all) = %d Empty=%v, want %d true", k, got, s.Empty(), sum)
		}
	}
}

func TestClearReuse(t *testing.T) {
	s := New(4)
	s.Add(2)
	s.Add(4)
	s.Clear()
	if !s.Empty() || s.Sum() != 0 {
		t.Errorf("after Clear: Empty=%v Sum=%d", s.Empty(), s.Sum())
	}
	s.Add(1)
	if got := s.Min(); got != 1 {
		t.Errorf("Min() after Clear+Add = %d, want 1", got)
	}
}

func TestPanics(t *testing.T) {
	for name, op := range map[string]func(*Set){
		"Add out of range":    func(s *Set) { s.Add(11) },
		"Add zero":            func(s *Set) { s.Add(0) },
		"Remove absent":       func(s *Set) { s.Remove(5) },
		"Remove out of range": func(s *Set) { s.Remove(-1) },
		"Min empty":           func(s *Set) { s.Min() },
		"Max empty":           func(s *Set) { s.Max() },
		"PopMaxN beyond Len":  func(s *Set) { s.Add(3); s.PopMaxN(2) },
		"PopMaxN negative":    func(s *Set) { s.PopMaxN(-1) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			op(New(10))
		})
	}
}

// reference is a naive multiset used to validate Set under random ops.
type reference struct{ vals []int }

func (r *reference) add(v int) { r.vals = append(r.vals, v); sort.Ints(r.vals) }
func (r *reference) popMin() int {
	v := r.vals[0]
	r.vals = r.vals[1:]
	return v
}
func (r *reference) popMax() int {
	v := r.vals[len(r.vals)-1]
	r.vals = r.vals[:len(r.vals)-1]
	return v
}
func (r *reference) sum() int64 {
	var t int64
	for _, v := range r.vals {
		t += int64(v)
	}
	return t
}

// TestQuickMatchesReference compares the bitmap implementation with the
// naive reference over random operation sequences, at a one-word bound
// and at a bound whose values span two occupancy words.
func TestQuickMatchesReference(t *testing.T) {
	for _, k := range []int{12, 70} {
		f := func(ops []uint8, seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			s := New(k)
			var ref reference
			for _, op := range ops {
				switch op % 5 {
				case 0, 1: // bias toward Add so the set grows
					v := 1 + rng.Intn(k)
					s.Add(v)
					ref.add(v)
				case 2:
					if len(ref.vals) == 0 {
						continue
					}
					if s.PopMin() != ref.popMin() {
						return false
					}
				case 3:
					if len(ref.vals) == 0 {
						continue
					}
					if s.PopMax() != ref.popMax() {
						return false
					}
				case 4:
					n := rng.Intn(len(ref.vals) + 1)
					var want int64
					for c := 0; c < n; c++ {
						want += int64(ref.popMax())
					}
					if s.PopMaxN(n) != want {
						return false
					}
				}
				if s.Len() != len(ref.vals) || s.Sum() != ref.sum() {
					return false
				}
				if len(ref.vals) > 0 && (s.Min() != ref.vals[0] || s.Max() != ref.vals[len(ref.vals)-1]) {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, qcfg(150)); err != nil {
			t.Errorf("k=%d: %v", k, err)
		}
	}
}

// qcfg returns a deterministic quick.Config so property tests are
// reproducible run to run.
func qcfg(n int) *quick.Config {
	return &quick.Config{MaxCount: n, Rand: rand.New(rand.NewSource(7))}
}
