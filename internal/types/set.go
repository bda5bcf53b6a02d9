package types

import (
	"sort"
	"strings"
)

// Set is a set of tuples (set-oriented semantics: no duplicates) under
// key equality — see key.go: Int(2) and Float(2.0) are one element, NaN
// is an element equal to itself. It is a Map with no values; the zero
// Set is empty and ready to use.
type Set struct {
	m Map[struct{}]
}

// NewSet returns an empty set, optionally seeded with tuples.
func NewSet(tuples ...Tuple) *Set {
	s := &Set{}
	for _, t := range tuples {
		s.Add(t)
	}
	return s
}

// Len returns the number of tuples in the set. Safe on a nil receiver.
func (s *Set) Len() int {
	if s == nil {
		return 0
	}
	return s.m.n
}

// IsEmpty reports whether the set has no tuples. Safe on a nil receiver.
func (s *Set) IsEmpty() bool { return s.Len() == 0 }

// Add inserts t into the set; it reports whether the tuple was newly
// added (false if it was already present).
func (s *Set) Add(t Tuple) bool { return s.AddH(t.Hash(), t) }

// AddH is Add with t's hash supplied (h must be t.Hash()).
func (s *Set) AddH(h uint64, t Tuple) bool {
	_, added := s.m.RefH(h, t)
	return added
}

// Remove deletes t from the set; it reports whether the tuple was
// present. Safe on a nil receiver.
func (s *Set) Remove(t Tuple) bool {
	return s != nil && s.m.n != 0 && s.m.DeleteH(t.Hash(), t)
}

// RemoveH is Remove with t's hash supplied.
func (s *Set) RemoveH(h uint64, t Tuple) bool {
	return s != nil && s.m.DeleteH(h, t)
}

// Contains reports whether t is in the set. Safe on a nil receiver.
func (s *Set) Contains(t Tuple) bool {
	return s != nil && s.m.n != 0 && s.m.find(t.Hash(), t) >= 0
}

// ContainsH is Contains with t's hash supplied.
func (s *Set) ContainsH(h uint64, t Tuple) bool {
	return s != nil && s.m.find(h, t) >= 0
}

// GetH returns the set's own copy of t (whose hash is h), if t is in
// the set: a caller may keep it where it must not keep its probe key.
// Safe on a nil receiver.
func (s *Set) GetH(h uint64, t Tuple) (Tuple, bool) {
	if s == nil {
		return nil, false
	}
	if i := s.m.find(h, t); i >= 0 {
		return s.m.slots[i].key, true
	}
	return nil, false
}

// Each calls fn for every tuple; iteration stops if fn returns false.
// Safe on a nil receiver. The iteration order is unspecified.
//
// fn MUST NOT add to or remove from this set, directly or through
// anything it calls (Map.Each has the reason); collect the changes and
// apply them after Each returns. Reading the set from
// fn, including a nested Each, is fine.
func (s *Set) Each(fn func(Tuple) bool) {
	s.EachH(func(_ uint64, t Tuple) bool { return fn(t) })
}

// EachH is Each that also hands fn the tuple's stored hash, for callers
// that go on to probe another table with the same tuple. The same
// no-mutation rule applies.
func (s *Set) EachH(fn func(h uint64, t Tuple) bool) {
	if s == nil || s.m.n == 0 {
		return
	}
	// Map.Each's loop, written out: through the generic method the
	// callback cannot be inlined and a scan costs about 8x as much.
	for i := range s.m.slots {
		if sl := &s.m.slots[i]; sl.hash != 0 && !fn(sl.hash, sl.key) {
			return
		}
	}
}

// Tuples returns the tuples in deterministic (sorted) order.
func (s *Set) Tuples() []Tuple {
	if s == nil {
		return nil
	}
	out := make([]Tuple, 0, s.m.n)
	s.Each(func(t Tuple) bool {
		out = append(out, t)
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out
}

// Clone returns an independent copy of the set (tuples are shared; they
// are treated as immutable).
func (s *Set) Clone() *Set {
	c := &Set{}
	if s != nil && s.m.n > 0 {
		c.m = s.m.Clone()
	}
	return c
}

// AddAll inserts every tuple of o into s and returns s. o must not be s.
func (s *Set) AddAll(o *Set) *Set {
	o.EachH(func(h uint64, t Tuple) bool {
		s.AddH(h, t)
		return true
	})
	return s
}

// RemoveAll removes every tuple of o from s and returns s. o must not
// be s.
func (s *Set) RemoveAll(o *Set) *Set {
	o.EachH(func(h uint64, t Tuple) bool {
		s.RemoveH(h, t)
		return true
	})
	return s
}

// Equal reports whether s and o contain exactly the same tuples.
func (s *Set) Equal(o *Set) bool {
	if s.Len() != o.Len() {
		return false
	}
	eq := true
	s.EachH(func(h uint64, t Tuple) bool {
		eq = o.ContainsH(h, t)
		return eq
	})
	return eq
}

// Clear removes all tuples. A small backing array is kept for the next
// fill, a large one released (see Map.Clear).
func (s *Set) Clear() {
	if s != nil {
		s.m.Clear()
	}
}

// String renders the set in deterministic order: {(..), (..)}.
func (s *Set) String() string {
	var sb strings.Builder
	sb.WriteByte('{')
	for i, t := range s.Tuples() {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(t.String())
	}
	sb.WriteByte('}')
	return sb.String()
}
