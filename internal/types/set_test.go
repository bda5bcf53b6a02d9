package types

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSetAddRemoveContains(t *testing.T) {
	s := NewSet()
	a := Tuple{Int(1)}
	if !s.Add(a) {
		t.Error("first Add should report true")
	}
	if s.Add(a) {
		t.Error("duplicate Add should report false")
	}
	if s.Len() != 1 || !s.Contains(a) {
		t.Error("set contents after add")
	}
	if !s.Remove(a) {
		t.Error("Remove of present tuple should report true")
	}
	if s.Remove(a) {
		t.Error("Remove of absent tuple should report false")
	}
	if s.Len() != 0 || s.Contains(a) {
		t.Error("set contents after remove")
	}
}

func TestSetNilReceiverSafety(t *testing.T) {
	var s *Set
	if s.Len() != 0 || !s.IsEmpty() || s.Contains(Tuple{Int(1)}) {
		t.Error("nil set should behave as empty")
	}
	s.Each(func(Tuple) bool { t.Error("nil set Each should not call"); return true })
	if s.Remove(Tuple{Int(1)}) {
		t.Error("nil set Remove should be false")
	}
	if s.Clone().Len() != 0 {
		t.Error("nil set Clone should be empty")
	}
	s.Clear() // must not panic
}

func TestSetZeroValueReady(t *testing.T) {
	var s Set
	s.Add(Tuple{Int(1)})
	if s.Len() != 1 {
		t.Error("zero Set should be usable")
	}
}

func TestSetSemanticDedup(t *testing.T) {
	s := NewSet()
	s.Add(Tuple{Int(2)})
	s.Add(Tuple{Float(2.0)}) // Equal to Int(2)
	if s.Len() != 1 {
		t.Errorf("numeric-equal tuples must dedup, len=%d", s.Len())
	}
}

func TestSetTuplesDeterministicOrder(t *testing.T) {
	s := NewSet(Tuple{Int(3)}, Tuple{Int(1)}, Tuple{Int(2)})
	ts := s.Tuples()
	if len(ts) != 3 || ts[0][0].AsInt() != 1 || ts[1][0].AsInt() != 2 || ts[2][0].AsInt() != 3 {
		t.Errorf("Tuples() not sorted: %v", ts)
	}
}

func TestSetCloneIndependent(t *testing.T) {
	s := NewSet(Tuple{Int(1)})
	c := s.Clone()
	c.Add(Tuple{Int(2)})
	if s.Len() != 1 || c.Len() != 2 {
		t.Error("Clone must be independent")
	}
}

func TestSetAddAllRemoveAllEqual(t *testing.T) {
	a := NewSet(Tuple{Int(1)}, Tuple{Int(2)})
	b := NewSet(Tuple{Int(2)}, Tuple{Int(3)})
	u := a.Clone().AddAll(b)
	if u.Len() != 3 {
		t.Errorf("AddAll len=%d", u.Len())
	}
	d := u.Clone().RemoveAll(b)
	if !d.Equal(NewSet(Tuple{Int(1)})) {
		t.Errorf("RemoveAll got %s", d)
	}
	if !a.Equal(NewSet(Tuple{Int(2)}, Tuple{Int(1)})) {
		t.Error("Equal is order-insensitive")
	}
	if a.Equal(b) {
		t.Error("different sets not Equal")
	}
}

func TestSetEachEarlyStop(t *testing.T) {
	s := NewSet(Tuple{Int(1)}, Tuple{Int(2)}, Tuple{Int(3)})
	n := 0
	s.Each(func(Tuple) bool { n++; return false })
	if n != 1 {
		t.Errorf("Each should stop after fn returns false, visited %d", n)
	}
}

func TestSetString(t *testing.T) {
	s := NewSet(Tuple{Int(2)}, Tuple{Int(1)})
	if got := s.String(); got != "{(1), (2)}" {
		t.Errorf("String()=%q", got)
	}
	if NewSet().String() != "{}" {
		t.Error("empty set string")
	}
}

// Property: a Set behaves like a mathematical set under a random
// add/remove script, compared against a reference map implementation.
func TestSetMatchesReferenceModel_Quick(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := NewSet()
		ref := map[string]bool{}
		for i := 0; i < 200; i++ {
			tp := Tuple{Int(int64(r.Intn(20)))}
			k := tkey(tp)
			if r.Intn(2) == 0 {
				added := s.Add(tp)
				if added == ref[k] {
					return false // Add reports "newly added" iff not in ref
				}
				ref[k] = true
			} else {
				removed := s.Remove(tp)
				if removed != ref[k] {
					return false
				}
				delete(ref, k)
			}
			if s.Len() != len(ref) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
