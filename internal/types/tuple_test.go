package types

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestTupleKeyDistinguishesArity(t *testing.T) {
	a := Tuple{Int(1), Int(2)}
	b := Tuple{Int(1)}
	c := Tuple{Int(1), Int(2), Int(3)}
	keys := map[string]bool{tkey(a): true, tkey(b): true, tkey(c): true}
	if len(keys) != 3 {
		t.Error("tuples of different arity must have distinct keys")
	}
}

func TestTupleKeyNoConcatAmbiguity(t *testing.T) {
	// ("ab","c") vs ("a","bc") must not collide.
	a := Tuple{Str("ab"), Str("c")}
	b := Tuple{Str("a"), Str("bc")}
	if tkey(a) == tkey(b) {
		t.Error("string concatenation ambiguity in tuple key")
	}
}

func TestTupleEqualAndCompare(t *testing.T) {
	a := Tuple{Int(1), Str("x")}
	b := Tuple{Int(1), Str("x")}
	c := Tuple{Int(1), Str("y")}
	if !a.Equal(b) || a.Equal(c) {
		t.Error("tuple equality")
	}
	if a.Compare(b) != 0 || a.Compare(c) != -1 || c.Compare(a) != 1 {
		t.Error("tuple compare")
	}
	short := Tuple{Int(1)}
	if short.Compare(a) != -1 || a.Compare(short) != 1 {
		t.Error("prefix tuples order first")
	}
	if !(Tuple{Int(2)}).Equal(Tuple{Float(2.0)}) {
		t.Error("numeric coercion in tuple equality")
	}
}

func TestTupleCloneIndependence(t *testing.T) {
	a := Tuple{Int(1), Int(2)}
	b := a.Clone()
	b[0] = Int(99)
	if a[0].AsInt() != 1 {
		t.Error("Clone must not share storage")
	}
	if Tuple(nil).Clone() != nil {
		t.Error("nil clone is nil")
	}
}

func TestTupleProjectConcat(t *testing.T) {
	a := Tuple{Int(10), Int(20), Int(30)}
	p := a.Project([]int{2, 0})
	if !p.Equal(Tuple{Int(30), Int(10)}) {
		t.Errorf("Project got %s", p)
	}
	c := Tuple{Int(1)}.Concat(Tuple{Int(2), Int(3)})
	if !c.Equal(Tuple{Int(1), Int(2), Int(3)}) {
		t.Errorf("Concat got %s", c)
	}
}

func TestTupleString(t *testing.T) {
	if got := (Tuple{Int(1), Str("a")}).String(); got != `(1, "a")` {
		t.Errorf("String()=%q", got)
	}
}

func randomTuple(r *rand.Rand) Tuple {
	n := r.Intn(4)
	tp := make(Tuple, n)
	for i := range tp {
		switch r.Intn(4) {
		case 0:
			tp[i] = Int(int64(r.Intn(10)))
		case 1:
			tp[i] = Float(float64(r.Intn(10)) / 2)
		case 2:
			tp[i] = Str(string(rune('a' + r.Intn(3))))
		default:
			tp[i] = Obj(OID(r.Intn(5)))
		}
	}
	return tp
}

func TestTupleKeyEqualConsistency_Quick(t *testing.T) {
	// Property: Equal(t,u) iff Key(t)==Key(u), for random small tuples.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randomTuple(r), randomTuple(r)
		return a.Equal(b) == (tkey(a) == tkey(b))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}
