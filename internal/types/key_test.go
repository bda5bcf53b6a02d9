package types

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// vkey and tkey are the oracle: the canonical byte encodings that
// define key equality.
func vkey(v Value) string { return string(v.AppendKey(nil)) }
func tkey(t Tuple) string { return string(t.AppendKey(nil)) }

// TestKeyEqualityContract pins the one equality sets and indexes use.
// Values sharing a class letter are the same set element; all others
// are distinct. Hash, KeyEqual, the AppendKey oracle and Set membership
// must all agree with the table.
func TestKeyEqualityContract(t *testing.T) {
	const p53 = int64(1) << 53
	nan := math.NaN()
	table := []struct {
		v     Value
		class string
	}{
		{Int(0), "zero"}, {Float(0), "zero"}, {Float(math.Copysign(0, -1)), "zero"},
		{Float(nan), "nan"}, {Float(nan), "nan"},
		{Int(p53), "2^53"}, {Float(float64(p53)), "2^53"},
		{Int(p53 + 1), "2^53+1"},
		{Int(p53 - 1), "2^53-1"}, {Float(float64(p53 - 1)), "2^53-1"},
		{Int(-p53), "-2^53"}, {Float(-float64(p53)), "-2^53"},
		{Int(-p53 - 1), "-2^53-1"},
		{Int(math.MinInt64), "minint"}, {Float(-two63), "minint"},
		{Int(math.MaxInt64), "maxint"},
		{Float(two63), "2^63"}, {Float(float64(math.MaxInt64)), "2^63"},
		{Float(math.Inf(1)), "+inf"}, {Float(math.Inf(-1)), "-inf"},
		{Float(0.5), "half"},
		{Bool(true), "true"}, {Int(1), "one"}, {Float(1), "one"},
		{Bool(false), "false"},
		{Str(""), "empty"}, {Nil(), "nil"}, {Str("nil"), "s:nil"},
		{Obj(0), "#0"}, {Obj(1), "#1"},
	}
	// Where Value.Equal (the query language's =, float64 comparison)
	// departs from key equality: NaN, and an int against a float of
	// the listed class pairs (two ints always compare exactly).
	equalDiffers := map[[2]string]bool{}
	for _, p := range [][2]string{
		{"nan", "nan"},     // key-equal, never Equal
		{"2^53", "2^53+1"}, // Equal after rounding to float64, not key-equal
		{"-2^53", "-2^53-1"},
		{"maxint", "2^63"},
	} {
		equalDiffers[p] = true
		equalDiffers[[2]string{p[1], p[0]}] = true
	}
	for _, a := range table {
		for _, b := range table {
			want := a.class == b.class
			ta, tb := Tuple{a.v}, Tuple{b.v}
			if got := a.v.KeyEqual(b.v); got != want {
				t.Errorf("%s.KeyEqual(%s) = %v, want %v", a.v, b.v, got, want)
			}
			if got := vkey(a.v) == vkey(b.v); got != want {
				t.Errorf("AppendKey(%s) == AppendKey(%s) is %v, want %v", a.v, b.v, got, want)
			}
			if got := NewSet(ta).Contains(tb); got != want {
				t.Errorf("{%s}.Contains(%s) = %v, want %v", a.v, b.v, got, want)
			}
			if want && ta.Hash() != tb.Hash() {
				t.Errorf("key-equal %s and %s hash differently", a.v, b.v)
			}
			differs := equalDiffers[[2]string{a.class, b.class}] && (want || a.v.Kind != b.v.Kind)
			wantEqual := want != differs
			if got := a.v.Equal(b.v); got != wantEqual {
				t.Errorf("%s.Equal(%s) = %v, want %v", a.v, b.v, got, wantEqual)
			}
		}
	}
}

// Regression: float64(math.MaxInt64) is 2⁶³, so a non-strict range test
// canonicalised Float(2⁶³) through an overflowing int64 conversion and
// gave it Int(math.MinInt64)'s key.
func TestKeyNoCollisionAtTwo63(t *testing.T) {
	a, b := Tuple{Float(9223372036854775808)}, Tuple{Int(math.MinInt64)}
	if NewSet(a).Contains(b) || NewSet(b).Contains(a) {
		t.Errorf("%s and %s are the same set element", a, b)
	}
	if tkey(a) == tkey(b) {
		t.Errorf("%s and %s share a canonical key", a, b)
	}
	s := NewSet(a, b)
	if s.Len() != 2 {
		t.Errorf("set of both has %d element(s), want 2", s.Len())
	}
}

// Property: Hash and KeyEqual agree with the AppendKey oracle on random
// tuples from a pool dense in key-equal pairs.
func TestHashAgreesWithOracle_Quick(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randomTuple(r), randomTuple(r)
		same := tkey(a) == tkey(b)
		if a.KeyEqual(b) != same {
			return false
		}
		return !same || a.Hash() == b.Hash()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestHashNeverZeroAndArityMatters(t *testing.T) {
	if (Tuple{}).Hash() == 0 || Tuple(nil).Hash() == 0 {
		t.Error("empty tuple hashes to the empty-slot marker")
	}
	if (Tuple{Int(1)}).Hash() == (Tuple{Int(1), Int(1)}).Hash() {
		t.Error("arity does not reach the hash")
	}
	if (Tuple{Str("ab"), Str("c")}).Hash() == (Tuple{Str("a"), Str("bc")}).Hash() {
		t.Error("string boundaries do not reach the hash")
	}
}
