package types

import (
	"math"
	"testing"
	"testing/quick"
)

func TestValueConstructorsAndAccessors(t *testing.T) {
	if !Nil().IsNil() {
		t.Error("Nil() not nil")
	}
	if Int(7).AsInt() != 7 {
		t.Error("Int accessor")
	}
	if Float(2.5).AsFloat() != 2.5 {
		t.Error("Float accessor")
	}
	if Str("abc").S != "abc" {
		t.Error("Str accessor")
	}
	if !Bool(true).AsBool() || Bool(false).AsBool() {
		t.Error("Bool accessor")
	}
	if Obj(42).O != 42 {
		t.Error("Obj accessor")
	}
	if Int(3).AsFloat() != 3.0 {
		t.Error("int-to-float coercion")
	}
	if Float(3.9).AsInt() != 3 {
		t.Error("float-to-int truncation")
	}
}

func TestValueEqualCoercesNumerics(t *testing.T) {
	if !Int(2).Equal(Float(2.0)) {
		t.Error("Int(2) should equal Float(2.0)")
	}
	if Int(2).Equal(Float(2.5)) {
		t.Error("Int(2) should not equal Float(2.5)")
	}
	if Int(2).Equal(Str("2")) {
		t.Error("int should not equal string")
	}
	if !Str("x").Equal(Str("x")) || Str("x").Equal(Str("y")) {
		t.Error("string equality")
	}
	if !Obj(1).Equal(Obj(1)) || Obj(1).Equal(Obj(2)) {
		t.Error("object equality")
	}
	if !Nil().Equal(Nil()) {
		t.Error("nil equality")
	}
	if !Bool(true).Equal(Bool(true)) || Bool(true).Equal(Bool(false)) {
		t.Error("bool equality")
	}
}

func TestValueCompareTotalOrder(t *testing.T) {
	ordered := []Value{
		Nil(), Bool(false), Bool(true),
		Int(-5), Float(-1.5), Int(0), Float(0.5), Int(1), Int(2),
		Str("a"), Str("b"),
		Obj(1), Obj(2),
	}
	for i := range ordered {
		for j := range ordered {
			got := ordered[i].Compare(ordered[j])
			want := 0
			if i < j {
				want = -1
			} else if i > j {
				want = 1
			}
			if got != want {
				t.Errorf("Compare(%s,%s)=%d want %d", ordered[i], ordered[j], got, want)
			}
		}
	}
	if Int(2).Compare(Float(2.0)) != 0 {
		t.Error("numeric cross-kind compare should be 0 for equal values")
	}
}

func TestValueKeyInjective(t *testing.T) {
	distinct := []Value{
		Nil(), Bool(false), Bool(true), Int(0), Int(1), Int(-1),
		Float(0.5), Float(-0.5), Str(""), Str("a"), Str("ab"),
		Obj(0), Obj(1), Str("I"), Str("N"),
	}
	seen := map[string]Value{}
	for _, v := range distinct {
		k := vkey(v)
		if prev, ok := seen[k]; ok {
			t.Errorf("key collision between %s and %s", prev, v)
		}
		seen[k] = v
	}
}

func TestValueKeyNumericNormalization(t *testing.T) {
	if vkey(Int(2)) != vkey(Float(2.0)) {
		t.Error("Int(2) and Float(2.0) must share a key (Equal values)")
	}
	if vkey(Int(2)) == vkey(Float(2.5)) {
		t.Error("distinct values must have distinct keys")
	}
}

func TestValueKeyEqualConsistency_Quick(t *testing.T) {
	// Property: on quick's random int/float pairs, Equal(v,w) iff
	// key-equal. It does not hold everywhere (NaN, ints beyond ±2⁵³
	// against floats): TestKeyEqualityContract pins the exceptions.
	f := func(a int64, b float64) bool {
		v, w := Int(a), Float(b)
		return v.Equal(w) == (vkey(v) == vkey(w))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestValueString(t *testing.T) {
	cases := map[string]Value{
		"nil":   Nil(),
		"true":  Bool(true),
		"false": Bool(false),
		"42":    Int(42),
		"2.5":   Float(2.5),
		`"hi"`:  Str("hi"),
		"#7":    Obj(7),
	}
	for want, v := range cases {
		if got := v.String(); got != want {
			t.Errorf("String()=%q want %q", got, want)
		}
	}
}

func TestArithmetic(t *testing.T) {
	check := func(got Value, err error, want Value) {
		t.Helper()
		if err != nil {
			t.Fatalf("unexpected error: %v", err)
		}
		if !got.Equal(want) {
			t.Errorf("got %s want %s", got, want)
		}
	}
	v, err := Add(Int(2), Int(3))
	check(v, err, Int(5))
	v, err = Sub(Int(2), Int(3))
	check(v, err, Int(-1))
	v, err = Mul(Int(4), Int(3))
	check(v, err, Int(12))
	v, err = Div(Int(7), Int(2))
	check(v, err, Int(3)) // truncating integer division
	v, err = Add(Int(2), Float(0.5))
	check(v, err, Float(2.5))
	v, err = Div(Float(1), Float(4))
	check(v, err, Float(0.25))

	if _, err := Div(Int(1), Int(0)); err == nil {
		t.Error("integer division by zero should error")
	}
	if _, err := Div(Float(1), Float(0)); err == nil {
		t.Error("float division by zero should error")
	}
	if _, err := Add(Str("a"), Int(1)); err == nil {
		t.Error("arithmetic on string should error")
	}
}

func TestFloatKeyNonIntegral(t *testing.T) {
	// Non-integral and huge floats still get stable injective keys.
	vals := []Value{Float(math.Pi), Float(-math.Pi), Float(1e300), Float(-1e300)}
	seen := map[string]bool{}
	for _, v := range vals {
		k := vkey(v)
		if seen[k] {
			t.Errorf("collision for %s", v)
		}
		seen[k] = true
		if k != vkey(v) {
			t.Error("key not stable")
		}
	}
}
