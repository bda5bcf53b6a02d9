// Package types provides the value model shared by every layer of the
// system: scalar values, object identifiers, tuples, and tuple sets with
// set-oriented semantics.
//
// The data model follows the functional model of AMOS (Daplex/Iris):
// everything is an object, scalar values are immutable, and relations are
// sets of tuples of values. Set-oriented semantics (no duplicates) is
// assumed throughout, as in §7.2 of the paper.
package types

import (
	"fmt"
	"strconv"
)

// Kind discriminates the runtime type of a Value.
type Kind uint8

// The supported value kinds.
const (
	KindNil Kind = iota
	KindBool
	KindInt
	KindFloat
	KindString
	KindObject
)

// String returns the lower-case name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNil:
		return "nil"
	case KindBool:
		return "bool"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindString:
		return "string"
	case KindObject:
		return "object"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// OID identifies a database object (an instance of a user type).
// OIDs are allocated by the catalog and never reused.
type OID uint64

// Value is a tagged scalar. The zero Value is the nil value.
// Do not compare Values with ==; use Equal for the query language's
// equality (it coerces int/float) or Tuple.KeyEqual for set membership.
type Value struct {
	Kind Kind
	I    int64   // KindInt, KindBool (0/1)
	F    float64 // KindFloat
	S    string  // KindString
	O    OID     // KindObject
}

// Nil returns the nil value.
func Nil() Value { return Value{} }

// Int returns an integer value.
func Int(i int64) Value { return Value{Kind: KindInt, I: i} }

// Float returns a floating point value.
func Float(f float64) Value { return Value{Kind: KindFloat, F: f} }

// Str returns a string value.
func Str(s string) Value { return Value{Kind: KindString, S: s} }

// Bool returns a boolean value.
func Bool(b bool) Value {
	v := Value{Kind: KindBool}
	if b {
		v.I = 1
	}
	return v
}

// Obj returns an object reference value.
func Obj(o OID) Value { return Value{Kind: KindObject, O: o} }

// IsNil reports whether v is the nil value.
func (v Value) IsNil() bool { return v.Kind == KindNil }

// AsBool reports the truth of a bool value (false for any other kind).
func (v Value) AsBool() bool { return v.Kind == KindBool && v.I != 0 }

// AsInt returns the value as int64, truncating floats.
func (v Value) AsInt() int64 {
	switch v.Kind {
	case KindInt, KindBool:
		return v.I
	case KindFloat:
		return int64(v.F)
	default:
		return 0
	}
}

// AsFloat returns the value as float64.
func (v Value) AsFloat() float64 {
	switch v.Kind {
	case KindInt, KindBool:
		return float64(v.I)
	case KindFloat:
		return v.F
	default:
		return 0
	}
}

// IsNumeric reports whether v is an int or float.
func (v Value) IsNumeric() bool { return v.Kind == KindInt || v.Kind == KindFloat }

// Equal reports semantic equality — the query language's `=`. Ints and
// floats compare numerically as float64 (Int(2) equals Float(2.0));
// other kinds must match exactly.
//
// This is NOT the equality tuple sets, indexes and Δ-sets use. Those
// use key equality (key.go), which agrees with Equal except that NaN is
// key-equal to itself but never Equal, and that an int beyond ±2⁵³ is
// Equal to the float it rounds to (Int(2⁵³+1).Equal(Float(2⁵³))) but
// not key-equal to it, because key equality compares integers exactly.
func (v Value) Equal(w Value) bool {
	if v.Kind == w.Kind {
		switch v.Kind {
		case KindNil:
			return true
		case KindBool, KindInt:
			return v.I == w.I
		case KindFloat:
			return v.F == w.F
		case KindString:
			return v.S == w.S
		case KindObject:
			return v.O == w.O
		}
	}
	if v.IsNumeric() && w.IsNumeric() {
		return v.AsFloat() == w.AsFloat()
	}
	return false
}

// Compare totally orders values: first by kind class (nil < bool < numeric
// < string < object), then by value. Numeric values of different kinds
// compare numerically.
func (v Value) Compare(w Value) int {
	vc, wc := v.kindClass(), w.kindClass()
	if vc != wc {
		if vc < wc {
			return -1
		}
		return 1
	}
	switch vc {
	case classNil:
		return 0
	case classBool:
		return cmpInt64(v.I, w.I)
	case classNumeric:
		if v.Kind == KindInt && w.Kind == KindInt {
			return cmpInt64(v.I, w.I)
		}
		a, b := v.AsFloat(), w.AsFloat()
		switch {
		case a < b:
			return -1
		case a > b:
			return 1
		default:
			return 0
		}
	case classString:
		switch {
		case v.S < w.S:
			return -1
		case v.S > w.S:
			return 1
		default:
			return 0
		}
	default: // classObject
		return cmpInt64(int64(v.O), int64(w.O))
	}
}

const (
	classNil = iota
	classBool
	classNumeric
	classString
	classObject
)

func (v Value) kindClass() int {
	switch v.Kind {
	case KindNil:
		return classNil
	case KindBool:
		return classBool
	case KindInt, KindFloat:
		return classNumeric
	case KindString:
		return classString
	default:
		return classObject
	}
}

func cmpInt64(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// String renders the value for display.
func (v Value) String() string {
	switch v.Kind {
	case KindNil:
		return "nil"
	case KindBool:
		if v.I != 0 {
			return "true"
		}
		return "false"
	case KindInt:
		return strconv.FormatInt(v.I, 10)
	case KindFloat:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case KindString:
		return strconv.Quote(v.S)
	case KindObject:
		return fmt.Sprintf("#%d", uint64(v.O))
	default:
		return "?"
	}
}

// Arithmetic. All four operations coerce int/float: the result is an int
// only when both operands are ints (except Div, which is float unless both
// are ints and divide evenly... no: integer division truncates as in the
// paper's integer model).

// Add returns v + w.
func Add(v, w Value) (Value, error) { return arith(v, w, '+') }

// Sub returns v - w.
func Sub(v, w Value) (Value, error) { return arith(v, w, '-') }

// Mul returns v * w.
func Mul(v, w Value) (Value, error) { return arith(v, w, '*') }

// Div returns v / w. Integer operands use truncating division;
// division by zero is an error.
func Div(v, w Value) (Value, error) { return arith(v, w, '/') }

func arith(v, w Value, op byte) (Value, error) {
	if !v.IsNumeric() || !w.IsNumeric() {
		return Value{}, fmt.Errorf("arithmetic %c on non-numeric values %s, %s", op, v, w)
	}
	if v.Kind == KindInt && w.Kind == KindInt {
		a, b := v.I, w.I
		switch op {
		case '+':
			return Int(a + b), nil
		case '-':
			return Int(a - b), nil
		case '*':
			return Int(a * b), nil
		default:
			if b == 0 {
				return Value{}, fmt.Errorf("division by zero")
			}
			return Int(a / b), nil
		}
	}
	a, b := v.AsFloat(), w.AsFloat()
	switch op {
	case '+':
		return Float(a + b), nil
	case '-':
		return Float(a - b), nil
	case '*':
		return Float(a * b), nil
	default:
		if b == 0 {
			return Value{}, fmt.Errorf("division by zero")
		}
		return Float(a / b), nil
	}
}
