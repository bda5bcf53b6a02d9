package types

import (
	"hash/maphash"
	"math"
	"math/bits"
)

// Key equality — the ONE equality tuple sets, relation indexes, the
// MVCC sidecar, Δ-sets and derivation counts use — is defined here,
// together with the hash that must agree with it. Two values are
// key-equal iff canon maps them to the same (class, payload) pair and,
// for strings, the strings are equal:
//
//   - Int(2) ≡ Float(2.0): an integral float inside the int64 range
//     canonicalises to the int it equals, exactly (no rounding through
//     float64, so Int(2⁵³+1) ≢ Float(2⁵³) although Value.Equal, which
//     compares as float64, says they are equal);
//   - every other float is identified by its bit pattern, so NaN ≡ NaN
//     (same payload) although NaN != NaN under Value.Equal, and −0 ≡ +0
//     because both are the integral float 0;
//   - bools are their truth value; nil, strings and objects are
//     themselves; kinds never mix (Bool(true) ≢ Int(1), Str("") ≢ Nil()).
//
// Value.Equal is the query language's `=` (numeric comparison as
// float64); it coincides with key equality everywhere except NaN and
// integers beyond ±2⁵³ compared against floats.

// Canonical classes. The letters are the tag bytes of AppendKey.
const (
	canonNil     = 'N'
	canonFalse   = 'F'
	canonTrue    = 'T'
	canonInt     = 'I'
	canonFloat   = 'D'
	canonString  = 'S'
	canonObject  = 'O'
	canonUnknown = '?'
)

// two63 is 2⁶³ as a float64: the first float beyond the int64 range.
// (float64(math.MaxInt64) rounds UP to this value, so the range test
// must be strict.)
const two63 = float64(1 << 63)

// canon returns v's canonical class and 8-byte payload. A string's
// payload is 0; its characters are compared and hashed separately.
func canon(v Value) (class byte, payload uint64) {
	switch v.Kind {
	case KindNil:
		return canonNil, 0
	case KindBool:
		if v.I != 0 {
			return canonTrue, 0
		}
		return canonFalse, 0
	case KindInt:
		return canonInt, uint64(v.I)
	case KindFloat:
		if f := v.F; f == math.Trunc(f) && f >= -two63 && f < two63 {
			return canonInt, uint64(int64(f))
		}
		return canonFloat, math.Float64bits(v.F)
	case KindString:
		return canonString, 0
	case KindObject:
		return canonObject, uint64(v.O)
	default:
		return canonUnknown, 0
	}
}

// KeyEqual reports whether v and w are the same value for set
// membership and index lookup (see the comment at the top of key.go).
func (v Value) KeyEqual(w Value) bool { return keyEqual(&v, &w) }

// keyEqual takes pointers so that a probe comparing two stored tuples
// copies no 48-byte Values.
func keyEqual(v, w *Value) bool {
	if v.Kind == w.Kind {
		switch v.Kind {
		case KindInt:
			return v.I == w.I
		case KindString:
			return v.S == w.S
		case KindObject:
			return v.O == w.O
		}
	}
	vc, vp := canon(*v)
	wc, wp := canon(*w)
	// Two strings were compared above; a string against anything else
	// differs in class.
	return vc == wc && vp == wp
}

// KeyEqual reports whether t and u are the same set element: same arity
// and pairwise key-equal values (see the comment at the top of key.go).
func (t Tuple) KeyEqual(u Tuple) bool {
	if len(t) != len(u) {
		return false
	}
	for i := range t {
		if !keyEqual(&t[i], &u[i]) {
			return false
		}
	}
	return true
}

// strSeed seeds string hashing. It is per-process: hashes never leave
// the process (they are not logged, snapshotted or compared across
// runs), and everything observable — Tuples(), firing order — is sorted.
var strSeed = maphash.MakeSeed()

// mix64 folds x into the running hash h (a multiply-fold in the style
// of wyhash: the 128-bit product's halves xor-ed together).
func mix64(h, x uint64) uint64 {
	hi, lo := bits.Mul64(h^0x9e3779b97f4a7c15, x^0xe7037ed1a0b428db)
	return hi ^ lo
}

// hashValue hashes v consistently with KeyEqual: deterministically for
// every kind but strings, which go through hash/maphash.
func hashValue(v Value) uint64 {
	class, payload := canon(v)
	if class == canonString {
		payload = maphash.String(strSeed, v.S)
	}
	return mix64(uint64(class), payload)
}

// Hash returns t's 64-bit hash, computed in place from the values with
// no allocation. Key-equal tuples hash alike. The result is never 0 —
// Map reserves 0 for an empty slot.
func (t Tuple) Hash() uint64 {
	h := uint64(len(t))
	for _, v := range t {
		h = mix64(h, hashValue(v))
	}
	if h == 0 {
		return 1
	}
	return h
}

// AppendKey appends a canonical, injective byte encoding of v to dst:
// two values encode identically iff they are key-equal. Nothing in the
// engine builds these keys any more — sets hash values in place — so
// the encoding survives as the executable specification of key
// equality, the oracle the tests hold Hash and KeyEqual against.
func (v Value) AppendKey(dst []byte) []byte {
	class, payload := canon(v)
	dst = append(dst, class)
	switch class {
	case canonInt, canonFloat, canonObject:
		return appendUint64(dst, payload)
	case canonString:
		dst = appendUint64(dst, uint64(len(v.S)))
		return append(dst, v.S...)
	default:
		return dst
	}
}

// AppendKey appends the canonical encoding of the tuple (its arity,
// then each value's AppendKey): injective over key-inequal tuples.
func (t Tuple) AppendKey(dst []byte) []byte {
	dst = appendUint64(dst, uint64(len(t)))
	for _, v := range t {
		dst = v.AppendKey(dst)
	}
	return dst
}

func appendUint64(dst []byte, u uint64) []byte {
	return append(dst,
		byte(u>>56), byte(u>>48), byte(u>>40), byte(u>>32),
		byte(u>>24), byte(u>>16), byte(u>>8), byte(u))
}
