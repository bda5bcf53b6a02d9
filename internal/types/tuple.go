package types

import "strings"

// Tuple is an ordered list of values — one row of a relation.
type Tuple []Value

// Equal reports whether t and u have the same arity and pairwise Equal
// values — the query language's equality. Set membership uses KeyEqual,
// which differs on NaN and on integers beyond ±2⁵³ (see key.go).
func (t Tuple) Equal(u Tuple) bool {
	if len(t) != len(u) {
		return false
	}
	for i := range t {
		if !t[i].Equal(u[i]) {
			return false
		}
	}
	return true
}

// Compare lexicographically orders tuples (shorter tuples order first on a
// shared prefix).
func (t Tuple) Compare(u Tuple) int {
	n := len(t)
	if len(u) < n {
		n = len(u)
	}
	for i := 0; i < n; i++ {
		if c := t[i].Compare(u[i]); c != 0 {
			return c
		}
	}
	return cmpInt64(int64(len(t)), int64(len(u)))
}

// Clone returns a copy of t that shares no backing storage.
func (t Tuple) Clone() Tuple {
	if t == nil {
		return nil
	}
	u := make(Tuple, len(t))
	copy(u, t)
	return u
}

// Project returns the tuple of the columns of t at the given indexes.
func (t Tuple) Project(cols []int) Tuple {
	u := make(Tuple, len(cols))
	for i, c := range cols {
		u[i] = t[c]
	}
	return u
}

// Concat returns the concatenation of t and u as a new tuple.
func (t Tuple) Concat(u Tuple) Tuple {
	r := make(Tuple, 0, len(t)+len(u))
	r = append(r, t...)
	r = append(r, u...)
	return r
}

// String renders the tuple as (v1, v2, ...).
func (t Tuple) String() string {
	var sb strings.Builder
	sb.WriteByte('(')
	for i, v := range t {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(v.String())
	}
	sb.WriteByte(')')
	return sb.String()
}
