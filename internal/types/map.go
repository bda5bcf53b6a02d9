package types

// Map is a hash table from tuples to V: open addressing with linear
// probing, the 64-bit tuple hash stored in the slot (so growth, Clone
// and set algebra never rehash a tuple, and a probe compares keys only
// on a full hash match), and backward-shift deletion (no tombstones:
// the load factor is the live load factor, and a table that churns at
// steady size never grows or allocates).
//
// Keys are compared by key equality (key.go). Lookup, delete and
// re-adding a tuple at steady size allocate nothing. The zero Map is
// empty and ready to use.
//
// The keyed methods come in a form that takes the tuple's hash (FindH,
// RefH, DeleteH): a caller that files one tuple under several tables —
// a relation's rows, its index posting sets and its version sidecar; a
// Δ-set's two halves — computes Tuple.Hash once and passes it down. The
// hash MUST be the tuple's own Hash().
//
// A Map is not safe for concurrent mutation; concurrent readers are
// fine. The table MUST NOT be mutated while an Each is in progress on
// it (see Each).
type Map[V any] struct {
	slots []slot[V] // len is 0 or a power of two
	n     int
}

// slot is one table cell; hash == 0 marks it empty. val comes first so
// that a zero-size V (Set's) adds no trailing padding: a Set slot is 32
// bytes.
type slot[V any] struct {
	val  V
	hash uint64
	key  Tuple
}

const (
	// minSlots is the first allocation: room for one entry, which is
	// all most index posting sets ever hold.
	minSlots = 2
	// clearKeepSlots: Clear reuses a backing array up to this size (2 KiB
	// for a Set) and releases a larger one.
	clearKeepSlots = 64
)

// Len returns the number of entries. Safe on a nil receiver.
func (m *Map[V]) Len() int {
	if m == nil {
		return 0
	}
	return m.n
}

// find returns the index of the slot holding t, or -1.
func (m *Map[V]) find(h uint64, t Tuple) int {
	if m.n == 0 {
		return -1
	}
	mask := uint64(len(m.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		s := &m.slots[i]
		if s.hash == 0 {
			return -1
		}
		if s.hash == h && s.key.KeyEqual(t) {
			return int(i)
		}
	}
}

// Find returns a pointer to the value stored under t, or nil if t is
// not a key. The pointer is valid until the next insertion or deletion.
// Safe on a nil receiver.
func (m *Map[V]) Find(t Tuple) *V {
	if m == nil || m.n == 0 {
		return nil
	}
	return m.FindH(t.Hash(), t)
}

// FindH is Find with t's hash supplied.
func (m *Map[V]) FindH(h uint64, t Tuple) *V {
	if m != nil {
		if i := m.find(h, t); i >= 0 {
			return &m.slots[i].val
		}
	}
	return nil
}

// Ref returns a pointer to the value stored under t, inserting the zero
// value (and keeping t as the key) if t is absent; added reports which.
// The pointer is valid until the next insertion or deletion.
func (m *Map[V]) Ref(t Tuple) (v *V, added bool) { return m.RefH(t.Hash(), t) }

// RefH is Ref with t's hash supplied.
func (m *Map[V]) RefH(h uint64, t Tuple) (v *V, added bool) {
	if len(m.slots) != 0 {
		mask := uint64(len(m.slots) - 1)
		for i := h & mask; ; i = (i + 1) & mask {
			s := &m.slots[i]
			if s.hash == 0 {
				// Keep the load at or below 3/4, so a probe always
				// meets an empty slot.
				if (m.n+1)*4 > len(m.slots)*3 {
					break
				}
				s.hash, s.key = h, t
				m.n++
				return &s.val, true
			}
			if s.hash == h && s.key.KeyEqual(t) {
				return &s.val, false
			}
		}
	}
	m.grow()
	s := m.emptySlot(h)
	s.hash, s.key = h, t
	m.n++
	return &s.val, true
}

// emptySlot returns the first empty slot of h's probe run. The table
// must have one (load < 1).
func (m *Map[V]) emptySlot(h uint64) *slot[V] {
	mask := uint64(len(m.slots) - 1)
	i := h & mask
	for m.slots[i].hash != 0 {
		i = (i + 1) & mask
	}
	return &m.slots[i]
}

// grow doubles the table and re-files every entry by its stored hash.
func (m *Map[V]) grow() {
	old := m.slots
	size := 2 * len(old)
	if size < minSlots {
		size = minSlots
	}
	m.slots = make([]slot[V], size)
	for k := range old {
		if s := &old[k]; s.hash != 0 {
			*m.emptySlot(s.hash) = *s
		}
	}
}

// DeleteH removes t, whose hash is h; it reports whether t was present.
// Safe on a nil receiver.
func (m *Map[V]) DeleteH(h uint64, t Tuple) bool {
	if m == nil {
		return false
	}
	i := m.find(h, t)
	if i < 0 {
		return false
	}
	m.deleteAt(uint64(i))
	return true
}

// deleteAt empties slot i and closes the gap by backward shift: each
// later entry of the probe run moves back into the hole unless that
// would place it before its home slot. It reports whether an entry was
// shifted into slot i (DeleteIf must then look at slot i again).
func (m *Map[V]) deleteAt(i uint64) (refilled bool) {
	mask := uint64(len(m.slots) - 1)
	hole := i
	for j := (i + 1) & mask; m.slots[j].hash != 0; j = (j + 1) & mask {
		home := m.slots[j].hash & mask
		// j's entry may fill the hole iff its home is cyclically
		// outside (hole, j].
		if (j-home)&mask >= (j-hole)&mask {
			m.slots[hole] = m.slots[j]
			hole = j
		}
	}
	m.slots[hole] = slot[V]{}
	m.n--
	return hole != i
}

// Each calls fn for every entry with the entry's stored hash; iteration
// stops when fn returns false. The order is unspecified. Safe on a nil
// receiver.
//
// fn MUST NOT insert into or delete from this table (directly or
// through anything it calls): unlike Go's built-in map, an
// open-addressed table moves entries on deletion and on growth, so a
// mutation mid-iteration can skip or repeat entries. Collect and apply
// afterwards, or use DeleteIf. Reading the table from fn — including a
// nested Each — and updating the value in place through v are fine.
func (m *Map[V]) Each(fn func(h uint64, t Tuple, v *V) bool) {
	if m == nil || m.n == 0 {
		return
	}
	for i := range m.slots {
		if s := &m.slots[i]; s.hash != 0 && !fn(s.hash, s.key, &s.val) {
			return
		}
	}
}

// DeleteIf removes every entry for which fn returns true, calling fn
// exactly once per entry — the remove-while-iterating that Each
// forbids. fn may update the value in place through v. fn must not
// otherwise touch the table.
func (m *Map[V]) DeleteIf(fn func(h uint64, t Tuple, v *V) bool) {
	if m == nil || m.n == 0 {
		return
	}
	// Start just past an empty slot, so no probe run wraps around the
	// scan's starting point: a backward shift then only ever moves
	// entries the scan has yet to visit.
	size := uint64(len(m.slots))
	mask := size - 1
	start := uint64(0)
	for m.slots[start].hash != 0 {
		start++
	}
	for k := uint64(1); k <= size; k++ {
		i := (start + k) & mask
		for m.slots[i].hash != 0 && fn(m.slots[i].hash, m.slots[i].key, &m.slots[i].val) {
			if !m.deleteAt(i) {
				break
			}
		}
	}
}

// Clear removes every entry. A small backing array is kept for reuse (a
// base Δ-set is cleared after every wave and refilled by the next); a
// large one is released, so a cleared table pins at most clearKeepSlots
// slots.
func (m *Map[V]) Clear() {
	if m == nil {
		return
	}
	if len(m.slots) <= clearKeepSlots {
		clear(m.slots)
	} else {
		m.slots = nil
	}
	m.n = 0
}

// Clone returns an independent copy (keys and values are copied
// shallowly; tuples are treated as immutable). Safe on a nil receiver.
func (m *Map[V]) Clone() Map[V] {
	if m == nil || m.n == 0 {
		return Map[V]{}
	}
	return Map[V]{slots: append([]slot[V](nil), m.slots...), n: m.n}
}
