// Package delta implements the Δ-set calculus of the paper (§4): a Δ-set
// is a disjoint pair <Δ+S, Δ−S> of the tuples added to and removed from a
// set S over a period of time, the delta-union operator ∪Δ folds physical
// events into logical (net) events, and the logical rollback computes the
// old state of a relation from its new state:
//
//	S_old = (S_new ∪ Δ−S) − Δ+S
//
// The invariant maintained throughout is disjointness: Δ+S ∩ Δ−S = ∅.
// With that invariant, folding a physical insertion of t into a Δ-set that
// records a prior deletion of t simply cancels the deletion — there is no
// net effect, so no rule should fire (§4.1 min_stock example).
package delta

import (
	"fmt"

	"partdiff/internal/types"
)

// Set is a Δ-set: the pair <Δ+S, Δ−S>. The zero Set is empty and ready
// to use.
type Set struct {
	plus  types.Set
	minus types.Set
}

// New returns an empty Δ-set.
func New() *Set { return &Set{} }

// FromSets builds a Δ-set from explicit plus and minus tuple sets,
// enforcing disjointness (shared tuples cancel, matching ∪Δ of the two
// one-sided deltas).
func FromSets(plus, minus *types.Set) *Set {
	d := New()
	d.InsertAll(plus)
	d.DeleteAll(minus)
	return d
}

// Plus returns the set of net insertions Δ+S. The returned set is live;
// callers must not mutate it.
func (d *Set) Plus() *types.Set {
	if d == nil {
		return nil
	}
	return &d.plus
}

// Minus returns the set of net deletions Δ−S. The returned set is live;
// callers must not mutate it.
func (d *Set) Minus() *types.Set {
	if d == nil {
		return nil
	}
	return &d.minus
}

// IsEmpty reports whether the Δ-set records no net change.
func (d *Set) IsEmpty() bool {
	return d == nil || (d.plus.Len() == 0 && d.minus.Len() == 0)
}

// Len returns the total number of net changes (|Δ+| + |Δ−|).
func (d *Set) Len() int {
	if d == nil {
		return 0
	}
	return d.plus.Len() + d.minus.Len()
}

// Insert folds the physical event +t into the Δ-set using ∪Δ semantics:
// a pending deletion of t is cancelled, otherwise t becomes a net
// insertion.
func (d *Set) Insert(t types.Tuple) { d.insertH(t.Hash(), t) }

// insertH is Insert with t's hash supplied: the tuple is hashed once
// per fold, not once per half of the Δ-set, and not at all when it
// comes out of another set that already stores its hash.
func (d *Set) insertH(h uint64, t types.Tuple) {
	folds.Add(1)
	if d.minus.RemoveH(h, t) {
		cancels.Add(1)
		return
	}
	d.plus.AddH(h, t)
}

// Delete folds the physical event −t into the Δ-set: a pending insertion
// of t is cancelled, otherwise t becomes a net deletion.
func (d *Set) Delete(t types.Tuple) { d.deleteH(t.Hash(), t) }

func (d *Set) deleteH(h uint64, t types.Tuple) {
	folds.Add(1)
	if d.plus.RemoveH(h, t) {
		cancels.Add(1)
		return
	}
	d.minus.AddH(h, t)
}

// UnionInto folds all changes of o into d (d ∪Δ o), preserving
// disjointness. o is not modified, and must not be d itself.
func (d *Set) UnionInto(o *Set) {
	if o == nil {
		return
	}
	unionMerges.Add(1)
	d.InsertAll(&o.plus)
	d.DeleteAll(&o.minus)
}

// InsertAll folds +t into d for every tuple of s, reusing the hashes s
// stores. s must not be one of d's own halves.
func (d *Set) InsertAll(s *types.Set) {
	s.EachH(func(h uint64, t types.Tuple) bool { d.insertH(h, t); return true })
}

// DeleteAll folds −t into d for every tuple of s (see InsertAll).
func (d *Set) DeleteAll(s *types.Set) {
	s.EachH(func(h uint64, t types.Tuple) bool { d.deleteH(h, t); return true })
}

// Union returns a new Δ-set a ∪Δ b, per the paper's definition:
//
//	<(Δ+a − Δ−b) ∪ (Δ+b − Δ−a), (Δ−a − Δ+b) ∪ (Δ−b − Δ+a)>
func Union(a, b *Set) *Set {
	out := New()
	out.UnionInto(a)
	out.UnionInto(b)
	return out
}

// Clone returns an independent copy.
func (d *Set) Clone() *Set {
	c := New()
	if d == nil {
		return c
	}
	c.plus = *d.plus.Clone()
	c.minus = *d.minus.Clone()
	return c
}

// Clear empties the Δ-set (used when a node's wave-front materialization
// is discarded after propagation, §5).
func (d *Set) Clear() {
	d.plus.Clear()
	d.minus.Clear()
}

// Invert returns the Δ-set with plus and minus swapped. This is the
// differential of set complement: Δ(~Q) = <Δ−Q, Δ+Q> (§4.5).
func (d *Set) Invert() *Set {
	c := New()
	if d == nil {
		return c
	}
	c.plus = *d.minus.Clone()
	c.minus = *d.plus.Clone()
	return c
}

// OldState computes S_old = (S_new ∪ Δ−S) − Δ+S — the logical rollback of
// fig. 3. newState is not modified.
func (d *Set) OldState(newState *types.Set) *types.Set {
	rollbacks.Add(1)
	old := newState.Clone()
	if d == nil {
		return old
	}
	old.AddAll(&d.minus)
	old.RemoveAll(&d.plus)
	return old
}

// NewState computes S_new = (S_old − Δ−S) ∪ Δ+S, the forward application
// of the delta (the inverse of OldState). oldState is not modified.
func (d *Set) NewState(oldState *types.Set) *types.Set {
	rollbacks.Add(1)
	nw := oldState.Clone()
	if d == nil {
		return nw
	}
	nw.RemoveAll(&d.minus)
	nw.AddAll(&d.plus)
	return nw
}

// InOld reports whether tuple t was present in the old state of a
// relation whose new state is given: t ∈ S_old ⇔ (t ∈ S_new ∧ t ∉ Δ+S) ∨
// t ∈ Δ−S. This point query avoids materializing S_old.
func (d *Set) InOld(newState *types.Set, t types.Tuple) bool {
	if d == nil {
		return newState.Contains(t)
	}
	if d.minus.Contains(t) {
		return true
	}
	return newState.Contains(t) && !d.plus.Contains(t)
}

// Diff computes the Δ-set between an old and a new state directly:
// Δ+ = new − old, Δ− = old − new. Used by the naive monitor to derive
// logical events by comparing materialized truth sets.
func Diff(old, new *types.Set) *Set {
	d := New()
	new.EachH(func(h uint64, t types.Tuple) bool {
		if !old.ContainsH(h, t) {
			d.plus.AddH(h, t)
		}
		return true
	})
	old.EachH(func(h uint64, t types.Tuple) bool {
		if !new.ContainsH(h, t) {
			d.minus.AddH(h, t)
		}
		return true
	})
	return d
}

// Equal reports whether two Δ-sets record the same net changes.
func (d *Set) Equal(o *Set) bool {
	return d.Plus().Equal(o.Plus()) && d.Minus().Equal(o.Minus())
}

// String renders the Δ-set as <Δ+, Δ−> with deterministic ordering.
func (d *Set) String() string {
	if d == nil {
		return "<{}, {}>"
	}
	return fmt.Sprintf("<%s, %s>", d.plus.String(), d.minus.String())
}
