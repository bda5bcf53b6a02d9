// Package eval implements the ObjectLog query evaluator: conjunctive
// clauses are compiled to slot-based join plans (plan.go), ordered
// greedily by selectivity (in the spirit of System R / Selinger, as
// cited by the paper for optimizing the generated partial differentials)
// once per execution, and run as nested loops (exec.go) with index
// lookups on base relations, safe negation, derived-predicate
// sub-plans, and old-state evaluation via logical rollback.
package eval

import (
	"partdiff/internal/delta"
	"partdiff/internal/storage"
	"partdiff/internal/types"
)

// SetSource adapts a plain tuple set (for instance one side of a Δ-set)
// to the storage.Source interface. Lookups are linear scans; Δ-sets are
// small wave-front materializations, so this is the right trade-off.
type SetSource struct {
	Set    *types.Set
	Width  int
	SrcLen int // optional override for optimizer estimates; 0 = Set.Len()
}

// NewSetSource wraps set (may be nil = empty) with the given arity.
func NewSetSource(set *types.Set, arity int) *SetSource {
	return &SetSource{Set: set, Width: arity}
}

// Arity returns the column count.
func (s *SetSource) Arity() int { return s.Width }

// Len returns the tuple count.
func (s *SetSource) Len() int {
	if s.SrcLen > 0 {
		return s.SrcLen
	}
	return s.Set.Len()
}

// Each iterates all tuples.
func (s *SetSource) Each(fn func(types.Tuple) bool) { s.Set.Each(fn) }

// Lookup scans for tuples whose column col equals v — under key
// equality, like the index lookup of the relation the set stands in for.
func (s *SetSource) Lookup(col int, v types.Value, fn func(types.Tuple) bool) {
	s.Set.Each(func(t types.Tuple) bool {
		if col < len(t) && t[col].KeyEqual(v) {
			return fn(t)
		}
		return true
	})
}

// Contains reports membership.
func (s *SetSource) Contains(t types.Tuple) bool { return s.Set.Contains(t) }

// RolledBack is the old state of a base relation computed lazily from
// its new state and its accumulated Δ-set: S_old = (S_new ∪ Δ−S) − Δ+S.
// No materialization of the relation is performed (fig. 3 of the
// paper); every access filters the live relation and consults the
// Δ-set. For transactions with many deletions a per-column index over
// Δ−S is built on first lookup, so old-state index probes stay O(1);
// the instance must not be used across mutations of the Δ-set.
type RolledBack struct {
	Base  storage.Source
	Delta *delta.Set // may be nil: old state == new state

	// minusIdx is the lazy per-column index over Δ−S: column value (as
	// a one-column tuple) → the Δ− tuples holding it; nil until built.
	minusIdx []*types.Map[[]types.Tuple]

	// The state of the Lookup in progress, kept here and not in a closure
	// so that a probe allocates nothing: keep is the callback handed to
	// Base.Lookup (r.keepOld, bound once), yield the caller's callback and
	// stopped whether it asked to stop. A Lookup nested inside yield (a
	// self-join) saves and restores both.
	keep    func(types.Tuple) bool
	yield   func(types.Tuple) bool
	stopped bool
}

// minusIndexThreshold is the Δ− cardinality above which Lookup builds
// the column index instead of scanning.
const minusIndexThreshold = 8

func (r *RolledBack) lookupMinus(col int, v types.Value, fn func(types.Tuple) bool) {
	minus := r.Delta.Minus()
	if minus.Len() <= minusIndexThreshold {
		minus.Each(func(t types.Tuple) bool {
			if col < len(t) && t[col].KeyEqual(v) {
				return fn(t)
			}
			return true
		})
		return
	}
	if r.minusIdx == nil {
		r.minusIdx = make([]*types.Map[[]types.Tuple], r.Base.Arity())
	}
	idx := r.minusIdx[col]
	if idx == nil {
		idx = &types.Map[[]types.Tuple]{}
		minus.Each(func(t types.Tuple) bool {
			if col < len(t) {
				p, _ := idx.Ref(t[col : col+1 : col+1])
				*p = append(*p, t)
			}
			return true
		})
		r.minusIdx[col] = idx
	}
	key := [1]types.Value{v}
	if p := idx.Find(key[:]); p != nil {
		for _, t := range *p {
			if !fn(t) {
				return
			}
		}
	}
}

// NewRolledBack wraps a base source with its Δ-set.
func NewRolledBack(base storage.Source, d *delta.Set) *RolledBack {
	r := &RolledBack{Base: base, Delta: d}
	r.keep = r.keepOld
	return r
}

// Arity returns the column count.
func (r *RolledBack) Arity() int { return r.Base.Arity() }

// Len returns the exact old-state cardinality.
func (r *RolledBack) Len() int {
	if r.Delta == nil {
		return r.Base.Len()
	}
	// All Δ+ tuples are in Base; all Δ− tuples are not (disjointness and
	// net-effect folding guarantee this for base relations).
	return r.Base.Len() - r.Delta.Plus().Len() + r.Delta.Minus().Len()
}

// Each iterates the old state.
func (r *RolledBack) Each(fn func(types.Tuple) bool) {
	stopped := false
	r.Base.Each(func(t types.Tuple) bool {
		if r.Delta != nil && r.Delta.Plus().Contains(t) {
			return true // inserted during the transaction: not in old state
		}
		if !fn(t) {
			stopped = true
			return false
		}
		return true
	})
	if stopped || r.Delta == nil {
		return
	}
	r.Delta.Minus().Each(fn)
}

// Lookup iterates old-state tuples with column col equal to v.
func (r *RolledBack) Lookup(col int, v types.Value, fn func(types.Tuple) bool) {
	if r.Delta == nil {
		r.Base.Lookup(col, v, fn)
		return
	}
	outerYield, outerStopped := r.yield, r.stopped
	r.yield, r.stopped = fn, false
	r.Base.Lookup(col, v, r.keep)
	stopped := r.stopped
	r.yield, r.stopped = outerYield, outerStopped
	if !stopped {
		r.lookupMinus(col, v, fn)
	}
}

// keepOld passes a live tuple on to the Lookup in progress unless the
// transaction inserted it.
func (r *RolledBack) keepOld(t types.Tuple) bool {
	if r.Delta.Plus().Contains(t) {
		return true // inserted during the transaction: not in old state
	}
	if !r.yield(t) {
		r.stopped = true
		return false
	}
	return true
}

// Contains reports old-state membership without materialization:
// t ∈ S_old ⇔ t ∈ Δ−S ∨ (t ∈ S_new ∧ t ∉ Δ+S).
func (r *RolledBack) Contains(t types.Tuple) bool {
	if r.Delta == nil {
		return r.Base.Contains(t)
	}
	if r.Delta.Minus().Contains(t) {
		return true
	}
	return r.Base.Contains(t) && !r.Delta.Plus().Contains(t)
}
