package eval

import (
	"fmt"

	"partdiff/internal/objectlog"
	"partdiff/internal/storage"
	"partdiff/internal/types"
)

// Env resolves predicate references to tuple sources at evaluation time.
// Implementations decide how base relations, type extents, Δ-sets and
// old states are exposed; the evaluator is agnostic.
type Env interface {
	// Source returns a view of pred in the requested state. delta
	// selects Δ+pred / Δ−pred wave-front sets; old selects the logically
	// rolled-back state. delta and old are mutually exclusive.
	Source(pred string, delta objectlog.DeltaKind, old bool) (storage.Source, error)
	// Program returns the derived predicate definitions for subquery
	// evaluation of unexpanded derived literals.
	Program() *objectlog.Program
}

// Evaluator evaluates conjunctive ObjectLog clauses against an Env.
type Evaluator struct {
	env Env
	// MaxDepth bounds derived-subquery nesting as a recursion backstop.
	MaxDepth int
	// fixpoint overrides predicate extents while a recursive component
	// is being computed bottom-up: references to component members
	// resolve to the current iteration's materialized extents instead
	// of re-entering recursive evaluation.
	fixpoint map[string]*types.Set
	met      *Metrics // never nil; zero-value Metrics when observability is off
	// scanned mirrors met.TuplesScanned as a plain field the propagation
	// profiler can snapshot around a single differential without a
	// registry read. Plain (non-atomic) on purpose: a session's
	// evaluator runs on one goroutine (enforced by the session guard).
	scanned int64
	// stats, when set, feeds and is consulted by the adaptive join
	// optimizer (see stepCost); nil keeps the static cost model.
	stats *Stats

	// Plan caches. preds holds the derived sub-plans and is valid for one
	// program epoch; gen numbers the public entry points, so a plan can
	// tell the sources it resolved for this execution from stale ones.
	epoch uint64
	preds map[string]*predInfo
	gen   uint64
	held  []*Plan // plans holding sources resolved in this generation
}

// New returns an evaluator over env.
func New(env Env) *Evaluator {
	return &Evaluator{env: env, MaxDepth: 64, met: &Metrics{}, preds: map[string]*predInfo{}}
}

// ScannedTuples returns the cumulative number of tuples this evaluator
// has iterated while matching literals (the same events counted by the
// TuplesScanned meter). The propagation profiler diffs it around each
// differential execution. Must be read from the evaluating goroutine.
func (e *Evaluator) ScannedTuples() int64 { return e.scanned }

// SetStats installs (or, with nil, removes) the observed-statistics
// table: evaluation starts recording observed cardinalities and scan
// volumes into it, and stepCost starts preferring them over its
// static guesses.
func (e *Evaluator) SetStats(s *Stats) { e.stats = s }

// Stats returns the installed observed-statistics table (nil when the
// static cost model is in use).
func (e *Evaluator) Stats() *Stats { return e.stats }

// predInfo is what the evaluator knows about one derived predicate for
// the current program epoch: its definition, whether it is recursive,
// and the sub-plans compiled so far — one per clause for every (bound
// call positions, state) it has been called with.
type predInfo struct {
	def       *objectlog.Def
	recursive bool
	subs      map[subKey][]*Plan
}

type subKey struct {
	mask uint64
	old  bool
}

// enter opens a public entry point: it starts a new generation — plans
// resolve their sources afresh — and drops every cached sub-plan if the
// program changed since the last entry (plans held by callers notice the
// same way, in prepare). Every enter is paired with an exit; entry points
// do not nest (no emit callback calls back into the evaluator).
func (e *Evaluator) enter() {
	e.gen++
	if ep := e.env.Program().Epoch(); ep != e.epoch {
		e.epoch, e.preds = ep, map[string]*predInfo{}
	}
}

// exit closes a public entry point and drops the sources resolved since
// enter: they are views of one round's Δ-sets or one query's snapshot,
// and a plan must not keep them alive, let alone reuse them.
func (e *Evaluator) exit() {
	for _, p := range e.held {
		clear(p.res)
	}
	clear(e.held)
	e.held = e.held[:0]
}

// pred returns the cache entry of a derived predicate (nil for any other
// name).
func (e *Evaluator) pred(name string) *predInfo {
	if pi, ok := e.preds[name]; ok {
		return pi
	}
	prog := e.env.Program()
	def, ok := prog.Def(name)
	if !ok {
		return nil
	}
	pi := &predInfo{def: def, recursive: prog.IsRecursive(name), subs: map[subKey][]*Plan{}}
	e.preds[name] = pi
	return pi
}

// subPlans returns the definition's clauses compiled for a call with the
// given positions bound, in the old or new state: the head variables at
// those positions start bound, which is what lets the body be ordered
// around them. (An aggregate is only ever seeded on its group key.)
func (e *Evaluator) subPlans(pi *predInfo, mask uint64, old bool) ([]*Plan, error) {
	key := subKey{mask, old}
	if ps, ok := pi.subs[key]; ok {
		return ps, nil
	}
	ps := make([]*Plan, len(pi.def.Clauses))
	for i, c := range pi.def.Clauses {
		if old {
			c = oldClause(c)
		}
		var err error
		if ps[i], err = e.compile(c, mask); err != nil {
			return nil, err
		}
	}
	pi.subs[key] = ps
	return ps, nil
}

// EvalClause compiles and runs a one-off clause, adding the resulting
// head tuples to out (set semantics).
func (e *Evaluator) EvalClause(c objectlog.Clause, out *types.Set) error {
	p, err := e.Compile(c)
	if err != nil {
		return err
	}
	return p.Exec(out)
}

// Exec runs the plan and adds the resulting head tuples to out (set
// semantics).
func (p *Plan) Exec(out *types.Set) error {
	return p.ExecBag(func(t types.Tuple) error { out.Add(t); return nil })
}

// ExecBag runs the plan under bag semantics: emit is called once per
// complete body solution (derivation) with the projected head tuple,
// without deduplication. Derived sub-literals still deduplicate
// internally (set semantics below the top level), so over a stratified
// program the number of emissions of a head tuple t is exactly t's
// derivation count under this clause — the quantity counting
// maintenance tracks.
func (p *Plan) ExecBag(emit func(types.Tuple) error) error {
	p.e.enter()
	defer p.e.exit()
	p.e.met.Clauses.Inc()
	return p.run(nil, 0, emit)
}

// EvalDefBag enumerates the bag extent of a non-aggregate derived
// definition: every derivation of every clause, one emit per derivation
// (clauses are summed, not deduplicated — the bag union counting
// maintenance seeds from). With old set the definition is evaluated in
// the rolled-back state (rollback is compositional, like EvalPred).
func (e *Evaluator) EvalDefBag(def *objectlog.Def, old bool, emit func(types.Tuple) error) error {
	if def.Aggregate != "" {
		return fmt.Errorf("definition of %s is an aggregate view; it has no bag extent", def.Name)
	}
	for _, c := range def.Clauses {
		if old {
			c = oldClause(c)
		}
		p, err := e.Compile(c)
		if err != nil {
			return err
		}
		if err := p.ExecBag(emit); err != nil {
			return err
		}
	}
	return nil
}

// EvalPred computes the full extent of a predicate (base or derived)
// in the new or old state — naive evaluation.
func (e *Evaluator) EvalPred(pred string, old bool) (*types.Set, error) {
	e.enter()
	defer e.exit()
	out := types.NewSet()
	pi := e.pred(pred)
	if pi == nil {
		src, err := e.env.Source(pred, objectlog.DeltaNone, old)
		if err != nil {
			return nil, err
		}
		src.Each(func(t types.Tuple) bool {
			out.Add(t)
			return true
		})
		return out, nil
	}
	add := func(t types.Tuple) error { out.Add(t); return nil }
	if pi.def.Aggregate != "" {
		// Aggregate views: evaluate through the call path, which groups
		// and folds.
		e.met.Clauses.Inc()
		if err := e.aggregate(pi, 0, old, make(types.Tuple, pi.def.ExternalArity()), 0, add); err != nil {
			return nil, err
		}
	} else {
		plans, err := e.subPlans(pi, 0, old)
		if err != nil {
			return nil, err
		}
		for _, p := range plans {
			e.met.Clauses.Inc()
			if err := p.run(nil, 0, add); err != nil {
				return nil, err
			}
		}
	}
	if !old {
		e.stats.RecordPred(pred, out.Len())
	}
	return out, nil
}

// Derivable reports whether pred(args) holds in the new or old state,
// without computing the full extent: a membership probe on a base
// relation, the fully bound sub-plans of a derived predicate.
func (e *Evaluator) Derivable(pred string, args types.Tuple, old bool) (bool, error) {
	e.enter()
	defer e.exit()
	found := false
	hit := func(types.Tuple) error { found = true; return errStop }
	var err error
	switch pi := e.pred(pred); {
	case pi == nil || pi.recursive || pi.def.Aggregate != "" || objectlog.IsBuiltin(pred):
		lit := objectlog.Literal{Pred: pred, Old: old && !objectlog.IsBuiltin(pred), Args: make([]objectlog.Term, len(args))}
		for i, v := range args {
			lit.Args[i] = objectlog.C(v)
		}
		var p *Plan
		if p, err = e.compile(objectlog.Clause{Body: []objectlog.Literal{lit}}, 0); err == nil {
			err = p.run(nil, 0, hit)
		}
	default:
		err = e.derive(pi, 1<<uint(len(args))-1, old, args, 0, hit)
	}
	if err == errStop {
		err = nil
	}
	return found, err
}

// errStop aborts evaluation early (internal sentinel).
var errStop = fmt.Errorf("eval: stop")

// oldClause marks every state-bearing literal of c old (logical rollback
// is compositional: the old state of a view is the view over the old
// states of its influents).
func oldClause(c objectlog.Clause) objectlog.Clause {
	out := objectlog.Clause{Head: c.Head}
	out.Body = make([]objectlog.Literal, len(c.Body))
	for i, l := range c.Body {
		out.Body[i] = l.WithOld()
	}
	return out
}

// derivedSize is the extent a derived literal is costed at: a flat
// "moderately expensive" guess, unless the workload has shown otherwise.
func (e *Evaluator) derivedSize(pred string) int {
	if e.stats == nil {
		return 10000
	}
	if c, ok := e.stats.PredCard(pred); ok {
		return c
	}
	return e.derivedPrior(pred)
}

// derivedPrior estimates a derived predicate's extent before any full
// enumeration has been observed: per clause, the smallest live extent
// among its non-derived relational body literals (a conjunctive clause
// that joins on shared variables rarely yields more head tuples than
// its most selective relation holds), summed over clauses. The point is
// not precision — it is to break the chicken-and-egg of the static
// model: with a flat 10000 the optimizer never anchors on a small
// derived view, so the view is never fully enumerated, so no observed
// cardinality ever replaces the 10000. Clauses with no usable source
// fall back to the static guess.
func (e *Evaluator) derivedPrior(pred string) int {
	def, ok := e.env.Program().Def(pred)
	if !ok {
		return 10000
	}
	total := 0
	for _, c := range def.Clauses {
		best := -1
		for _, l := range c.Body {
			if l.Negated || l.Delta != objectlog.DeltaNone ||
				objectlog.IsBuiltin(l.Pred) || e.env.Program().IsDerived(l.Pred) {
				continue
			}
			src, err := e.env.Source(l.Pred, objectlog.DeltaNone, false)
			if err != nil {
				continue
			}
			if n := src.Len(); best < 0 || n < best {
				best = n
			}
		}
		if best < 0 {
			best = 10000
		}
		total += best
	}
	return total
}
