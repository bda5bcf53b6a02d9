package eval

import (
	"fmt"

	"partdiff/internal/objectlog"
	"partdiff/internal/storage"
	"partdiff/internal/types"
)

// ordering is a plan with its join order fixed. Boundness at every step
// is then static, so each argument's role is decided here, once, instead
// of per tuple.
type ordering struct {
	seq   []int // step indices in execution order
	sizes []int // the sizes seq was derived from, per step
	ops   []op
	// fail, when set, is returned where a solution would be emitted: the
	// body got stuck after seq, or a head variable is never bound.
	fail  error
	nargs int // arguments over all ops: sizes an activation's value scratch
	free  []*activation
}

type op struct {
	st    *step
	idx   int   // step index: Plan.res[idx] is this op's source
	acts  []act // per argument
	first int   // first bound argument (the index-probe column); -1: none
	all   bool  // every argument bound: membership probe
	mask  uint64
}

type actKind uint8

const (
	actCheck actKind = iota // bound: must equal the loaded value
	actBind                 // first free occurrence: bind the slot
	actSame                 // repeated free variable: must equal column col
)

type act struct {
	kind actKind
	col  int
}

// newOrdering freezes the order p.order just left in p.seq (and p.done,
// for the literals a stuck body never reached).
func (p *Plan) newOrdering() *ordering {
	o := &ordering{
		seq:   append([]int(nil), p.seq...),
		sizes: make([]int, len(p.steps)),
		ops:   make([]op, len(p.seq)),
	}
	bound := p.bnd
	copy(bound, p.init)
	n := 0
	for _, i := range o.seq {
		n += len(p.steps[i].args)
	}
	o.nargs = n
	acts := make([]act, n)
	for k, i := range o.seq {
		st := &p.steps[i]
		x := &o.ops[k]
		*x = op{st: st, idx: i, acts: acts[:len(st.args):len(st.args)], first: -1, all: true}
		acts = acts[len(st.args):]
		for j, a := range st.args {
			if a.slot < 0 || bound[a.slot] {
				x.mask |= 1 << uint(j%64)
				if x.first < 0 {
					x.first = j
				}
				continue
			}
			x.all = false
			x.acts[j].kind = actBind
			for c := 0; c < j; c++ {
				if st.args[c].slot == a.slot {
					x.acts[j] = act{kind: actSame, col: c}
					break
				}
			}
		}
		st.bind(bound)
	}
	if len(o.seq) < len(p.steps) {
		var rest []objectlog.Literal
		for i := range p.steps {
			if !p.done[i] {
				rest = append(rest, p.steps[i].lit)
			}
		}
		o.fail = &objectlog.SafetyError{Where: fmt.Sprintf("%v", rest)}
		return o
	}
	for _, h := range p.head {
		if h.slot >= 0 && !bound[h.slot] {
			o.fail = &objectlog.SafetyError{Var: p.vars[h.slot], Where: "head", Clause: p.clause.String()}
			break
		}
	}
	return o
}

// activation is the mutable state of one in-flight execution of an
// ordering: the frame and, per op, scratch and the callbacks handed to
// sources and sub-queries. Activations are pooled on their ordering, so
// a steady-state execution allocates only what it emits; a plan entered
// again while already running (p(X,Y) ∧ p(Y,Z)) takes a second one.
type activation struct {
	p     *Plan
	o     *ordering
	depth int
	frame []types.Value
	sink  func(types.Tuple) error // receives every solution's head tuple
	ops   []opState
}

type opState struct {
	vals    types.Tuple // argument values; constants prefilled, bound slots loaded per run
	scanned int64
	err     error
	seen    types.Set // distinct results of the running sub-query
	found   bool
	visit   func(types.Tuple) bool  // source iteration callback
	result  func(types.Tuple) error // receives each distinct sub-query result
	dedup   func(types.Tuple) error // sub-plan sink: filters duplicates into result
}

func (o *ordering) acquire(p *Plan) *activation {
	if n := len(o.free); n > 0 {
		a := o.free[n-1]
		o.free = o.free[:n-1]
		return a
	}
	a := &activation{p: p, o: o, frame: make([]types.Value, len(p.vars)), ops: make([]opState, len(o.ops))}
	vals := make(types.Tuple, o.nargs)
	for i := range o.ops {
		x, s := &o.ops[i], &a.ops[i]
		if x.st.kind == stepCompare || x.st.kind == stepArith {
			continue
		}
		s.vals, vals = vals[:len(x.st.args):len(x.st.args)], vals[len(x.st.args):]
		for j, ar := range x.st.args {
			s.vals[j] = ar.val
		}
		next := i + 1
		s.visit = func(t types.Tuple) bool {
			s.scanned++
			if a.unify(x, s, t) {
				if s.err = a.step(next); s.err != nil {
					return false
				}
			}
			return true
		}
		if x.st.kind != stepDerived {
			continue
		}
		if x.st.lit.Negated {
			// Every argument is bound. The fully seeded sub-plans of a plain
			// view only report solutions of this very call; an aggregate is
			// seeded on its group key alone, so the folded tuple's value
			// still has to agree with the call.
			s.dedup = func(types.Tuple) error { s.found = true; return errStop }
			s.result = func(t types.Tuple) error {
				if a.unify(x, s, t) {
					return s.dedup(t)
				}
				return nil
			}
			continue
		}
		s.result = func(t types.Tuple) error {
			if a.unify(x, s, t) {
				return a.step(next)
			}
			return nil
		}
		s.dedup = func(t types.Tuple) error {
			if t == nil { // fully bound call: every solution is the call itself
				if s.found {
					return nil
				}
				s.found = true
				return a.step(next)
			}
			if !s.seen.Add(t) {
				return nil
			}
			return s.result(t)
		}
	}
	return a
}

// run executes p once: vals seeds the head positions p was compiled for
// (sub-plans), sink receives a fresh head tuple per solution.
func (p *Plan) run(vals types.Tuple, depth int, sink func(types.Tuple) error) error {
	if depth > p.e.MaxDepth {
		return fmt.Errorf("evaluation exceeded max derivation depth %d (recursive view?)", p.e.MaxDepth)
	}
	o, err := p.prepare()
	if err != nil {
		return err
	}
	a := o.acquire(p)
	a.depth, a.sink = depth, sink
	if a.seed(vals) {
		err = a.step(0)
	}
	a.sink = nil
	o.free = append(o.free, a)
	return err
}

// seed binds the head positions the plan was compiled for to the
// caller's values; false means the head cannot match the call (a
// constant or a repeated variable disagrees).
func (a *activation) seed(vals types.Tuple) bool {
	for _, s := range a.p.seeds {
		if !s.check {
			a.frame[s.slot] = vals[s.pos]
			continue
		}
		want := s.val
		if s.slot >= 0 {
			want = a.frame[s.slot]
		}
		if !want.Equal(vals[s.pos]) {
			return false
		}
	}
	return true
}

// unify matches tuple t against op x under the current frame: bound
// arguments must agree, free ones are bound, repeated free variables
// must repeat.
func (a *activation) unify(x *op, s *opState, t types.Tuple) bool {
	for j, ac := range x.acts {
		switch ac.kind {
		case actCheck:
			if !t[j].Equal(s.vals[j]) {
				return false
			}
		case actBind:
			a.frame[x.st.args[j].slot] = t[j]
		case actSame:
			if !t[j].Equal(t[ac.col]) {
				return false
			}
		}
	}
	return true
}

// value is argument j of op x under the current frame.
func (a *activation) value(x *op, j int) types.Value {
	ar := x.st.args[j]
	if ar.slot >= 0 {
		return a.frame[ar.slot]
	}
	return ar.val
}

func (a *activation) step(i int) error {
	if i == len(a.o.ops) {
		return a.emit()
	}
	x := &a.o.ops[i]
	switch x.st.kind {
	case stepCompare:
		return a.compare(i, x)
	case stepArith:
		return a.arith(i, x)
	case stepSource:
		r := &a.p.res[x.idx]
		if r.err != nil {
			return r.err
		}
		return a.match(i, x, r.src)
	default:
		return a.call(i, x)
	}
}

func (a *activation) emit() error {
	if a.o.fail != nil {
		return a.o.fail
	}
	if a.p.full {
		return a.sink(nil)
	}
	t := make(types.Tuple, len(a.p.head))
	for i, h := range a.p.head {
		t[i] = h.val
		if h.slot >= 0 {
			t[i] = a.frame[h.slot]
		}
	}
	return a.sink(t)
}

// load fills the op's argument values from the frame.
func (a *activation) load(x *op, s *opState) {
	for j, ar := range x.st.args {
		if ar.slot >= 0 && x.acts[j].kind == actCheck {
			s.vals[j] = a.frame[ar.slot]
		}
	}
}

// match runs op i against src: a membership probe when every argument
// is bound (the only way a negated literal runs), otherwise an index
// lookup on the first bound column or a scan.
func (a *activation) match(i int, x *op, src storage.Source) error {
	e, s, lit := a.p.e, &a.ops[i], &x.st.lit
	a.load(x, s)
	if x.all {
		e.met.AnchorProbe.Inc()
		if src.Contains(s.vals) != lit.Negated {
			return a.step(i + 1)
		}
		return nil
	}
	s.scanned, s.err = 0, nil
	if x.first >= 0 {
		e.met.AnchorIndex.Inc()
		src.Lookup(x.first, s.vals[x.first], s.visit)
	} else {
		e.met.AnchorScan.Inc()
		src.Each(s.visit)
	}
	e.met.TuplesScanned.Add(s.scanned) // batched: once per literal match
	e.scanned += s.scanned
	if lit.Delta == objectlog.DeltaNone {
		e.stats.RecordLiteral(lit.Pred, lit.Delta, uint32(x.mask), s.scanned)
	}
	return s.err
}

// call runs derived op i: against the current iteration's extent inside
// a fixpoint, against the materialized component for a recursive
// predicate, otherwise as a sub-query over the definition's sub-plans.
func (a *activation) call(i int, x *op) error {
	e, s, lit, pi := a.p.e, &a.ops[i], &x.st.lit, x.st.pred
	if ext, ok := e.fixpoint[lit.Pred]; ok {
		return a.match(i, x, NewSetSource(ext, len(lit.Args)))
	}
	if pi.recursive {
		exts, err := e.fixpointComponent(lit.Pred, lit.Old, a.depth)
		if err != nil {
			return err
		}
		return a.match(i, x, NewSetSource(exts[lit.Pred], len(lit.Args)))
	}
	a.load(x, s)
	s.found = false
	var err error
	if pi.def.Aggregate != "" {
		err = e.aggregate(pi, x.mask, lit.Old, s.vals, a.depth, s.result)
	} else {
		err = e.derive(pi, x.mask, lit.Old, s.vals, a.depth, s.dedup)
		if err == nil && !lit.Old && x.mask == 0 {
			// An unbound new-state call enumerated the full extent.
			e.stats.RecordPred(lit.Pred, s.seen.Len())
		}
		s.seen.Clear() // a pooled activation must not pin the extent (Clear releases all but a small array)
	}
	if lit.Negated {
		if err != nil && err != errStop {
			return err
		}
		if !s.found {
			return a.step(i + 1)
		}
		return nil
	}
	return err
}

// derive evaluates pred(vals) — mask says which positions of vals are
// bound — as a sub-query over the definition's clauses, threading old
// down (rollback is compositional). sink receives every solution's head
// tuple, or nil per solution when the call is fully bound.
func (e *Evaluator) derive(pi *predInfo, mask uint64, old bool, vals types.Tuple, depth int, sink func(types.Tuple) error) error {
	if len(vals) != pi.def.Arity {
		return fmt.Errorf("call %s%v: arity %d, defined %d", pi.def.Name, vals, len(vals), pi.def.Arity)
	}
	plans, err := e.subPlans(pi, mask, old)
	if err != nil {
		return err
	}
	for _, p := range plans {
		if err := p.run(vals, depth+1, sink); err != nil {
			return err
		}
	}
	return nil
}

func (a *activation) compare(i int, x *op) error {
	av, bv := a.value(x, 0), a.value(x, 1)
	switch {
	case x.acts[1].kind != actCheck: // binding equality
		a.frame[x.st.args[1].slot] = av
	case x.acts[0].kind != actCheck:
		a.frame[x.st.args[0].slot] = bv
	case x.st.op.holds(av, bv) == x.st.lit.Negated:
		return nil
	}
	return a.step(i + 1)
}

// arith evaluates op(a, b, r): r is checked when bound, bound otherwise.
func (a *activation) arith(i int, x *op) error {
	res, err := x.st.op.apply(a.value(x, 0), a.value(x, 1))
	if err != nil {
		// Arithmetic failure (e.g. division by zero) fails the
		// conjunction rather than aborting the query.
		return nil
	}
	if x.acts[2].kind != actCheck {
		a.frame[x.st.args[2].slot] = res
	} else if a.value(x, 2).Equal(res) == x.st.lit.Negated {
		return nil
	}
	return a.step(i + 1)
}

func cmpHolds(pred string, a, b types.Value) bool { return builtinOf(pred).holds(a, b) }

// holds applies comparison op to a and b.
func (op builtin) holds(a, b types.Value) bool {
	switch op {
	case opEQ:
		return a.Equal(b)
	case opNE:
		return !a.Equal(b)
	}
	c := a.Compare(b)
	switch op {
	case opLT:
		return c < 0
	case opLE:
		return c <= 0
	case opGT:
		return c > 0
	case opGE:
		return c >= 0
	}
	return false
}

// apply computes arithmetic op over a and b.
func (op builtin) apply(a, b types.Value) (types.Value, error) {
	switch op {
	case opPlus:
		return types.Add(a, b)
	case opMinus:
		return types.Sub(a, b)
	case opTimes:
		return types.Mul(a, b)
	case opDiv:
		return types.Div(a, b)
	}
	return types.Value{}, fmt.Errorf("%d is not an arithmetic builtin", op)
}
