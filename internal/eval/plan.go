package eval

import (
	"fmt"
	"slices"

	"partdiff/internal/objectlog"
	"partdiff/internal/storage"
	"partdiff/internal/types"
)

// A Plan is a clause compiled for repeated execution. Compilation maps
// variables to slots of a flat value frame and literals to step
// descriptors; ordering fixes the join order and, with it, what every
// argument of every step does (compare, bind, repeat-check); execution
// runs the ordered steps as nested loops over sources resolved once per
// execution. A Plan belongs to the evaluator that compiled it and, like
// that evaluator, to one goroutine.
type Plan struct {
	e      *Evaluator
	clause objectlog.Clause
	seeded uint64 // head positions the caller binds before the body runs (sub-plans)
	full   bool   // every head position (at least one) seeded: the result is the call itself

	// Compiled form, rebuilt when the program epoch moves.
	epoch uint64
	vars  []string // slot → variable name
	steps []step   // body order
	head  []arg
	seeds []seed
	init  []bool // slots bound before the first step

	// Per-execution state (prepare): sources are resolved once per
	// evaluator generation and never reused by a later one.
	gen  uint64
	res  []resolved
	cur  *ordering
	seq  []int  // scratch: order under construction
	done []bool // scratch: steps already ordered
	bnd  []bool // scratch: symbolic boundness
}

// arg is a compiled argument: a frame slot or (slot < 0) a constant.
type arg struct {
	slot int
	val  types.Value
}

type stepKind uint8

const (
	stepSource  stepKind = iota // base relation, type extent, Δ-set or old state, via Env.Source
	stepDerived                 // derived predicate: fixpoint extent, recursive component, aggregate or sub-plans
	stepCompare
	stepArith
)

type step struct {
	lit  objectlog.Literal
	kind stepKind
	op   builtin // stepCompare, stepArith
	args []arg
	pred *predInfo // stepDerived
}

// builtin is a comparison or arithmetic predicate, decoded from its name
// once per compile so execution switches on a small integer.
type builtin uint8

const (
	opNone builtin = iota
	opEQ
	opNE
	opLT
	opLE
	opGT
	opGE
	opPlus
	opMinus
	opTimes
	opDiv
)

func builtinOf(pred string) builtin {
	switch pred {
	case objectlog.BuiltinEQ:
		return opEQ
	case objectlog.BuiltinNE:
		return opNE
	case objectlog.BuiltinLT:
		return opLT
	case objectlog.BuiltinLE:
		return opLE
	case objectlog.BuiltinGT:
		return opGT
	case objectlog.BuiltinGE:
		return opGE
	case objectlog.BuiltinPlus:
		return opPlus
	case objectlog.BuiltinMinus:
		return opMinus
	case objectlog.BuiltinTimes:
		return opTimes
	case objectlog.BuiltinDiv:
		return opDiv
	}
	return opNone
}

// seed binds or checks one head position against the caller's value.
type seed struct {
	pos, slot int // slot < 0: the head holds a constant
	check     bool
	val       types.Value
}

type resolved struct {
	src  storage.Source
	err  error
	size int
}

// Compile translates c into a plan owned by e. Malformed builtins are
// rejected here; unsafe clauses fail when execution reaches the literal
// that cannot run, as they always have.
func (e *Evaluator) Compile(c objectlog.Clause) (*Plan, error) {
	e.enter()
	defer e.exit()
	return e.compile(c, 0)
}

func (e *Evaluator) compile(c objectlog.Clause, seeded uint64) (*Plan, error) {
	p := &Plan{e: e, clause: c, seeded: seeded}
	return p, p.build()
}

func (p *Plan) build() error {
	e, c := p.e, p.clause
	p.cur, p.gen = nil, 0
	p.vars = p.vars[:0]
	n := len(c.Head.Args)
	for _, l := range c.Body {
		n += len(l.Args)
	}
	args := make([]arg, 0, n)
	argsOf := func(ts []objectlog.Term) []arg {
		from := len(args)
		for _, t := range ts {
			a := arg{slot: -1, val: t.Const}
			if t.IsVar {
				if a.slot = slices.Index(p.vars, t.Var); a.slot < 0 {
					a.slot = len(p.vars)
					p.vars = append(p.vars, t.Var)
				}
			}
			args = append(args, a)
		}
		return args[from:len(args):len(args)]
	}
	p.head = argsOf(c.Head.Args)
	prog := e.env.Program()
	body := withoutImpliedExtents(prog, c.Body)
	p.steps = make([]step, len(body))
	for i, l := range body {
		st := &p.steps[i]
		st.lit, st.args = l, argsOf(l.Args)
		switch {
		case objectlog.IsComparison(l.Pred):
			st.kind, st.op = stepCompare, builtinOf(l.Pred)
			if len(l.Args) != 2 {
				return fmt.Errorf("builtin %s expects 2 args, got %s", l.Pred, l)
			}
		case objectlog.IsArithmetic(l.Pred):
			st.kind, st.op = stepArith, builtinOf(l.Pred)
			if len(l.Args) != 3 {
				return fmt.Errorf("builtin %s expects 3 args, got %s", l.Pred, l)
			}
		case l.Delta == objectlog.DeltaNone && prog.IsDerived(l.Pred):
			st.kind, st.pred = stepDerived, e.pred(l.Pred)
			if len(l.Args) > 64 {
				return fmt.Errorf("call %s: more than 64 arguments", l)
			}
		}
	}
	p.init = make([]bool, len(p.vars))
	p.bnd = make([]bool, len(p.vars))
	p.done = make([]bool, len(p.steps))
	p.seq = make([]int, 0, len(p.steps))
	p.res = make([]resolved, len(p.steps))
	p.seeds, p.full = p.seeds[:0], len(p.head) > 0
	for i, h := range p.head {
		if p.seeded&(1<<uint(i)) == 0 {
			p.full = false
			continue
		}
		s := seed{pos: i, slot: h.slot, val: h.val, check: h.slot < 0 || p.init[h.slot]}
		if !s.check {
			p.init[h.slot] = true
		}
		p.seeds = append(p.seeds, s)
	}
	p.epoch = e.epoch // only now: a failed rebuild is retried, not run
	return nil
}

// withoutImpliedExtents returns body without the type-extent literals
// the program's column extents make redundant: a positive, current- or
// old-state type:T(v) goes when a positive stored literal of the same
// state holds v in a column whose values all lie in T's extent. Every
// state a plan reads (new, old, a snapshot) satisfies that invariant, so
// the literal can only ever succeed once per solution; set and bag
// results are unchanged. A type literal implied only by a Δ-literal
// stays: a Δ-set is a change, not a state, and the tuples of a Δ−set
// have left the relation. body itself is returned when nothing goes.
func withoutImpliedExtents(prog *objectlog.Program, body []objectlog.Literal) []objectlog.Literal {
	implied := func(l objectlog.Literal) bool {
		typ, ok := objectlog.IsTypePred(l.Pred)
		if !ok || l.Negated || l.Delta != objectlog.DeltaNone || len(l.Args) != 1 {
			return false
		}
		for _, m := range body {
			if m.Negated || m.Delta != objectlog.DeltaNone || m.Old != l.Old {
				continue
			}
			for j, a := range m.Args {
				if a.Equal(l.Args[0]) && prog.Implies(m.Pred, j, typ) {
					return true
				}
			}
		}
		return false
	}
	for i, l := range body {
		if !implied(l) {
			continue
		}
		out := slices.Clone(body[:i])
		for _, l := range body[i+1:] {
			if !implied(l) {
				out = append(out, l)
			}
		}
		return out
	}
	return body
}

// prepare brings p up to date for the evaluator's current generation:
// recompiles after a program change, resolves every source once, and
// re-derives the join order only if a size it depends on moved (always,
// under adaptive statistics: observations change between executions).
func (p *Plan) prepare() (*ordering, error) {
	e := p.e
	if p.epoch != e.epoch {
		if err := p.build(); err != nil {
			return nil, err
		}
	}
	if p.gen == e.gen && p.cur != nil {
		return p.cur, nil
	}
	p.gen = e.gen
	e.held = append(e.held, p)
	same := p.cur != nil && e.stats == nil
	for i := range p.steps {
		st, r := &p.steps[i], &p.res[i]
		switch st.kind {
		case stepSource:
			r.src, r.err = e.env.Source(st.lit.Pred, st.lit.Delta, st.lit.Old)
			r.size = 1 << 20
			if r.err == nil {
				r.size = r.src.Len()
				if len(st.args) != r.src.Arity() {
					r.err = fmt.Errorf("literal %s: arity %d, source has %d", st.lit, len(st.args), r.src.Arity())
				}
			}
		case stepDerived:
			r.size = e.derivedSize(st.lit.Pred)
		}
		same = same && r.size == p.cur.sizes[i]
	}
	if same {
		return p.cur, nil
	}
	p.order(e.stats)
	if p.cur == nil || !slices.Equal(p.seq, p.cur.seq) {
		p.cur = p.newOrdering()
	}
	for i := range p.res {
		p.cur.sizes[i] = p.res[i].size
	}
	return p.cur, nil
}

// order computes the join order into p.seq: greedily, the cheapest
// ready step next, ties to the earlier literal. It is a pure function of
// the compiled clause, the initially bound slots, the resolved sizes
// and the statistics table — costs look at which arguments are bound,
// never at their values, so this is the order step-by-step replanning
// under real bindings would pick. When no remaining step is ready the
// body is stuck and p.seq is the runnable prefix.
func (p *Plan) order(stats *Stats) {
	copy(p.bnd, p.init)
	clear(p.done)
	p.seq = p.seq[:0]
	for len(p.seq) < len(p.steps) {
		best, bestCost := -1, int(1)<<62
		for i := range p.steps {
			if p.done[i] {
				continue
			}
			if c, ready := stepCost(&p.steps[i], p.bnd, p.res[i].size, stats); ready && c < bestCost {
				best, bestCost = i, c
			}
		}
		if best < 0 {
			return
		}
		p.seq, p.done[best] = append(p.seq, best), true
		p.steps[best].bind(p.bnd)
	}
}

// bind marks the slots bound once st has run: every variable of a
// positive relational literal, the free side of an eq, the result of
// arithmetic. Other comparisons and negations bind nothing.
func (st *step) bind(bound []bool) {
	var out []arg
	switch {
	case st.kind == stepArith:
		out = st.args[2:]
	case st.kind == stepCompare:
		if st.op == opEQ {
			out = st.args
		}
	case !st.lit.Negated:
		out = st.args
	}
	for _, a := range out {
		if a.slot >= 0 {
			bound[a.slot] = true
		}
	}
}

// stepCost estimates the cost of running st next under the symbolic
// boundness bound; lower is better, ready reports whether st can run at
// all (builtins and negations need their inputs). With a statistics
// table, observed cardinalities (already folded into size for derived
// literals) and the observed scan volume of this literal shape replace
// the static guesses. Δ-set costs stay static: wave fronts change every
// round, so history carries no signal.
func stepCost(st *step, bound []bool, size int, stats *Stats) (cost int, ready bool) {
	isBound := func(a arg) bool { return a.slot < 0 || bound[a.slot] }
	boundArgs := 0
	var mask uint32
	for i, a := range st.args {
		if isBound(a) {
			boundArgs++
			mask |= 1 << uint(i%32)
		}
	}
	allBound := boundArgs == len(st.args)
	switch {
	case st.kind == stepCompare:
		if st.op == opEQ {
			return 0, boundArgs >= 1 // eq can bind one free side
		}
		return 0, allBound
	case st.kind == stepArith:
		return 1, isBound(st.args[0]) && isBound(st.args[1]) // output may be free
	case st.lit.Negated:
		return 2, allBound
	}
	if st.lit.Delta != objectlog.DeltaNone {
		// Δ-sets are unindexed wave-front materializations: a bound
		// lookup still scans the whole set, so prefer anchoring the
		// evaluation on the Δ-set (scanning it once) over probing it
		// per outer binding.
		switch {
		case allBound:
			return 3, true // hash membership probe
		case boundArgs > 0:
			return 8 + size, true // linear filter per probe
		default:
			return 6 + size, true // anchor scan — cheapest entry point
		}
	}
	switch {
	case allBound:
		return 3, true // membership probe
	case boundArgs > 0:
		if st.kind == stepSource {
			// A "selective-looking" index probe that in fact matches
			// half the relation gets re-ranked by what it cost last time.
			if s, ok := stats.LitScanned(st.lit.Pred, st.lit.Delta, mask); ok {
				return 8 + s, true
			}
		}
		return 8 + size/(boundArgs*8+1), true // index lookup estimate
	default:
		return 16 + size*4, true // full scan
	}
}
