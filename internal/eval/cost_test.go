package eval

import (
	"errors"
	"slices"
	"testing"

	"partdiff/internal/delta"
	"partdiff/internal/objectlog"
	"partdiff/internal/types"
)

// Tests for the ordering function's cost model: the properties the
// benchmarks rely on (Δ-sets anchor the scan, index probes beat scans,
// builtins run as soon as ready).

// costOf is stepCost of lit compiled on its own, with the named
// variables bound and its source resolved the way an execution would.
func costOf(t *testing.T, ev *Evaluator, lit objectlog.Literal, bound ...string) (int, bool) {
	t.Helper()
	p, err := ev.Compile(objectlog.Clause{Body: []objectlog.Literal{lit}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.prepare(); err != nil {
		t.Fatal(err)
	}
	bnd := make([]bool, len(p.vars))
	for _, v := range bound {
		bnd[slices.Index(p.vars, v)] = true
	}
	return stepCost(&p.steps[0], bnd, p.res[0].size, ev.stats)
}

// orderOf is the join order (body indices) the plan of body settles on,
// and the error it would fail with on reaching the end of that order.
func orderOf(t *testing.T, ev *Evaluator, body ...objectlog.Literal) ([]int, error) {
	t.Helper()
	p, err := ev.Compile(objectlog.Clause{Body: body})
	if err != nil {
		t.Fatal(err)
	}
	o, err := p.prepare()
	if err != nil {
		t.Fatal(err)
	}
	return o.seq, o.fail
}

func costEnv(t *testing.T) (*testEnv, *Evaluator) {
	t.Helper()
	env := newTestEnv()
	env.store.CreateRelation("big", 2, nil)
	for i := int64(0); i < 200; i++ {
		env.mustInsert(t, "big", i, i%10)
	}
	env.store.CreateRelation("small", 1, nil)
	env.mustInsert(t, "small", 3)
	d := delta.New()
	for i := int64(0); i < 50; i++ {
		d.Insert(tup(i, i))
	}
	env.deltas["big"] = d
	return env, New(env)
}

func TestStepCost_DeltaAnchorsOverBaseScan(t *testing.T) {
	_, ev := costEnv(t)
	deltaLit := objectlog.Lit("big", objectlog.V("X"), objectlog.V("Y")).WithDelta(objectlog.DeltaPlus)
	baseLit := objectlog.Lit("big", objectlog.V("X"), objectlog.V("Y"))
	dc, dok := costOf(t, ev, deltaLit)
	bc, bok := costOf(t, ev, baseLit)
	if !dok || !bok {
		t.Fatal("both should be ready")
	}
	if dc >= bc {
		t.Errorf("Δ-set scan (%d) must be preferred over base scan (%d)", dc, bc)
	}
	// But probing a Δ-set per binding is linear: with one arg bound,
	// the cost must reflect the full Δ size.
	dcBound, _ := costOf(t, ev, deltaLit, "X")
	if dcBound < 8+50 {
		t.Errorf("bound Δ lookup cost %d does not reflect linear scan", dcBound)
	}
}

func TestStepCost_ReadinessRules(t *testing.T) {
	_, ev := costEnv(t)
	// Comparison with unbound args is not ready.
	if _, ready := costOf(t, ev, objectlog.Lit(objectlog.BuiltinLT, objectlog.V("A"), objectlog.V("B"))); ready {
		t.Error("comparison on unbound vars should not be ready")
	}
	// eq with one side bindable is ready.
	if _, ready := costOf(t, ev, objectlog.Lit(objectlog.BuiltinEQ, objectlog.V("A"), objectlog.CInt(1))); !ready {
		t.Error("eq with constant should be ready")
	}
	// Arithmetic needs both inputs.
	ar := objectlog.Lit(objectlog.BuiltinPlus, objectlog.V("A"), objectlog.V("B"), objectlog.V("C"))
	if _, ready := costOf(t, ev, ar); ready {
		t.Error("arithmetic with unbound inputs should not be ready")
	}
	if _, ready := costOf(t, ev, ar, "A", "B"); !ready {
		t.Error("arithmetic with bound inputs should be ready")
	}
	// Negation needs all args bound.
	neg := objectlog.NotLit("small", objectlog.V("Z"))
	if _, ready := costOf(t, ev, neg); ready {
		t.Error("negation on unbound var should not be ready")
	}
	if _, ready := costOf(t, ev, neg, "Z"); !ready {
		t.Error("negation on bound var should be ready")
	}
}

func TestStepCost_MembershipBeatsLookupBeatsScan(t *testing.T) {
	_, ev := costEnv(t)
	lit := objectlog.Lit("big", objectlog.V("X"), objectlog.V("Y"))
	scan, _ := costOf(t, ev, lit)
	lookup, _ := costOf(t, ev, lit, "X")
	member, _ := costOf(t, ev, lit, "X", "Y")
	if !(member < lookup && lookup < scan) {
		t.Errorf("cost order violated: member=%d lookup=%d scan=%d", member, lookup, scan)
	}
}

func TestOrderPrefersSmallRelation(t *testing.T) {
	_, ev := costEnv(t)
	seq, fail := orderOf(t, ev,
		objectlog.Lit("big", objectlog.V("X"), objectlog.V("Y")),
		objectlog.Lit("small", objectlog.V("X")))
	if fail != nil {
		t.Fatal(fail)
	}
	if !slices.Equal(seq, []int{1, 0}) {
		t.Errorf("order = %v, want small (1) before big (0)", seq)
	}
}

func TestOrderFailsOnStuckClause(t *testing.T) {
	_, ev := costEnv(t)
	// Only an unready builtin: no evaluable literal.
	stuck := objectlog.Lit(objectlog.BuiltinLT, objectlog.V("A"), objectlog.V("B"))
	seq, fail := orderOf(t, ev, stuck)
	var se *objectlog.SafetyError
	if len(seq) != 0 || !errors.As(fail, &se) {
		t.Errorf("stuck clause: order %v, fail %v; want empty order and a SafetyError", seq, fail)
	}
	// The error surfaces where the interpreter raised it: on reaching the
	// stuck literal, so not at all behind a literal that matches nothing.
	c := objectlog.Clause{Body: []objectlog.Literal{stuck}}
	if err := ev.EvalClause(c, types.NewSet()); !errors.As(err, &se) {
		t.Errorf("evaluating a stuck clause: %v, want a SafetyError", err)
	}
	c.Body = append(c.Body, objectlog.Lit("small", objectlog.CInt(99)))
	if err := ev.EvalClause(c, types.NewSet()); err != nil {
		t.Errorf("stuck literal behind an empty match must not be reached: %v", err)
	}
}
