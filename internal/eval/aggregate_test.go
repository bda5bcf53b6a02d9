package eval

import (
	"testing"

	"partdiff/internal/delta"
	"partdiff/internal/objectlog"
	"partdiff/internal/types"
)

// aggDB builds works_in(emp, dept) and salary(emp, amount) plus the
// aggregate view payroll(dept, sum(salary)) with the employee as
// witness:
//
//	payroll(D, E, S) ← works_in(E,D) ∧ salary(E,S)   [sum, group=1]
func aggDB(t *testing.T) *testEnv {
	t.Helper()
	env := newTestEnv()
	env.store.CreateRelation("works_in", 2, nil)
	env.store.CreateRelation("salary", 2, nil)
	env.prog.Define(&objectlog.Def{
		Name: "payroll", Arity: 3, Aggregate: objectlog.AggSum, GroupCols: 1,
		Clauses: []objectlog.Clause{objectlog.NewClause(
			objectlog.Lit("payroll", objectlog.V("D"), objectlog.V("E"), objectlog.V("S")),
			objectlog.Lit("works_in", objectlog.V("E"), objectlog.V("D")),
			objectlog.Lit("salary", objectlog.V("E"), objectlog.V("S")))},
	})
	// dept 1: employees 10 (pay 100), 11 (pay 100) — equal values!
	// dept 2: employee 12 (pay 300)
	env.mustInsert(t, "works_in", 10, 1)
	env.mustInsert(t, "works_in", 11, 1)
	env.mustInsert(t, "works_in", 12, 2)
	env.mustInsert(t, "salary", 10, 100)
	env.mustInsert(t, "salary", 11, 100)
	env.mustInsert(t, "salary", 12, 300)
	return env
}

func TestAggregateSumWithWitnessMultiplicity(t *testing.T) {
	env := aggDB(t)
	ext, err := New(env).EvalPred("payroll", false)
	if err != nil {
		t.Fatal(err)
	}
	// The two equal salaries in dept 1 must BOTH count (witness column
	// keeps them distinct under set semantics).
	want := types.NewSet(tup(1, 200), tup(2, 300))
	if !ext.Equal(want) {
		t.Errorf("payroll = %s, want %s", ext, want)
	}
}

func TestAggregateExternalArity(t *testing.T) {
	env := aggDB(t)
	def, _ := env.prog.Def("payroll")
	if def.ExternalArity() != 2 || def.Arity != 3 {
		t.Errorf("arities: external=%d inner=%d", def.ExternalArity(), def.Arity)
	}
}

func TestAggregateCountMinMax(t *testing.T) {
	env := aggDB(t)
	for _, tc := range []struct {
		op   string
		want *types.Set
	}{
		{objectlog.AggCount, types.NewSet(tup(1, 2), tup(2, 1))},
		{objectlog.AggMin, types.NewSet(tup(1, 100), tup(2, 300))},
		{objectlog.AggMax, types.NewSet(tup(1, 100), tup(2, 300))},
	} {
		def, _ := env.prog.Def("payroll")
		d2 := *def
		d2.Name = "agg_" + tc.op
		d2.Aggregate = tc.op
		// Clone clauses with renamed head.
		d2.Clauses = nil
		for _, c := range def.Clauses {
			cc := c.Clone()
			cc.Head.Pred = d2.Name
			d2.Clauses = append(d2.Clauses, cc)
		}
		env.prog.Define(&d2)
		ext, err := New(env).EvalPred(d2.Name, false)
		if err != nil {
			t.Fatal(err)
		}
		if !ext.Equal(tc.want) {
			t.Errorf("%s = %s, want %s", tc.op, ext, tc.want)
		}
	}
}

func TestAggregateBoundGroupLookup(t *testing.T) {
	env := aggDB(t)
	ev := New(env)
	// Point query: payroll(2, X) — only dept 2 is evaluated.
	c := objectlog.NewClause(
		objectlog.Lit("h", objectlog.V("X")),
		objectlog.Lit("payroll", objectlog.CInt(2), objectlog.V("X")))
	out := types.NewSet()
	if err := ev.EvalClause(c, out); err != nil {
		t.Fatal(err)
	}
	if !out.Equal(types.NewSet(tup(300))) {
		t.Errorf("payroll(2) = %s", out)
	}
	// Fully bound membership.
	ok, err := ev.Derivable("payroll", tup(1, 200), false)
	if err != nil || !ok {
		t.Errorf("payroll(1,200): %v %v", ok, err)
	}
	ok, _ = ev.Derivable("payroll", tup(1, 999), false)
	if ok {
		t.Error("payroll(1,999) should not hold")
	}
}

func TestAggregateOldState(t *testing.T) {
	env := aggDB(t)
	d := delta.New()
	env.deltas["salary"] = d
	// Raise employee 12's salary 300 → 500 inside a transaction.
	env.store.Delete("salary", tup(12, 300))
	d.Delete(tup(12, 300))
	env.mustInsert(t, "salary", 12, 500)
	d.Insert(tup(12, 500))

	ev := New(env)
	newExt, err := ev.EvalPred("payroll", false)
	if err != nil {
		t.Fatal(err)
	}
	oldExt, err := ev.EvalPred("payroll", true)
	if err != nil {
		t.Fatal(err)
	}
	if !newExt.Contains(tup(2, 500)) {
		t.Errorf("new payroll = %s", newExt)
	}
	if !oldExt.Contains(tup(2, 300)) || oldExt.Contains(tup(2, 500)) {
		t.Errorf("old payroll = %s", oldExt)
	}
	// Exact aggregate delta by old/new diff (what recompute nodes do).
	dd := delta.Diff(oldExt, newExt)
	if !dd.Plus().Equal(types.NewSet(tup(2, 500))) || !dd.Minus().Equal(types.NewSet(tup(2, 300))) {
		t.Errorf("aggregate Δ = %s", dd)
	}
}

func TestAggregateEmptyGroupAbsent(t *testing.T) {
	env := aggDB(t)
	// Remove dept 2's only employee: the group disappears entirely.
	env.store.Delete("works_in", tup(12, 2))
	ext, err := New(env).EvalPred("payroll", false)
	if err != nil {
		t.Fatal(err)
	}
	if !ext.Equal(types.NewSet(tup(1, 200))) {
		t.Errorf("payroll = %s", ext)
	}
}

func TestAggregateSumTypeError(t *testing.T) {
	env := newTestEnv()
	env.store.CreateRelation("vals", 2, nil)
	env.prog.Define(&objectlog.Def{
		Name: "total", Arity: 2, Aggregate: objectlog.AggSum, GroupCols: 1,
		Clauses: []objectlog.Clause{objectlog.NewClause(
			objectlog.Lit("total", objectlog.V("G"), objectlog.V("V")),
			objectlog.Lit("vals", objectlog.V("G"), objectlog.V("V")))},
	})
	env.store.Insert("vals", types.Tuple{types.Int(1), types.Str("oops")})
	if _, err := New(env).EvalPred("total", false); err == nil {
		t.Error("summing a string should error")
	}
}

// TestAggregateNegatedCall: a negated call to an aggregate view is
// seeded on the group key only, so the folded value must still be
// compared with the call — ¬payroll(D, 999) holds for every department
// whose payroll is not 999.
func TestAggregateNegatedCall(t *testing.T) {
	env := aggDB(t)
	for _, tc := range []struct {
		v    int64
		want *types.Set
	}{
		{999, types.NewSet(tup(1), tup(2))},
		{200, types.NewSet(tup(2))},
		{300, types.NewSet(tup(1))},
	} {
		c := objectlog.NewClause(
			objectlog.Lit("h", objectlog.V("D")),
			objectlog.Lit("works_in", objectlog.V("E"), objectlog.V("D")),
			objectlog.NotLit("payroll", objectlog.V("D"), objectlog.CInt(tc.v)))
		out := types.NewSet()
		if err := New(env).EvalClause(c, out); err != nil {
			t.Fatal(err)
		}
		if !out.Equal(tc.want) {
			t.Errorf("works_in(E,D) ∧ ¬payroll(D,%d) = %s, want %s", tc.v, out, tc.want)
		}
	}
}
