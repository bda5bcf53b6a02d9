package eval

import (
	"fmt"
	"testing"

	"partdiff/internal/delta"
	"partdiff/internal/objectlog"
	"partdiff/internal/storage"
	"partdiff/internal/types"
)

// testEnv is a minimal Env over a store, a program, and per-relation
// Δ-sets.
type testEnv struct {
	store  *storage.Store
	prog   *objectlog.Program
	deltas map[string]*delta.Set
}

func newTestEnv() *testEnv {
	return &testEnv{
		store:  storage.NewStore(),
		prog:   objectlog.NewProgram(),
		deltas: map[string]*delta.Set{},
	}
}

func (e *testEnv) Program() *objectlog.Program { return e.prog }

func (e *testEnv) Source(pred string, dk objectlog.DeltaKind, old bool) (storage.Source, error) {
	rel, ok := e.store.Relation(pred)
	if !ok {
		return nil, fmt.Errorf("no relation %q", pred)
	}
	d := e.deltas[pred]
	switch dk {
	case objectlog.DeltaPlus:
		return NewSetSource(d.Plus(), rel.Arity()), nil
	case objectlog.DeltaMinus:
		return NewSetSource(d.Minus(), rel.Arity()), nil
	}
	if old {
		return NewRolledBack(rel, d), nil
	}
	return rel, nil
}

func (e *testEnv) mustInsert(t *testing.T, rel string, vals ...int64) {
	t.Helper()
	tp := make(types.Tuple, len(vals))
	for i, v := range vals {
		tp[i] = types.Int(v)
	}
	if _, err := e.store.Insert(rel, tp); err != nil {
		t.Fatal(err)
	}
}

func tup(vs ...int64) types.Tuple {
	t := make(types.Tuple, len(vs))
	for i, v := range vs {
		t[i] = types.Int(v)
	}
	return t
}

// setupPQR builds the §4.3 database: q(1,1), r(1,2), r(2,3) and the view
// p(X,Z) ← q(X,Y) ∧ r(Y,Z).
func setupPQR(t *testing.T) (*testEnv, objectlog.Clause) {
	t.Helper()
	env := newTestEnv()
	env.store.CreateRelation("q", 2, nil)
	env.store.CreateRelation("r", 2, nil)
	env.mustInsert(t, "q", 1, 1)
	env.mustInsert(t, "r", 1, 2)
	env.mustInsert(t, "r", 2, 3)
	p := objectlog.NewClause(
		objectlog.Lit("p", objectlog.V("X"), objectlog.V("Z")),
		objectlog.Lit("q", objectlog.V("X"), objectlog.V("Y")),
		objectlog.Lit("r", objectlog.V("Y"), objectlog.V("Z")))
	return env, p
}

func TestPaperSection43_BaseJoin(t *testing.T) {
	env, p := setupPQR(t)
	out := types.NewSet()
	if err := New(env).EvalClause(p, out); err != nil {
		t.Fatal(err)
	}
	if !out.Equal(types.NewSet(tup(1, 2))) {
		t.Errorf("p = %s, want {(1, 2)}", out)
	}
}

func TestPaperSection43_AfterUpdates(t *testing.T) {
	// assert q(1,2), assert r(1,4) → p(1,2), p(1,3), p(1,4).
	env, p := setupPQR(t)
	env.mustInsert(t, "q", 1, 2)
	env.mustInsert(t, "r", 1, 4)
	out := types.NewSet()
	if err := New(env).EvalClause(p, out); err != nil {
		t.Fatal(err)
	}
	want := types.NewSet(tup(1, 2), tup(1, 3), tup(1, 4))
	if !out.Equal(want) {
		t.Errorf("p = %s, want %s", out, want)
	}
}

func TestPositiveDifferentialClauses(t *testing.T) {
	// Δp/Δ+q ← Δ+q(X,Y) ∧ r(Y,Z), Δp/Δ+r ← q(X,Y) ∧ Δ+r(Y,Z)
	env, _ := setupPQR(t)
	dq, dr := delta.New(), delta.New()
	env.deltas["q"], env.deltas["r"] = dq, dr
	// Perform the §4.3 transaction.
	env.mustInsert(t, "q", 1, 2)
	dq.Insert(tup(1, 2))
	env.mustInsert(t, "r", 1, 4)
	dr.Insert(tup(1, 4))

	ev := New(env)
	head := objectlog.Lit("p", objectlog.V("X"), objectlog.V("Z"))

	dpdq := objectlog.NewClause(head,
		objectlog.Lit("q", objectlog.V("X"), objectlog.V("Y")).WithDelta(objectlog.DeltaPlus),
		objectlog.Lit("r", objectlog.V("Y"), objectlog.V("Z")))
	out := types.NewSet()
	if err := ev.EvalClause(dpdq, out); err != nil {
		t.Fatal(err)
	}
	if !out.Equal(types.NewSet(tup(1, 3))) {
		t.Errorf("Δp/Δ+q = %s, want {(1, 3)}", out)
	}

	dpdr := objectlog.NewClause(head,
		objectlog.Lit("q", objectlog.V("X"), objectlog.V("Y")),
		objectlog.Lit("r", objectlog.V("Y"), objectlog.V("Z")).WithDelta(objectlog.DeltaPlus))
	out2 := types.NewSet()
	if err := ev.EvalClause(dpdr, out2); err != nil {
		t.Fatal(err)
	}
	if !out2.Equal(types.NewSet(tup(1, 4))) {
		t.Errorf("Δp/Δ+r = %s, want {(1, 4)}", out2)
	}
}

func TestPaperSection44_NegativeDifferentialUsesOldState(t *testing.T) {
	// Transaction: assert q(1,2), assert r(1,4), retract r(1,2),
	// retract r(2,3). Δp/Δ−r ← q_old(X,Y) ∧ Δ−r(Y,Z) must yield {(1,2)}
	// only — with the *new* q it would wrongly include (1,3).
	env, _ := setupPQR(t)
	dq, dr := delta.New(), delta.New()
	env.deltas["q"], env.deltas["r"] = dq, dr

	env.mustInsert(t, "q", 1, 2)
	dq.Insert(tup(1, 2))
	env.mustInsert(t, "r", 1, 4)
	dr.Insert(tup(1, 4))
	env.store.Delete("r", tup(1, 2))
	dr.Delete(tup(1, 2))
	env.store.Delete("r", tup(2, 3))
	dr.Delete(tup(2, 3))

	ev := New(env)
	head := objectlog.Lit("p", objectlog.V("X"), objectlog.V("Z"))
	dpdrMinus := objectlog.NewClause(head,
		objectlog.Lit("q", objectlog.V("X"), objectlog.V("Y")).WithOld(),
		objectlog.Lit("r", objectlog.V("Y"), objectlog.V("Z")).WithDelta(objectlog.DeltaMinus))
	out := types.NewSet()
	if err := ev.EvalClause(dpdrMinus, out); err != nil {
		t.Fatal(err)
	}
	if !out.Equal(types.NewSet(tup(1, 2))) {
		t.Errorf("Δp/Δ−r = %s, want {(1, 2)}", out)
	}

	// The wrong version (new-state q) yields the extra (1,3) — this is
	// exactly the paper's "clearly wrong" example.
	wrong := objectlog.NewClause(head,
		objectlog.Lit("q", objectlog.V("X"), objectlog.V("Y")),
		objectlog.Lit("r", objectlog.V("Y"), objectlog.V("Z")).WithDelta(objectlog.DeltaMinus))
	out2 := types.NewSet()
	if err := ev.EvalClause(wrong, out2); err != nil {
		t.Fatal(err)
	}
	if !out2.Equal(types.NewSet(tup(1, 2), tup(1, 3))) {
		t.Errorf("new-state Δp/Δ−r = %s, want the overlarge {(1,2),(1,3)}", out2)
	}
}

func TestBuiltinsArithmeticAndComparison(t *testing.T) {
	env := newTestEnv()
	env.store.CreateRelation("b", 2, nil)
	env.mustInsert(t, "b", 1, 10)
	env.mustInsert(t, "b", 2, 20)
	// h(X,T) ← b(X,A) ∧ T = A * 3 ∧ T > 45
	c := objectlog.NewClause(
		objectlog.Lit("h", objectlog.V("X"), objectlog.V("T")),
		objectlog.Lit("b", objectlog.V("X"), objectlog.V("A")),
		objectlog.Lit(objectlog.BuiltinTimes, objectlog.V("A"), objectlog.CInt(3), objectlog.V("T")),
		objectlog.Lit(objectlog.BuiltinGT, objectlog.V("T"), objectlog.CInt(45)))
	out := types.NewSet()
	if err := New(env).EvalClause(c, out); err != nil {
		t.Fatal(err)
	}
	if !out.Equal(types.NewSet(tup(2, 60))) {
		t.Errorf("h = %s", out)
	}
}

func TestBuiltinEqBindsEitherSide(t *testing.T) {
	env := newTestEnv()
	env.store.CreateRelation("b", 1, nil)
	env.mustInsert(t, "b", 5)
	for _, c := range []objectlog.Clause{
		objectlog.NewClause(objectlog.Lit("h", objectlog.V("Y")),
			objectlog.Lit("b", objectlog.V("X")),
			objectlog.Lit(objectlog.BuiltinEQ, objectlog.V("Y"), objectlog.V("X"))),
		objectlog.NewClause(objectlog.Lit("h", objectlog.V("Y")),
			objectlog.Lit("b", objectlog.V("X")),
			objectlog.Lit(objectlog.BuiltinEQ, objectlog.V("X"), objectlog.V("Y"))),
	} {
		out := types.NewSet()
		if err := New(env).EvalClause(c, out); err != nil {
			t.Fatal(err)
		}
		if !out.Equal(types.NewSet(tup(5))) {
			t.Errorf("h = %s", out)
		}
	}
}

func TestDivisionByZeroFailsConjunctionQuietly(t *testing.T) {
	env := newTestEnv()
	env.store.CreateRelation("b", 2, nil)
	env.mustInsert(t, "b", 1, 0)
	env.mustInsert(t, "b", 2, 4)
	// h(X,R) ← b(X,D) ∧ R = 8 / D
	c := objectlog.NewClause(
		objectlog.Lit("h", objectlog.V("X"), objectlog.V("R")),
		objectlog.Lit("b", objectlog.V("X"), objectlog.V("D")),
		objectlog.Lit(objectlog.BuiltinDiv, objectlog.CInt(8), objectlog.V("D"), objectlog.V("R")))
	out := types.NewSet()
	if err := New(env).EvalClause(c, out); err != nil {
		t.Fatal(err)
	}
	if !out.Equal(types.NewSet(tup(2, 2))) {
		t.Errorf("h = %s (division by zero row must drop silently)", out)
	}
}

func TestNegation(t *testing.T) {
	env := newTestEnv()
	env.store.CreateRelation("a", 1, nil)
	env.store.CreateRelation("blocked", 1, nil)
	env.mustInsert(t, "a", 1)
	env.mustInsert(t, "a", 2)
	env.mustInsert(t, "blocked", 2)
	c := objectlog.NewClause(
		objectlog.Lit("h", objectlog.V("X")),
		objectlog.Lit("a", objectlog.V("X")),
		objectlog.NotLit("blocked", objectlog.V("X")))
	out := types.NewSet()
	if err := New(env).EvalClause(c, out); err != nil {
		t.Fatal(err)
	}
	if !out.Equal(types.NewSet(tup(1))) {
		t.Errorf("h = %s", out)
	}
}

func TestDerivedSubquery(t *testing.T) {
	env := newTestEnv()
	env.store.CreateRelation("base", 2, nil)
	env.mustInsert(t, "base", 1, 10)
	env.mustInsert(t, "base", 2, 30)
	// view(X,T) ← base(X,A) ∧ T = A + 5
	env.prog.Define(&objectlog.Def{Name: "view", Arity: 2, Clauses: []objectlog.Clause{
		objectlog.NewClause(
			objectlog.Lit("view", objectlog.V("X"), objectlog.V("T")),
			objectlog.Lit("base", objectlog.V("X"), objectlog.V("A")),
			objectlog.Lit(objectlog.BuiltinPlus, objectlog.V("A"), objectlog.CInt(5), objectlog.V("T"))),
	}})
	// h(X) ← view(X,T) ∧ T > 20
	c := objectlog.NewClause(
		objectlog.Lit("h", objectlog.V("X")),
		objectlog.Lit("view", objectlog.V("X"), objectlog.V("T")),
		objectlog.Lit(objectlog.BuiltinGT, objectlog.V("T"), objectlog.CInt(20)))
	out := types.NewSet()
	if err := New(env).EvalClause(c, out); err != nil {
		t.Fatal(err)
	}
	if !out.Equal(types.NewSet(tup(2))) {
		t.Errorf("h = %s", out)
	}
}

func TestDerivedSubqueryOldStateIsCompositional(t *testing.T) {
	env := newTestEnv()
	env.store.CreateRelation("base", 2, nil)
	d := delta.New()
	env.deltas["base"] = d
	env.mustInsert(t, "base", 1, 10)
	// Transaction: update base(1,.) from 10 to 99.
	env.store.Delete("base", tup(1, 10))
	d.Delete(tup(1, 10))
	env.mustInsert(t, "base", 1, 99)
	d.Insert(tup(1, 99))

	env.prog.Define(&objectlog.Def{Name: "view", Arity: 2, Clauses: []objectlog.Clause{
		objectlog.NewClause(
			objectlog.Lit("view", objectlog.V("X"), objectlog.V("A")),
			objectlog.Lit("base", objectlog.V("X"), objectlog.V("A"))),
	}})
	ev := New(env)
	newExt, err := ev.EvalPred("view", false)
	if err != nil {
		t.Fatal(err)
	}
	oldExt, err := ev.EvalPred("view", true)
	if err != nil {
		t.Fatal(err)
	}
	if !newExt.Equal(types.NewSet(tup(1, 99))) {
		t.Errorf("view_new = %s", newExt)
	}
	if !oldExt.Equal(types.NewSet(tup(1, 10))) {
		t.Errorf("view_old = %s", oldExt)
	}
}

func TestEvalPredBase(t *testing.T) {
	env := newTestEnv()
	env.store.CreateRelation("b", 1, nil)
	env.mustInsert(t, "b", 1)
	ext, err := New(env).EvalPred("b", false)
	if err != nil || !ext.Equal(types.NewSet(tup(1))) {
		t.Errorf("EvalPred base: %s %v", ext, err)
	}
	if _, err := New(env).EvalPred("nosuch", false); err == nil {
		t.Error("unknown pred should error")
	}
}

func TestDerivable(t *testing.T) {
	env := newTestEnv()
	env.store.CreateRelation("b", 2, nil)
	env.mustInsert(t, "b", 1, 2)
	env.prog.Define(&objectlog.Def{Name: "v", Arity: 1, Clauses: []objectlog.Clause{
		objectlog.NewClause(objectlog.Lit("v", objectlog.V("X")),
			objectlog.Lit("b", objectlog.V("X"), objectlog.V("Y"))),
	}})
	ev := New(env)
	ok, err := ev.Derivable("v", tup(1), false)
	if err != nil || !ok {
		t.Errorf("Derivable(v(1))=%v,%v", ok, err)
	}
	ok, _ = ev.Derivable("v", tup(9), false)
	if ok {
		t.Error("v(9) should not be derivable")
	}
	ok, _ = ev.Derivable("b", tup(1, 2), false)
	if !ok {
		t.Error("base fact should be derivable")
	}
}

func TestRepeatedVariableInLiteral(t *testing.T) {
	env := newTestEnv()
	env.store.CreateRelation("e", 2, nil)
	env.mustInsert(t, "e", 1, 1)
	env.mustInsert(t, "e", 1, 2)
	// h(X) ← e(X,X): only the self-pair matches.
	c := objectlog.NewClause(
		objectlog.Lit("h", objectlog.V("X")),
		objectlog.Lit("e", objectlog.V("X"), objectlog.V("X")))
	out := types.NewSet()
	if err := New(env).EvalClause(c, out); err != nil {
		t.Fatal(err)
	}
	if !out.Equal(types.NewSet(tup(1))) {
		t.Errorf("h = %s", out)
	}
}

// TestSeededSubPlan: a call with bound arguments runs the definition's
// clause with those head positions seeded, not a filtered full extent.
func TestSeededSubPlan(t *testing.T) {
	env, p := setupPQR(t)
	if err := env.prog.Define(&objectlog.Def{Name: "p", Arity: 2, Clauses: []objectlog.Clause{p}}); err != nil {
		t.Fatal(err)
	}
	ev := New(env)
	call := func(x objectlog.Term, z objectlog.Term) *types.Set {
		out := types.NewSet()
		c := objectlog.NewClause(objectlog.Lit("h", x, z), objectlog.Lit("p", x, z))
		if err := ev.EvalClause(c, out); err != nil {
			t.Fatal(err)
		}
		return out
	}
	s0 := ev.ScannedTuples()
	if out := call(objectlog.CInt(1), objectlog.V("Z")); !out.Equal(types.NewSet(tup(1, 2))) {
		t.Errorf("p(1,Z) = %s", out)
	}
	if n := ev.ScannedTuples() - s0; n != 2 {
		t.Errorf("p(1,Z) scanned %d tuples, want 2 (one index probe each into q and r)", n)
	}
	// Seed that matches nothing.
	if out := call(objectlog.V("X"), objectlog.CInt(99)); out.Len() != 0 {
		t.Errorf("p(X,99) should be empty, got %s", out)
	}
}

func TestUnsafeClauseErrors(t *testing.T) {
	env := newTestEnv()
	env.store.CreateRelation("b", 1, nil)
	env.mustInsert(t, "b", 1)
	// Head variable Z never bound.
	c := objectlog.NewClause(
		objectlog.Lit("h", objectlog.V("Z")),
		objectlog.Lit("b", objectlog.V("X")))
	if err := New(env).EvalClause(c, types.NewSet()); err == nil {
		t.Error("unsafe clause should error at evaluation")
	}
}

func TestRolledBackSource(t *testing.T) {
	env := newTestEnv()
	env.store.CreateRelation("b", 2, nil)
	rel, _ := env.store.Relation("b")
	d := delta.New()
	env.mustInsert(t, "b", 1, 1)
	env.mustInsert(t, "b", 2, 2)
	// txn: delete (1,1), insert (3,3)
	env.store.Delete("b", tup(1, 1))
	d.Delete(tup(1, 1))
	env.mustInsert(t, "b", 3, 3)
	d.Insert(tup(3, 3))

	rb := NewRolledBack(rel, d)
	if rb.Arity() != 2 || rb.Len() != 2 {
		t.Errorf("Arity/Len: %d %d", rb.Arity(), rb.Len())
	}
	if !rb.Contains(tup(1, 1)) || rb.Contains(tup(3, 3)) || !rb.Contains(tup(2, 2)) {
		t.Error("old-state membership")
	}
	got := types.NewSet()
	rb.Each(func(t types.Tuple) bool { got.Add(t); return true })
	if !got.Equal(types.NewSet(tup(1, 1), tup(2, 2))) {
		t.Errorf("old state = %s", got)
	}
	// Lookup across both live-filtered and Δ− parts.
	n := 0
	rb.Lookup(0, types.Int(1), func(types.Tuple) bool { n++; return true })
	if n != 1 {
		t.Errorf("Lookup old col0=1 found %d", n)
	}
	// Early stop honored.
	n = 0
	rb.Each(func(types.Tuple) bool { n++; return false })
	if n != 1 {
		t.Errorf("early stop visited %d", n)
	}
	// nil delta behaves as identity.
	rb2 := NewRolledBack(rel, nil)
	if rb2.Len() != rel.Len() || !rb2.Contains(tup(3, 3)) {
		t.Error("nil-delta rollback should mirror base")
	}
}

func TestSetSource(t *testing.T) {
	s := types.NewSet(tup(1, 2), tup(3, 4))
	src := NewSetSource(s, 2)
	if src.Arity() != 2 || src.Len() != 2 {
		t.Error("SetSource meta")
	}
	if !src.Contains(tup(1, 2)) || src.Contains(tup(9, 9)) {
		t.Error("SetSource contains")
	}
	n := 0
	src.Lookup(1, types.Int(4), func(types.Tuple) bool { n++; return true })
	if n != 1 {
		t.Errorf("SetSource lookup found %d", n)
	}
	src.SrcLen = 99
	if src.Len() != 99 {
		t.Error("SrcLen override")
	}
	empty := NewSetSource(nil, 2)
	if empty.Len() != 0 || empty.Contains(tup(1)) {
		t.Error("nil-set source")
	}
}
