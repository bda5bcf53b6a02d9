package eval

import (
	"strings"
	"testing"

	"partdiff/internal/delta"
	"partdiff/internal/diff"
	"partdiff/internal/objectlog"
	"partdiff/internal/types"
)

// inventory builds the paper's §3.1 database with n items (one supplier
// each, nobody below threshold) and returns it with the monitor_items
// condition, fully expanded as the rule compiler leaves it:
//
//	cnd(I) ← type:item(I) ∧ quantity(I,Q) ∧ consume_freq(I,C) ∧ supplies(S,I) ∧
//	         delivery_time(I,S,D) ∧ C*D=P ∧ min_stock(I,M) ∧ P+M=T ∧ Q<T
//
// Its item columns are registered as the schema layer registers them, so
// plans drop type:item(I) wherever a stored literal of the same state
// holds I.
func inventory(tb testing.TB, n int) (*testEnv, *objectlog.Def) {
	tb.Helper()
	env := newTestEnv()
	for name, arity := range map[string]int{item: 1, "quantity": 2, "consume_freq": 2,
		"min_stock": 2, "supplies": 2, "delivery_time": 3} {
		env.store.CreateRelation(name, arity, nil)
		env.deltas[name] = delta.New()
	}
	isItem := []string{"item"}
	for name, cols := range map[string][][]string{"quantity": {isItem, nil}, "consume_freq": {isItem, nil},
		"min_stock": {isItem, nil}, "supplies": {nil, isItem}, "delivery_time": {isItem, nil, nil}} {
		env.prog.SetColumnExtents(name, cols)
	}
	ins := func(rel string, vals ...int64) {
		if _, err := env.store.Insert(rel, tup(vals...)); err != nil {
			tb.Fatal(err)
		}
	}
	for i := int64(0); i < int64(n); i++ {
		s := int64(n) + i
		ins(item, i)
		ins("quantity", i, 1000)
		ins("consume_freq", i, 2)
		ins("min_stock", i, 4)
		ins("supplies", s, i)
		ins("delivery_time", i, s, 3)
	}
	v := objectlog.V
	cnd := objectlog.NewClause(objectlog.Lit("cnd", v("I")),
		objectlog.Lit(item, v("I")),
		objectlog.Lit("quantity", v("I"), v("Q")),
		objectlog.Lit("consume_freq", v("I"), v("C")),
		objectlog.Lit("supplies", v("S"), v("I")),
		objectlog.Lit("delivery_time", v("I"), v("S"), v("D")),
		objectlog.Lit(objectlog.BuiltinTimes, v("C"), v("D"), v("P")),
		objectlog.Lit("min_stock", v("I"), v("M")),
		objectlog.Lit(objectlog.BuiltinPlus, v("P"), v("M"), v("T")),
		objectlog.Lit(objectlog.BuiltinLT, v("Q"), v("T")))
	return env, &objectlog.Def{Name: "cnd", Arity: 1, Clauses: []objectlog.Clause{cnd}}
}

// item is the inventory's item extent.
var item = objectlog.TypePred("item")

// differential returns the named partial differential of def.
func differential(tb testing.TB, def *objectlog.Def, name string) objectlog.Clause {
	tb.Helper()
	ds, err := diff.Generate(def, diff.DefaultOptions())
	if err != nil {
		tb.Fatal(err)
	}
	for _, d := range ds {
		if d.Name() == name {
			return d.Clause
		}
	}
	tb.Fatalf("no differential %s", name)
	return objectlog.Clause{}
}

// setQuantity plays "set quantity(i) = to" for items [0,k), all currently
// at from, into the store and a fresh quantity Δ-set.
func setQuantity(env *testEnv, k int, from, to int64) {
	d := delta.New()
	env.deltas["quantity"] = d
	for i := int64(0); i < int64(k); i++ {
		env.store.Delete("quantity", tup(i, from))
		d.Delete(tup(i, from))
		env.store.Insert("quantity", tup(i, to))
		d.Insert(tup(i, to))
	}
}

// TestMalformedBuiltinRejectedAtCompile: a builtin with the wrong number
// of arguments is an error when the clause is compiled — the interpreter
// sliced an arithmetic literal's first two arguments while costing it
// and panicked on fewer, and noticed a bad comparison only if evaluation
// got that far.
func TestMalformedBuiltinRejectedAtCompile(t *testing.T) {
	env, _ := inventory(t, 1)
	ev := New(env)
	x := objectlog.V("X")
	for _, bad := range []objectlog.Literal{
		objectlog.Lit(objectlog.BuiltinPlus),
		objectlog.Lit(objectlog.BuiltinPlus, x),
		objectlog.Lit(objectlog.BuiltinDiv, x, x),
		objectlog.Lit(objectlog.BuiltinTimes, x, x, x, x),
		objectlog.Lit(objectlog.BuiltinLT, x),
		objectlog.Lit(objectlog.BuiltinEQ, x, x, x),
	} {
		// Behind a literal that matches nothing: never reached, still
		// rejected.
		c := objectlog.NewClause(objectlog.Lit("h", x), objectlog.Lit(item, objectlog.CInt(-1)), objectlog.Lit(item, x), bad)
		if _, err := ev.Compile(c); err == nil || !strings.Contains(err.Error(), "expects") {
			t.Errorf("Compile with %s: %v, want an arity error", bad, err)
		}
		if err := ev.EvalClause(c, types.NewSet()); err == nil {
			t.Errorf("EvalClause with %s succeeded", bad)
		}
	}
	if _, err := ev.Derivable(objectlog.BuiltinPlus, tup(1), false); err == nil {
		t.Error("Derivable(plus/1) succeeded")
	}
}

// TestPlanExecAllocations: executing a cached plan over the real
// sources — store relations with their hash indexes, seeded from a real
// Δ-set — allocates one tuple per emitted head tuple plus a constant,
// however many tuples it scans: index probes and the join itself
// allocate nothing. (Old-state sources still pay a closure per
// RolledBack.Lookup; they are not part of this gate.)
func TestPlanExecAllocations(t *testing.T) {
	env, def := inventory(t, 1000)
	dq := env.deltas["quantity"]
	p, err := New(env).Compile(differential(t, def, "Δcnd/Δ+quantity"))
	if err != nil {
		t.Fatal(err)
	}
	emitted := 0
	measure := func(seed, firing int) float64 {
		dq.Clear()
		for i := 0; i < seed; i++ {
			q := int64(1000)
			if i < firing {
				q = 1 // below threshold 2*3+4
			}
			dq.Insert(tup(int64(i), q))
		}
		run := func() {
			emitted = 0
			if err := p.ExecBag(func(types.Tuple) error { emitted++; return nil }); err != nil {
				t.Fatal(err)
			}
		}
		run() // order and pool the activation for this Δ size
		allocs := testing.AllocsPerRun(20, run)
		if emitted != firing {
			t.Fatalf("seed %d: emitted %d, want %d", seed, emitted, firing)
		}
		return allocs
	}
	one, thousand := measure(1, 0), measure(1000, 0)
	if one != thousand || one > 2 {
		t.Errorf("allocations must not follow the tuples scanned: %v for a 1-tuple Δ, %v for 1000 (want equal, ≤ 2)", one, thousand)
	}
	if firing := measure(1000, 100); firing != thousand+100 {
		t.Errorf("100 emitted tuples cost %v allocations over the constant %v, want 100", firing-thousand, thousand)
	}
}

// TestProgramChangeInvalidatesPlans: a plan held across a redefinition
// recompiles itself, and the evaluator's derived sub-plans and
// recursion flags are dropped with the old program epoch.
func TestProgramChangeInvalidatesPlans(t *testing.T) {
	env := newTestEnv()
	env.store.CreateRelation("p", 1, nil)
	env.store.CreateRelation("q", 1, nil)
	env.store.CreateRelation("edge", 2, nil)
	env.mustInsert(t, "p", 1)
	env.mustInsert(t, "q", 2)
	env.mustInsert(t, "edge", 2, 3)
	x, y, z := objectlog.V("X"), objectlog.V("Y"), objectlog.V("Z")
	define := func(body ...objectlog.Clause) {
		t.Helper()
		if err := env.prog.Define(&objectlog.Def{Name: "d", Arity: 1, Clauses: body}); err != nil {
			t.Fatal(err)
		}
	}
	define(objectlog.NewClause(objectlog.Lit("d", x), objectlog.Lit("p", x)))
	ev := New(env)
	plan, err := ev.Compile(objectlog.NewClause(objectlog.Lit("h", x), objectlog.Lit("d", x)))
	if err != nil {
		t.Fatal(err)
	}
	check := func(when string, want ...types.Tuple) {
		t.Helper()
		out := types.NewSet()
		if err := plan.Exec(out); err != nil {
			t.Fatal(err)
		}
		if !out.Equal(types.NewSet(want...)) {
			t.Errorf("%s: h = %s, want %s", when, out, types.NewSet(want...))
		}
		for _, w := range want {
			if ok, err := ev.Derivable("d", w, false); err != nil || !ok {
				t.Errorf("%s: Derivable(d%s) = %v, %v", when, w, ok, err)
			}
		}
	}
	check("d over p", tup(1))
	define(objectlog.NewClause(objectlog.Lit("d", x), objectlog.Lit("q", x)))
	check("d redefined over q", tup(2))
	// d turns recursive (reachability from q over edge): the same plan
	// must now go through the fixpoint.
	env.prog.Define(&objectlog.Def{Name: "r", Arity: 2, Clauses: []objectlog.Clause{
		objectlog.NewClause(objectlog.Lit("r", x, y), objectlog.Lit("edge", x, y)),
		objectlog.NewClause(objectlog.Lit("r", x, z), objectlog.Lit("edge", x, y), objectlog.Lit("r", y, z)),
	}})
	define(objectlog.NewClause(objectlog.Lit("d", x), objectlog.Lit("q", x)),
		objectlog.NewClause(objectlog.Lit("d", y), objectlog.Lit("d", x), objectlog.Lit("r", x, y)))
	check("d recursive", tup(2), tup(3))
}
