package eval

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"partdiff/internal/delta"
	"partdiff/internal/diff"
	"partdiff/internal/objectlog"
	"partdiff/internal/storage"
	"partdiff/internal/types"
)

// Differential testing of the optimized evaluator (greedy literal
// ordering, index lookups, early termination) against the brute-force
// reference evaluator, over random databases and random safe clauses.

// randClauseDB builds a random database with relations p1(x,y), p2(x,y),
// p3(x) over a small domain.
func randClauseDB(r *rand.Rand) *storage.Store {
	st := storage.NewStore()
	st.CreateRelation("p1", 2, nil)
	st.CreateRelation("p2", 2, nil)
	st.CreateRelation("p3", 1, nil)
	for i := 0; i < 4+r.Intn(8); i++ {
		st.Insert("p1", types.Tuple{types.Int(r.Int63n(5)), types.Int(r.Int63n(5))})
	}
	for i := 0; i < 4+r.Intn(8); i++ {
		st.Insert("p2", types.Tuple{types.Int(r.Int63n(5)), types.Int(r.Int63n(5))})
	}
	for i := 0; i < 2+r.Intn(4); i++ {
		st.Insert("p3", types.Tuple{types.Int(r.Int63n(5))})
	}
	return st
}

// randSafeClause builds a random clause over p1/p2/p3 with joins,
// comparisons, arithmetic and negation, then checks safety; ok reports
// whether the sample is usable.
func randSafeClause(r *rand.Rand) (objectlog.Clause, bool) {
	pool := []string{"A", "B", "C", "D"}
	v := func() objectlog.Term { return objectlog.V(pool[r.Intn(len(pool))]) }
	term := func() objectlog.Term {
		if r.Intn(4) == 0 {
			return objectlog.CInt(r.Int63n(5))
		}
		return v()
	}
	var body []objectlog.Literal
	n := 1 + r.Intn(3)
	for i := 0; i < n; i++ {
		switch r.Intn(3) {
		case 0:
			body = append(body, objectlog.Lit("p1", term(), term()))
		case 1:
			body = append(body, objectlog.Lit("p2", term(), term()))
		default:
			body = append(body, objectlog.Lit("p3", term()))
		}
	}
	// Collect positive vars for safe extras.
	seen := map[string]bool{}
	for _, l := range body {
		for _, a := range l.Args {
			if a.IsVar {
				seen[a.Var] = true
			}
		}
	}
	var vars []string
	for _, p := range pool {
		if seen[p] {
			vars = append(vars, p)
		}
	}
	if len(vars) == 0 {
		return objectlog.Clause{}, false
	}
	bv := func() objectlog.Term { return objectlog.V(vars[r.Intn(len(vars))]) }
	// Maybe a comparison.
	if r.Intn(2) == 0 {
		ops := []string{objectlog.BuiltinLT, objectlog.BuiltinLE, objectlog.BuiltinGT,
			objectlog.BuiltinGE, objectlog.BuiltinNE, objectlog.BuiltinEQ}
		body = append(body, objectlog.Lit(ops[r.Intn(len(ops))], bv(), bv()))
	}
	// Maybe arithmetic computing a fresh variable.
	if r.Intn(2) == 0 {
		ops := []string{objectlog.BuiltinPlus, objectlog.BuiltinMinus, objectlog.BuiltinTimes}
		fresh := "T"
		body = append(body, objectlog.Lit(ops[r.Intn(len(ops))], bv(), objectlog.CInt(1+r.Int63n(3)), objectlog.V(fresh)))
		vars = append(vars, fresh)
	}
	// Maybe a safe negation.
	if r.Intn(2) == 0 {
		if r.Intn(2) == 0 {
			body = append(body, objectlog.NotLit("p3", bv()))
		} else {
			body = append(body, objectlog.NotLit("p1", bv(), bv()))
		}
	}
	// Head: 1-2 bound variables.
	head := objectlog.Literal{Pred: "h"}
	for i := 0; i < 1+r.Intn(2); i++ {
		head.Args = append(head.Args, objectlog.V(vars[r.Intn(len(vars))]))
	}
	c := objectlog.Clause{Head: head, Body: body}
	if err := objectlog.CheckSafe(c); err != nil {
		return objectlog.Clause{}, false
	}
	return c, true
}

// randTxn plays a random transaction against env's p1/p2/p3: inserts
// and deletes applied to the store and folded into fresh Δ-sets, so
// Δ+/Δ− and the rolled-back old state are consistent with the store.
// grow skews towards insertions over a wider domain (for tests that
// need relation sizes to move).
func randTxn(r *rand.Rand, env *testEnv, grow bool) {
	dom := int64(5)
	if grow {
		dom = 8
	}
	for _, name := range []string{"p1", "p2", "p3"} {
		d := delta.New()
		env.deltas[name] = d
		rel, _ := env.store.Relation(name)
		for i, n := 0, r.Intn(6); i < n; i++ {
			t := make(types.Tuple, rel.Arity())
			for j := range t {
				t[j] = types.Int(r.Int63n(dom))
			}
			if rel.Contains(t) && !(grow && r.Intn(3) > 0) {
				env.store.Delete(name, t)
				d.Delete(t)
			} else if !rel.Contains(t) {
				env.store.Insert(name, t)
				d.Insert(t)
			}
		}
	}
}

// randDiffEnv builds a random database in mid-transaction, and — half
// the time each — a random derived view and a random aggregate view over
// it (any operator, the head's last column folded, a random prefix of
// the others the group key and the rest witnesses).
func randDiffEnv(r *rand.Rand) *testEnv {
	env := newTestEnv()
	env.store = randClauseDB(r)
	randTxn(r, env, false)
	if inner, ok := randSafeClause(r); ok && r.Intn(2) == 0 {
		inner.Head.Pred = "view"
		env.prog.Define(&objectlog.Def{Name: "view", Arity: len(inner.Head.Args), Clauses: []objectlog.Clause{inner}})
	}
	if inner, ok := randSafeClause(r); ok && r.Intn(2) == 0 {
		inner.Head.Pred = "agg"
		ops := []string{objectlog.AggCount, objectlog.AggSum, objectlog.AggMin, objectlog.AggMax}
		n := len(inner.Head.Args)
		env.prog.Define(&objectlog.Def{Name: "agg", Arity: n, Aggregate: ops[r.Intn(len(ops))],
			GroupCols: r.Intn(n), Clauses: []objectlog.Clause{inner}})
	}
	return env
}

// randDiffClause extends randSafeClause with what differentials are
// made of beyond plain joins: repeated variables inside one literal, eq
// binding a fresh variable, and positive or negated calls to the derived
// and the aggregate view with some arguments bound.
func randDiffClause(r *rand.Rand, prog *objectlog.Program) (objectlog.Clause, bool) {
	c, ok := randSafeClause(r)
	if !ok {
		return c, false
	}
	bound := c.Body[0].Vars(nil)
	if len(bound) == 0 {
		return c, false
	}
	bv := func() objectlog.Term { return objectlog.V(bound[r.Intn(len(bound))]) }
	if r.Intn(3) == 0 {
		c.Body = append(c.Body, objectlog.Lit("p1", objectlog.V("R"), objectlog.V("R")))
	}
	if r.Intn(3) == 0 {
		c.Body = append(c.Body, objectlog.Lit(objectlog.BuiltinEQ, objectlog.V("E"), bv()))
		c.Head.Args = append(c.Head.Args, objectlog.V("E"))
	}
	for _, name := range derivedNames {
		def, ok := prog.Def(name)
		if !ok {
			continue
		}
		call := objectlog.Literal{Pred: name, Negated: r.Intn(3) == 0}
		for i := 0; i < def.ExternalArity(); i++ {
			switch {
			case call.Negated || r.Intn(3) == 0:
				call.Args = append(call.Args, bv())
			case r.Intn(3) == 0:
				call.Args = append(call.Args, objectlog.CInt(r.Int63n(5)))
			default:
				call.Args = append(call.Args, objectlog.V([]string{"V", "W"}[i%2]+name))
			}
		}
		c.Body = append(c.Body, call)
	}
	return c, objectlog.CheckSafe(c) == nil
}

// diffShapes returns c and every clause shape the differencing compilers
// emit for it — diff.Generate (Δ+X others new, Δ−X others old, signs
// crossed at negations) and diff.GenerateCounting (triangle form) —
// except those anchored on a derived view's Δ, which only a propagation
// network can serve.
func diffShapes(t *testing.T, c objectlog.Clause) []objectlog.Clause {
	def := &objectlog.Def{Name: c.Head.Pred, Arity: len(c.Head.Args), Clauses: []objectlog.Clause{c}}
	ds, err := diff.Generate(def, diff.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	cds, err := diff.GenerateCounting(def)
	if err != nil {
		t.Fatal(err)
	}
	shapes := []objectlog.Clause{c}
	for _, d := range append(ds, cds...) {
		if !slices.Contains(derivedNames, d.Influent) {
			shapes = append(shapes, d.Clause)
		}
	}
	return shapes
}

// derivedNames are the views randDiffEnv may define.
var derivedNames = []string{"view", "agg"}

// oracleEnv is what the reference evaluator sees: the same sources, and
// every derived view as a plain relation holding its extent — computed
// by the reference itself (and refFold), per state — instead of a
// definition.
type oracleEnv struct {
	*testEnv
	views map[string][2]*types.Set // new, old
}

var emptyProgram = objectlog.NewProgram()

func newOracleEnv(t *testing.T, env *testEnv) oracleEnv {
	o := oracleEnv{testEnv: env, views: map[string][2]*types.Set{}}
	for _, name := range derivedNames {
		def, ok := env.prog.Def(name)
		if !ok {
			continue
		}
		var ext [2]*types.Set
		for i, c := range []objectlog.Clause{def.Clauses[0], oldClause(def.Clauses[0])} {
			ext[i] = types.NewSet()
			if err := ReferenceEval(o, c, ext[i]); err != nil {
				t.Fatal(err)
			}
			if def.Aggregate != "" {
				ext[i] = refFold(def, ext[i])
			}
		}
		o.views[name] = ext
	}
	return o
}

// refFold is the reference's aggregation: group the pre-aggregation
// relation on the leading GroupCols columns and fold each group's last
// column; a group with no tuple has no row.
func refFold(def *objectlog.Def, pre *types.Set) *types.Set {
	groups := map[string][]types.Tuple{}
	for _, t := range pre.Tuples() {
		k := string(t[:def.GroupCols].AppendKey(nil))
		groups[k] = append(groups[k], t)
	}
	out := types.NewSet()
	for _, ts := range groups {
		vals := make([]int64, len(ts))
		for i, t := range ts {
			vals[i] = t[len(t)-1].AsInt()
		}
		f := vals[0]
		switch def.Aggregate {
		case objectlog.AggCount:
			f = int64(len(vals))
		case objectlog.AggSum:
			for _, v := range vals[1:] {
				f += v
			}
		case objectlog.AggMin:
			f = slices.Min(vals)
		case objectlog.AggMax:
			f = slices.Max(vals)
		}
		out.Add(append(ts[0][:def.GroupCols].Clone(), types.Int(f)))
	}
	return out
}

func (o oracleEnv) Program() *objectlog.Program { return emptyProgram }

func (o oracleEnv) Source(pred string, dk objectlog.DeltaKind, old bool) (storage.Source, error) {
	if def, ok := o.prog.Def(pred); ok && dk == objectlog.DeltaNone {
		ext := o.views[pred]
		if old {
			return NewSetSource(ext[1], def.ExternalArity()), nil
		}
		return NewSetSource(ext[0], def.ExternalArity()), nil
	}
	return o.testEnv.Source(pred, dk, old)
}

// TestEvaluatorMatchesReference_Quick: the plan executor and the
// brute-force reference evaluator must compute identical result sets on
// random mid-transaction databases, for random safe clauses and for
// every differential shape generated from them.
func TestEvaluatorMatchesReference_Quick(t *testing.T) {
	shapes, aggCalls, aggNegated := 0, 0, 0
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		env := randDiffEnv(r)
		c, ok := randDiffClause(r, env.prog)
		if !ok {
			return true // unusable sample
		}
		oracle := newOracleEnv(t, env)
		for _, sc := range diffShapes(t, c) {
			shapes++
			for _, l := range sc.Body {
				if l.Pred == "agg" && l.Delta == objectlog.DeltaNone {
					if l.Negated {
						aggNegated++
					} else {
						aggCalls++
					}
				}
			}
			want := types.NewSet()
			if err := ReferenceEval(oracle, sc, want); err != nil {
				t.Logf("reference failed on %s: %v", sc, err)
				return false
			}
			got := types.NewSet()
			if err := New(env).EvalClause(sc, got); err != nil {
				t.Logf("evaluator failed on %s: %v", sc, err)
				return false
			}
			if !got.Equal(want) {
				t.Logf("clause %s:\n  optimized %s\n  reference %s", sc, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1500}); err != nil {
		t.Error(err)
	}
	if shapes < 3000 || aggCalls < 1000 || aggNegated < 1000 {
		t.Errorf("only %d clause shapes checked, %d positive and %d negated aggregate calls; the generator went vacuous",
			shapes, aggCalls, aggNegated)
	}
}

// TestStalePlan_Quick: a plan compiled once stays right while the data
// moves under it. Between executions the store and the Δ-sets are
// mutated — relation sizes swing across the points where the cost model
// changes its mind — and every execution must equal a freshly compiled
// plan's and the reference's.
func TestStalePlan_Quick(t *testing.T) {
	reorders := 0
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		env := randDiffEnv(r)
		c, ok := randDiffClause(r, env.prog)
		if !ok {
			return true
		}
		shapes := diffShapes(t, c)
		sc := shapes[r.Intn(len(shapes))]
		ev := New(env)
		p, err := ev.Compile(sc)
		if err != nil {
			t.Logf("compile %s: %v", sc, err)
			return false
		}
		var last *ordering
		for round := 0; round < 6; round++ {
			got, fresh, want := types.NewSet(), types.NewSet(), types.NewSet()
			if err := p.Exec(got); err != nil {
				t.Logf("round %d: cached plan failed on %s: %v", round, sc, err)
				return false
			}
			if err := New(env).EvalClause(sc, fresh); err != nil {
				t.Logf("round %d: fresh plan failed on %s: %v", round, sc, err)
				return false
			}
			if err := ReferenceEval(newOracleEnv(t, env), sc, want); err != nil {
				t.Logf("round %d: reference failed on %s: %v", round, sc, err)
				return false
			}
			if !got.Equal(want) || !fresh.Equal(want) {
				t.Logf("round %d, clause %s:\n  cached    %s\n  fresh     %s\n  reference %s", round, sc, got, fresh, want)
				return false
			}
			if last != nil && p.cur != last {
				reorders++
			}
			last = p.cur
			for i, n := 0, 1+r.Intn(4); i < n; i++ {
				randTxn(r, env, round%2 == 0)
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
	if reorders == 0 {
		t.Error("no plan ever changed its join order: the mutations never crossed a cost flip")
	}
}

// TestExpansionPreservesSemantics_Quick: evaluating a clause that calls
// a derived predicate as a subquery must equal evaluating its full
// expansion.
func TestExpansionPreservesSemantics_Quick(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		st := randClauseDB(r)
		// Random derived view over p1/p2.
		inner, ok := randSafeClause(r)
		if !ok {
			return true
		}
		inner.Head.Pred = "view"
		prog := objectlog.NewProgram()
		if err := prog.Define(&objectlog.Def{
			Name: "view", Arity: len(inner.Head.Args),
			Clauses: []objectlog.Clause{inner},
		}); err != nil {
			return true
		}
		// Outer clause calling the view joined with p3.
		callArgs := make([]objectlog.Term, len(inner.Head.Args))
		for i := range callArgs {
			callArgs[i] = objectlog.V("X")
			if i > 0 {
				callArgs[i] = objectlog.V("Y")
			}
		}
		outer := objectlog.NewClause(
			objectlog.Lit("q", callArgs[0]),
			objectlog.Literal{Pred: "view", Args: callArgs},
			objectlog.Lit("p3", callArgs[0]))
		if objectlog.CheckSafe(outer) != nil {
			return true
		}

		env := NewStoreEnv(st, prog)
		viaSubquery := types.NewSet()
		if err := New(env).EvalClause(outer, viaSubquery); err != nil {
			t.Logf("subquery eval failed: %v", err)
			return false
		}
		expanded, err := objectlog.Expand(outer, prog, nil)
		if err != nil {
			t.Logf("expand failed: %v", err)
			return false
		}
		emptyProg := objectlog.NewProgram()
		envFlat := NewStoreEnv(st, emptyProg)
		viaExpansion := types.NewSet()
		for _, ec := range expanded {
			if err := New(envFlat).EvalClause(ec, viaExpansion); err != nil {
				t.Logf("expanded eval failed on %s: %v", ec, err)
				return false
			}
		}
		if !viaSubquery.Equal(viaExpansion) {
			t.Logf("outer %s\n  subquery  %s\n  expansion %s", outer, viaSubquery, viaExpansion)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 800}); err != nil {
		t.Error(err)
	}
}

// TestReferenceRejectsDerived documents the reference evaluator's scope:
// annotated literals are sources like any other (and fail only if the
// Env cannot serve them), derived literals are refused outright.
func TestReferenceRejectsDerived(t *testing.T) {
	env := newTestEnv()
	env.store.CreateRelation("p", 1, nil)
	env.mustInsert(t, "p", 1)
	env.deltas["p"] = delta.New()
	env.deltas["p"].Insert(tup(1))
	env.prog.Define(&objectlog.Def{Name: "d", Arity: 1, Clauses: []objectlog.Clause{
		objectlog.NewClause(objectlog.Lit("d", objectlog.V("X")), objectlog.Lit("p", objectlog.V("X"))),
	}})
	head := objectlog.Lit("h", objectlog.V("X"))
	p := objectlog.Lit("p", objectlog.V("X"))
	for _, tc := range []struct {
		lit  objectlog.Literal
		want int
	}{
		{p.WithDelta(objectlog.DeltaPlus), 1},
		{p.WithDelta(objectlog.DeltaMinus), 0},
		{p.WithOld(), 0},
	} {
		out := types.NewSet()
		if err := ReferenceEval(env, objectlog.NewClause(head, tc.lit), out); err != nil || out.Len() != tc.want {
			t.Errorf("%s: %d tuples, err %v; want %d", tc.lit, out.Len(), err, tc.want)
		}
	}
	if err := ReferenceEval(env, objectlog.NewClause(head, objectlog.Lit("d", objectlog.V("X"))), types.NewSet()); err == nil {
		t.Error("derived literal accepted")
	}
}
