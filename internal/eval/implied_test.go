package eval

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"partdiff/internal/delta"
	"partdiff/internal/objectlog"
	"partdiff/internal/types"
)

// The type-extent rewrite: plans drop a type:T(v) literal when a stored
// literal of the same state holds v in a column registered as implying
// T. These tests pin which literals go and check, over random stores
// that satisfy the referential invariant before and after a random
// transaction, that the rewritten plans compute what the reference
// evaluator computes with every literal kept, and the same bags as
// plans compiled without registered extents.

// impliedProgram registers the extents of the test schema: types sup
// and sub (sub under sup), f(sup, integer) and g(sub, sup).
func impliedProgram() *objectlog.Program {
	prog := objectlog.NewProgram()
	prog.SetColumnExtents("f", [][]string{{"sup"}, nil})
	prog.SetColumnExtents("g", [][]string{{"sub", "sup"}, {"sup"}})
	return prog
}

var (
	tSup = objectlog.TypePred("sup")
	tSub = objectlog.TypePred("sub")
)

func TestImpliedExtentLiterals(t *testing.T) {
	v := objectlog.V
	lit := objectlog.Lit
	old := func(l objectlog.Literal) objectlog.Literal { return l.WithOld() }
	dm := func(l objectlog.Literal) objectlog.Literal { return l.WithDelta(objectlog.DeltaMinus) }
	prog := impliedProgram()
	for _, tc := range []struct {
		name string
		body []objectlog.Literal
		keep []bool
	}{
		{"column implies its type", []objectlog.Literal{lit(tSup, v("X")), lit("f", v("X"), v("V"))}, []bool{false, true}},
		{"and its supertypes", []objectlog.Literal{lit(tSup, v("X")), lit(tSub, v("X")), lit("g", v("X"), v("Y"))}, []bool{false, false, true}},
		{"second column", []objectlog.Literal{lit("g", v("X"), v("Y")), lit(tSup, v("Y"))}, []bool{true, false}},
		{"constant argument", []objectlog.Literal{lit(tSup, objectlog.C(types.Obj(3))), lit("f", objectlog.C(types.Obj(3)), v("V"))}, []bool{false, true}},
		{"old state by old state", []objectlog.Literal{old(lit(tSup, v("X"))), old(lit("f", v("X"), v("V")))}, []bool{false, true}},
		{"subtype variable over a supertype column", []objectlog.Literal{lit(tSub, v("X")), lit("f", v("X"), v("V"))}, []bool{true, true}},
		{"negated implier", []objectlog.Literal{lit(tSup, v("X")), objectlog.NotLit("f", v("X"), objectlog.CInt(1))}, []bool{true, true}},
		{"Δ implier only", []objectlog.Literal{dm(lit("f", v("X"), v("V"))), lit(tSup, v("X"))}, []bool{true, true}},
		{"other state", []objectlog.Literal{lit(tSup, v("X")), old(lit("f", v("X"), v("V")))}, []bool{true, true}},
		{"negated type literal", []objectlog.Literal{lit("g", v("X"), v("Y")), objectlog.NotLit(tSub, v("Y"))}, []bool{true, true}},
		{"Δ type literal", []objectlog.Literal{dm(lit(tSup, v("X"))), lit("f", v("X"), v("V"))}, []bool{true, true}},
		{"other variable", []objectlog.Literal{lit(tSup, v("Y")), lit("f", v("X"), v("V")), lit("g", v("X"), v("Y"))}, []bool{false, true, true}},
		{"unregistered relation", []objectlog.Literal{lit(tSup, v("X")), lit("h", v("X"))}, []bool{true, true}},
	} {
		var want []objectlog.Literal
		for i, l := range tc.body {
			if tc.keep[i] {
				want = append(want, l)
			}
		}
		got := withoutImpliedExtents(prog, tc.body)
		if !slices.EqualFunc(got, want, func(a, b objectlog.Literal) bool { return a.String() == b.String() }) {
			t.Errorf("%s: %v kept %v, want %v", tc.name, tc.body, got, want)
		}
		if len(got) == len(tc.body) && &got[0] != &tc.body[0] {
			t.Errorf("%s: nothing dropped, yet the body was copied", tc.name)
		}
	}
}

// impliedEnv is a store over the test schema in mid-transaction: sup and
// sub extents over objects #1..#8, f and g referencing only live objects
// in the old state and in the new, every relation's Δ-set folded.
func impliedEnv(r *rand.Rand, prog *objectlog.Program) *testEnv {
	env := newTestEnv()
	env.prog = prog
	for name, arity := range map[string]int{tSup: 1, tSub: 1, "f": 2, "g": 2} {
		env.store.CreateRelation(name, arity, nil)
	}
	rel := func(name string) *delta.Set { return env.deltas[name] }
	ins := func(name string, t types.Tuple) {
		if ok, _ := env.store.Insert(name, t); ok && rel(name) != nil {
			rel(name).Insert(t)
		}
	}
	del := func(name string, t types.Tuple) {
		if ok, _ := env.store.Delete(name, t); ok && rel(name) != nil {
			rel(name).Delete(t)
		}
	}
	live := func(name string) []types.Tuple {
		rl, _ := env.store.Relation(name)
		return rl.Rows().Tuples()
	}
	pick := func(name string) (types.Value, bool) {
		ts := live(name)
		if len(ts) == 0 {
			return types.Value{}, false
		}
		return ts[r.Intn(len(ts))][0], true
	}
	create := func(o int64) {
		ins(tSup, types.Tuple{types.Obj(types.OID(o))})
		if r.Intn(2) == 0 {
			ins(tSub, types.Tuple{types.Obj(types.OID(o))})
		}
	}
	destroy := func(o types.Value) { // delete: footprint first, extents last
		for _, name := range []string{"f", "g"} {
			for _, t := range live(name) {
				if t[0].Equal(o) || t[1].Equal(o) {
					del(name, t)
				}
			}
		}
		del(tSub, types.Tuple{o})
		del(tSup, types.Tuple{o})
	}
	update := func() {
		switch r.Intn(3) {
		case 0:
			if x, ok := pick(tSup); ok {
				t := types.Tuple{x, types.Int(r.Int63n(4))}
				if r.Intn(3) == 0 {
					del("f", t)
				} else {
					ins("f", t)
				}
			}
		case 1:
			x, ok1 := pick(tSub)
			y, ok2 := pick(tSup)
			if ok1 && ok2 {
				if r.Intn(3) == 0 {
					del("g", types.Tuple{x, y})
				} else {
					ins("g", types.Tuple{x, y})
				}
			}
		default:
			if o, ok := pick(tSup); ok && r.Intn(2) == 0 {
				destroy(o)
			} else {
				create(1 + r.Int63n(8))
			}
		}
	}
	for o := int64(1); o <= 5; o++ {
		create(o)
	}
	for i := 0; i < 12; i++ {
		update()
	}
	for _, name := range []string{tSup, tSub, "f", "g"} {
		env.deltas[name] = delta.New()
	}
	for i := 0; i < 1+r.Intn(5); i++ {
		update()
	}
	return env
}

// randImpliedClause draws a safe clause over the test schema: type
// literals beside stored literals on shared variables, with the odd
// negation and comparison.
func randImpliedClause(r *rand.Rand) (objectlog.Clause, bool) {
	vars := []string{"X", "Y", "Z"}
	obj := func() objectlog.Term {
		if r.Intn(8) == 0 {
			return objectlog.C(types.Obj(types.OID(1 + r.Int63n(8))))
		}
		return objectlog.V(vars[r.Intn(len(vars))])
	}
	var body []objectlog.Literal
	for i, n := 0, 2+r.Intn(4); i < n; i++ {
		var l objectlog.Literal
		switch r.Intn(5) {
		case 0:
			l = objectlog.Lit(tSup, obj())
		case 1:
			l = objectlog.Lit(tSub, obj())
		case 2:
			val := objectlog.V("V")
			if r.Intn(3) == 0 {
				val = objectlog.CInt(r.Int63n(4))
			}
			l = objectlog.Lit("f", obj(), val)
		case 3:
			l = objectlog.Lit("g", obj(), obj())
		default:
			l = objectlog.Lit(objectlog.BuiltinLT, objectlog.V("V"), objectlog.CInt(2))
		}
		l.Negated = r.Intn(6) == 0 && !objectlog.IsBuiltin(l.Pred)
		body = append(body, l)
	}
	head := objectlog.Literal{Pred: "h"}
	for _, v := range vars[:1+r.Intn(2)] {
		head.Args = append(head.Args, objectlog.V(v))
	}
	c := objectlog.Clause{Head: head, Body: body}
	return c, objectlog.CheckSafe(c) == nil
}

// TestImpliedExtentsMatchReference_Quick: on every shape — the clause in
// the new and in the old state, its Δ+/Δ− differentials and counting
// triangles, and random Δ/old markings — the rewritten plan agrees with
// the reference evaluator, and its bag with a plan compiled against a
// program that registers no extents.
func TestImpliedExtentsMatchReference_Quick(t *testing.T) {
	shapes, dropped := 0, 0
	bag := func(env *testEnv, c objectlog.Clause) (map[string]int, error) {
		p, err := New(env).Compile(c)
		if err != nil {
			return nil, err
		}
		out := map[string]int{}
		return out, p.ExecBag(func(t types.Tuple) error { out[t.String()]++; return nil })
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c, ok := randImpliedClause(r)
		if !ok {
			return true // unusable sample
		}
		env := impliedEnv(r, impliedProgram())
		plain := &testEnv{store: env.store, prog: objectlog.NewProgram(), deltas: env.deltas}
		marked := c.Clone()
		for i, l := range marked.Body {
			switch {
			case objectlog.IsBuiltin(l.Pred):
			case r.Intn(3) == 0:
				marked.Body[i] = l.WithDelta(objectlog.DeltaKind(1 + r.Intn(2)))
			case r.Intn(2) == 0:
				marked.Body[i] = l.WithOld()
			}
		}
		for _, sc := range append(diffShapes(t, c), oldClause(c), marked) {
			if objectlog.CheckSafe(sc) != nil {
				continue
			}
			shapes++
			if len(withoutImpliedExtents(env.prog, sc.Body)) < len(sc.Body) {
				dropped++
			}
			want := types.NewSet()
			if err := ReferenceEval(env, sc, want); err != nil {
				t.Logf("reference failed on %s: %v", sc, err)
				return false
			}
			got := types.NewSet()
			if err := New(env).EvalClause(sc, got); err != nil {
				t.Logf("evaluator failed on %s: %v", sc, err)
				return false
			}
			if !got.Equal(want) {
				t.Logf("clause %s:\n  rewritten %s\n  reference %s", sc, got, want)
				return false
			}
			gotBag, err1 := bag(env, sc)
			wantBag, err2 := bag(plain, sc)
			if err1 != nil || err2 != nil {
				t.Logf("bag evaluation of %s: %v, %v", sc, err1, err2)
				return false
			}
			if len(gotBag) != len(wantBag) {
				t.Logf("clause %s: bag %v, without the rewrite %v", sc, gotBag, wantBag)
				return false
			}
			for k, n := range wantBag {
				if gotBag[k] != n {
					t.Logf("clause %s: bag %v, without the rewrite %v", sc, gotBag, wantBag)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1500}); err != nil {
		t.Error(err)
	}
	if shapes < 3000 || dropped < shapes/10 {
		t.Errorf("%d shapes checked, %d with a literal dropped; the generator went vacuous", shapes, dropped)
	}
}
