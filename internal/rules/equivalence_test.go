package rules

import (
	"fmt"
	"math/rand"
	"testing"

	"partdiff/internal/objectlog"
	"partdiff/internal/storage"
	"partdiff/internal/txn"
	"partdiff/internal/types"
)

// This file fuzzes the central correctness claim of the reproduction:
// for ANY sequence of transactions, the incremental monitor (partial
// differencing + propagation) triggers exactly the same rule instances,
// in the same order, as the naive monitor (full recomputation + diff
// against a materialized truth set). The hybrid monitor must agree too.

// fuzzDB is one monitored database under a given mode.
type fuzzDB struct {
	store *storage.Store
	mgr   *Manager
	txns  *txn.Manager
	fired []string
}

// fuzzCondition builds a randomized condition definition over the base
// relations a(x,y), b(x,y), c(x). Shapes exercise joins, arithmetic,
// comparisons, negation and disjunction.
func fuzzCondition(r *rand.Rand, name string) *objectlog.Def {
	v := objectlog.V
	shapes := []func() []objectlog.Clause{
		// join with comparison: cnd(X) ← a(X,Y) ∧ b(Y,Z) ∧ X < Z
		func() []objectlog.Clause {
			return []objectlog.Clause{objectlog.NewClause(
				objectlog.Lit(name, v("X")),
				objectlog.Lit("a", v("X"), v("Y")),
				objectlog.Lit("b", v("Y"), v("Z")),
				objectlog.Lit(objectlog.BuiltinLT, v("X"), v("Z")))}
		},
		// negation: cnd(X) ← a(X,Y) ∧ ¬c(Y)
		func() []objectlog.Clause {
			return []objectlog.Clause{objectlog.NewClause(
				objectlog.Lit(name, v("X")),
				objectlog.Lit("a", v("X"), v("Y")),
				objectlog.NotLit("c", v("Y")))}
		},
		// arithmetic: cnd(X) ← a(X,Y) ∧ T = Y * 2 ∧ b(X,T)
		func() []objectlog.Clause {
			return []objectlog.Clause{objectlog.NewClause(
				objectlog.Lit(name, v("X")),
				objectlog.Lit("a", v("X"), v("Y")),
				objectlog.Lit(objectlog.BuiltinTimes, v("Y"), objectlog.CInt(2), v("T")),
				objectlog.Lit("b", v("X"), v("T")))}
		},
		// disjunction: cnd(X) ← a(X,Y) ∧ Y > 5  |  cnd(X) ← c(X)
		func() []objectlog.Clause {
			return []objectlog.Clause{
				objectlog.NewClause(
					objectlog.Lit(name, v("X")),
					objectlog.Lit("a", v("X"), v("Y")),
					objectlog.Lit(objectlog.BuiltinGT, v("Y"), objectlog.CInt(5))),
				objectlog.NewClause(
					objectlog.Lit(name, v("X")),
					objectlog.Lit("c", v("X"))),
			}
		},
		// self-join: cnd(X) ← a(X,Y) ∧ a(Y,Z)
		func() []objectlog.Clause {
			return []objectlog.Clause{objectlog.NewClause(
				objectlog.Lit(name, v("X")),
				objectlog.Lit("a", v("X"), v("Y")),
				objectlog.Lit("a", v("Y"), v("Z")))}
		},
		// projection-style: cnd(X) ← b(X,Y)  (spurious-deletion hazard)
		func() []objectlog.Clause {
			return []objectlog.Clause{objectlog.NewClause(
				objectlog.Lit(name, v("X")),
				objectlog.Lit("b", v("X"), v("Y")))}
		},
	}
	return &objectlog.Def{Name: name, Arity: 1,
		Clauses: shapes[r.Intn(len(shapes))]()}
}

func newFuzzDB(t *testing.T, mode Mode, strict bool, condSeed int64) *fuzzDB {
	t.Helper()
	st := storage.NewStore()
	st.CreateRelation("a", 2, nil)
	st.CreateRelation("b", 2, nil)
	st.CreateRelation("c", 1, nil)
	f := &fuzzDB{store: st, mgr: NewManager(st, mode)}
	f.txns = txn.NewManager(st)
	f.txns.SetHooks(f.mgr.OnEvent, f.mgr.CheckPhase, f.mgr.OnEnd)

	r := rand.New(rand.NewSource(condSeed))
	for i := 0; i < 2; i++ {
		name := fmt.Sprintf("r%d", i)
		rule := &Rule{
			Name:    name,
			CondDef: fuzzCondition(r, "cnd_"+name),
			Strict:  strict,
			Action: func(name string) Action {
				return func(inst types.Tuple) error {
					f.fired = append(f.fired, name+inst.String())
					return nil
				}
			}(name),
			Priority: i,
		}
		if err := f.mgr.DefineRule(rule); err != nil {
			t.Fatal(err)
		}
		if _, err := f.mgr.Activate(name); err != nil {
			t.Fatal(err)
		}
	}
	return f
}

// playScript drives a random update script, identical across monitors.
func (f *fuzzDB) playScript(t *testing.T, seed int64) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	for txnNo := 0; txnNo < 12; txnNo++ {
		if err := f.txns.Begin(); err != nil {
			t.Fatal(err)
		}
		nOps := 1 + r.Intn(6)
		for op := 0; op < nOps; op++ {
			x, y := int64(r.Intn(7)), int64(r.Intn(7))
			var tp types.Tuple
			var rel string
			switch r.Intn(3) {
			case 0:
				rel, tp = "a", types.Tuple{types.Int(x), types.Int(y)}
			case 1:
				rel, tp = "b", types.Tuple{types.Int(x), types.Int(y)}
			default:
				rel, tp = "c", types.Tuple{types.Int(x)}
			}
			if r.Intn(2) == 0 {
				f.store.Insert(rel, tp)
			} else {
				f.store.Delete(rel, tp)
			}
		}
		if r.Intn(8) == 0 {
			if err := f.txns.Rollback(); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if err := f.txns.Commit(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestMonitorEquivalence_Fuzz: incremental, naive and hybrid monitors
// must fire identical instance sequences on identical scripts, for many
// random conditions and scripts, under both strict and nervous-free
// (strict only — nervous may legitimately over-fire incrementally)
// semantics.
func TestMonitorEquivalence_Fuzz(t *testing.T) {
	if testing.Short() {
		t.Skip("fuzz skipped in -short")
	}
	for condSeed := int64(0); condSeed < 12; condSeed++ {
		for scriptSeed := int64(100); scriptSeed < 106; scriptSeed++ {
			runs := map[Mode][]string{}
			for _, mode := range []Mode{Incremental, Naive, Hybrid} {
				f := newFuzzDB(t, mode, true, condSeed)
				f.playScript(t, scriptSeed)
				runs[mode] = f.fired
			}
			inc, nai, hyb := fmt.Sprint(runs[Incremental]), fmt.Sprint(runs[Naive]), fmt.Sprint(runs[Hybrid])
			if inc != nai {
				t.Fatalf("cond=%d script=%d:\nincremental fired %s\nnaive fired       %s",
					condSeed, scriptSeed, inc, nai)
			}
			if hyb != nai {
				t.Fatalf("cond=%d script=%d:\nhybrid fired %s\nnaive fired  %s",
					condSeed, scriptSeed, hyb, nai)
			}
		}
	}
}

// TestMonitorEquivalence_FinalStateAgrees additionally cross-checks
// that after every script the *condition extents* computed by each
// monitor's evaluator agree (the monitors share no state).
func TestMonitorEquivalence_FinalStateAgrees(t *testing.T) {
	for condSeed := int64(20); condSeed < 26; condSeed++ {
		var extents []string
		for _, mode := range []Mode{Incremental, Naive} {
			f := newFuzzDB(t, mode, true, condSeed)
			f.playScript(t, condSeed*7+1)
			var s string
			for _, a := range f.mgr.sortedActivations() {
				ext, err := f.mgr.Network().Evaluator().EvalPred(a.CondName, false)
				if err != nil {
					t.Fatal(err)
				}
				s += a.Rule.Name + "=" + ext.String() + ";"
			}
			extents = append(extents, s)
		}
		if extents[0] != extents[1] {
			t.Errorf("cond=%d final extents differ:\n%s\n%s", condSeed, extents[0], extents[1])
		}
	}
}
