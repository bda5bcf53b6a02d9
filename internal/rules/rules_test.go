package rules

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"

	"partdiff/internal/objectlog"
	"partdiff/internal/storage"
	"partdiff/internal/txn"
	"partdiff/internal/types"
)

func tup(vs ...int64) types.Tuple {
	t := make(types.Tuple, len(vs))
	for i, v := range vs {
		t[i] = types.Int(v)
	}
	return t
}

// fixture is a minimal inventory: quantity(item,qty), threshold(item,thr).
type fixture struct {
	store *storage.Store
	mgr   *Manager
	txns  *txn.Manager
	fired map[string][]types.Tuple // rule name -> instances
}

func newFixture(t *testing.T, mode Mode) *fixture {
	t.Helper()
	st := storage.NewStore()
	for _, rel := range []string{"quantity", "threshold"} {
		if _, err := st.CreateRelation(rel, 2, []int{0}); err != nil {
			t.Fatal(err)
		}
	}
	f := &fixture{store: st, mgr: NewManager(st, mode), fired: map[string][]types.Tuple{}}
	f.txns = txn.NewManager(st)
	f.txns.SetHooks(f.mgr.OnEvent, f.mgr.CheckPhase, f.mgr.OnEnd)
	return f
}

// lowStockDef is cnd(I) ← quantity(I,Q) ∧ threshold(I,T) ∧ Q < T,
// optionally with a leading parameter column for per-item activation.
func lowStockDef(name string, withParam bool) *objectlog.Def {
	head := objectlog.Lit(name, objectlog.V("I"))
	arity := 1
	if withParam {
		arity = 2
		head = objectlog.Lit(name, objectlog.V("I"), objectlog.V("I"))
	}
	return &objectlog.Def{Name: name, Arity: arity, Clauses: []objectlog.Clause{
		{Head: head, Body: []objectlog.Literal{
			objectlog.Lit("quantity", objectlog.V("I"), objectlog.V("Q")),
			objectlog.Lit("threshold", objectlog.V("I"), objectlog.V("T")),
			objectlog.Lit(objectlog.BuiltinLT, objectlog.V("Q"), objectlog.V("T")),
		}},
	}}
}

func (f *fixture) recorder(rule string) Action {
	return func(inst types.Tuple) error {
		f.fired[rule] = append(f.fired[rule], inst.Clone())
		return nil
	}
}

func (f *fixture) defineLowStock(t *testing.T, name string, strict bool, prio int) {
	t.Helper()
	err := f.mgr.DefineRule(&Rule{
		Name:     name,
		CondDef:  lowStockDef("cond_"+name, false),
		Action:   f.recorder(name),
		Strict:   strict,
		Priority: prio,
	})
	if err != nil {
		t.Fatal(err)
	}
}

func (f *fixture) set(t *testing.T, rel string, key, val int64) {
	t.Helper()
	if _, err := f.store.Set(rel, []types.Value{types.Int(key)}, []types.Value{types.Int(val)}); err != nil {
		t.Fatal(err)
	}
}

func (f *fixture) inTxn(t *testing.T, fn func()) {
	t.Helper()
	if err := f.txns.Begin(); err != nil {
		t.Fatal(err)
	}
	fn()
	if err := f.txns.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestBasicTrigger(t *testing.T) {
	for _, mode := range []Mode{Incremental, Naive, Hybrid} {
		t.Run(mode.String(), func(t *testing.T) {
			f := newFixture(t, mode)
			f.set(t, "quantity", 1, 100)
			f.set(t, "threshold", 1, 60)
			f.defineLowStock(t, "low", true, 0)
			if _, err := f.mgr.Activate("low"); err != nil {
				t.Fatal(err)
			}
			f.inTxn(t, func() { f.set(t, "quantity", 1, 50) })
			if got := f.fired["low"]; len(got) != 1 || !got[0].Equal(tup(1)) {
				t.Errorf("fired=%v", got)
			}
		})
	}
}

func TestNetChangeCancellation(t *testing.T) {
	// Drop below threshold and restore within one transaction: the rule
	// is "no longer triggered" — no action.
	for _, mode := range []Mode{Incremental, Naive} {
		t.Run(mode.String(), func(t *testing.T) {
			f := newFixture(t, mode)
			f.set(t, "quantity", 1, 100)
			f.set(t, "threshold", 1, 60)
			f.defineLowStock(t, "low", true, 0)
			f.mgr.Activate("low")
			f.inTxn(t, func() {
				f.set(t, "quantity", 1, 50)
				f.set(t, "quantity", 1, 100)
			})
			if len(f.fired["low"]) != 0 {
				t.Errorf("fired=%v; no net change expected", f.fired["low"])
			}
		})
	}
}

func TestStrictVsNervousSemantics(t *testing.T) {
	// quantity 50→40, both below threshold 60: strict must not fire
	// (no false→true transition), nervous may.
	run := func(strict bool) []types.Tuple {
		f := newFixture(t, Incremental)
		f.set(t, "quantity", 1, 50)
		f.set(t, "threshold", 1, 60)
		f.defineLowStock(t, "low", strict, 0)
		f.mgr.Activate("low")
		f.inTxn(t, func() { f.set(t, "quantity", 1, 40) })
		return f.fired["low"]
	}
	if got := run(true); len(got) != 0 {
		t.Errorf("strict fired %v on already-true instance", got)
	}
	if got := run(false); len(got) != 1 {
		t.Errorf("nervous should fire on re-derivation, fired %v", got)
	}
}

func TestParameterizedActivation(t *testing.T) {
	f := newFixture(t, Incremental)
	for i := int64(1); i <= 3; i++ {
		f.set(t, "quantity", i, 100)
		f.set(t, "threshold", i, 60)
	}
	err := f.mgr.DefineRule(&Rule{
		Name:      "watch",
		CondDef:   lowStockDef("cond_watch", true),
		NumParams: 1,
		Action:    f.recorder("watch"),
		Strict:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	key, err := f.mgr.Activate("watch", types.Int(2))
	if err != nil {
		t.Fatal(err)
	}
	if key != "watch(2)" {
		t.Errorf("key=%q", key)
	}
	// Drop items 1 and 2; only item 2 is watched.
	f.inTxn(t, func() {
		f.set(t, "quantity", 1, 10)
		f.set(t, "quantity", 2, 10)
	})
	// Instance tuples carry the activation parameters followed by the
	// for-each variables: (param=2, i=2).
	if got := f.fired["watch"]; len(got) != 1 || !got[0].Equal(tup(2, 2)) {
		t.Errorf("fired=%v", got)
	}
}

func TestActivationValidation(t *testing.T) {
	f := newFixture(t, Incremental)
	f.defineLowStock(t, "low", true, 0)
	if _, err := f.mgr.Activate("nosuch"); err == nil {
		t.Error("unknown rule should error")
	}
	if _, err := f.mgr.Activate("low", types.Int(1)); err == nil {
		t.Error("wrong arg count should error")
	}
	if _, err := f.mgr.Activate("low"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.mgr.Activate("low"); err == nil {
		t.Error("duplicate activation should error")
	}
	if err := f.mgr.Deactivate("low"); err != nil {
		t.Fatal(err)
	}
	if err := f.mgr.Deactivate("low"); err == nil {
		t.Error("double deactivation should error")
	}
}

func TestDeactivatedRuleDoesNotFire(t *testing.T) {
	f := newFixture(t, Incremental)
	f.set(t, "quantity", 1, 100)
	f.set(t, "threshold", 1, 60)
	f.defineLowStock(t, "low", true, 0)
	key, _ := f.mgr.Activate("low")
	f.mgr.Deactivate(key)
	f.inTxn(t, func() { f.set(t, "quantity", 1, 50) })
	if len(f.fired["low"]) != 0 {
		t.Errorf("deactivated rule fired: %v", f.fired["low"])
	}
}

func TestConflictResolutionAndTriggerWithdrawal(t *testing.T) {
	// Two rules watch the same condition. The high-priority rule's
	// action refills the stock, which must withdraw the low-priority
	// rule's pending trigger (its condition is no longer true).
	f := newFixture(t, Incremental)
	f.set(t, "quantity", 1, 100)
	f.set(t, "threshold", 1, 60)

	f.mgr.DefineRule(&Rule{
		Name:    "refill",
		CondDef: lowStockDef("cond_refill", false),
		Action: func(inst types.Tuple) error {
			f.fired["refill"] = append(f.fired["refill"], inst.Clone())
			_, err := f.store.Set("quantity", []types.Value{inst[0]}, []types.Value{types.Int(100)})
			return err
		},
		Strict:   true,
		Priority: 10,
	})
	f.defineLowStock(t, "alarm", true, 1)
	f.mgr.Activate("refill")
	f.mgr.Activate("alarm")

	f.inTxn(t, func() { f.set(t, "quantity", 1, 50) })
	if len(f.fired["refill"]) != 1 {
		t.Errorf("refill fired %v", f.fired["refill"])
	}
	if len(f.fired["alarm"]) != 0 {
		t.Errorf("alarm fired %v; its trigger should have been withdrawn", f.fired["alarm"])
	}
	// Sanity: the refill really happened.
	vals, _ := f.store.Get("quantity", []types.Value{types.Int(1)})
	if len(vals) != 1 || !vals[0][0].Equal(types.Int(100)) {
		t.Errorf("quantity after refill: %v", vals)
	}
}

func TestRuleCascade(t *testing.T) {
	// Rule A's action drops item 2's stock, triggering rule B.
	f := newFixture(t, Incremental)
	f.set(t, "quantity", 1, 100)
	f.set(t, "threshold", 1, 60)
	f.set(t, "quantity", 2, 100)
	f.set(t, "threshold", 2, 60)

	f.mgr.DefineRule(&Rule{
		Name:    "a",
		CondDef: lowStockDef("cond_a", false),
		Action: func(inst types.Tuple) error {
			f.fired["a"] = append(f.fired["a"], inst.Clone())
			if inst[0].AsInt() == 1 {
				_, err := f.store.Set("quantity", []types.Value{types.Int(2)}, []types.Value{types.Int(10)})
				return err
			}
			return nil
		},
		Strict:   true,
		Priority: 5,
	})
	f.mgr.Activate("a")
	f.inTxn(t, func() { f.set(t, "quantity", 1, 50) })
	// a fires for item 1, its action triggers a for item 2 in a later
	// round of the same check phase.
	got := f.fired["a"]
	if len(got) != 2 || !got[0].Equal(tup(1)) || !got[1].Equal(tup(2)) {
		t.Errorf("cascade fired %v", got)
	}
}

func TestNonTerminatingCascadeBounded(t *testing.T) {
	f := newFixture(t, Incremental)
	f.set(t, "quantity", 1, 100)
	f.set(t, "threshold", 1, 60)
	// Nervous rule whose action keeps re-deriving its own condition.
	f.mgr.DefineRule(&Rule{
		Name:    "loop",
		CondDef: lowStockDef("cond_loop", false),
		Action: func(inst types.Tuple) error {
			vals, _ := f.store.Get("quantity", []types.Value{inst[0]})
			q := vals[0][0].AsInt()
			_, err := f.store.Set("quantity", []types.Value{inst[0]}, []types.Value{types.Int(q - 1)})
			return err
		},
		Strict: false, // nervous: retriggers on every re-derivation
	})
	f.mgr.Activate("loop")
	f.txns.Begin()
	f.set(t, "quantity", 1, 50)
	if err := f.txns.Commit(); err == nil {
		t.Fatal("non-terminating cascade should be bounded and error")
	} else if !strings.Contains(err.Error(), "rounds") {
		t.Errorf("unexpected error: %v", err)
	}
	// Transaction rolled back: quantity restored.
	vals, _ := f.store.Get("quantity", []types.Value{types.Int(1)})
	if len(vals) != 1 || !vals[0][0].Equal(types.Int(100)) {
		t.Errorf("quantity after rollback: %v", vals)
	}
}

func TestActionErrorRollsBackTransaction(t *testing.T) {
	f := newFixture(t, Incremental)
	f.set(t, "quantity", 1, 100)
	f.set(t, "threshold", 1, 60)
	f.mgr.DefineRule(&Rule{
		Name:    "boom",
		CondDef: lowStockDef("cond_boom", false),
		Action:  func(types.Tuple) error { return fmt.Errorf("action failure") },
		Strict:  true,
	})
	f.mgr.Activate("boom")
	f.txns.Begin()
	f.set(t, "quantity", 1, 50)
	if err := f.txns.Commit(); err == nil {
		t.Fatal("commit should fail")
	}
	vals, _ := f.store.Get("quantity", []types.Value{types.Int(1)})
	if !vals[0][0].Equal(types.Int(100)) {
		t.Errorf("quantity after rollback: %v", vals)
	}
}

func TestRollbackLeavesNoTriggers(t *testing.T) {
	f := newFixture(t, Incremental)
	f.set(t, "quantity", 1, 100)
	f.set(t, "threshold", 1, 60)
	f.defineLowStock(t, "low", true, 0)
	f.mgr.Activate("low")
	f.txns.Begin()
	f.set(t, "quantity", 1, 50)
	f.txns.Rollback()
	// Next, an empty transaction commits: nothing may fire.
	f.inTxn(t, func() {})
	if len(f.fired["low"]) != 0 {
		t.Errorf("fired after rollback: %v", f.fired["low"])
	}
}

func TestIncrementalAndNaiveAgree(t *testing.T) {
	// Randomized-ish scenario executed under both monitors must produce
	// identical trigger sequences.
	scenario := func(f *fixture, t *testing.T) {
		for i := int64(1); i <= 5; i++ {
			f.set(t, "quantity", i, 100)
			f.set(t, "threshold", i, 60)
		}
		f.defineLowStock(t, "low", true, 0)
		f.mgr.Activate("low")
		f.inTxn(t, func() {
			f.set(t, "quantity", 2, 10)
			f.set(t, "quantity", 3, 55)
			f.set(t, "quantity", 3, 80) // net: unchanged truth for 3
			f.set(t, "threshold", 4, 200)
		})
		f.inTxn(t, func() {
			f.set(t, "quantity", 2, 15) // still low: strict → no refire
			f.set(t, "threshold", 4, 60)
			f.set(t, "quantity", 5, 1)
		})
	}
	fi := newFixture(t, Incremental)
	scenario(fi, t)
	fn := newFixture(t, Naive)
	scenario(fn, t)
	got := fmt.Sprint(fi.fired["low"])
	want := fmt.Sprint(fn.fired["low"])
	if got != want {
		t.Errorf("incremental fired %s, naive fired %s", got, want)
	}
	// And the incremental monitor must have done no naive recomputation.
	if fi.mgr.Stats().NaiveRecomputations != 0 || fi.mgr.Stats().Propagations == 0 {
		t.Errorf("incremental stats: %+v", fi.mgr.Stats())
	}
	if fn.mgr.Stats().NaiveRecomputations == 0 || fn.mgr.Stats().DifferentialsExecuted != 0 {
		t.Errorf("naive stats: %+v", fn.mgr.Stats())
	}
}

func TestHybridSwitchesRegimes(t *testing.T) {
	f := newFixture(t, Hybrid)
	// Fully updating k of a view's relations predicts differencing at k
	// times a recomputation; the switch needs more than 1.5, so the
	// condition reads three relations: low stock with a reserve on hand.
	if _, err := f.store.CreateRelation("reserve", 2, []int{0}); err != nil {
		t.Fatal(err)
	}
	const items = 100
	for i := int64(1); i <= items; i++ {
		f.set(t, "quantity", i, 100)
		f.set(t, "threshold", i, 60)
		f.set(t, "reserve", i, 10)
	}
	err := f.mgr.DefineRule(&Rule{
		Name: "low", Strict: true, Action: f.recorder("low"),
		CondDef: &objectlog.Def{Name: "cond_low", Arity: 1, Clauses: []objectlog.Clause{
			{Head: objectlog.Lit("cond_low", objectlog.V("I")), Body: []objectlog.Literal{
				objectlog.Lit("quantity", objectlog.V("I"), objectlog.V("Q")),
				objectlog.Lit("threshold", objectlog.V("I"), objectlog.V("T")),
				objectlog.Lit("reserve", objectlog.V("I"), objectlog.V("R")),
				objectlog.Lit(objectlog.BuiltinLT, objectlog.V("Q"), objectlog.V("T")),
				objectlog.Lit(objectlog.BuiltinLT, objectlog.V("R"), objectlog.V("T")),
			}},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	f.mgr.Activate("low")

	// Small transaction → incremental path.
	f.inTxn(t, func() { f.set(t, "quantity", 1, 50) })
	st := f.mgr.Stats()
	if st.Propagations != 1 || st.NaiveRecomputations != 0 {
		t.Errorf("small txn stats: %+v", st)
	}
	// Massive transactions (every tuple of all three relations) → naive
	// path, once the prediction has held for two waves in a row.
	massive := func(q, thr, res int64) {
		f.inTxn(t, func() {
			for i := int64(1); i <= items; i++ {
				f.set(t, "quantity", i, q)
				f.set(t, "threshold", i, thr)
				f.set(t, "reserve", i, res)
			}
		})
	}
	massive(90, 61, 11)
	massive(91, 62, 12)
	if st = f.mgr.Stats(); st.NaiveRecomputations != 1 {
		t.Errorf("second massive txn should use the naive path: %+v", st)
	}
	massive(40, 63, 13)
	if st = f.mgr.Stats(); st.NaiveRecomputations != 2 {
		t.Errorf("third massive txn should use the naive path: %+v", st)
	}
	// Item 1 fired in the small transaction, went back above its threshold,
	// and drops below it again with everyone else (strict semantics).
	if got := len(f.fired["low"]); got != 1+items {
		t.Errorf("fired %d instances, want %d", got, 1+items)
	}
	// And the small transaction after it is differentiated again.
	f.inTxn(t, func() { f.set(t, "quantity", 2, 45) })
	if st = f.mgr.Stats(); st.NaiveRecomputations != 2 {
		t.Errorf("small txn after the massive ones was recomputed: %+v", st)
	}
}

func TestExplanations(t *testing.T) {
	f := newFixture(t, Incremental)
	f.set(t, "quantity", 1, 100)
	f.set(t, "threshold", 1, 60)
	f.defineLowStock(t, "low", true, 0)
	f.mgr.Activate("low")
	f.inTxn(t, func() { f.set(t, "quantity", 1, 50) })
	ex := f.mgr.LastExplanations()
	if len(ex) != 1 {
		t.Fatalf("explanations=%+v", ex)
	}
	e := ex[0]
	if e.Rule != "low" || len(e.Instances) != 1 || !e.Instances[0].Equal(tup(1)) {
		t.Errorf("explanation=%+v", e)
	}
	// The quantity differential must appear as the cause.
	found := false
	for _, te := range e.Entries {
		if te.Influent == "quantity" && te.TriggerSign == objectlog.DeltaPlus {
			found = true
		}
	}
	if !found {
		t.Errorf("explanation entries=%+v", e.Entries)
	}
}

func TestNoOverheadWithoutActivations(t *testing.T) {
	f := newFixture(t, Incremental)
	f.defineLowStock(t, "low", true, 0) // defined but never activated
	f.inTxn(t, func() { f.set(t, "quantity", 1, 50) })
	st := f.mgr.Stats()
	if st.Propagations != 0 || st.CheckRounds != 0 {
		t.Errorf("stats=%+v; unactivated rules must cost nothing", st)
	}
}

func TestDefineRuleValidation(t *testing.T) {
	f := newFixture(t, Incremental)
	bad := []*Rule{
		{Name: "", CondDef: lowStockDef("c", false), Action: f.recorder("x")},
		{Name: "x", CondDef: nil, Action: f.recorder("x")},
		{Name: "x", CondDef: lowStockDef("c", false), Action: nil},
		{Name: "x", CondDef: lowStockDef("c", false), NumParams: 5, Action: f.recorder("x")},
	}
	for i, r := range bad {
		if err := f.mgr.DefineRule(r); err == nil {
			t.Errorf("bad rule %d accepted", i)
		}
	}
	f.defineLowStock(t, "ok", true, 0)
	if err := f.mgr.DefineRule(&Rule{Name: "ok", CondDef: lowStockDef("c2", false), Action: f.recorder("ok")}); err == nil {
		t.Error("duplicate rule name accepted")
	}
}

func TestNodeSharingAcrossActivations(t *testing.T) {
	// Two rules share the "low" view through ShareView; the network
	// contains a single shared node (§7.1).
	f := newFixture(t, Incremental)
	f.set(t, "quantity", 1, 100)
	f.set(t, "threshold", 1, 60)
	shared := lowStockDef("lowview", false)
	if err := f.mgr.ShareView(shared); err != nil {
		t.Fatal(err)
	}
	if err := f.mgr.ShareView(shared); err == nil {
		t.Error("duplicate ShareView should error")
	}
	mkRule := func(name string) *Rule {
		return &Rule{
			Name: name,
			CondDef: &objectlog.Def{Name: "cond_" + name, Arity: 1, Clauses: []objectlog.Clause{
				objectlog.NewClause(objectlog.Lit("cond_"+name, objectlog.V("I")),
					objectlog.Lit("lowview", objectlog.V("I"))),
			}},
			Action: f.recorder(name),
			Strict: true,
		}
	}
	f.mgr.DefineRule(mkRule("r1"))
	f.mgr.DefineRule(mkRule("r2"))
	f.mgr.Activate("r1")
	f.mgr.Activate("r2")

	net := f.mgr.Network()
	nd, ok := net.Node("lowview")
	if !ok || nd.Base || nd.Level != 1 {
		t.Fatalf("shared node: ok=%v node=%+v", ok, nd)
	}
	f.inTxn(t, func() { f.set(t, "quantity", 1, 50) })
	if len(f.fired["r1"]) != 1 || len(f.fired["r2"]) != 1 {
		t.Errorf("shared-view rules fired r1=%v r2=%v", f.fired["r1"], f.fired["r2"])
	}
}

func TestStatsAndReset(t *testing.T) {
	f := newFixture(t, Incremental)
	f.set(t, "quantity", 1, 100)
	f.set(t, "threshold", 1, 60)
	f.defineLowStock(t, "low", true, 0)
	f.mgr.Activate("low")
	f.inTxn(t, func() { f.set(t, "quantity", 1, 50) })
	st := f.mgr.Stats()
	if st.TriggeredInstances != 1 || st.ActionsExecuted != 1 || st.DifferentialsExecuted == 0 {
		t.Errorf("stats=%+v", st)
	}
	f.mgr.ResetStats()
	if f.mgr.Stats() != (Stats{}) {
		t.Error("ResetStats")
	}
	var acc Stats
	acc.Add(st)
	acc.Add(st)
	if acc.ActionsExecuted != 2*st.ActionsExecuted {
		t.Error("Stats.Add")
	}
}

func TestActivationsListingAndModeString(t *testing.T) {
	f := newFixture(t, Incremental)
	f.defineLowStock(t, "b", true, 0)
	f.defineLowStock(t, "a", true, 0)
	f.mgr.Activate("b")
	f.mgr.Activate("a")
	acts := f.mgr.Activations()
	if len(acts) != 2 || acts[0] != "a" || acts[1] != "b" {
		t.Errorf("Activations=%v", acts)
	}
	if Incremental.String() != "incremental" || Naive.String() != "naive" || Hybrid.String() != "hybrid" {
		t.Error("mode strings")
	}
	if _, ok := f.mgr.Rule("a"); !ok {
		t.Error("Rule lookup")
	}
}

func TestMidTransactionActivationMigratesDeltas(t *testing.T) {
	// Updates happen, then a new rule is activated in the same
	// transaction: the network is rebuilt and the accumulated Δ-sets
	// must survive so the commit still sees the earlier changes.
	f := newFixture(t, Incremental)
	f.set(t, "quantity", 1, 100)
	f.set(t, "threshold", 1, 60)
	f.defineLowStock(t, "early", true, 0)
	f.defineLowStock(t, "late", true, 0)
	f.mgr.Activate("early")
	f.txns.Begin()
	f.set(t, "quantity", 1, 50)
	if _, err := f.mgr.Activate("late"); err != nil {
		t.Fatal(err)
	}
	if err := f.txns.Commit(); err != nil {
		t.Fatal(err)
	}
	if len(f.fired["early"]) != 1 {
		t.Errorf("early fired %v; deltas lost in network rebuild", f.fired["early"])
	}
}

// TestStatsConcurrentReads: Stats() is a compatibility view computed
// from atomic registry counters, so a monitoring goroutine (the \stats
// command, an HTTP scrape) may poll it while transactions commit. Run
// under -race this catches any regression to plain field increments.
func TestStatsConcurrentReads(t *testing.T) {
	f := newFixture(t, Incremental)
	f.set(t, "quantity", 1, 100)
	f.set(t, "threshold", 1, 60)
	f.defineLowStock(t, "low", false, 0)
	f.mgr.Activate("low")

	done := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				_ = f.mgr.Stats()
				_ = f.mgr.Observability().Registry.WritePrometheus(io.Discard)
			}
		}()
	}
	for i := 0; i < 50; i++ {
		q := int64(50 + i%2)
		f.inTxn(t, func() { f.set(t, "quantity", 1, q) })
	}
	close(done)
	wg.Wait()
	if f.mgr.Stats().Propagations == 0 {
		t.Error("expected propagations after 50 transactions")
	}
}
