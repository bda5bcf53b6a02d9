package amosql

import (
	"fmt"
	"strings"
	"testing"

	"partdiff/internal/rules"
	"partdiff/internal/types"
)

// paperSchema is the complete schema of §3.1, verbatim from the paper.
const paperSchema = `
create type item;
create type supplier;
create function quantity(item) -> integer;
create function max_stock(item) -> integer;
create function min_stock(item) -> integer;
create function consume_freq(item) -> integer;
create function supplies(supplier) -> item;
create function delivery_time(item i, supplier s) -> integer;
create function threshold(item i) -> integer
    as
    select consume_freq(i) *
        delivery_time(i, s) + min_stock(i)
    for each supplier s where supplies(s) = i;
`

// paperPopulation populates the database exactly as in §3.1.
const paperPopulation = `
create item instances :item1, :item2;
set max_stock(:item1) = 5000;
set max_stock(:item2) = 7500;
set min_stock(:item1) = 100;
set min_stock(:item2) = 200;
set consume_freq(:item1) = 20;
set consume_freq(:item2) = 30;
create supplier instances :sup1, :sup2;
set supplies(:sup1) = :item1;
set supplies(:sup2) = :item2;
set delivery_time(:item1, :sup1) = 2;
set delivery_time(:item2, :sup2) = 3;
`

const monitorItemsRule = `
create rule monitor_items() as
     when for each item i
     where quantity(i) < threshold(i)
     do order(i, max_stock(i) - quantity(i));
`

// order records placed orders for test inspection.
type orderLog struct {
	orders []string
}

func (o *orderLog) register(s *Session) {
	s.RegisterProcedure("order", func(args []types.Value) error {
		o.orders = append(o.orders, fmt.Sprintf("order(%s, %s)", args[0], args[1]))
		return nil
	})
}

func newPaperSession(t *testing.T, mode rules.Mode) (*Session, *orderLog) {
	t.Helper()
	s := NewSession(mode)
	log := &orderLog{}
	log.register(s)
	if _, err := s.Exec(paperSchema); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec(paperPopulation); err != nil {
		t.Fatal(err)
	}
	return s, log
}

// TestRunningExample_Thresholds checks the §3.1 derived thresholds:
// item1: 20*2+100 = 140, item2: 30*3+200 = 290.
func TestRunningExample_Thresholds(t *testing.T) {
	s, _ := newPaperSession(t, rules.Incremental)
	r, err := s.Query(`select threshold(i) for each item i where i = :item1;`)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Tuples) != 1 || !r.Tuples[0][0].Equal(types.Int(140)) {
		t.Errorf("threshold(item1) = %v, want 140", r.Tuples)
	}
	r, _ = s.Query(`select threshold(i) for each item i where i = :item2;`)
	if len(r.Tuples) != 1 || !r.Tuples[0][0].Equal(types.Int(290)) {
		t.Errorf("threshold(item2) = %v, want 290", r.Tuples)
	}
}

// TestRunningExample_MonitorItems runs the complete paper scenario: the
// rule orders new items when the quantity drops below the threshold.
func TestRunningExample_MonitorItems(t *testing.T) {
	for _, mode := range []rules.Mode{rules.Incremental, rules.Naive, rules.Hybrid} {
		t.Run(mode.String(), func(t *testing.T) {
			s, log := newPaperSession(t, mode)
			s.MustExec(monitorItemsRule)
			s.MustExec(`set quantity(:item1) = 5000;`)
			s.MustExec(`set quantity(:item2) = 7500;`)
			s.MustExec(`activate monitor_items();`)

			// Above threshold: nothing ordered.
			s.MustExec(`set quantity(:item1) = 200;`)
			if len(log.orders) != 0 {
				t.Fatalf("orders=%v", log.orders)
			}
			// Drop below 140: order placed to refill to max_stock.
			s.MustExec(`set quantity(:item1) = 120;`)
			if len(log.orders) != 1 || log.orders[0] != "order(#1, 4880)" {
				t.Fatalf("orders=%v", log.orders)
			}
			// Strict semantics: a further drop while already low does
			// not re-order ("we only want to order an item once when it
			// becomes low in stock").
			s.MustExec(`set quantity(:item1) = 110;`)
			if len(log.orders) != 1 {
				t.Fatalf("re-ordered: %v", log.orders)
			}
			// item2 drops below its own threshold 290.
			s.MustExec(`set quantity(:item2) = 289;`)
			if len(log.orders) != 2 || log.orders[1] != "order(#2, 7211)" {
				t.Fatalf("orders=%v", log.orders)
			}
		})
	}
}

// TestRunningExample_DeferredSemantics: within one transaction, a dip
// below threshold that is restored before commit must not trigger.
func TestRunningExample_DeferredSemantics(t *testing.T) {
	s, log := newPaperSession(t, rules.Incremental)
	s.MustExec(monitorItemsRule)
	s.MustExec(`set quantity(:item1) = 5000;`)
	s.MustExec(`activate monitor_items();`)
	s.MustExec(`
begin;
set quantity(:item1) = 100;
set quantity(:item1) = 5000;
commit;
`)
	if len(log.orders) != 0 {
		t.Errorf("deferred rule fired on transient dip: %v", log.orders)
	}
}

// TestRunningExample_ThresholdChangeTriggersRule: the rule must also
// react to threshold-side influents (min_stock), as the dependency
// network of fig. 1 prescribes.
func TestRunningExample_ThresholdChangeTriggersRule(t *testing.T) {
	s, log := newPaperSession(t, rules.Incremental)
	s.MustExec(monitorItemsRule)
	s.MustExec(`set quantity(:item1) = 150;`) // above threshold 140
	s.MustExec(`activate monitor_items();`)
	// Raising min_stock from 100 to 200 raises the threshold to 240;
	// quantity 150 is now below it.
	s.MustExec(`set min_stock(:item1) = 200;`)
	if len(log.orders) != 1 || log.orders[0] != "order(#1, 4850)" {
		t.Errorf("orders=%v", log.orders)
	}
}

func TestRuleDeactivation(t *testing.T) {
	s, log := newPaperSession(t, rules.Incremental)
	s.MustExec(monitorItemsRule)
	s.MustExec(`set quantity(:item1) = 5000;`)
	s.MustExec(`activate monitor_items();`)
	s.MustExec(`deactivate monitor_items();`)
	s.MustExec(`set quantity(:item1) = 1;`)
	if len(log.orders) != 0 {
		t.Errorf("deactivated rule fired: %v", log.orders)
	}
}

func TestParameterizedRuleActivation(t *testing.T) {
	s, log := newPaperSession(t, rules.Incremental)
	s.MustExec(`
create rule monitor_item(item i) as
    when quantity(i) < threshold(i)
    do order(i, max_stock(i) - quantity(i));
`)
	s.MustExec(`set quantity(:item1) = 5000;`)
	s.MustExec(`set quantity(:item2) = 7500;`)
	s.MustExec(`activate monitor_item(:item1);`)
	// Only item1 is monitored.
	s.MustExec(`set quantity(:item2) = 1;`)
	if len(log.orders) != 0 {
		t.Errorf("unmonitored item triggered: %v", log.orders)
	}
	s.MustExec(`set quantity(:item1) = 100;`)
	if len(log.orders) != 1 || log.orders[0] != "order(#1, 4900)" {
		t.Errorf("orders=%v", log.orders)
	}
}

func TestSelectQueries(t *testing.T) {
	s, _ := newPaperSession(t, rules.Incremental)
	s.MustExec(`set quantity(:item1) = 120; set quantity(:item2) = 300;`)
	r, err := s.Query(`select i, quantity(i) for each item i where quantity(i) < threshold(i);`)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Tuples) != 1 || !r.Tuples[0][1].Equal(types.Int(120)) {
		t.Errorf("tuples=%v", r.Tuples)
	}
	if len(r.Columns) != 2 || r.Columns[0] != "i" {
		t.Errorf("columns=%v", r.Columns)
	}
	// Constant select.
	r, _ = s.Query(`select 1 + 2 * 3;`)
	if len(r.Tuples) != 1 || !r.Tuples[0][0].Equal(types.Int(7)) {
		t.Errorf("arith=%v", r.Tuples)
	}
}

func TestSelectWithDisjunctionAndNegation(t *testing.T) {
	s, _ := newPaperSession(t, rules.Incremental)
	s.MustExec(`create function flagged(item) -> boolean;`)
	s.MustExec(`set quantity(:item1) = 10; set quantity(:item2) = 500;`)
	s.MustExec(`set flagged(:item2) = true;`)
	// Disjunction.
	r, err := s.Query(`select i for each item i where quantity(i) < 50 or quantity(i) > 400;`)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Tuples) != 2 {
		t.Errorf("disjunction tuples=%v", r.Tuples)
	}
	// Negation.
	r, err = s.Query(`select i for each item i where quantity(i) > 0 and not flagged(i);`)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Tuples) != 1 {
		t.Errorf("negation tuples=%v", r.Tuples)
	}
}

func TestRuleWithDisjunctiveCondition(t *testing.T) {
	s, log := newPaperSession(t, rules.Incremental)
	s.MustExec(`
create rule out_of_band() as
    when for each item i
    where quantity(i) < 10 or quantity(i) > 1000
    do order(i, 0);
`)
	s.MustExec(`set quantity(:item1) = 500;`)
	s.MustExec(`set quantity(:item2) = 500;`)
	s.MustExec(`activate out_of_band();`)
	s.MustExec(`set quantity(:item1) = 5;`)    // below band
	s.MustExec(`set quantity(:item2) = 2000;`) // above band
	if len(log.orders) != 2 {
		t.Errorf("orders=%v", log.orders)
	}
}

func TestTransactionsViaLanguage(t *testing.T) {
	s, _ := newPaperSession(t, rules.Incremental)
	s.MustExec(`begin; set quantity(:item1) = 42;`)
	if !s.Txns().InTransaction() {
		t.Fatal("not in transaction")
	}
	s.MustExec(`rollback;`)
	if r, err := s.Query(`select quantity(:item1);`); err != nil || len(r.Tuples) != 0 {
		t.Errorf("quantity should be undefined after rollback: %v %v", r, err)
	}
	s.MustExec(`begin; set quantity(:item1) = 42; commit;`)
	r, err := s.Query(`select quantity(:item1);`)
	if err != nil || !r.Tuples[0][0].Equal(types.Int(42)) {
		t.Errorf("after commit: %v %v", r, err)
	}
}

func TestAddRemoveMultiValued(t *testing.T) {
	s, _ := newPaperSession(t, rules.Incremental)
	// supplies is item-valued per supplier; use add for a second item.
	s.MustExec(`add supplies(:sup1) = :item2;`)
	r, _ := s.Query(`select s for each supplier s where supplies(s) = :item2;`)
	if len(r.Tuples) != 2 {
		t.Errorf("both suppliers should supply item2: %v", r.Tuples)
	}
	s.MustExec(`remove supplies(:sup1) = :item2;`)
	r, _ = s.Query(`select s for each supplier s where supplies(s) = :item2;`)
	if len(r.Tuples) != 1 {
		t.Errorf("after remove: %v", r.Tuples)
	}
}

func TestTypeChecking(t *testing.T) {
	s, _ := newPaperSession(t, rules.Incremental)
	if _, err := s.Exec(`set quantity(:item1) = 'many';`); err == nil {
		t.Error("string into integer function accepted")
	}
	if _, err := s.Exec(`set quantity(:sup1) = 5;`); err == nil {
		t.Error("supplier argument into item parameter accepted")
	}
	if _, err := s.Exec(`set quantity(:item1, :item2) = 5;`); err == nil {
		t.Error("wrong arity accepted")
	}
	if _, err := s.Exec(`set threshold(:item1) = 5;`); err == nil {
		t.Error("updating a derived function accepted")
	}
	if _, err := s.Exec(`set nosuch(:item1) = 5;`); err == nil {
		t.Error("unknown function accepted")
	}
}

func TestSubtypeExtents(t *testing.T) {
	s := NewSession(rules.Incremental)
	s.MustExec(`
create type item;
create type perishable under item;
create function quantity(item) -> integer;
create perishable instances :p1;
create item instances :i1;
set quantity(:p1) = 5;
set quantity(:i1) = 7;
`)
	r, err := s.Query(`select i for each item i;`)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Tuples) != 2 {
		t.Errorf("item extent should include perishables: %v", r.Tuples)
	}
	r, _ = s.Query(`select p for each perishable p;`)
	if len(r.Tuples) != 1 {
		t.Errorf("perishable extent: %v", r.Tuples)
	}
}

func TestRuleOnInstanceCreation(t *testing.T) {
	// Conditions can react to new instances: the type extent is an
	// influent like any base relation.
	s := NewSession(rules.Incremental)
	var seen []string
	s.RegisterProcedure("greet", func(args []types.Value) error {
		seen = append(seen, args[0].String())
		return nil
	})
	s.MustExec(`
create type customer;
create rule welcome() as
    when for each customer c where c = c
    do greet(c);
activate welcome();
create customer instances :c1;
`)
	if len(seen) != 1 {
		t.Errorf("seen=%v", seen)
	}
}

func TestForeignFunctionInProceduralContext(t *testing.T) {
	s, _ := newPaperSession(t, rules.Incremental)
	s.RegisterFunction("double", []string{"integer"}, "integer",
		func(args []types.Value) ([][]types.Value, error) {
			return [][]types.Value{{types.Int(args[0].AsInt() * 2)}}, nil
		})
	s.MustExec(`set quantity(:item1) = double(21);`)
	r, _ := s.Query(`select quantity(:item1);`)
	if !r.Tuples[0][0].Equal(types.Int(42)) {
		t.Errorf("quantity=%v", r.Tuples)
	}
	// Foreign functions are rejected in declarative conditions (§8
	// future work).
	if _, err := s.Exec(`select i for each item i where quantity(i) = double(2);`); err == nil {
		t.Error("foreign function in condition accepted")
	}
}

func TestPrintProcedure(t *testing.T) {
	s, _ := newPaperSession(t, rules.Incremental)
	var buf strings.Builder
	s.Output = &buf
	s.MustExec(`
create rule announce() as
    when for each item i where quantity(i) < 10
    do print('low stock:', i);
activate announce();
set quantity(:item1) = 3;
`)
	if !strings.Contains(buf.String(), "low stock:") {
		t.Errorf("output=%q", buf.String())
	}
}

func TestExplanationSurfacedThroughSession(t *testing.T) {
	s, log := newPaperSession(t, rules.Incremental)
	_ = log
	s.MustExec(monitorItemsRule)
	s.MustExec(`set quantity(:item1) = 5000;`)
	s.MustExec(`activate monitor_items();`)
	s.MustExec(`set quantity(:item1) = 100;`)
	ex := s.Rules().LastExplanations()
	if len(ex) != 1 || ex[0].Rule != "monitor_items" {
		t.Fatalf("explanations=%+v", ex)
	}
	found := false
	for _, e := range ex[0].Entries {
		if e.Influent == "quantity" {
			found = true
		}
	}
	if !found {
		t.Errorf("quantity not identified as trigger cause: %+v", ex[0].Entries)
	}
}

func TestQueryRejectsNonSelect(t *testing.T) {
	s := NewSession(rules.Incremental)
	if _, err := s.Query(`create type t;`); err == nil {
		t.Error("Query should reject non-select")
	}
}

// TestMalformedScriptRunsNothing: the whole script is parsed before its
// first statement executes, so an error in the last statement — a
// syntax error or a lexical one — leaves no trace of the first.
func TestMalformedScriptRunsNothing(t *testing.T) {
	for _, tail := range []string{`frobnicate;`, `set quantity(:a) = 'oops;`} {
		s := NewSession(rules.Incremental)
		if _, err := s.Exec(`create type item; create function quantity(item) -> integer; ` + tail); err == nil {
			t.Fatalf("script ending in %q accepted", tail)
		}
		if _, ok := s.Catalog().Type("item"); ok {
			t.Errorf("script ending in %q ran its first statement", tail)
		}
		if _, err := s.Exec(`create type item;`); err != nil {
			t.Errorf("session unusable after a rejected script: %v", err)
		}
	}
}

func TestUndefinedIfaceVariable(t *testing.T) {
	s := NewSession(rules.Incremental)
	s.MustExec(`create type item; create function quantity(item) -> integer;`)
	if _, err := s.Exec(`set quantity(:ghost) = 5;`); err == nil {
		t.Error("undefined interface variable accepted")
	}
}

func TestIfaceVarAccessors(t *testing.T) {
	s := NewSession(rules.Incremental)
	s.SetIfaceVar("x", types.Int(9))
	v, ok := s.IfaceVar("x")
	if !ok || !v.Equal(types.Int(9)) {
		t.Error("iface accessors")
	}
	if _, ok := s.IfaceVar("y"); ok {
		t.Error("ghost variable found")
	}
}

func TestSharedFunctionNodeSharing(t *testing.T) {
	// Declaring threshold as *shared* produces the bushy network of
	// §7.1 with an intermediate threshold node.
	s := NewSession(rules.Incremental)
	log := &orderLog{}
	log.register(s)
	schema := strings.Replace(paperSchema, "create function threshold", "create shared function threshold", 1)
	s.MustExec(schema)
	s.MustExec(paperPopulation)
	s.MustExec(monitorItemsRule)
	s.MustExec(`set quantity(:item1) = 5000;`)
	s.MustExec(`activate monitor_items();`)

	net := s.Rules().Network()
	nd, ok := net.Node("threshold")
	if !ok || nd.Base {
		t.Fatal("threshold should be an intermediate network node")
	}
	// Behaviour is unchanged.
	s.MustExec(`set quantity(:item1) = 120;`)
	if len(log.orders) != 1 || log.orders[0] != "order(#1, 4880)" {
		t.Errorf("orders=%v", log.orders)
	}
	// And threshold-side changes route through the shared node.
	s.MustExec(`set quantity(:item2) = 7500;`)
	s.MustExec(`set min_stock(:item2) = 7499;`)
	if len(log.orders) != 2 {
		t.Errorf("orders=%v", log.orders)
	}
}
