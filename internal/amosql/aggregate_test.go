package amosql

import (
	"testing"

	"partdiff/internal/rules"
	"partdiff/internal/types"
)

// hrSession builds an employee/department schema with an aggregate
// headcount view.
func hrSession(t *testing.T) *Session {
	t.Helper()
	s := NewSession(rules.Incremental)
	s.MustExec(`
create type department;
create type employee;
create function works_in(employee) -> department;
create function salary(employee) -> integer;
create function headcount(department d) -> integer
    as select count(e) for each employee e where works_in(e) = d;
create function payroll(department d) -> integer
    as select sum(salary(e)) for each employee e where works_in(e) = d;
create department instances :rnd, :sales;
create employee instances :ada, :grace, :alan;
set works_in(:ada) = :rnd;
set works_in(:grace) = :rnd;
set works_in(:alan) = :sales;
set salary(:ada) = 100;
set salary(:grace) = 100;
set salary(:alan) = 300;
`)
	return s
}

func TestAggregateFunctionInQueries(t *testing.T) {
	s := hrSession(t)
	r, err := s.Query(`select headcount(d) for each department d where d = :rnd;`)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Tuples) != 1 || !r.Tuples[0][0].Equal(types.Int(2)) {
		t.Errorf("headcount(rnd)=%v", r.Tuples)
	}
	// Equal salaries must both be summed (witness semantics).
	r, _ = s.Query(`select payroll(d) for each department d where d = :rnd;`)
	if len(r.Tuples) != 1 || !r.Tuples[0][0].Equal(types.Int(200)) {
		t.Errorf("payroll(rnd)=%v", r.Tuples)
	}
	// Procedural call path.
	r, _ = s.Query(`select payroll(:sales);`)
	if len(r.Tuples) != 1 || !r.Tuples[0][0].Equal(types.Int(300)) {
		t.Errorf("payroll(sales)=%v", r.Tuples)
	}
}

func TestAdHocAggregateSelect(t *testing.T) {
	s := hrSession(t)
	r, err := s.Query(`select count(e) for each employee e;`)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Tuples) != 1 || !r.Tuples[0][0].Equal(types.Int(3)) {
		t.Errorf("count=%v", r.Tuples)
	}
	r, err = s.Query(`select sum(salary(e)) for each employee e;`)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Tuples) != 1 || !r.Tuples[0][0].Equal(types.Int(500)) {
		t.Errorf("sum=%v", r.Tuples)
	}
	r, err = s.Query(`select max(salary(e)) for each employee e;`)
	if err != nil || !r.Tuples[0][0].Equal(types.Int(300)) {
		t.Errorf("max=%v err=%v", r, err)
	}
	r, err = s.Query(`select min(salary(e)) for each employee e;`)
	if err != nil || !r.Tuples[0][0].Equal(types.Int(100)) {
		t.Errorf("min=%v err=%v", r, err)
	}
}

// TestRuleOnAggregateCondition monitors an aggregate: the rule fires
// when a department's headcount exceeds its limit. Aggregate views
// become re-evaluation nodes in the propagation network; consumers stay
// incremental.
func TestRuleOnAggregateCondition(t *testing.T) {
	s := hrSession(t)
	var over []string
	s.RegisterProcedure("over_limit", func(args []types.Value) error {
		over = append(over, args[0].String())
		return nil
	})
	s.MustExec(`
create function limit_of(department) -> integer;
set limit_of(:rnd) = 2;
set limit_of(:sales) = 2;
create rule crowding() as
    when for each department d where headcount(d) > limit_of(d)
    do over_limit(d);
activate crowding();
`)
	// The network has a recompute node for headcount.
	net := s.Rules().Network()
	nd, ok := net.Node("headcount")
	if !ok || !nd.Recompute || nd.Base {
		t.Fatalf("headcount node: ok=%v %+v", ok, nd)
	}
	// Hire a third person into rnd: headcount 2 → 3 > 2.
	s.MustExec(`create employee instances :new1; set works_in(:new1) = :rnd;`)
	if len(over) != 1 {
		t.Fatalf("over=%v", over)
	}
	// Strict: hiring a fourth keeps the condition true — no refire.
	s.MustExec(`create employee instances :new2; set works_in(:new2) = :rnd;`)
	if len(over) != 1 {
		t.Errorf("refired: %v", over)
	}
	// Two leave; condition false again. Then one rejoins: 2 → 3 → fire.
	s.MustExec(`remove works_in(:new1) = :rnd; remove works_in(:new2) = :rnd;`)
	s.MustExec(`set works_in(:new1) = :rnd;`)
	if len(over) != 2 {
		t.Errorf("after rejoin: %v", over)
	}
}

// TestRuleOnAggregateDeletion: a deletion-driven aggregate transition
// (sum dropping below a floor) must trigger through the negative side.
func TestRuleOnAggregateDeletion(t *testing.T) {
	s := hrSession(t)
	var alerts []string
	s.RegisterProcedure("underfunded", func(args []types.Value) error {
		alerts = append(alerts, args[0].String())
		return nil
	})
	s.MustExec(`
create rule funding() as
    when for each department d where payroll(d) < 150
    do underfunded(d);
activate funding();
`)
	// Grace leaves rnd: payroll 200 → 100 < 150.
	s.MustExec(`remove works_in(:grace) = :rnd;`)
	if len(alerts) != 1 {
		t.Errorf("alerts=%v", alerts)
	}
}

func TestAggregateNetChangeWithinTransaction(t *testing.T) {
	s := hrSession(t)
	fired := 0
	s.RegisterProcedure("hit", func([]types.Value) error { fired++; return nil })
	s.MustExec(`
create rule big() as
    when for each department d where headcount(d) > 2
    do hit(d);
activate big();
begin;
create employee instances :t1;
set works_in(:t1) = :rnd;
remove works_in(:t1) = :rnd;
commit;
`)
	if fired != 0 {
		t.Errorf("transient aggregate change fired %d times", fired)
	}
}

func TestAggregateCannotBeUpdated(t *testing.T) {
	s := hrSession(t)
	if _, err := s.Exec(`set headcount(:rnd) = 5;`); err == nil {
		t.Error("updating an aggregate function accepted")
	}
}

func TestUserFunctionShadowsAggregateName(t *testing.T) {
	s := NewSession(rules.Incremental)
	s.MustExec(`
create type t;
create function count(t) -> integer;
create t instances :a;
set count(:a) = 7;
`)
	r, err := s.Query(`select count(:a);`)
	if err != nil || !r.Tuples[0][0].Equal(types.Int(7)) {
		t.Errorf("shadowed count: %v %v", r, err)
	}
}

func TestAggregateExplainTrace(t *testing.T) {
	s := hrSession(t)
	s.RegisterProcedure("hit", func([]types.Value) error { return nil })
	s.MustExec(`
create rule big() as
    when for each department d where headcount(d) > 2
    do hit(d);
activate big();
create employee instances :x1;
set works_in(:x1) = :rnd;
`)
	ex := s.Rules().LastExplanations()
	if len(ex) != 1 {
		t.Fatalf("explanations=%+v", ex)
	}
	foundAgg := false
	for _, e := range ex[0].Entries {
		if e.Influent == "headcount" {
			foundAgg = true
		}
	}
	if !foundAgg {
		t.Errorf("headcount not in explanation: %+v", ex[0].Entries)
	}
}

// TestNegatedAggregateComparison: `not (aggfn(x) = v)` compiles to a
// negated call to the aggregate view with the value bound; it must
// compare the folded value, not just find the group.
func TestNegatedAggregateComparison(t *testing.T) {
	s := hrSession(t)
	for _, tc := range []struct {
		v    string
		want int
	}{{"999", 2}, {"200", 1}, {"300", 1}} {
		r, err := s.Query(`select d for each department d where not (payroll(d) = ` + tc.v + `);`)
		if err != nil {
			t.Fatal(err)
		}
		if len(r.Tuples) != tc.want {
			t.Errorf("not (payroll(d) = %s): %v, want %d departments", tc.v, r.Tuples, tc.want)
		}
	}
}
