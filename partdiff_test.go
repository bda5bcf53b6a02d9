package partdiff

import (
	"strings"
	"testing"
)

func TestFacadeQuickstart(t *testing.T) {
	db := Open()
	var orders []string
	db.RegisterProcedure("order", func(args []Value) error {
		orders = append(orders, args[0].String()+"/"+args[1].String())
		return nil
	})
	db.MustExec(`
create type item;
create function quantity(item) -> integer;
create function max_stock(item) -> integer;
create function reorder_level(item) -> integer;
create rule refill() as
    when for each item i where quantity(i) < reorder_level(i)
    do order(i, max_stock(i) - quantity(i));
create item instances :widget;
set quantity(:widget) = 100;
set max_stock(:widget) = 100;
set reorder_level(:widget) = 20;
activate refill();
set quantity(:widget) = 15;
`)
	if len(orders) != 1 || orders[0] != "#1/85" {
		t.Errorf("orders=%v", orders)
	}
	// Explanations identify the influent.
	ex := db.Explanations()
	if len(ex) != 1 || ex[0].Rule != "refill" {
		t.Fatalf("explanations=%+v", ex)
	}
	// Stats reflect incremental monitoring.
	if db.Stats().DifferentialsExecuted == 0 {
		t.Error("no differentials executed?")
	}
	db.ResetStats()
	if db.Stats() != (Stats{}) {
		t.Error("ResetStats")
	}
}

func TestFacadeTransactions(t *testing.T) {
	db := Open(WithMode(Naive))
	db.MustExec(`create type t; create function f(t) -> integer; create t instances :x;`)
	if err := db.Begin(); err != nil {
		t.Fatal(err)
	}
	db.MustExec(`set f(:x) = 1;`)
	if err := db.Rollback(); err != nil {
		t.Fatal(err)
	}
	r, err := db.Query(`select f(:x);`)
	if err != nil || len(r.Tuples) != 0 {
		t.Errorf("after rollback: %v %v", r, err)
	}
	db.Begin()
	db.MustExec(`set f(:x) = 2;`)
	db.Commit()
	r, _ = db.Query(`select f(:x);`)
	if len(r.Tuples) != 1 || !r.Tuples[0][0].Equal(Int(2)) {
		t.Errorf("after commit: %v", r)
	}
}

func TestFacadeVarsAndOutput(t *testing.T) {
	db := Open()
	db.MustExec(`create type t; create t instances :a;`)
	v, ok := db.Var("a")
	if !ok || v.Kind.String() != "object" {
		t.Errorf("Var: %v %v", v, ok)
	}
	db.SetVar("n", Int(5))
	db.MustExec(`create function g(t) -> integer; set g(:a) = :n;`)
	r, _ := db.Query(`select g(:a);`)
	if !r.Tuples[0][0].Equal(Int(5)) {
		t.Errorf("g=%v", r)
	}
	var buf strings.Builder
	db.SetOutput(&buf)
	db.RegisterFunction("triple", []string{"integer"}, "integer",
		func(args []Value) ([][]Value, error) {
			return [][]Value{{Int(args[0].AsInt() * 3)}}, nil
		})
	db.MustExec(`set g(:a) = triple(3);`)
	r, _ = db.Query(`select g(:a);`)
	if !r.Tuples[0][0].Equal(Int(9)) {
		t.Errorf("foreign function: %v", r)
	}
	if db.Session() == nil {
		t.Error("Session accessor")
	}
}

func TestWithoutDeletionMonitoring(t *testing.T) {
	db := Open(WithoutDeletionMonitoring())
	fired := 0
	db.RegisterProcedure("hit", func([]Value) error { fired++; return nil })
	db.MustExec(`
create type t;
create function f(t) -> integer;
create rule r() as when for each t x where f(x) > 10 do hit(x);
create t instances :a;
set f(:a) = 1;
activate r();
set f(:a) = 11;
`)
	if fired != 1 {
		t.Errorf("fired=%d", fired)
	}
	// Only the positive differential executed per update.
	if n := db.Stats().DifferentialsExecuted; n != 1 {
		t.Errorf("differentials=%d, want 1 (insertion monitoring only)", n)
	}
}

func TestFacadeModes(t *testing.T) {
	for _, m := range []Mode{Incremental, Naive, Hybrid} {
		db := Open(WithMode(m))
		fired := 0
		db.RegisterProcedure("hit", func([]Value) error { fired++; return nil })
		db.MustExec(`
create type t;
create function f(t) -> integer;
create rule r() as when for each t x where f(x) > 10 do hit(x);
create t instances :a;
set f(:a) = 1;
activate r();
set f(:a) = 11;
`)
		if fired != 1 {
			t.Errorf("mode %s: fired %d", m, fired)
		}
	}
}

// Open honours WithProcedure and WithForeignFunc as OpenDir does: the
// rule's action dispatches through the option's procedure, and a set
// expression calls the option's function.
func TestOpenRegistersOptionCallbacks(t *testing.T) {
	var ordered []Value
	db := Open(
		WithProcedure("order", func(args []Value) error {
			ordered = append(ordered, args[0])
			return nil
		}),
		WithForeignFunc("twice", []string{"integer"}, "integer", func(args []Value) ([][]Value, error) {
			return [][]Value{{Int(2 * args[0].I)}}, nil
		}),
	)
	db.MustExec(`
create type item;
create function quantity(item) -> integer;
create rule low() as when for each item i where quantity(i) < 10 do order(i);
create item instances :a;
set quantity(:a) = 100;
activate low();
set quantity(:a) = twice(2);`)
	a, _ := db.Var("a")
	if len(ordered) != 1 || ordered[0] != a {
		t.Errorf("order fired for %v, want [%v]", ordered, a)
	}
	r, err := db.Query(`select quantity(:a);`)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Tuples[0][0].I; got != 4 {
		t.Errorf("quantity(:a) = %d, want twice(2) = 4", got)
	}
}

// An option's callback the catalog rejects is a programming error: Open
// panics with the registration error.
func TestOpenPanicsOnRejectedOptionCallback(t *testing.T) {
	defer func() {
		r := recover()
		err, _ := r.(error)
		if err == nil || !strings.Contains(err.Error(), "unknown type") {
			t.Errorf("recovered %v, want the registration error", r)
		}
	}()
	Open(WithForeignFunc("f", []string{"item"}, "integer", func([]Value) ([][]Value, error) { return nil, nil }))
	t.Error("Open returned")
}
