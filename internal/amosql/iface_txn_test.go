package amosql

import (
	"strings"
	"testing"

	"partdiff/internal/faultinject"
	"partdiff/internal/rules"
	"partdiff/internal/types"
)

// Interface variables are transactional: a rollback rebinds every
// variable the transaction rebound to what it named before, and unbinds
// the ones the transaction bound first.

const ifaceSchema = `
create type item;
create function quantity(item) -> integer;
create item instances :b;
set quantity(:b) = 3;
`

func wantQuantity(t *testing.T, s *Session, want int64) {
	t.Helper()
	r, err := s.Query(`select quantity(:b);`)
	if err != nil {
		t.Fatalf("select quantity(:b): %v", err)
	}
	if len(r.Tuples) != 1 || !r.Tuples[0][0].Equal(types.Int(want)) {
		t.Fatalf("quantity(:b) = %v, want %d", r.Tuples, want)
	}
}

func TestIfaceRollbackInScript(t *testing.T) {
	s := NewSession(rules.Incremental)
	s.MustExec(ifaceSchema)
	before, _ := s.IfaceVar("b")
	s.MustExec(`begin; create item instances :b, :fresh; rollback;`)
	if got, ok := s.IfaceVar("b"); !ok || !got.KeyEqual(before) {
		t.Fatalf(":b = %v (bound %v) after rollback, want %v", got, ok, before)
	}
	if _, ok := s.IfaceVar("fresh"); ok {
		t.Error(":fresh, first bound by the rolled-back transaction, is still bound")
	}
	wantQuantity(t, s, 3)
	// A committed rebinding sticks, and a later rollback does not undo it.
	s.MustExec(`begin; create item instances :b; commit; begin; rollback;`)
	if got, _ := s.IfaceVar("b"); got.KeyEqual(before) {
		t.Error("committed rebinding of :b was undone")
	}
	if err := s.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestIfaceRollbackOfFailedAutocommitStatement(t *testing.T) {
	s := NewSession(rules.Incremental)
	s.MustExec(ifaceSchema)
	before, _ := s.IfaceVar("b")
	// The statement binds :b, then its insert for :c fails: the
	// statement's own transaction rolls back.
	inj := faultinject.New()
	s.SetInjector(inj)
	inj.Arm(faultinject.StoreInsert, 1, faultinject.Error)
	if _, err := s.Exec(`create item instances :b, :c;`); err == nil || !strings.Contains(err.Error(), "injected") {
		t.Fatalf("create = %v, want the injected error", err)
	}
	s.SetInjector(nil)
	if got, ok := s.IfaceVar("b"); !ok || !got.KeyEqual(before) {
		t.Fatalf(":b = %v (bound %v) after the failed statement, want %v", got, ok, before)
	}
	if _, ok := s.IfaceVar("c"); ok {
		t.Error(":c is bound by a statement that failed")
	}
	wantQuantity(t, s, 3)
}

func TestIfaceRollbackThroughBeginRollback(t *testing.T) {
	s := NewSession(rules.Incremental)
	s.MustExec(ifaceSchema)
	before, _ := s.IfaceVar("b")
	if err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	s.MustExec(`create item instances :b; create item instances :b; set quantity(:b) = 7;`)
	if err := s.Rollback(); err != nil {
		t.Fatal(err)
	}
	if got, ok := s.IfaceVar("b"); !ok || !got.KeyEqual(before) {
		t.Fatalf(":b = %v (bound %v) after Rollback, want %v", got, ok, before)
	}
	wantQuantity(t, s, 3)
}

// SetIfaceVar inside a transaction: with a data directory the binding
// is journaled and the rollback undoes it; an in-memory session binds
// outside the transaction (it never asks who holds the writer gate), so
// the binding survives the rollback. Both halves are pinned so that
// aligning them shows up as a deliberate change.
func TestSetIfaceVarRollbackByStorage(t *testing.T) {
	durable := NewSession(rules.Incremental)
	if err := durable.AttachDir(t.TempDir(), DirConfig{}); err != nil {
		t.Fatal(err)
	}
	defer durable.Close()
	for _, tc := range []struct {
		name     string
		s        *Session
		survives bool
	}{
		{"in-memory", NewSession(rules.Incremental), true},
		{"data directory", durable, false},
	} {
		tc.s.MustExec(ifaceSchema)
		before, _ := tc.s.IfaceVar("b")
		if err := tc.s.Begin(); err != nil {
			t.Fatal(err)
		}
		tc.s.SetIfaceVar("b", types.Int(42))
		if err := tc.s.Rollback(); err != nil {
			t.Fatal(err)
		}
		want := before
		if tc.survives {
			want = types.Int(42)
		}
		if got, ok := tc.s.IfaceVar("b"); !ok || !got.KeyEqual(want) {
			t.Errorf("%s: :b = %v (bound %v) after rollback, want %v", tc.name, got, ok, want)
		}
	}
}
