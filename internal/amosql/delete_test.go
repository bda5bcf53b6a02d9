package amosql

import (
	"strings"
	"testing"

	"partdiff/internal/rules"
	"partdiff/internal/types"
)

func TestParseDelete(t *testing.T) {
	s := mustParseOne(t, `delete :a, :b;`).(DeleteInstances)
	if len(s.Vars) != 2 || s.Vars[0] != "a" || s.Vars[1] != "b" {
		t.Errorf("%+v", s)
	}
	if _, err := ParseOne(`delete foo;`); err == nil {
		t.Error("delete of non-interface-variable accepted")
	}
}

func TestDeleteInstanceRemovesFootprint(t *testing.T) {
	s := NewSession(rules.Incremental)
	s.MustExec(`
create type item;
create function quantity(item) -> integer;
create function pairs(item a, item b) -> integer;
create item instances :x, :y;
set quantity(:x) = 10;
set quantity(:y) = 20;
set pairs(:x, :y) = 1;
delete :x;
`)
	// x's footprint is gone everywhere, including multi-column refs.
	r, _ := s.Query(`select i for each item i;`)
	if len(r.Tuples) != 1 {
		t.Errorf("extent=%v", r.Tuples)
	}
	r, _ = s.Query(`select quantity(i) for each item i;`)
	if len(r.Tuples) != 1 || !r.Tuples[0][0].Equal(types.Int(20)) {
		t.Errorf("quantities=%v", r.Tuples)
	}
	rel, _ := s.Store().Relation("pairs")
	if rel.Len() != 0 {
		t.Errorf("pairs=%s", rel.Rows())
	}
	// The interface variable is unbound and the object is gone.
	if _, ok := s.IfaceVar("x"); ok {
		t.Error(":x still bound")
	}
	if _, err := s.Exec(`delete :x;`); err == nil {
		t.Error("double delete accepted")
	}
	if _, err := s.Exec(`delete :never;`); err == nil {
		t.Error("unknown variable accepted")
	}
}

func TestDeleteTriggersRules(t *testing.T) {
	// Deleting an object retracts its tuples: a rule with negation over
	// the extent reacts to the disappearance.
	s := NewSession(rules.Incremental)
	var gone []string
	s.RegisterProcedure("mourn", func(args []types.Value) error {
		gone = append(gone, args[0].String())
		return nil
	})
	s.MustExec(`
create type pet;
create type owner;
create function owns(owner) -> pet;
create rule petless() as
    when for each owner o, pet p where owns(o) = p
    do mourn(o);
`)
	// Inverted scenario: rule fires when ownership appears — deletion
	// should NOT fire it but must withdraw cleanly.
	s.MustExec(`
create owner instances :ann;
create pet instances :rex;
activate petless();
set owns(:ann) = :rex;
`)
	if len(gone) != 1 {
		t.Fatalf("fired=%v", gone)
	}
	// Deleting rex retracts owns(ann)=rex; strict rule sees a deletion
	// only — no new firing, no error.
	s.MustExec(`delete :rex;`)
	if len(gone) != 1 {
		t.Errorf("deletion fired: %v", gone)
	}
	r, _ := s.Query(`select p for each pet p;`)
	if len(r.Tuples) != 0 {
		t.Errorf("pet extent=%v", r.Tuples)
	}
}

func TestDeleteRolledBackRestoresObject(t *testing.T) {
	s := NewSession(rules.Incremental)
	s.MustExec(`
create type item;
create function quantity(item) -> integer;
create item instances :x;
set quantity(:x) = 5;
begin;
delete :x;
rollback;
`)
	// The footprint is restored and the object is still alive.
	r, _ := s.Query(`select quantity(:x);`)
	if len(r.Tuples) != 1 || !r.Tuples[0][0].Equal(types.Int(5)) {
		t.Errorf("after rollback: %v", r.Tuples)
	}
	if _, ok := s.IfaceVar("x"); !ok {
		t.Error(":x unbound after rollback")
	}
	// And a committed delete really destroys it.
	s.MustExec(`begin; delete :x; commit;`)
	r, _ = s.Query(`select i for each item i;`)
	if len(r.Tuples) != 0 {
		t.Errorf("after committed delete: %v", r.Tuples)
	}
}

func TestMultipleInheritanceExtents(t *testing.T) {
	s := NewSession(rules.Incremental)
	s.MustExec(`
create type car;
create type boat;
create type amphibious under car, boat;
create amphibious instances :duck;
create car instances :sedan;
`)
	r, _ := s.Query(`select c for each car c;`)
	if len(r.Tuples) != 2 {
		t.Errorf("car extent=%v", r.Tuples)
	}
	r, _ = s.Query(`select b for each boat b;`)
	if len(r.Tuples) != 1 {
		t.Errorf("boat extent=%v", r.Tuples)
	}
	// Deleting the amphibious instance removes it from both extents.
	s.MustExec(`delete :duck;`)
	r, _ = s.Query(`select b for each boat b;`)
	if len(r.Tuples) != 0 {
		t.Errorf("boat extent after delete=%v", r.Tuples)
	}
	r, _ = s.Query(`select c for each car c;`)
	if len(r.Tuples) != 1 {
		t.Errorf("car extent after delete=%v", r.Tuples)
	}
}

func TestDiamondInheritance(t *testing.T) {
	s := NewSession(rules.Incremental)
	s.MustExec(`
create type vehicle;
create type car under vehicle;
create type boat under vehicle;
create type amphibious under car, boat;
create amphibious instances :duck;
`)
	// The diamond root gets the instance exactly once.
	rel, _ := s.Store().Relation("type:vehicle")
	if rel.Len() != 1 {
		t.Errorf("vehicle extent has %d entries", rel.Len())
	}
}

// TestNoReferenceToADeadObject: a set or add may not make a stored
// function refer to an object outside its type's extent — one deleted
// earlier in the running transaction (the catalog forgets it only at
// commit) or one whose creation was rolled back. Compiled plans drop
// the type literals such references would break, so a dangling tuple
// would surface in query results.
func TestNoReferenceToADeadObject(t *testing.T) {
	s := NewSession(rules.Incremental)
	s.MustExec(`
create type item;
create function quantity(item) -> integer;
create function next(item) -> item;
create item instances :a, :b;
set quantity(:a) = 1;
`)
	s.MustExec(`begin; delete :a;`)
	for _, stmt := range []string{`set quantity(:a) = 7;`, `add quantity(:a) = 8;`, `set next(:b) = :a;`} {
		_, err := s.Exec(stmt)
		if err == nil || !strings.Contains(err.Error(), ":a was deleted") {
			t.Errorf("%s after delete :a: err = %v, want one naming :a", stmt, err)
		}
	}
	s.MustExec(`commit;`)
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	r, _ := s.Query(`select i, q for each item i, integer q where quantity(i) = q;`)
	if len(r.Tuples) != 0 {
		t.Errorf("quantity after the delete = %v, want none", r.Tuples)
	}

	s.MustExec(`begin; create item instances :c; rollback;`)
	if _, err := s.Exec(`set quantity(:c) = 9;`); err == nil {
		t.Error("set on an object whose creation was rolled back accepted")
	}
	if n := s.Catalog().ExtentSize("item"); n != 1 {
		t.Errorf("catalog holds %d items after the rollback, want 1 (:b)", n)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestFailedDeleteKeepsExtents: a delete that a sealed relation stops
// half-way inside an explicit transaction has retracted no extent
// membership of the object, so committing what it left keeps every
// reference inside the extents.
func TestFailedDeleteKeepsExtents(t *testing.T) {
	for i := 0; i < 8; i++ { // the footprint is visited in map order
		s := NewSession(rules.Incremental)
		s.MustExec(`
create type item;
create function quantity(item) -> integer;
create function stock(item) -> integer;
create item instances :a;
set quantity(:a) = 1;
set stock(:a) = 2;
declare quantity readonly;
begin;
`)
		if _, err := s.Exec(`delete :a;`); err == nil {
			t.Fatal("delete through a readonly relation accepted")
		}
		s.MustExec(`commit;`)
		if err := s.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCheckInvariantsFindsDanglingReference: a stored tuple whose object
// value lies outside its column type's extent breaks the referential
// invariant, and CheckInvariants says which tuple.
func TestCheckInvariantsFindsDanglingReference(t *testing.T) {
	s := NewSession(rules.Incremental)
	s.MustExec(`
create type item;
create function quantity(item) -> integer;
create item instances :a;
set quantity(:a) = 1;
`)
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Store().Insert("quantity", types.Tuple{types.Obj(999), types.Int(2)}); err != nil {
		t.Fatal(err)
	}
	err := s.CheckInvariants()
	if err == nil || !strings.Contains(err.Error(), "quantity(#999, 2)") || !strings.Contains(err.Error(), "extent of item") {
		t.Fatalf("CheckInvariants = %v, want the dangling quantity(#999, 2) named", err)
	}
}
