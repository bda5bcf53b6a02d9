package storage

import (
	"strings"
	"testing"

	"partdiff/internal/types"
)

func capTuple(vs ...int) types.Tuple {
	t := make(types.Tuple, len(vs))
	for i, v := range vs {
		t[i] = types.Int(int64(v))
	}
	return t
}

func TestCapabilityEnforcement(t *testing.T) {
	st := NewStore()
	if _, err := st.CreateRelation("f", 2, []int{0}); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Insert("f", capTuple(1, 10)); err != nil {
		t.Fatal(err)
	}
	if got := st.Capability("f"); got != CapAll {
		t.Fatalf("undeclared capability = %v, want CapAll", got)
	}

	if err := st.DeclareCapability("f", CapInserts); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Insert("f", capTuple(2, 20)); err != nil {
		t.Fatalf("append-only insert rejected: %v", err)
	}
	if _, err := st.Delete("f", capTuple(1, 10)); err == nil {
		t.Fatal("append-only delete admitted")
	} else if !strings.Contains(err.Error(), "append only") {
		t.Fatalf("unexpected error: %v", err)
	}
	// Set on an existing key needs the delete bit for the retraction.
	if _, err := st.Set("f", []types.Value{types.Int(1)}, []types.Value{types.Int(11)}); err == nil {
		t.Fatal("append-only set over existing key admitted")
	}
	// Set on a fresh key is a pure insert and stays admitted.
	if _, err := st.Set("f", []types.Value{types.Int(3)}, []types.Value{types.Int(30)}); err != nil {
		t.Fatalf("append-only set on fresh key rejected: %v", err)
	}
	// No-op Set (same single value) touches nothing and stays admitted
	// even when retractions are forbidden.
	if _, err := st.Set("f", []types.Value{types.Int(1)}, []types.Value{types.Int(10)}); err != nil {
		t.Fatalf("no-op set rejected: %v", err)
	}

	// Restriction to frozen is admitted; widening back is not.
	if err := st.DeclareCapability("f", CapFrozen); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Insert("f", capTuple(4, 40)); err == nil {
		t.Fatal("frozen insert admitted")
	}
	if err := st.DeclareCapability("f", CapAll); err == nil {
		t.Fatal("capability widening admitted")
	}
	if err := st.DeclareCapability("f", CapFrozen); err != nil {
		t.Fatalf("re-declaring the same capability rejected: %v", err)
	}
	if err := st.DeclareCapability("nope", CapFrozen); err == nil {
		t.Fatal("declaring capability on missing relation admitted")
	}
}

func TestCapabilityRecoveryBypass(t *testing.T) {
	st := NewStore()
	if _, err := st.CreateRelation("f", 1, nil); err != nil {
		t.Fatal(err)
	}
	if err := st.DeclareCapability("f", CapFrozen); err != nil {
		t.Fatal(err)
	}
	// Recovery paths reconstruct history that may predate the
	// declaration, so they bypass enforcement.
	if err := st.LoadTuples("f", []types.Tuple{capTuple(1)}); err != nil {
		t.Fatalf("LoadTuples under frozen capability: %v", err)
	}
	if _, err := st.ApplyLogged(Event{Relation: "f", Kind: InsertEvent, Tuple: capTuple(2)}); err != nil {
		t.Fatalf("ApplyLogged insert under frozen capability: %v", err)
	}
	if _, err := st.ApplyLogged(Event{Relation: "f", Kind: DeleteEvent, Tuple: capTuple(1)}); err != nil {
		t.Fatalf("ApplyLogged delete under frozen capability: %v", err)
	}
	r, _ := st.Relation("f")
	if r.Len() != 1 {
		t.Fatalf("rows = %d, want 1", r.Len())
	}
}

func TestCapabilitySuspendEnforcement(t *testing.T) {
	st := NewStore()
	if _, err := st.CreateRelation("f", 1, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Insert("f", capTuple(1)); err != nil {
		t.Fatal(err)
	}
	if err := st.DeclareCapability("f", CapInserts); err != nil {
		t.Fatal(err)
	}
	// Rollback's inverse replay runs under a suspension: the deletion
	// that undoes an admitted insertion must go through.
	st.SuspendEnforcement()
	if _, err := st.Delete("f", capTuple(1)); err != nil {
		t.Fatalf("delete under suspended enforcement: %v", err)
	}
	st.ResumeEnforcement()
	if _, err := st.Delete("f", capTuple(1)); err == nil {
		t.Fatal("enforcement did not resume")
	}
}

func TestParseCapability(t *testing.T) {
	cases := []struct {
		in  string
		cap Capability
		ok  bool
	}{
		{"readonly", CapFrozen, true},
		{"read-only", CapFrozen, true},
		{"append only", CapInserts, true},
		{"insert-only", CapInserts, true},
		{"delete only", CapDeletes, true},
		{"read-write", CapAll, true},
		{"bogus", 0, false},
	}
	for _, c := range cases {
		got, ok := ParseCapability(c.in)
		if ok != c.ok || (ok && got != c.cap) {
			t.Errorf("ParseCapability(%q) = %v, %v; want %v, %v", c.in, got, ok, c.cap, c.ok)
		}
	}
}
