package storage

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"partdiff/internal/types"
)

func tup(vs ...int64) types.Tuple {
	t := make(types.Tuple, len(vs))
	for i, v := range vs {
		t[i] = types.Int(v)
	}
	return t
}

func TestNewRelationValidation(t *testing.T) {
	if _, err := NewRelation("r", 0, nil); err == nil {
		t.Error("zero arity should error")
	}
	if _, err := NewRelation("r", 2, []int{2}); err == nil {
		t.Error("key col out of range should error")
	}
	r, err := NewRelation("r", 2, []int{0})
	if err != nil || r.Name() != "r" || r.Arity() != 2 || len(r.KeyCols()) != 1 {
		t.Fatalf("NewRelation: %v", err)
	}
}

func TestStoreInsertDeleteEvents(t *testing.T) {
	s := NewStore()
	if _, err := s.CreateRelation("q", 2, []int{0}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateRelation("q", 2, nil); err == nil {
		t.Error("duplicate relation should error")
	}
	var events []Event
	s.Subscribe(func(e Event) { events = append(events, e) })

	added, err := s.Insert("q", tup(1, 10))
	if err != nil || !added {
		t.Fatalf("insert: %v %v", added, err)
	}
	added, _ = s.Insert("q", tup(1, 10))
	if added {
		t.Error("duplicate insert must report false")
	}
	if len(events) != 1 || events[0].Kind != InsertEvent {
		t.Errorf("events after duplicate insert: %v", events)
	}
	removed, _ := s.Delete("q", tup(1, 10))
	if !removed || len(events) != 2 || events[1].Kind != DeleteEvent {
		t.Errorf("delete: %v %v", removed, events)
	}
	removed, _ = s.Delete("q", tup(1, 10))
	if removed {
		t.Error("delete of absent tuple must report false")
	}
	if _, err := s.Insert("nosuch", tup(1)); err == nil {
		t.Error("insert into unknown relation should error")
	}
	if _, err := s.Insert("q", tup(1)); err == nil {
		t.Error("wrong arity insert should error")
	}
}

// TestSetPhysicalEventOrder reproduces the §4.1 event stream: an update
// emits the deletion of the old value tuple before the insertion of the
// new one.
func TestSetPhysicalEventOrder(t *testing.T) {
	s := NewStore()
	s.CreateRelation("min_stock", 2, []int{0})
	item1 := types.Obj(1)
	s.Insert("min_stock", types.Tuple{item1, types.Int(100)})

	var events []Event
	s.Subscribe(func(e Event) { events = append(events, e) })

	if _, err := s.Set("min_stock", []types.Value{item1}, []types.Value{types.Int(150)}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Set("min_stock", []types.Value{item1}, []types.Value{types.Int(100)}); err != nil {
		t.Fatal(err)
	}
	want := []string{
		"-(min_stock,#1,100)",
		"+(min_stock,#1,150)",
		"-(min_stock,#1,150)",
		"+(min_stock,#1,100)",
	}
	if len(events) != len(want) {
		t.Fatalf("events=%v", events)
	}
	for i, e := range events {
		if e.String() != want[i] {
			t.Errorf("event[%d]=%s want %s", i, e, want[i])
		}
	}
}

func TestSetNoOpEmitsNothing(t *testing.T) {
	s := NewStore()
	s.CreateRelation("f", 2, []int{0})
	s.Set("f", []types.Value{types.Int(1)}, []types.Value{types.Int(5)})
	var n int
	s.Subscribe(func(Event) { n++ })
	s.Set("f", []types.Value{types.Int(1)}, []types.Value{types.Int(5)})
	if n != 0 {
		t.Errorf("no-op Set emitted %d events", n)
	}
}

func TestSetReplacesAllKeyMatches(t *testing.T) {
	s := NewStore()
	s.CreateRelation("f", 2, []int{0})
	// Multi-valued state for the key (via raw inserts).
	s.Insert("f", tup(1, 10))
	s.Insert("f", tup(1, 20))
	s.Insert("f", tup(2, 99))
	retracted, err := s.Set("f", []types.Value{types.Int(1)}, []types.Value{types.Int(30)})
	if err != nil {
		t.Fatal(err)
	}
	if retracted != 2 {
		t.Errorf("retracted %d tuples, want 2", retracted)
	}
	r, _ := s.Relation("f")
	if r.Len() != 2 || !r.Contains(tup(1, 30)) || !r.Contains(tup(2, 99)) {
		t.Errorf("relation after set: %s", r.Rows())
	}
}

func TestGet(t *testing.T) {
	s := NewStore()
	s.CreateRelation("f", 2, []int{0})
	s.Set("f", []types.Value{types.Int(1)}, []types.Value{types.Int(10)})
	vals, err := s.Get("f", []types.Value{types.Int(1)})
	if err != nil || len(vals) != 1 || !vals[0][0].Equal(types.Int(10)) {
		t.Errorf("Get=%v err=%v", vals, err)
	}
	vals, _ = s.Get("f", []types.Value{types.Int(9)})
	if len(vals) != 0 {
		t.Error("Get of absent key should be empty")
	}
	if _, err := s.Get("nosuch", nil); err == nil {
		t.Error("Get on unknown relation should error")
	}
	// Nullary-key relation: Get(nil) returns all rows.
	s.CreateRelation("g", 1, nil)
	s.Insert("g", tup(1))
	s.Insert("g", tup(2))
	vals, _ = s.Get("g", nil)
	if len(vals) != 2 {
		t.Errorf("nullary Get=%v", vals)
	}
}

func TestLookupIndex(t *testing.T) {
	s := NewStore()
	s.CreateRelation("r", 3, nil)
	s.Insert("r", tup(1, 2, 3))
	s.Insert("r", tup(1, 5, 6))
	s.Insert("r", tup(2, 2, 7))
	r, _ := s.Relation("r")
	var n int
	r.Lookup(0, types.Int(1), func(types.Tuple) bool { n++; return true })
	if n != 2 {
		t.Errorf("Lookup col0=1 found %d", n)
	}
	n = 0
	r.Lookup(1, types.Int(2), func(types.Tuple) bool { n++; return true })
	if n != 2 {
		t.Errorf("Lookup col1=2 found %d", n)
	}
	if r.LookupCount(2, types.Int(3)) != 1 || r.LookupCount(2, types.Int(99)) != 0 {
		t.Error("LookupCount")
	}
	// out-of-range column: no results, no panic
	r.Lookup(9, types.Int(1), func(types.Tuple) bool { t.Error("should not match"); return true })
	if r.LookupCount(-1, types.Int(1)) != 0 {
		t.Error("negative col LookupCount")
	}
	// Index shrinks after delete.
	s.Delete("r", tup(1, 2, 3))
	if r.LookupCount(0, types.Int(1)) != 1 {
		t.Error("index not updated after delete")
	}
}

func TestLookupEarlyStop(t *testing.T) {
	s := NewStore()
	s.CreateRelation("r", 1, nil)
	for i := 0; i < 5; i++ {
		s.Insert("r", tup(7))
	}
	s.Insert("r", tup(7)) // dup, ignored
	r, _ := s.Relation("r")
	if r.Len() != 1 {
		t.Fatalf("Len=%d", r.Len())
	}
}

func TestUnsubscribe(t *testing.T) {
	s := NewStore()
	s.CreateRelation("r", 1, nil)
	var n int
	cancel := s.Subscribe(func(Event) { n++ })
	s.Insert("r", tup(1))
	cancel()
	s.Insert("r", tup(2))
	if n != 1 {
		t.Errorf("listener called %d times after unsubscribe", n)
	}
}

func TestRelationNames(t *testing.T) {
	s := NewStore()
	s.CreateRelation("b", 1, nil)
	s.CreateRelation("a", 1, nil)
	names := s.RelationNames()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Errorf("RelationNames=%v", names)
	}
}

// Property: the index always agrees with a full scan, under a random
// mixed workload of inserts, deletes and sets.
func TestIndexConsistency_Quick(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := NewStore()
		s.CreateRelation("f", 2, []int{0})
		rel, _ := s.Relation("f")
		for i := 0; i < 150; i++ {
			k, v := int64(r.Intn(8)), int64(r.Intn(8))
			switch r.Intn(3) {
			case 0:
				s.Insert("f", tup(k, v))
			case 1:
				s.Delete("f", tup(k, v))
			default:
				s.Set("f", []types.Value{types.Int(k)}, []types.Value{types.Int(v)})
			}
		}
		// Verify every column index against a scan.
		for col := 0; col < 2; col++ {
			for v := int64(0); v < 8; v++ {
				want := 0
				rel.Each(func(t types.Tuple) bool {
					if t[col].Equal(types.Int(v)) {
						want++
					}
					return true
				})
				if rel.LookupCount(col, types.Int(v)) != want {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: Set always leaves exactly one tuple per key that has ever
// been Set (and never raw-inserted since).
func TestSetFunctionalInvariant_Quick(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := NewStore()
		s.CreateRelation("f", 2, []int{0})
		rel, _ := s.Relation("f")
		keys := map[int64]bool{}
		for i := 0; i < 100; i++ {
			k := int64(r.Intn(5))
			keys[k] = true
			s.Set("f", []types.Value{types.Int(k)}, []types.Value{types.Int(int64(r.Intn(100)))})
		}
		for k := range keys {
			if rel.LookupCount(0, types.Int(k)) != 1 {
				return false
			}
		}
		return rel.Len() == len(keys)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestTuplesReferencing(t *testing.T) {
	s := NewStore()
	s.CreateRelation("f", 2, []int{0})
	s.CreateRelation("g", 3, nil)
	obj := types.Obj(42)
	s.Insert("f", types.Tuple{obj, types.Int(1)})
	s.Insert("f", types.Tuple{types.Obj(7), types.Int(2)})
	s.Insert("g", types.Tuple{types.Int(1), obj, obj}) // twice in one tuple
	s.Insert("g", types.Tuple{types.Int(2), types.Obj(7), types.Obj(8)})

	refs := s.TuplesReferencing(obj)
	if len(refs) != 2 {
		t.Fatalf("refs=%v", refs)
	}
	if len(refs["f"]) != 1 || len(refs["g"]) != 1 {
		t.Errorf("f=%d g=%d (same tuple must not be listed twice)", len(refs["f"]), len(refs["g"]))
	}
	if got := s.TuplesReferencing(types.Obj(999)); len(got) != 0 {
		t.Errorf("ghost refs=%v", got)
	}
}

func TestEventString(t *testing.T) {
	e := Event{Relation: "f", Kind: InsertEvent, Tuple: tup(1, 2)}
	if e.String() != "+(f,1,2)" {
		t.Errorf("Event.String()=%q", e.String())
	}
	if fmt.Sprint(DeleteEvent) != "-" || fmt.Sprint(InsertEvent) != "+" {
		t.Error("EventKind.String")
	}
}
