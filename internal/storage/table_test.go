package storage

import (
	"math"
	"strings"
	"sync/atomic"
	"testing"

	"partdiff/internal/types"
)

// Regression (through the store): Float(2⁶³) used to canonicalise onto
// Int(math.MinInt64)'s key, so inserting one made the other "present".
func TestStoreNoKeyCollisionAtTwo63(t *testing.T) {
	s := NewStore()
	r, _ := s.CreateRelation("r", 1, nil)
	big, min := types.Tuple{types.Float(9223372036854775808)}, types.Tuple{types.Int(math.MinInt64)}
	if added, err := s.Insert("r", big); err != nil || !added {
		t.Fatalf("Insert(%s) = %v, %v", big, added, err)
	}
	if r.Contains(min) {
		t.Errorf("relation holding %s claims to contain %s", big, min)
	}
	if added, err := s.Insert("r", min); err != nil || !added {
		t.Errorf("Insert(%s) = %v, %v: treated as a duplicate of %s", min, added, err, big)
	}
	n := 0
	r.Lookup(0, min[0], func(types.Tuple) bool { n++; return true })
	if n != 1 || r.Len() != 2 {
		t.Errorf("index lookup of %s finds %d row(s) of %d, want 1 of 2", min, n, r.Len())
	}
	if err := s.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func populated(t testing.TB, n int) (*Store, *Relation) {
	t.Helper()
	s := NewStore()
	r, err := s.CreateRelation("f", 2, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := s.Set("f", []types.Value{types.Obj(types.OID(i))}, []types.Value{types.Int(int64(i % 50))}); err != nil {
			t.Fatal(err)
		}
	}
	return s, r
}

// Allocation gates for the read path: an index lookup and a membership
// probe hash their argument in place and allocate nothing, on the live
// relation and through a pinned snapshot with a populated sidecar.
func TestRelationReadsDoNotAllocate(t *testing.T) {
	s, r := populated(t, 500)
	view := s.PinSnapshot()
	defer view.Close()
	// Writes after the pin, so the sidecar is non-empty and snapshot
	// reads take the version-filtering path.
	for i := 0; i < 20; i++ {
		s.Set("f", []types.Value{types.Obj(types.OID(i))}, []types.Value{types.Int(1000)})
	}
	snap, _ := view.Source("f")
	hit, miss := types.Tuple{types.Obj(40), types.Float(40)}, types.Tuple{types.Obj(40), types.Int(41)}
	old := types.Tuple{types.Obj(3), types.Int(3)} // replaced after the pin
	rows := 0
	count := func(types.Tuple) bool { rows++; return true }
	for name, fn := range map[string]func(){
		"Relation.Contains": func() {
			if !r.Contains(hit) || r.Contains(miss) || r.Contains(old) {
				t.Fatal("live membership")
			}
		},
		"Relation.Lookup": func() {
			rows = 0
			r.Lookup(1, types.Int(7), count) // 10 rows, less the one rewritten after the pin
			r.Lookup(0, types.Obj(40), count)
			if rows != 10 {
				t.Fatalf("live lookup saw %d rows, want 10", rows)
			}
		},
		"snapshot Contains": func() {
			if !snap.Contains(hit) || snap.Contains(miss) || !snap.Contains(old) {
				t.Fatal("snapshot membership")
			}
		},
		"snapshot Lookup": func() {
			rows = 0
			snap.Lookup(1, types.Int(3), count) // 10 rows as of the pin, one of them a tombstone now
			snap.Lookup(1, types.Int(1000), count)
			if rows != 10 {
				t.Fatalf("snapshot lookup saw %d rows, want 10", rows)
			}
		},
	} {
		if got := testing.AllocsPerRun(100, fn); got != 0 {
			t.Errorf("%s: %v allocs/op, want 0", name, got)
		}
	}
}

// setAllocBudget is what one value-replacing Store.Set may allocate
// inside a transaction scope, amortised: the new tuple and the
// tombstone. The key match comes back in a stack buffer, the key
// column's posting is held inline in its index slot, and the value
// column, which nothing probes, has no index to maintain.
const setAllocBudget = 2

func TestStoreSetAllocationBudget(t *testing.T) {
	s, _ := populated(t, 1000)
	s.BeginTxnScope()
	defer s.EndTxnScope()
	v := int64(1 << 20)
	got := testing.AllocsPerRun(10, func() {
		for i := 0; i < 1000; i++ {
			v++
			if _, err := s.Set("f", []types.Value{types.Obj(types.OID(i))}, []types.Value{types.Int(v)}); err != nil {
				t.Fatal(err)
			}
		}
		s.AdvanceCommit([]string{"f"})
	}) / 1000
	if got > setAllocBudget {
		t.Errorf("Store.Set allocates %.2f per call, budget %d", got, setAllocBudget)
	}
	t.Logf("Store.Set: %.2f allocs per value-replacing call", got)
	if err := s.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// A pinned snapshot keeps seeing its own state across many later
// commits, and when the last pin closes, purge (a remove-while-iterating
// over both sidecar tables) drains the sidecar completely.
func TestSidecarServesSnapshotThenDrains(t *testing.T) {
	s, r := populated(t, 300)
	want := r.Tuples()
	view := s.PinSnapshot()
	mid := s.PinSnapshot()
	for round := 0; round < 5; round++ {
		for i := 0; i < 300; i += 1 + round {
			s.Set("f", []types.Value{types.Obj(types.OID(i))}, []types.Value{types.Int(int64(1000*round + i))})
		}
		if round == 2 {
			mid.Close()
			mid = s.PinSnapshot()
		}
		for i := round; i < 300; i += 7 {
			s.Delete("f", types.Tuple{types.Obj(types.OID(i)), types.Int(int64(1000*round + i))})
		}
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	snap, _ := view.Source("f")
	got := types.NewSet()
	snap.Each(func(tp types.Tuple) bool {
		if !got.Add(tp) {
			t.Errorf("snapshot Each yields %s twice", tp)
		}
		return true
	})
	if !got.Equal(types.NewSet(want...)) || snap.Len() != len(want) {
		t.Errorf("snapshot sees %d rows (Len %d), want the %d rows of the pin", got.Len(), snap.Len(), len(want))
	}
	for _, tp := range want {
		if !snap.Contains(tp) {
			t.Fatalf("snapshot lost %s", tp)
		}
	}
	view.Close()
	if r.added.Len() == 0 && r.dead.Len() == 0 {
		t.Error("sidecar empty while a later snapshot is still pinned: nothing was exercised")
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	mid.Close()
	if r.added.Len() != 0 || r.dead.Len() != 0 {
		t.Errorf("sidecar keeps %d added / %d dead entries with no snapshot pinned", r.added.Len(), r.dead.Len())
	}
}

// CheckInvariants must still catch each kind of damage to the rewritten
// structures: corrupt one at a time and demand the specific complaint.
// Column 0 (the key) is built by the Sets that populate the relation
// and holds inline postings; column 1 is built by a probe here and
// holds two rows per value, in posting sets.
func TestCheckInvariantsDetectsCorruption(t *testing.T) {
	row := func(i int) types.Tuple { return types.Tuple{types.Obj(types.OID(i)), types.Int(int64(i % 50))} }
	ghost := types.Tuple{types.Obj(9999), types.Int(1)}
	post := func(r *Relation, col int, v types.Value) *posting { return r.index[col].Load().Find(types.Tuple{v}) }
	for _, tc := range []struct {
		name    string
		corrupt func(s *Store, r *Relation)
		want    string
	}{
		{"row missing from an index", func(_ *Store, r *Relation) {
			t := row(5)
			post(r, 1, t[1]).remove(t.Hash(), t)
		}, "missing from index on column 1"},
		{"phantom index entry", func(_ *Store, r *Relation) {
			p, _ := r.index[0].Load().Ref(ghost[0:1])
			p.add(ghost.Hash(), ghost)
		}, "phantom tuple"},
		{"row indexed under the wrong value", func(_ *Store, r *Relation) {
			t := row(5)
			post(r, 1, t[1]).remove(t.Hash(), t)
			post(r, 1, types.Int(6)).add(t.Hash(), t)
		}, "missing from index on column 1"},
		{"posting set holds a row of another value", func(_ *Store, r *Relation) {
			// Filed under 6 as well as under its own 5: every row is
			// still indexed, but the entry under 6 is wrong.
			post(r, 1, types.Int(6)).add(row(5).Hash(), row(5))
		}, "indexed under wrong key"},
		{"drained posting set left behind", func(_ *Store, r *Relation) {
			r.index[1].Load().Ref(types.Tuple{types.Int(777)})
		}, "empty posting set"},
		{"drained inline posting left behind", func(_ *Store, r *Relation) {
			t := row(5)
			post(r, 0, t[0]).remove(t.Hash(), t)
		}, "missing from index on column 0"},
		{"inline posting under a stale hash", func(_ *Store, r *Relation) {
			post(r, 0, row(5)[0]).h ^= 0xff00
		}, "inline posting of"},
		{"inline posting of a row of another value", func(_ *Store, r *Relation) {
			p := post(r, 0, row(6)[0])
			p.row, p.h = row(5), row(5).Hash()
		}, "missing from index on column 0"},
		{"built column misses a row filed nowhere", func(_ *Store, r *Relation) {
			// A row added behind the index's back (not by a writer).
			r.rows.Add(ghost)
		}, "missing from index on column 0"},
		{"type extent keeps an index", func(s *Store, _ *Relation) {
			x, _ := s.CreateRelation("type:item", 1, nil)
			x.index = make([]atomic.Pointer[colIndex], 1)
		}, "type extent keeps a column index"},
		{"row filed under a stale hash", func(_ *Store, r *Relation) {
			t := row(5)
			r.rows.Remove(t)
			r.rows.AddH(t.Hash()^0xff00, t)
		}, "is filed under hash"},
		{"sidecar marks a missing row", func(_ *Store, r *Relation) {
			a, _ := r.added.Ref(ghost)
			*a = 3
		}, "marks missing row"},
		{"tombstone under the wrong tuple", func(_ *Store, r *Relation) {
			ds, _ := r.dead.Ref(ghost)
			*ds = append(*ds, deadRow{t: row(1), addSeq: 1, delSeq: 2})
		}, "tombstone keyed"},
		{"tombstone deleted before added", func(_ *Store, r *Relation) {
			ds, _ := r.dead.Ref(ghost)
			*ds = append(*ds, deadRow{t: ghost, addSeq: 5, delSeq: 5})
		}, "before added"},
		{"empty tombstone list", func(_ *Store, r *Relation) {
			r.dead.Ref(ghost)
		}, "empty tombstone list"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, r := populated(t, 100)
			r.Lookup(1, types.Int(0), func(types.Tuple) bool { return true })
			if r.index[0].Load() == nil || r.index[1].Load() == nil {
				t.Fatal("columns 0 and 1 should both be built")
			}
			if err := s.CheckInvariants(); err != nil {
				t.Fatalf("before corruption: %v", err)
			}
			tc.corrupt(s, r)
			err := s.CheckInvariants()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("CheckInvariants = %v, want an error containing %q", err, tc.want)
			}
		})
	}
}

func BenchmarkStoreSet(b *testing.B) {
	s, _ := populated(b, 1000)
	s.BeginTxnScope()
	defer s.EndTxnScope()
	key := make([][]types.Value, 1000)
	for i := range key {
		key[i] = []types.Value{types.Obj(types.OID(i))}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Set("f", key[i%1000], []types.Value{types.Int(int64(i + 100))}); err != nil {
			b.Fatal(err)
		}
		if i%1000 == 999 {
			s.AdvanceCommit([]string{"f"})
		}
	}
}
