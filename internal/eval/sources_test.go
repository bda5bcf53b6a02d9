package eval

import (
	"testing"

	"partdiff/internal/delta"
	"partdiff/internal/storage"
	"partdiff/internal/types"
)

// TestRolledBackLargeMinusUsesIndex exercises the indexed Δ− lookup
// path (built when |Δ−| exceeds minusIndexThreshold) and checks it
// against a brute-force scan of the old state.
func TestRolledBackLargeMinusUsesIndex(t *testing.T) {
	st := storage.NewStore()
	st.CreateRelation("r", 2, nil)
	rel, _ := st.Relation("r")
	d := delta.New()
	// 50 live tuples.
	for i := int64(0); i < 50; i++ {
		st.Insert("r", types.Tuple{types.Int(i), types.Int(i % 5)})
	}
	// A massive transaction deleted 30 tuples (well over the index
	// threshold) and inserted 10 new ones.
	for i := int64(100); i < 130; i++ {
		tp := types.Tuple{types.Int(i), types.Int(i % 5)}
		d.Delete(tp) // was present in the old state only
	}
	for i := int64(0); i < 10; i++ {
		tp := types.Tuple{types.Int(1000 + i), types.Int(i % 5)}
		st.Insert("r", tp)
		d.Insert(tp)
	}
	if d.Minus().Len() <= minusIndexThreshold {
		t.Fatal("test setup must exceed the index threshold")
	}
	rb := NewRolledBack(rel, d)

	// Reference old state for cross-checking.
	oldState := d.OldState(rel.Rows())

	// Lookup on both columns, several values, twice (second pass hits
	// the cached index).
	for pass := 0; pass < 2; pass++ {
		for col := 0; col < 2; col++ {
			for v := int64(0); v < 6; v++ {
				got := types.NewSet()
				rb.Lookup(col, types.Int(v), func(tp types.Tuple) bool {
					got.Add(tp)
					return true
				})
				want := types.NewSet()
				oldState.Each(func(tp types.Tuple) bool {
					if tp[col].Equal(types.Int(v)) {
						want.Add(tp)
					}
					return true
				})
				if !got.Equal(want) {
					t.Fatalf("pass %d col %d v %d: got %s want %s", pass, col, v, got, want)
				}
			}
		}
	}
}

func TestRolledBackSmallMinusScans(t *testing.T) {
	st := storage.NewStore()
	st.CreateRelation("r", 1, nil)
	rel, _ := st.Relation("r")
	d := delta.New()
	st.Insert("r", types.Tuple{types.Int(1)})
	d.Delete(types.Tuple{types.Int(2)}) // small Δ−: scan path
	rb := NewRolledBack(rel, d)
	n := 0
	rb.Lookup(0, types.Int(2), func(types.Tuple) bool { n++; return true })
	if n != 1 {
		t.Errorf("scan path found %d", n)
	}
	// Early stop through the Δ− part.
	big := delta.New()
	for i := int64(0); i < 20; i++ {
		big.Delete(types.Tuple{types.Int(7)})
	}
	// All identical deletes collapse to one; add distinct ones.
	for i := int64(0); i < 20; i++ {
		big.Delete(types.Tuple{types.Int(100 + i)})
	}
	rb2 := NewRolledBack(rel, big)
	n = 0
	rb2.Each(func(types.Tuple) bool { n++; return n < 3 })
	if n != 3 {
		t.Errorf("early stop visited %d", n)
	}
}

// Allocation gate: an old-state membership probe consults Δ−, the live
// relation and Δ+ under one in-place hash each and allocates nothing.
func TestRolledBackContainsDoesNotAllocate(t *testing.T) {
	st := storage.NewStore()
	st.CreateRelation("r", 2, nil)
	rel, _ := st.Relation("r")
	d := delta.New()
	for i := int64(0); i < 200; i++ {
		st.Insert("r", types.Tuple{types.Int(i), types.Str("live")})
	}
	for i := int64(0); i < 20; i++ {
		d.Insert(types.Tuple{types.Int(i), types.Str("live")})     // new this transaction
		d.Delete(types.Tuple{types.Int(1000 + i), types.Str("x")}) // gone this transaction
	}
	rb := NewRolledBack(rel, d)
	added, removed := types.Tuple{types.Int(3), types.Str("live")}, types.Tuple{types.Int(1003), types.Str("x")}
	kept, never := types.Tuple{types.Float(150), types.Str("live")}, types.Tuple{types.Int(150), types.Str("x")}
	got := testing.AllocsPerRun(200, func() {
		if rb.Contains(added) || !rb.Contains(removed) || !rb.Contains(kept) || rb.Contains(never) {
			t.Fatal("old-state membership")
		}
	})
	if got != 0 {
		t.Errorf("RolledBack.Contains: %v allocs/op, want 0", got)
	}
}

// Allocation gate: an old-state index probe filters the live relation's
// hits against Δ+ and adds Δ−'s — scanned below minusIndexThreshold,
// through the lazy column index above it — without allocating, and a
// probe nested in another's callback (a self-join) sees its own
// callback and stop flag.
func TestRolledBackLookupDoesNotAllocate(t *testing.T) {
	for _, gone := range []int64{minusIndexThreshold - 3, 4 * minusIndexThreshold} {
		st := storage.NewStore()
		st.CreateRelation("r", 2, nil)
		rel, _ := st.Relation("r")
		d := delta.New()
		for i := int64(0); i < 200; i++ {
			st.Insert("r", types.Tuple{types.Int(i % 50), types.Int(i)})
		}
		for i := int64(0); i < 20; i++ {
			d.Insert(types.Tuple{types.Int(i % 50), types.Int(i)}) // new this transaction
		}
		for i := int64(0); i < gone; i++ {
			d.Delete(types.Tuple{types.Int(i % 50), types.Int(1000 + i)}) // gone this transaction
		}
		rb := NewRolledBack(rel, d)
		// Key 1 holds live (1,1) (51) (101) (151), of which (1,1) is new,
		// and the deleted (1,1001): four old-state tuples.
		var hits, inner int
		count := func(types.Tuple) bool { hits++; return true }
		first := func(types.Tuple) bool { inner++; return false }
		nested := func(types.Tuple) bool {
			rb.Lookup(0, types.Int(2), first)
			hits++
			return true
		}
		rb.Lookup(0, types.Int(1), count) // builds the Δ− index where one is due
		if hits != 4 {
			t.Fatalf("Δ− of %d: key 1 has %d old-state tuples, want 4", gone, hits)
		}
		got := testing.AllocsPerRun(200, func() {
			hits, inner = 0, 0
			rb.Lookup(0, types.Float(1), count)
			rb.Lookup(0, types.Int(1), nested)
			if hits != 8 || inner != 4 {
				t.Fatalf("Δ− of %d: %d hits, %d nested hits; want 8 and 4", gone, hits, inner)
			}
		})
		if got != 0 {
			t.Errorf("Δ− of %d: RolledBack.Lookup: %v allocs/op, want 0", gone, got)
		}
	}
}
