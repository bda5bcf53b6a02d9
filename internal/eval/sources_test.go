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
