package delta

import (
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

// TestDeltaUnion_NetEffect reproduces the §4.1 min_stock example: two
// updates that restore the original value leave an empty Δ-set.
func TestDeltaUnion_NetEffect(t *testing.T) {
	// set min_stock(:item1) = 150  (was 100)
	// set min_stock(:item1) = 100
	item1 := types.Obj(1)
	d := New()
	// physical events, in order:
	d.Delete(types.Tuple{item1, types.Int(100)})
	if d.String() != "<{}, {(#1, 100)}>" {
		t.Errorf("after -100: %s", d)
	}
	d.Insert(types.Tuple{item1, types.Int(150)})
	if got := d.String(); got != "<{(#1, 150)}, {(#1, 100)}>" {
		t.Errorf("after +150: %s", got)
	}
	d.Delete(types.Tuple{item1, types.Int(150)})
	if got := d.String(); got != "<{}, {(#1, 100)}>" {
		t.Errorf("after -150: %s", got)
	}
	d.Insert(types.Tuple{item1, types.Int(100)})
	if !d.IsEmpty() {
		t.Errorf("no net effect expected, got %s", d)
	}
}

func TestInsertDeleteCancel(t *testing.T) {
	d := New()
	d.Insert(tup(1))
	d.Delete(tup(1))
	if !d.IsEmpty() {
		t.Errorf("insert then delete should cancel: %s", d)
	}
	d.Delete(tup(2))
	d.Insert(tup(2))
	if !d.IsEmpty() {
		t.Errorf("delete then insert should cancel: %s", d)
	}
}

func TestDisjointnessInvariant(t *testing.T) {
	d := New()
	d.Insert(tup(1))
	d.Insert(tup(1)) // idempotent
	if d.Plus().Len() != 1 {
		t.Error("duplicate insert")
	}
	d.Delete(tup(1))
	d.Delete(tup(1))
	if d.Plus().Len() != 0 || d.Minus().Len() != 1 {
		t.Errorf("after cancel+delete: %s", d)
	}
	if d.Plus().Contains(tup(1)) && d.Minus().Contains(tup(1)) {
		t.Error("plus and minus must stay disjoint")
	}
}

func TestUnionMatchesPaperFormula(t *testing.T) {
	// ΔB1 ∪Δ ΔB2 = <(Δ+B1−Δ−B2) ∪ (Δ+B2−Δ−B1), (Δ−B1−Δ+B2) ∪ (Δ−B2−Δ+B1)>
	b1 := New()
	b1.Insert(tup(1))
	b1.Insert(tup(2))
	b1.Delete(tup(3))
	b2 := New()
	b2.Insert(tup(3)) // cancels b1's deletion
	b2.Delete(tup(2)) // cancels b1's insertion
	b2.Insert(tup(4))
	u := Union(b1, b2)
	wantPlus := types.NewSet(tup(1), tup(4))
	wantMinus := types.NewSet()
	if !u.Plus().Equal(wantPlus) || !u.Minus().Equal(wantMinus) {
		t.Errorf("Union=%s", u)
	}
	// operands untouched
	if b1.Len() != 3 || b2.Len() != 3 {
		t.Error("Union must not modify operands")
	}
}

func TestOldStateRollback(t *testing.T) {
	// S_old = (S_new ∪ Δ−S) − Δ+S
	newState := types.NewSet(tup(1), tup(2), tup(4))
	d := New()
	d.Insert(tup(4)) // added during txn
	d.Delete(tup(3)) // removed during txn
	old := d.OldState(newState)
	want := types.NewSet(tup(1), tup(2), tup(3))
	if !old.Equal(want) {
		t.Errorf("OldState=%s want %s", old, want)
	}
	// Forward application returns new state.
	if !d.NewState(old).Equal(newState) {
		t.Error("NewState(OldState(s)) != s")
	}
	// newState untouched.
	if newState.Len() != 3 || !newState.Contains(tup(4)) {
		t.Error("OldState must not modify input")
	}
}

func TestInOldPointQuery(t *testing.T) {
	newState := types.NewSet(tup(1), tup(4))
	d := New()
	d.Insert(tup(4))
	d.Delete(tup(3))
	old := d.OldState(newState)
	for _, probe := range []types.Tuple{tup(1), tup(2), tup(3), tup(4), tup(5)} {
		if got, want := d.InOld(newState, probe), old.Contains(probe); got != want {
			t.Errorf("InOld(%s)=%v want %v", probe, got, want)
		}
	}
	// nil delta: old == new
	var nd *Set
	if !nd.InOld(newState, tup(1)) || nd.InOld(newState, tup(3)) {
		t.Error("nil delta InOld should consult new state")
	}
}

func TestDiff(t *testing.T) {
	old := types.NewSet(tup(1), tup(2))
	nw := types.NewSet(tup(2), tup(3))
	d := Diff(old, nw)
	if !d.Plus().Equal(types.NewSet(tup(3))) || !d.Minus().Equal(types.NewSet(tup(1))) {
		t.Errorf("Diff=%s", d)
	}
	if !Diff(old, old).IsEmpty() {
		t.Error("Diff of identical sets should be empty")
	}
}

func TestInvertIsComplementDifferential(t *testing.T) {
	d := New()
	d.Insert(tup(1))
	d.Delete(tup(2))
	inv := d.Invert()
	if !inv.Plus().Equal(types.NewSet(tup(2))) || !inv.Minus().Equal(types.NewSet(tup(1))) {
		t.Errorf("Invert=%s", inv)
	}
	if !inv.Invert().Equal(d) {
		t.Error("double inversion should be identity")
	}
}

func TestCloneClearEqual(t *testing.T) {
	d := New()
	d.Insert(tup(1))
	c := d.Clone()
	c.Delete(tup(9))
	if d.Len() != 1 || c.Len() != 2 {
		t.Error("Clone independence")
	}
	if !d.Equal(d.Clone()) {
		t.Error("Equal on clones")
	}
	if d.Equal(c) {
		t.Error("unequal deltas reported equal")
	}
	c.Clear()
	if !c.IsEmpty() {
		t.Error("Clear")
	}
}

func TestFromSetsEnforcesDisjointness(t *testing.T) {
	plus := types.NewSet(tup(1), tup(2))
	minus := types.NewSet(tup(2), tup(3))
	d := FromSets(plus, minus)
	// tup(2) appears in both: insert then delete cancels.
	if !d.Plus().Equal(types.NewSet(tup(1))) || !d.Minus().Equal(types.NewSet(tup(3))) {
		t.Errorf("FromSets=%s", d)
	}
}

func TestNilSafety(t *testing.T) {
	var d *Set
	if !d.IsEmpty() || d.Len() != 0 {
		t.Error("nil delta empties")
	}
	if d.Plus() != nil && d.Plus().Len() != 0 {
		t.Error("nil delta Plus")
	}
	if d.OldState(types.NewSet(tup(1))).Len() != 1 {
		t.Error("nil delta OldState = identity")
	}
	if d.Clone().Len() != 0 || d.Invert().Len() != 0 {
		t.Error("nil Clone/Invert")
	}
	if d.String() != "<{}, {}>" {
		t.Error("nil String")
	}
	live := New()
	live.Insert(tup(1))
	live.UnionInto(nil) // no-op
	if live.Len() != 1 {
		t.Error("UnionInto(nil)")
	}
}

// Property: folding a random event sequence into a Δ-set and applying it
// to the initial state yields exactly the final state produced by playing
// the events directly; and rollback from the final state recovers the
// initial state.
func TestDeltaRoundTrip_Quick(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		state := types.NewSet()
		for i := 0; i < 10; i++ {
			state.Add(tup(int64(r.Intn(15))))
		}
		initial := state.Clone()
		d := New()
		for i := 0; i < 60; i++ {
			v := tup(int64(r.Intn(15)))
			if r.Intn(2) == 0 {
				if state.Add(v) {
					d.Insert(v)
				}
			} else {
				if state.Remove(v) {
					d.Delete(v)
				}
			}
		}
		return d.NewState(initial).Equal(state) && d.OldState(state).Equal(initial)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: ∪Δ is associative when the operands derive from a single
// serial event stream split into segments (the only case the algorithm
// relies on).
func TestDeltaUnionSegmentedStream_Quick(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		state := types.NewSet()
		whole := New()
		segA, segB, segC := New(), New(), New()
		segs := []*Set{segA, segB, segC}
		for si, seg := range segs {
			_ = si
			for i := 0; i < 20; i++ {
				v := tup(int64(r.Intn(10)))
				if r.Intn(2) == 0 {
					if state.Add(v) {
						seg.Insert(v)
						whole.Insert(v)
					}
				} else {
					if state.Remove(v) {
						seg.Delete(v)
						whole.Delete(v)
					}
				}
			}
		}
		leftAssoc := Union(Union(segA, segB), segC)
		rightAssoc := Union(segA, Union(segB, segC))
		return leftAssoc.Equal(whole) && rightAssoc.Equal(whole)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Allocation gate: folding an event into a Δ-set at steady size hashes
// the tuple once, in place. An insertion cancelling a pending deletion
// (and the reverse), and folding the same change back in, allocate
// nothing.
func TestFoldDoesNotAllocate(t *testing.T) {
	d := New()
	tuples := make([]types.Tuple, 256)
	for i := range tuples {
		tuples[i] = types.Tuple{types.Obj(types.OID(i)), types.Int(int64(i)), types.Str("v")}
		d.Delete(tuples[i])
	}
	i := 0
	got := testing.AllocsPerRun(500, func() {
		i = (i + 1) % len(tuples)
		d.Insert(tuples[i]) // cancels the pending −t
		if d.Minus().Len() != len(tuples)-1 || d.Plus().Len() != 0 {
			t.Fatal("insert did not cancel the pending delete")
		}
		d.Delete(tuples[i]) // pending again
	})
	if got != 0 {
		t.Errorf("Insert cancelling a Delete, then Delete: %v allocs/op, want 0", got)
	}
	// Clear keeps a small Δ-set's arrays: the next wave refills them
	// without allocating.
	small := New()
	wave := func() {
		for _, tp := range tuples[:8] {
			small.Insert(tp)
			small.Delete(tuples[100])
			small.Insert(tuples[100])
		}
		small.Clear()
	}
	wave()
	if got := testing.AllocsPerRun(100, wave); got != 0 {
		t.Errorf("refilling a cleared Δ-set: %v allocs/op, want 0", got)
	}
}
