package propnet

import (
	"strings"
	"testing"

	"partdiff/internal/diff"
	"partdiff/internal/maint"
	"partdiff/internal/objectlog"
	"partdiff/internal/storage"
)

// buildWidePQR is buildPQR at a size where waves can cross the chooser's
// floor: q(i, i) and r(i, i+1) for i < rows, so p(i, i+1) for each. The
// network reports to mnt (which may be nil).
func buildWidePQR(t *testing.T, rows int64, mnt *maint.Maintainer) (*storage.Store, *Network) {
	t.Helper()
	st := storage.NewStore()
	st.CreateRelation("q", 2, nil)
	st.CreateRelation("r", 2, nil)
	for i := int64(0); i < rows; i++ {
		st.Insert("q", tup(i, i))
		st.Insert("r", tup(i, i+1))
	}
	n := New(st, objectlog.NewProgram(), diff.DefaultOptions())
	n.SetMaintainer(mnt)
	if err := n.AddView(pqrDef(), true); err != nil {
		t.Fatal(err)
	}
	if err := n.Finalize(); err != nil {
		t.Fatal(err)
	}
	return st, n
}

// TestStrategyDecisionDoesNotAllocate: the decision for a one-tuple wave
// is a multiplication and a compare on state the node holds — nothing is
// allocated, journaled, metered or looked up by name.
func TestStrategyDecisionDoesNotAllocate(t *testing.T) {
	mnt := maint.New(maint.Config{})
	st, n := buildWidePQR(t, 1000, mnt)
	// One differentiated wave first, so the view knows what a seed costs
	// and the decision has a prediction to compare.
	apply(t, st, n, true, "q", tup(5000, 1))
	if _, err := n.Propagate(); err != nil {
		t.Fatal(err)
	}
	n.ClearBase()
	apply(t, st, n, true, "q", tup(5001, 2))
	p, _ := n.Node("p")
	allocs := testing.AllocsPerRun(200, func() {
		n.propSeq++ // a new wave: the verdict of the last one does not carry over
		if s := n.nodeStrategy(p); s != maint.Incremental {
			t.Fatalf("one-tuple wave: strategy %v", s)
		}
	})
	if allocs != 0 {
		t.Errorf("strategy decision allocates %v times per wave, want 0", allocs)
	}
	if mnt.Switches() != 0 || len(mnt.Decisions()) != 0 {
		t.Errorf("one-tuple waves left journal entries: %+v", mnt.Decisions())
	}
	if lbl := mnt.StrategyLabel("p"); lbl != "" {
		t.Errorf("one-tuple waves were weighed: label %q", lbl)
	}
}

// TestHybridRecomputesMassiveWaves drives one network with waves that
// rewrite both of its view's relations entirely, beside a twin with the
// decision off: the Δ-sets agree wave for wave, the hybrid network moves
// to one recomputation per wave once the prediction has held twice and
// says so in its trace, and goes back to its differentials for a small wave.
func TestHybridRecomputesMassiveWaves(t *testing.T) {
	const rows = 200
	mnt := maint.New(maint.Config{})
	stH, hyb := buildWidePQR(t, rows, mnt)
	stI, inc := buildWidePQR(t, rows, nil)
	inc.SetHybrid(false)

	type side struct {
		st *storage.Store
		n  *Network
	}
	sides := []side{{stH, hyb}, {stI, inc}}
	// wave moves the first lim rows to fresh join values and results —
	// q(i, y), r(y, z) become q(i, y+1000), r(y+1000, z+1), so p(i, z)
	// becomes p(i, z+1) — on both networks, and propagates both.
	y, z := make([]int64, rows), make([]int64, rows)
	for i := range y {
		y[i], z[i] = int64(i), int64(i)+1
	}
	wave := func(lim int) {
		t.Helper()
		for i := 0; i < lim; i++ {
			for _, s := range sides {
				apply(t, s.st, s.n, false, "q", tup(int64(i), y[i]))
				apply(t, s.st, s.n, true, "q", tup(int64(i), y[i]+1000))
				apply(t, s.st, s.n, false, "r", tup(y[i], z[i]))
				apply(t, s.st, s.n, true, "r", tup(y[i]+1000, z[i]+1))
			}
			y[i], z[i] = y[i]+1000, z[i]+1
		}
		dh, err := hyb.Propagate()
		if err != nil {
			t.Fatal(err)
		}
		di, err := inc.Propagate()
		if err != nil {
			t.Fatal(err)
		}
		if dh["p"].Len() != 2*lim || !dh["p"].Equal(di["p"]) {
			t.Fatalf("hybrid Δp = %s, differencing Δp = %s, want %d changes", dh["p"], di["p"], 2*lim)
		}
		hyb.ClearBase()
		inc.ClearBase()
	}

	// The first massive wave shows the view what a seed costs; the second
	// is weighed and differentiated; the third is the second in a row
	// predicted cheaper to recompute, and is.
	for round := 0; round < 2; round++ {
		wave(rows)
		if hyb.Recomputed() != 0 {
			t.Fatalf("massive wave %d recomputed before the prediction held twice", round+1)
		}
	}
	wave(rows)
	if hyb.Recomputed() != 1 || hyb.Executed() != 1 {
		t.Fatalf("massive wave 3: recomputed %d view(s) in %d execution(s), want 1 in 1", hyb.Recomputed(), hyb.Executed())
	}
	if tr := hyb.Trace(); len(tr) != 1 || !strings.Contains(tr[0].Differential, "(recomputed)") || tr[0].Influent != "*" {
		t.Errorf("recomputed wave's trace = %+v", tr)
	}
	if inc.Recomputed() != 0 || inc.Executed() != 4 {
		t.Errorf("differencing twin: recomputed %d, executed %d", inc.Recomputed(), inc.Executed())
	}
	if mnt.Switches() != 1 || mnt.StrategyLabel("p") != "recomp" {
		t.Errorf("switches = %d, label %q", mnt.Switches(), mnt.StrategyLabel("p"))
	}
	// A one-row wave is under the floor: differentiated, nothing moves.
	wave(1)
	if hyb.Recomputed() != 0 || hyb.Executed() != inc.Executed() {
		t.Errorf("small wave: recomputed %d, executed %d vs %d", hyb.Recomputed(), hyb.Executed(), inc.Executed())
	}
	if mnt.Switches() != 1 {
		t.Errorf("a wave under the floor switched the strategy: %+v", mnt.Decisions())
	}
}
