package maint

import (
	"strings"
	"testing"

	"partdiff/internal/types"
)

func tup(vs ...int64) types.Tuple {
	t := make(types.Tuple, len(vs))
	for i, v := range vs {
		t[i] = types.Int(v)
	}
	return t
}

// bag builds an Apply argument from (tuple, delta) pairs.
func bag(pairs ...interface{}) *Bag {
	out := &Bag{}
	for i := 0; i < len(pairs); i += 2 {
		n, _ := out.Ref(pairs[i].(types.Tuple))
		*n += int64(pairs[i+1].(int))
	}
	return out
}

// enumOf returns an enumerate callback yielding each tuple as many
// times as its paired multiplicity.
func enumOf(pairs ...interface{}) func(func(types.Tuple) error) error {
	return func(emit func(types.Tuple) error) error {
		for i := 0; i < len(pairs); i += 2 {
			t := pairs[i].(types.Tuple)
			for n := pairs[i+1].(int); n > 0; n-- {
				if err := emit(t); err != nil {
					return err
				}
			}
		}
		return nil
	}
}

func seeded(t *testing.T, cfg Config) *Maintainer {
	t.Helper()
	m := New(cfg)
	m.Register("v", "canon")
	if err := m.Reseed("v", enumOf(tup(1), 2, tup(2), 1)); err != nil {
		t.Fatal(err)
	}
	m.OnEnd(true) // the seeding transaction commits
	return m
}

// TestApplyTransitions pins the counting contract: only 0↔positive
// support transitions surface in the node Δ; everything else is
// support-only bookkeeping.
func TestApplyTransitions(t *testing.T) {
	m := seeded(t, Config{Counting: true})

	// 2→1: a duplicate derivation went away; no Δ, no probe needed.
	d, err := m.Apply("v", bag(tup(1), -1))
	if err != nil {
		t.Fatal(err)
	}
	if !d.IsEmpty() {
		t.Errorf("support 2→1 emitted %v, want nothing", d)
	}
	if n, ok := m.Support("v", tup(1)); !ok || n != 1 {
		t.Errorf("support = %d,%v, want 1,true", n, ok)
	}

	// 1→0: the last derivation went away; a genuine retraction.
	d, err = m.Apply("v", bag(tup(1), -1))
	if err != nil {
		t.Fatal(err)
	}
	if d.Minus().Len() != 1 || !d.Minus().Contains(tup(1)) || d.Plus().Len() != 0 {
		t.Errorf("support 1→0 emitted %v, want -{(1)}", d)
	}

	// 0→2: a new tuple (derived twice at once) is a single insertion.
	d, err = m.Apply("v", bag(tup(3), 2))
	if err != nil {
		t.Fatal(err)
	}
	if d.Plus().Len() != 1 || !d.Plus().Contains(tup(3)) || d.Minus().Len() != 0 {
		t.Errorf("support 0→2 emitted %v, want +{(3)}", d)
	}

	// 1→3: more duplicate support; silent.
	d, err = m.Apply("v", bag(tup(2), 2))
	if err != nil {
		t.Fatal(err)
	}
	if !d.IsEmpty() {
		t.Errorf("support 1→3 emitted %v, want nothing", d)
	}

	// The maintained counts still match a fresh bag evaluation.
	if err := m.VerifyCounts("v", enumOf(tup(2), 3, tup(3), 2)); err != nil {
		t.Errorf("VerifyCounts after transitions: %v", err)
	}
}

func TestApplyUnderflowIsAnError(t *testing.T) {
	m := seeded(t, Config{Counting: true})
	if _, err := m.Apply("v", bag(tup(2), -5)); err == nil || !strings.Contains(err.Error(), "out of sync") {
		t.Fatalf("underflow error = %v, want counts-out-of-sync error", err)
	}
}

func TestApplyRequiresSeededCounts(t *testing.T) {
	m := New(Config{Counting: true})
	m.Register("v", "canon")
	if _, err := m.Apply("v", bag(tup(1), 1)); err == nil {
		t.Fatal("Apply on unseeded counts succeeded")
	}
	if !m.NeedsReseed("v") {
		t.Error("unseeded view does not report NeedsReseed")
	}
	if _, err := m.Apply("nosuch", bag(tup(1), 1)); err == nil {
		t.Fatal("Apply on unregistered view succeeded")
	}
}

// TestRollbackRestoresCounts drives every undo-journal entry kind
// through an abort and checks the pre-transaction image comes back
// exactly: per-key count changes, a mid-transaction reseed (whole-store
// swap), and a MarkDirty flag.
func TestRollbackRestoresCounts(t *testing.T) {
	m := seeded(t, Config{Counting: true})

	if _, err := m.Apply("v", bag(tup(1), -2, tup(2), 1, tup(9), 3)); err != nil {
		t.Fatal(err)
	}
	if err := m.Reseed("v", enumOf(tup(7), 1)); err != nil {
		t.Fatal(err)
	}
	m.MarkDirty("v")
	m.OnEnd(false) // abort

	if m.NeedsReseed("v") {
		t.Error("rollback left the view unseeded/dirty")
	}
	for _, c := range []struct {
		tu   types.Tuple
		want int64
	}{{tup(1), 2}, {tup(2), 1}, {tup(9), 0}, {tup(7), 0}} {
		if n, ok := m.Support("v", c.tu); !ok || n != c.want {
			t.Errorf("support%s = %d,%v after rollback, want %d,true", c.tu, n, ok, c.want)
		}
	}
	if err := m.VerifyCounts("v", enumOf(tup(1), 2, tup(2), 1)); err != nil {
		t.Errorf("VerifyCounts after rollback: %v", err)
	}
}

func TestCommitKeepsChanges(t *testing.T) {
	m := seeded(t, Config{Counting: true})
	if _, err := m.Apply("v", bag(tup(1), -1)); err != nil {
		t.Fatal(err)
	}
	m.OnEnd(true)
	// A later abort must not resurrect the committed transaction's
	// journal.
	m.OnEnd(false)
	if n, _ := m.Support("v", tup(1)); n != 1 {
		t.Errorf("support after commit = %d, want 1", n)
	}
}

// TestRegisterCanon: re-registering with the same canonical definition
// keeps the counts; a changed definition drops them for lazy reseed.
func TestRegisterCanon(t *testing.T) {
	m := seeded(t, Config{Counting: true})
	m.OnEnd(true)

	m.Register("v", "canon")
	if m.NeedsReseed("v") {
		t.Error("same-definition registration dropped the counts")
	}
	m.Register("v", "canon2")
	if !m.NeedsReseed("v") {
		t.Error("changed-definition registration kept stale counts")
	}
	// The drop is journaled: a rollback restores the old counts.
	m.OnEnd(false)
	if m.NeedsReseed("v") {
		t.Error("rolled-back redefinition left the counts dropped")
	}
	if n, ok := m.Support("v", tup(1)); !ok || n != 2 {
		t.Errorf("support = %d,%v after redefinition rollback, want 2,true", n, ok)
	}
}

func TestMarkDirtyForcesReseed(t *testing.T) {
	m := seeded(t, Config{Counting: true})
	m.OnEnd(true)
	m.MarkDirty("v")
	if !m.NeedsReseed("v") {
		t.Error("dirty view does not need a reseed")
	}
	if _, ok := m.Support("v", tup(1)); ok {
		t.Error("dirty view still answers Support queries")
	}
	// Dirty counts are vacuously consistent — they reseed before use.
	if err := m.VerifyCounts("v", enumOf()); err != nil {
		t.Errorf("VerifyCounts on dirty view: %v", err)
	}
}

func TestVerifyCountsDetectsDrift(t *testing.T) {
	m := seeded(t, Config{Counting: true})
	if err := m.VerifyCounts("v", enumOf(tup(1), 2, tup(2), 1)); err != nil {
		t.Errorf("consistent counts reported drift: %v", err)
	}
	if err := m.VerifyCounts("v", enumOf(tup(1), 1, tup(2), 1)); err == nil {
		t.Error("wrong multiplicity not detected")
	}
	if err := m.VerifyCounts("v", enumOf(tup(1), 2)); err == nil {
		t.Error("stale supported tuple not detected")
	}
	if err := m.VerifyCounts("v", enumOf(tup(1), 2, tup(2), 1, tup(4), 1)); err == nil {
		t.Error("missing tuple not detected")
	}
}

// TestSetCountingInvalidatesSeeds: enabling counting after it was off
// must force a reseed — whatever the counts say predates the gap.
func TestSetCountingInvalidatesSeeds(t *testing.T) {
	m := seeded(t, Config{Counting: true})
	m.OnEnd(true)
	m.SetCounting(false)
	m.SetCounting(true)
	m.OnEnd(true)
	if !m.NeedsReseed("v") {
		t.Error("re-enabled counting trusts counts from before the gap")
	}
}

// TestChooserFirstDecision: the first decision for a view is taken
// without hysteresis, and counts as a switch exactly when it moves the
// view off the Incremental default.
func TestChooserFirstDecision(t *testing.T) {
	m := New(Config{Hybrid: true})
	m.Register("tiny", "c")
	m.Register("big", "c")

	// Tiny extent, massive seed: recompute wins cold (extent×4 vs
	// seed×16) and the first decision is journaled as a switch.
	if got := m.Choose("tiny", 100, 1); got != Recompute {
		t.Fatalf("Choose(tiny) = %v, want recompute", got)
	}
	if m.Switches() != 1 {
		t.Errorf("switches = %d after first recompute decision, want 1", m.Switches())
	}
	// Large extent, small seed: incremental wins; staying on the
	// default is not a switch.
	if got := m.Choose("big", 1, 1000); got != Incremental {
		t.Fatalf("Choose(big) = %v, want incremental", got)
	}
	if m.Switches() != 1 {
		t.Errorf("switches = %d after incremental decision, want 1", m.Switches())
	}
	decs := m.Decisions()
	if len(decs) != 2 || !decs[0].Switched || decs[1].Switched {
		t.Errorf("decision journal = %+v, want [switched, not-switched]", decs)
	}
}

// TestChooserHysteresis: after the first decision a flip needs the
// alternative to win by HysteresisFactor for HysteresisRuns consecutive
// waves.
func TestChooserHysteresis(t *testing.T) {
	m := New(Config{Hybrid: true, HysteresisRuns: 2, HysteresisFactor: 2})
	m.Register("v", "c")
	if got := m.Choose("v", 1, 1000); got != Incremental {
		t.Fatalf("first decision = %v, want incremental", got)
	}

	// Observed costs now favor recompute overwhelmingly…
	m.ObserveIncremental("v", 1, 1000) // 1000 scanned per seed tuple
	m.ObserveRecompute("v", 10)        // 10 scanned per recompute

	// …but one wave is not enough.
	if got := m.Choose("v", 1, 1000); got != Incremental {
		t.Fatalf("decision after 1 favorable wave = %v, want incremental (hysteresis)", got)
	}
	if got := m.Choose("v", 1, 1000); got != Recompute {
		t.Fatalf("decision after 2 favorable waves = %v, want recompute", got)
	}
	if m.Switches() != 1 {
		t.Errorf("switches = %d, want 1", m.Switches())
	}
	if lbl := m.StrategyLabel("v"); lbl != "recomp" {
		t.Errorf("StrategyLabel = %q, want recomp", lbl)
	}
}

// TestChooserMarginTooSmall: a cheaper alternative that doesn't clear
// the hysteresis factor never flips the strategy.
func TestChooserMarginTooSmall(t *testing.T) {
	m := New(Config{Hybrid: true, HysteresisRuns: 2, HysteresisFactor: 2})
	m.Register("v", "c")
	m.Choose("v", 1, 1000)
	m.ObserveIncremental("v", 1, 1000)
	m.ObserveRecompute("v", 600) // cheaper, but 600×2 > 1000
	for i := 0; i < 5; i++ {
		if got := m.Choose("v", 1, 1000); got != Incremental {
			t.Fatalf("wave %d flipped on a sub-hysteresis margin", i)
		}
	}
	if m.Switches() != 0 {
		t.Errorf("switches = %d, want 0", m.Switches())
	}
}

// TestSetHybridOffResetsDecisions: disabling the chooser returns every
// view to incremental; cost history survives for a warm re-enable.
func TestSetHybridOffResetsDecisions(t *testing.T) {
	m := New(Config{Hybrid: true})
	m.Register("v", "c")
	m.Choose("v", 100, 1) // recompute
	m.SetHybrid(false)
	if got := m.Choose("v", 100, 1); got != Incremental {
		t.Errorf("Choose with hybrid off = %v, want incremental", got)
	}
	if lbl := m.StrategyLabel("v"); lbl == "recomp" {
		t.Errorf("StrategyLabel with hybrid off = %q", lbl)
	}
	m.SetHybrid(true)
	if got := m.Choose("v", 100, 1); got != Recompute {
		t.Errorf("Choose after re-enable = %v, want recompute", got)
	}
}

func TestChooseDisabledRecordsNothing(t *testing.T) {
	m := New(Config{})
	m.Register("v", "c")
	if got := m.Choose("v", 1000, 1); got != Incremental {
		t.Errorf("Choose with hybrid off = %v", got)
	}
	if len(m.Decisions()) != 0 || m.Switches() != 0 {
		t.Error("disabled chooser journaled decisions")
	}
	var nilM *Maintainer
	if got := nilM.Choose("v", 1, 1); got != Incremental {
		t.Errorf("nil maintainer Choose = %v", got)
	}
	nilM.ObserveIncremental("v", 1, 1)
	nilM.ObserveRecompute("v", 1)
	nilM.OnEnd(false)
	nilM.MarkDirty("v")
}
