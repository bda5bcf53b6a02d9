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

// cold returns a Choose argument predicting n scanned tuples for a
// recomputation nobody has observed yet.
func cold(n int) func() int { return func() int { return n } }

// TestChooserNeverGuessesDifferencing: a view that has not been
// differentiated yet has no differencing cost to weigh, so its wave is
// differentiated whatever its size — the chooser moves on observed
// costs only.
func TestChooserNeverGuessesDifferencing(t *testing.T) {
	m := New(Config{})
	c := m.Chooser("v")
	never := func() int { t.Error("a never-differentiated view was weighed"); return 0 }
	if got := c.Choose(1000000, never); got != Incremental {
		t.Fatalf("first wave = %v, want incremental", got)
	}
	if lbl := m.StrategyLabel("v"); lbl != "" {
		t.Errorf("label %q after an unweighed wave", lbl)
	}
}

// TestChooserFloor: a wave whose predicted differencing cost is under
// DifferenceFloor is differentiated whatever recomputation would cost,
// never asks for the cold estimate, and leaves the chooser untouched —
// even while the view's strategy above the floor is recomputation.
func TestChooserFloor(t *testing.T) {
	m := New(Config{})
	c := m.Chooser("v")
	c.ObserveIncremental(1, 16) // 16 scanned per seed tuple
	never := func() int { t.Error("cold estimate requested under the floor"); return 0 }
	small := DifferenceFloor/16 - 1
	if got := c.Choose(small, never); got != Incremental {
		t.Fatalf("Choose under the floor = %v", got)
	}
	if lbl := m.StrategyLabel("v"); lbl != "" {
		t.Errorf("a wave under the floor was weighed: label %q", lbl)
	}
	for i := 0; i < hysteresisRuns; i++ {
		c.Choose(small+1, cold(1))
	}
	if lbl := m.StrategyLabel("v"); lbl != "recomp" {
		t.Fatalf("label %q after %d waves at the floor that favour recomputation", lbl, hysteresisRuns)
	}
	if got := c.Choose(small, never); got != Incremental {
		t.Fatalf("Choose under the floor after a switch = %v", got)
	}
	if lbl := m.StrategyLabel("v"); lbl != "recomp" {
		t.Errorf("a wave under the floor moved the strategy: label %q", lbl)
	}
	if m.Switches() != 1 || len(m.Decisions()) != 1 {
		t.Errorf("switches = %d, journal = %+v; want the one switch", m.Switches(), m.Decisions())
	}
}

// TestChooserHysteresis: a flip — the first one included — needs the
// alternative to win by hysteresisFactor for hysteresisRuns consecutive
// weighed waves, and only the flip is journaled.
func TestChooserHysteresis(t *testing.T) {
	m := New(Config{})
	c := m.Chooser("v")
	c.ObserveIncremental(1, 10) // 10 scanned per seed tuple
	c.ObserveRecompute(30000)   // 30 000 scanned per recomputation
	const massive, modest = 10000, 100

	// A massive wave favors recompute overwhelmingly, but one is not
	// enough.
	if got := c.Choose(massive, nil); got != Incremental {
		t.Fatalf("decision after 1 favorable wave = %v, want incremental (hysteresis)", got)
	}
	if lbl := m.StrategyLabel("v"); lbl != "incr" {
		t.Errorf("StrategyLabel = %q, want incr (weighed, kept differencing)", lbl)
	}
	if m.Switches() != 0 || len(m.Decisions()) != 0 {
		t.Errorf("a wave that switched nothing was journaled: %+v", m.Decisions())
	}
	if got := c.Choose(massive, nil); got != Recompute {
		t.Fatalf("decision after 2 favorable waves = %v, want recompute", got)
	}
	if lbl := m.StrategyLabel("v"); lbl != "recomp" {
		t.Errorf("StrategyLabel = %q, want recomp", lbl)
	}
	decs := m.Decisions()
	if len(decs) != 1 || decs[0].View != "v" || decs[0].Strategy != Recompute || decs[0].SeedTotal != massive {
		t.Errorf("switch journal = %+v, want the one switch of v to recompute", decs)
	}

	// And back: the waves against the strategy in force must be
	// consecutive.
	for i, seed := range []int{modest, massive, modest} {
		if got := c.Choose(seed, nil); got != Recompute {
			t.Fatalf("wave %d of modest/massive/modest = %v, want recompute still", i, got)
		}
	}
	if got := c.Choose(modest, nil); got != Incremental {
		t.Fatalf("decision after 2 consecutive modest waves = %v, want incremental", got)
	}
	if m.Switches() != 2 {
		t.Errorf("switches = %d, want 2", m.Switches())
	}
}

// TestChooserMarginTooSmall: a cheaper alternative that doesn't clear
// the hysteresis factor never flips the strategy.
func TestChooserMarginTooSmall(t *testing.T) {
	m := New(Config{})
	c := m.Chooser("v")
	c.ObserveIncremental(1, 1000)
	c.ObserveRecompute(800) // cheaper, but 800×1.5 > 1000
	for i := 0; i < 5; i++ {
		if got := c.Choose(1, nil); got != Incremental {
			t.Fatalf("wave %d flipped on a sub-hysteresis margin", i)
		}
	}
	if m.Switches() != 0 {
		t.Errorf("switches = %d, want 0", m.Switches())
	}
}

// toRecompute drives a fresh chooser of m to the recompute strategy.
func toRecompute(t *testing.T, m *Maintainer, view string) *Chooser {
	t.Helper()
	c := m.Chooser(view)
	c.ObserveIncremental(1, 1000)
	c.ObserveRecompute(4)
	for i := 0; i < hysteresisRuns; i++ {
		c.Choose(100, nil)
	}
	if lbl := m.StrategyLabel(view); lbl != "recomp" {
		t.Fatalf("label %q, want recomp", lbl)
	}
	return c
}

// TestResetStrategies: switching the chooser off returns every view to
// the unweighed default; cost history survives for a warm re-enable.
func TestResetStrategies(t *testing.T) {
	m := New(Config{})
	c := toRecompute(t, m, "v")
	m.ResetStrategies()
	if lbl := m.StrategyLabel("v"); lbl != "" {
		t.Errorf("StrategyLabel after reset = %q", lbl)
	}
	c.Choose(100, nil)
	if got := c.Choose(100, nil); got != Recompute {
		t.Errorf("Choose after re-enable = %v, want recompute from the kept costs", got)
	}
	if m.Switches() != 2 {
		t.Errorf("switches = %d, want 2 (leaving the default again is a switch)", m.Switches())
	}
}

// TestChooserSurvivesRebuild: asking for a view's chooser again — what a
// rebuilt network does — returns the same state, and registration for
// counting does not disturb it.
func TestChooserSurvivesRebuild(t *testing.T) {
	m := New(Config{Counting: true})
	c := toRecompute(t, m, "v")
	m.Register("v", "canon")
	if m.Chooser("v") != c {
		t.Error("a second request made a new chooser")
	}
	if got := m.Chooser("v").Choose(100, nil); got != Recompute {
		t.Errorf("strategy lost: Choose = %v", got)
	}
}

func TestNilMaintainerRecordsNothing(t *testing.T) {
	var nilM *Maintainer
	c := nilM.Chooser("v")
	c.ObserveIncremental(1, 1000)
	c.Choose(1000, cold(1))
	if got := c.Choose(1000, cold(1)); got != Recompute {
		t.Errorf("private chooser Choose = %v, want recompute", got)
	}
	if len(nilM.Decisions()) != 0 || nilM.Switches() != 0 || nilM.StrategyLabel("v") != "" {
		t.Error("nil maintainer reported chooser state")
	}
	nilM.OnEnd(false)
	nilM.MarkDirty("v")
}
