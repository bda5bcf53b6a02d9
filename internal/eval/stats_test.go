package eval

import (
	"strings"
	"testing"

	"partdiff/internal/delta"
	"partdiff/internal/objectlog"
	"partdiff/internal/types"
)

func TestStatsNilSafe(t *testing.T) {
	var s *Stats
	s.RecordPred("p", 5)
	s.RecordLiteral("p", objectlog.DeltaNone, 1, 10)
	if _, ok := s.PredCard("p"); ok {
		t.Error("nil stats returned a cardinality")
	}
	if _, ok := s.LitScanned("p", objectlog.DeltaNone, 1); ok {
		t.Error("nil stats returned a scan volume")
	}
	s.Reset()
	var b strings.Builder
	if _, err := s.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "adaptive statistics: off") {
		t.Errorf("nil WriteTo: %q", b.String())
	}
}

func TestStatsEWMA(t *testing.T) {
	s := NewStats()
	// First observation is taken as-is.
	s.RecordPred("p", 100)
	if c, ok := s.PredCard("p"); !ok || c != 100 {
		t.Fatalf("first observation: %d, %v", c, ok)
	}
	// Second blends with α=0.3: 0.7*100 + 0.3*0 = 70.
	s.RecordPred("p", 0)
	if c, _ := s.PredCard("p"); c != 70 {
		t.Errorf("EWMA after 100,0: %d want 70", c)
	}
	// Repeated observations converge to the new level.
	for i := 0; i < 40; i++ {
		s.RecordPred("p", 10)
	}
	if c, _ := s.PredCard("p"); c != 10 {
		t.Errorf("EWMA converged to %d want 10", c)
	}

	// Literal volumes are keyed by (pred, Δ, mask): different masks are
	// independent observations.
	s.RecordLiteral("q", objectlog.DeltaNone, 0b01, 50)
	s.RecordLiteral("q", objectlog.DeltaNone, 0b10, 7)
	if v, _ := s.LitScanned("q", objectlog.DeltaNone, 0b01); v != 50 {
		t.Errorf("mask 01: %d", v)
	}
	if v, _ := s.LitScanned("q", objectlog.DeltaNone, 0b10); v != 7 {
		t.Errorf("mask 10: %d", v)
	}
	if _, ok := s.LitScanned("q", objectlog.DeltaPlus, 0b01); ok {
		t.Error("Δ-kind must separate keys")
	}

	s.Reset()
	if _, ok := s.PredCard("p"); ok {
		t.Error("Reset kept predicate cards")
	}

	var b strings.Builder
	s.RecordPred("p", 3)
	s.RecordLiteral("q", objectlog.DeltaPlus, 1, 9)
	if _, err := s.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "p") || !strings.Contains(out, "q") {
		t.Errorf("WriteTo missing observations:\n%s", out)
	}
}

// statsEnv: derived function tiny(X) over a 3-row base relation sel,
// plus a 200-row base relation wide with a 50-tuple Δ.
func statsEnv(t *testing.T) (*testEnv, *Evaluator) {
	t.Helper()
	env := newTestEnv()
	env.store.CreateRelation("wide", 2, nil)
	for i := int64(0); i < 200; i++ {
		env.mustInsert(t, "wide", i, i)
	}
	env.store.CreateRelation("sel", 2, nil)
	for i := int64(0); i < 3; i++ {
		env.mustInsert(t, "sel", i, i*10)
	}
	d := delta.New()
	for i := int64(0); i < 50; i++ {
		d.Insert(tup(i, i))
	}
	env.deltas["wide"] = d
	def := &objectlog.Def{Name: "tiny", Arity: 2, Clauses: []objectlog.Clause{
		objectlog.NewClause(
			objectlog.Lit("tiny", objectlog.V("X"), objectlog.V("Y")),
			objectlog.Lit("sel", objectlog.V("X"), objectlog.V("Y"))),
	}}
	if err := env.prog.Define(def); err != nil {
		t.Fatal(err)
	}
	return env, New(env)
}

// TestDerivedPrior checks the structural fallback: before any
// observation, a derived predicate's extent is estimated from its
// smallest base body literal — not the blind 10000 guess.
func TestDerivedPrior(t *testing.T) {
	_, ev := statsEnv(t)
	if got := ev.derivedPrior("tiny"); got != 3 {
		t.Errorf("derivedPrior(tiny)=%d want 3 (len of sel)", got)
	}
	if got := ev.derivedPrior("nosuch"); got != 10000 {
		t.Errorf("derivedPrior(nosuch)=%d want 10000", got)
	}
}

// TestLiteralCostAdaptiveReRanking is the optimizer feedback test: with
// stats installed, a small derived literal must out-rank the Δ anchor
// that the static model would pick, and an observed scan volume must
// override the static index-selectivity estimate.
func TestStepCostAdaptiveReRanking(t *testing.T) {
	_, ev := statsEnv(t)
	deltaLit := objectlog.Lit("wide", objectlog.V("X"), objectlog.V("Y")).WithDelta(objectlog.DeltaPlus)
	derivedLit := objectlog.Lit("tiny", objectlog.V("X"), objectlog.V("Y"))

	// Static model: the derived subquery is guessed at 10000 and loses
	// to the 50-tuple Δ anchor.
	dc, _ := costOf(t, ev, deltaLit)
	tc, _ := costOf(t, ev, derivedLit)
	if tc <= dc {
		t.Fatalf("static: derived %d should lose to Δ %d", tc, dc)
	}

	// With stats (even empty), the structural prior already re-ranks:
	// tiny's only body literal is the 3-row sel.
	ev.SetStats(NewStats())
	tc2, _ := costOf(t, ev, derivedLit)
	if tc2 >= dc {
		t.Errorf("prior-informed derived cost %d should beat Δ anchor %d", tc2, dc)
	}

	// An observed cardinality takes over from the prior.
	ev.stats.RecordPred("tiny", 1)
	tc3, _ := costOf(t, ev, derivedLit)
	if tc3 >= tc2 {
		t.Errorf("observed card 1 should rank below prior: %d vs %d", tc3, tc2)
	}

	// Observed literal scan volume overrides the static index estimate:
	// pretend probing wide with X bound in fact scanned 150 tuples.
	boundLit := objectlog.Lit("wide", objectlog.V("X"), objectlog.V("Y"))
	static, _ := costOf(t, ev, boundLit, "X")
	ev.stats.RecordLiteral("wide", objectlog.DeltaNone, 0b01, 150)
	observed, _ := costOf(t, ev, boundLit, "X")
	if observed <= static {
		t.Errorf("observed scan volume must raise the cost: static %d, observed %d", static, observed)
	}
	if observed != 8+150 {
		t.Errorf("observed cost = %d want 158", observed)
	}
}

// TestEvalFeedsStats checks the recording side: evaluating a clause
// against the store populates literal scan volumes, and a full
// enumeration of a derived predicate records its cardinality.
func TestEvalFeedsStats(t *testing.T) {
	env, ev := statsEnv(t)
	st := NewStats()
	ev.SetStats(st)

	// EvalPred over the derived predicate records its extent.
	out, err := ev.EvalPred("tiny", false)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 3 {
		t.Fatalf("tiny extent = %d", out.Len())
	}
	if c, ok := st.PredCard("tiny"); !ok || c != 3 {
		t.Errorf("PredCard(tiny) = %d, %v; want 3 observed", c, ok)
	}

	// Clause evaluation records the scan volume of the anchoring
	// literal shape.
	cl := objectlog.NewClause(
		objectlog.Lit("ans", objectlog.V("X")),
		objectlog.Lit("sel", objectlog.V("X"), objectlog.V("Y")))
	if err := ev.EvalClause(cl, types.NewSet()); err != nil {
		t.Fatal(err)
	}
	if v, ok := st.LitScanned("sel", objectlog.DeltaNone, 0); !ok || v == 0 {
		t.Errorf("LitScanned(sel) = %d, %v; want observed scan", v, ok)
	}
	_ = env
}
