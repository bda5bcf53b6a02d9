package partdiff

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"time"

	"partdiff/internal/faultinject"
)

// The counting equivalence property: derivation-count maintenance only
// changes HOW the monitor maintains derived views (support bookkeeping
// instead of §7.2 membership probes and recomputation on deletes),
// never WHAT it derives — so monitoring with counting on and off must
// be observably identical on every workload: same stored state, same
// rule firings in the same order, same answers when the maintained
// views are probed. The same holds under the default Hybrid monitor,
// whatever per-wave strategies it picks (hybrid_matrix_test.go sweeps
// the Δ sizes that make it pick both, counting on and off). These tests
// drive the property over seeded workloads skewed toward deletions and
// mixed insert/delete transactions; `bench -exp hybrid` asserts it again
// on the paper's benchmark database.

// countingSchema is a shared derived view with duplicate support: every
// item's threshold is derived once per supplier, and all suppliers of
// an item agree on the value — so removing one supplier is a
// support-only change (the counting twin decrements and emits nothing)
// while removing the last one is a genuine retraction.
const countingSchema = `
create type item;
create type supplier;
create function quantity(item) -> integer;
create function min_stock(item) -> integer;
create function consume_freq(item) -> integer;
create function supplies(supplier) -> item;
create function delivery_time(item i, supplier s) -> integer;
create shared function threshold(item i) -> integer
    as
    select consume_freq(i) * delivery_time(i, s) + min_stock(i)
    for each supplier s where supplies(s) = i;
create rule low() as
    when for each item i
    where quantity(i) < threshold(i)
    do record(i);
create item instances :i1, :i2;
create supplier instances :s1, :s2, :s3, :s4, :s5, :s6;
set consume_freq(:i1) = 2;
set consume_freq(:i2) = 2;
set min_stock(:i1) = 4;
set min_stock(:i2) = 4;
set quantity(:i1) = 100;
set quantity(:i2) = 100;
set delivery_time(:i1, :s1) = 3;
set delivery_time(:i1, :s2) = 3;
set delivery_time(:i1, :s3) = 3;
set delivery_time(:i1, :s4) = 3;
set delivery_time(:i1, :s5) = 3;
set delivery_time(:i1, :s6) = 3;
set delivery_time(:i2, :s1) = 3;
set delivery_time(:i2, :s2) = 3;
set delivery_time(:i2, :s3) = 3;
set delivery_time(:i2, :s4) = 3;
set delivery_time(:i2, :s5) = 3;
set delivery_time(:i2, :s6) = 3;
set supplies(:s1) = :i1;
set supplies(:s2) = :i1;
set supplies(:s3) = :i1;
set supplies(:s4) = :i2;
set supplies(:s5) = :i2;
set supplies(:s6) = :i2;
activate low();
`

// countingTwinDBs opens a counting/plain DB pair with identical
// recording procedures and print outputs. The plain twin is the
// partial-differencing reference; the counting twin runs the default
// Hybrid monitor when hybrid is set and partial differencing too when
// not.
func countingTwinDBs(t *testing.T, hybrid bool) (on, off *DB, firedOn, firedOff *[]string, outOn, outOff *bytes.Buffer) {
	t.Helper()
	mk := func(fired *[]string, opts ...Option) *DB {
		db := Open(opts...)
		if err := db.RegisterProcedure("record", func(args []Value) error {
			*fired = append(*fired, fmt.Sprintf("record%v", args))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return db
	}
	var fOn, fOff []string
	onOpts := []Option{WithCounting()}
	if !hybrid {
		onOpts = append(onOpts, WithMode(Incremental))
	}
	on = mk(&fOn, onOpts...)
	off = mk(&fOff, WithMode(Incremental))
	var bOn, bOff bytes.Buffer
	on.SetOutput(&bOn)
	off.SetOutput(&bOff)
	return on, off, &fOn, &fOff, &bOn, &bOff
}

// assertCountingTwinsEqual compares everything observable about the
// twins, probes the maintained view on both, and audits the counting
// twin's invariants (which include VerifyCounts: maintained counts must
// equal a fresh bag evaluation).
func assertCountingTwinsEqual(t *testing.T, on, off *DB, firedOn, firedOff *[]string, outOn, outOff *bytes.Buffer) {
	t.Helper()
	if !reflect.DeepEqual(*firedOn, *firedOff) {
		t.Errorf("firings diverge:\ncounting: %v\nplain:    %v", *firedOn, *firedOff)
	}
	sOn, sOff := on.Session().Store().Snapshot(), off.Session().Store().Snapshot()
	if !reflect.DeepEqual(sOn, sOff) {
		t.Errorf("stored state diverges:\ncounting: %v\nplain:    %v", sOn, sOff)
	}
	if outOn.String() != outOff.String() {
		t.Errorf("print output diverges:\ncounting: %q\nplain:    %q", outOn.String(), outOff.String())
	}
	// Probe the maintained view directly: the answer a user gets when
	// asking WHY the monitor is (or isn't) firing must not depend on the
	// maintenance strategy.
	for _, q := range []string{
		`select threshold(i) for each item i;`,
		`select i for each item i where quantity(i) < threshold(i);`,
	} {
		rOn, errOn := on.Exec(q)
		rOff, errOff := off.Exec(q)
		if (errOn == nil) != (errOff == nil) {
			t.Fatalf("probe %q errors diverge: counting %v, plain %v", q, errOn, errOff)
		}
		if !reflect.DeepEqual(rOn, rOff) {
			t.Errorf("probe %q diverges:\ncounting: %v\nplain:    %v", q, rOn, rOff)
		}
	}
	if err := on.CheckInvariants(); err != nil {
		t.Errorf("counting DB invariants: %v", err)
	}
	if err := off.CheckInvariants(); err != nil {
		t.Errorf("plain DB invariants: %v", err)
	}
}

// genCountingScript draws one random transaction. profile "delete"
// skews toward retracting supplier assignments (support decrements and
// genuine retractions of the shared threshold view); profile "mixed"
// balances inserts, moves, value changes and deletions. sup tracks the
// generator's model of supplies() so removals are valid.
func genCountingScript(rng *rand.Rand, steps int, profile string, sup map[string]string) []string {
	items := []string{":i1", ":i2"}
	sups := []string{":s1", ":s2", ":s3", ":s4", ":s5", ":s6"}
	script := make([]string, 0, steps)
	for j := 0; j < steps; j++ {
		s := sups[rng.Intn(len(sups))]
		it := items[rng.Intn(len(items))]
		var delW, moveW int
		if profile == "delete" {
			delW, moveW = 50, 15
		} else {
			delW, moveW = 20, 25
		}
		switch p := rng.Intn(100); {
		case p < delW:
			if cur, ok := sup[s]; ok {
				script = append(script, fmt.Sprintf("remove supplies(%s) = %s;", s, cur))
				delete(sup, s)
			} else {
				script = append(script, fmt.Sprintf("set supplies(%s) = %s;", s, it))
				sup[s] = it
			}
		case p < delW+moveW:
			script = append(script, fmt.Sprintf("set supplies(%s) = %s;", s, it))
			sup[s] = it
		case p < delW+moveW+15:
			// Changing a delivery time splits (or re-merges) the duplicate
			// support of the item's threshold value.
			script = append(script, fmt.Sprintf("set delivery_time(%s, %s) = %d;", it, s, 3+2*rng.Intn(2)))
		default:
			script = append(script, fmt.Sprintf("set quantity(%s) = %d;", it, rng.Intn(20)))
		}
	}
	return script
}

// initialSupplies is the generator's model of the schema's supplier
// assignments.
func initialSupplies() map[string]string {
	return map[string]string{
		":s1": ":i1", ":s2": ":i1", ":s3": ":i1",
		":s4": ":i2", ":s5": ":i2", ":s6": ":i2",
	}
}

// runCountingEquivalence drives one twin pair through seeded random
// transactions, comparing everything observable after each one.
func runCountingEquivalence(t *testing.T, hybrid bool, profile string, seed int64) {
	on, off, fOn, fOff, bOn, bOff := countingTwinDBs(t, hybrid)
	on.MustExec(countingSchema)
	off.MustExec(countingSchema)
	if !on.Counting() || off.Counting() {
		t.Fatal("twin counting flags wrong")
	}

	rng := rand.New(rand.NewSource(seed))
	sup := initialSupplies()
	txns := 10
	if testing.Short() {
		txns = 4
	}
	for txn := 0; txn < txns; txn++ {
		script := genCountingScript(rng, 1+rng.Intn(6), profile, sup)
		errOn := runScript(on, script)
		errOff := runScript(off, script)
		if (errOn == nil) != (errOff == nil) {
			t.Fatalf("txn %d: errors diverge: counting %v, plain %v", txn, errOn, errOff)
		}
		assertCountingTwinsEqual(t, on, off, fOn, fOff, bOn, bOff)
	}

	// Vacuity gates. Every wave here is counted — with the chooser on
	// too, because waves over these tiny extents stay under its floor:
	// the twin must have folded derivation-count deltas and, on the
	// delete-skewed profile, detected at least one genuine retraction
	// (support hit zero) without recomputing.
	if on.Hybrid() != hybrid {
		t.Fatalf("counting twin: Hybrid() = %v, want %v", on.Hybrid(), hybrid)
	}
	reg := on.Observability().Registry
	if n := reg.CounterValue("partdiff_maint_applied_total"); n == 0 {
		t.Error("counting twin never applied a derivation-count delta; the equivalence check is vacuous")
	}
	if profile == "delete" {
		if n := reg.CounterValue("partdiff_maint_retractions_total"); n == 0 {
			t.Error("delete-heavy workload produced no counting-detected retraction")
		}
	}
	if n := off.Observability().Registry.CounterValue("partdiff_maint_applied_total"); n != 0 {
		t.Errorf("plain twin applied %d count deltas", n)
	}
	if len(*fOn) == 0 {
		t.Error("workload fired no rules; the firing comparison is vacuous")
	}
}

// TestCountingEquivalenceRandom: counting vs plain over delete-skewed
// and mixed seeded workloads.
func TestCountingEquivalenceRandom(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, profile := range []string{"delete", "mixed"} {
		for _, seed := range seeds {
			t.Run(fmt.Sprintf("%s/seed=%d", profile, seed), func(t *testing.T) {
				runCountingEquivalence(t, false, profile, seed)
			})
		}
	}
}

// TestCountingHybridEquivalenceRandom runs the counting twin under the
// default Hybrid monitor against the partial-differencing reference.
func TestCountingHybridEquivalenceRandom(t *testing.T) {
	seeds := []int64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runCountingEquivalence(t, true, "delete", seed)
		})
	}
}

// TestCountingEquivalenceScripts replays every shipped example script
// on a counting database under the default monitor and on a plain
// partial-differencing one, and compares everything observable.
func TestCountingEquivalenceScripts(t *testing.T) {
	scripts, err := filepath.Glob("examples/scripts/*.amosql")
	if err != nil {
		t.Fatal(err)
	}
	if len(scripts) == 0 {
		t.Fatal("no example scripts found")
	}
	for _, path := range scripts {
		t.Run(filepath.Base(path), func(t *testing.T) {
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			mk := func(fired *[]string, opts ...Option) *DB {
				db := Open(opts...)
				if err := db.RegisterProcedure("order", func(args []Value) error {
					*fired = append(*fired, fmt.Sprintf("order%v", args))
					return nil
				}); err != nil {
					t.Fatal(err)
				}
				return db
			}
			var fOn, fOff []string
			on := mk(&fOn, WithCounting())
			off := mk(&fOff, WithMode(Incremental))
			var bOn, bOff bytes.Buffer
			on.SetOutput(&bOn)
			off.SetOutput(&bOff)
			resOn, errOn := on.Exec(string(src))
			resOff, errOff := off.Exec(string(src))
			if (errOn == nil) != (errOff == nil) {
				t.Fatalf("script errors diverge: counting %v, plain %v", errOn, errOff)
			}
			if errOn != nil {
				t.Fatalf("script failed: %v", errOn)
			}
			if !reflect.DeepEqual(resOn, resOff) {
				t.Errorf("statement results diverge:\ncounting: %v\nplain:    %v", resOn, resOff)
			}
			if !reflect.DeepEqual(fOn, fOff) {
				t.Errorf("firings diverge:\ncounting: %v\nplain:    %v", fOn, fOff)
			}
			if bOn.String() != bOff.String() {
				t.Errorf("print output diverges:\ncounting: %q\nplain:    %q", bOn.String(), bOff.String())
			}
			if err := on.CheckInvariants(); err != nil {
				t.Errorf("counting DB invariants: %v", err)
			}
		})
	}
}

// sweepBulk is the size of the population TestFaultSweepHybrid adds to
// countingSchema: enough that a transaction updating all of it is worth
// recomputing, few enough to sweep a fault over every operation of it.
const (
	sweepBulk   = 10
	sweepWarmup = 6
)

// bulkPopulation creates sweepBulk more items, three suppliers each.
func bulkPopulation() string {
	var b bytes.Buffer
	for i := 0; i < sweepBulk; i++ {
		fmt.Fprintf(&b, "create item instances :b%d;\nset quantity(:b%d) = 100;\n", i, i)
		for _, s := range "tuv" {
			fmt.Fprintf(&b, "create supplier instances :%c%d;\nset supplies(:%c%d) = :b%d;\n", s, i, s, i, i)
		}
	}
	return b.String()
}

// bulkUpdate rewrites three of the relations the shared threshold view
// reads, for every bulk item, and drops a quarter of the items below
// their new threshold — a different quarter, and different values, each
// round.
func bulkUpdate(round int) []string {
	var script []string
	for i := 0; i < sweepBulk; i++ {
		q := 100 + round
		if i%4 == round%4 {
			q = 1
		}
		script = append(script,
			fmt.Sprintf("set consume_freq(:b%d) = %d;", i, 2+round%2),
			fmt.Sprintf("set min_stock(:b%d) = %d;", i, 4+round),
			fmt.Sprintf("set quantity(:b%d) = %d;", i, q))
		for _, s := range "tuv" {
			script = append(script, fmt.Sprintf("set delivery_time(:b%d, :%c%d) = %d;", i, s, i, 3+round%3))
		}
	}
	return script
}

// TestFaultSweepHybrid re-runs the fault-sweep discipline on the default
// (Hybrid) monitor with counting on, over the two waves that are its
// own: one the chooser recomputes (the derivation counts are bypassed
// and marked stale, journaled) and the small one after it (under the
// floor, so differentiated: the stale counts reseed inside the swept
// transaction). A fault at every operation index of either must surface,
// roll back cleanly — counts, stale marks and reseeds included — and
// leave a survivor that replays to the same state and firings as a
// fresh DB.
func TestFaultSweepHybrid(t *testing.T) {
	stride := 1
	if testing.Short() {
		stride = 7
	}
	// mkDB returns a database six massive transactions old: the first few
	// show the views what a seed tuple costs them, the next two are
	// predicted cheaper to recompute, and from then on they are.
	mkDB := func(fired *[]string) *DB {
		db := Open(WithCounting())
		db.RegisterProcedure("record", func(args []Value) error {
			*fired = append(*fired, fmt.Sprintf("%v", args[0]))
			return nil
		})
		db.MustExec(countingSchema)
		db.MustExec(bulkPopulation())
		for round := 0; round < sweepWarmup; round++ {
			if err := runScript(db, bulkUpdate(round)); err != nil {
				t.Fatalf("warm-up round %d: %v", round, err)
			}
		}
		return db
	}
	for _, tc := range []struct {
		name       string
		script     []string
		recomputed bool
	}{
		{"recomputed", bulkUpdate(sweepWarmup), true},
		{"reseeding", genCountingScript(rand.New(rand.NewSource(1)), 8, "delete", initialSupplies()), false},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			var baseFired []string
			base := mkDB(&baseFired)
			if !base.Counting() || !base.Hybrid() {
				t.Fatal("sweep DB lost its maintenance options")
			}
			mnt := base.Session().Rules().Maintainer()
			if mnt.StrategyLabel("threshold") != "recomp" {
				t.Fatalf("warm-up left the shared view on %q; the sweep is vacuous\n%v",
					mnt.StrategyLabel("threshold"), mnt.Decisions())
			}
			reg := base.Observability().Registry
			recomp0, reseeds0 := base.Stats().NaiveRecomputations, reg.CounterValue("partdiff_maint_reseeds_total")
			inj := faultinject.New()
			base.Session().SetInjector(inj)
			baseFired = nil
			if err := runScript(base, tc.script); err != nil {
				t.Fatalf("clean run failed: %v", err)
			}
			if got := base.Stats().NaiveRecomputations > recomp0; got != tc.recomputed {
				t.Fatalf("swept wave recomputed = %v, want %v; the sweep is vacuous", got, tc.recomputed)
			}
			if !tc.recomputed && reg.CounterValue("partdiff_maint_reseeds_total") == reseeds0 {
				t.Fatal("swept wave reseeded no stale counts; the sweep is vacuous")
			}
			baseState := base.Session().Store().Snapshot()
			ops := inj.Ops()
			if ops == 0 {
				t.Fatal("clean run hit no fault points; sweep is vacuous")
			}

			for idx := 0; idx < ops; idx += stride {
				kind := faultinject.Error
				if idx%2 == 1 {
					kind = faultinject.Panic
				}
				var fired []string
				db := mkDB(&fired)
				inj := faultinject.New()
				db.Session().SetInjector(inj)
				pre := db.Session().Store().Snapshot()
				fired = nil
				inj.ArmIndex(idx, kind)

				err := runScript(db, tc.script)
				if err == nil {
					t.Errorf("op %d (%v): injected fault did not surface", idx, kind)
					continue
				}
				if errors.Is(err, ErrCorrupt) {
					t.Errorf("op %d (%v): forward-phase fault poisoned the DB: %v", idx, kind, err)
					continue
				}
				if got := db.Session().Store().Snapshot(); !reflect.DeepEqual(got, pre) {
					t.Errorf("op %d (%v): store differs from pre-transaction snapshot", idx, kind)
				}
				if ierr := db.CheckInvariants(); ierr != nil {
					t.Errorf("op %d (%v): invariants after rollback: %v", idx, kind, ierr)
				}
				fired = nil
				if rerr := runScript(db, tc.script); rerr != nil {
					t.Errorf("op %d (%v): survivor replay failed: %v", idx, kind, rerr)
					continue
				}
				if !reflect.DeepEqual(fired, baseFired) {
					t.Errorf("op %d (%v): survivor fired %v, fresh DB fired %v", idx, kind, fired, baseFired)
				}
				if got := db.Session().Store().Snapshot(); !reflect.DeepEqual(got, baseState) {
					t.Errorf("op %d (%v): survivor state diverges from baseline", idx, kind)
				}
				if ierr := db.CheckInvariants(); ierr != nil {
					t.Errorf("op %d (%v): invariants after survivor replay: %v", idx, kind, ierr)
				}
			}
		})
	}
}

// TestRuntimeToggleThenMutate pins the deadlock fix for runtime
// maintenance toggles. SetCounting (like SetStaticPruning and the other
// network-invalidating setters) marks the propagation network
// for rebuild, and the next physical update event arrives with the
// store's write lock held — where a rebuild would re-run the Δ-effect
// analysis, re-read store capabilities, and self-deadlock on that very
// lock. The monitor must instead buffer dirty-network events and fold
// them in at the next safe rebuild (the commit's check phase). The
// drive runs under a panic watchdog so a regression fails loudly with
// all goroutine stacks instead of hanging the suite, and the twin
// equivalence at the end proves no buffered event was lost or replayed
// across the rebuilds — including those of a rolled-back transaction.
func TestRuntimeToggleThenMutate(t *testing.T) {
	watchdog := time.AfterFunc(60*time.Second, func() {
		buf := make([]byte, 1<<20)
		panic(fmt.Sprintf("runtime toggle followed by a mutation deadlocked\n%s",
			buf[:runtime.Stack(buf, true)]))
	})
	defer watchdog.Stop()

	on, off, firedOn, firedOff, outOn, outOff := countingTwinDBs(t, true)
	on.MustExec(countingSchema)
	off.MustExec(countingSchema)
	step := func(stmt string) {
		on.MustExec(stmt)
		off.MustExec(stmt)
	}

	step("begin; set quantity(:i1) = 5; commit;") // :i1 fires on both twins

	// Toggle both maintenance features off at runtime; the first update
	// after the toggle is the event that used to deadlock.
	on.SetHybrid(false)
	on.SetCounting(false)
	step("begin; set quantity(:i1) = 100; set quantity(:i2) = 5; commit;") // :i2 fires

	// Toggle back on, then abort a transaction: the events buffered for
	// the dirty network must be discarded with the rollback, not leak
	// into the rebuilt network.
	on.SetCounting(true)
	on.SetHybrid(true)
	for _, db := range []*DB{on, off} {
		if err := db.Begin(); err != nil {
			t.Fatal(err)
		}
		db.MustExec("set quantity(:i2) = 100;")
		if err := db.Rollback(); err != nil {
			t.Fatal(err)
		}
	}

	// Same hazard class through the pruning toggle: invalidate the
	// network again and drive support changes on the maintained view —
	// dropping two of :i2's three suppliers is support-only, dropping
	// the last retracts threshold(:i2) so the condition goes false.
	on.Session().SetStaticPruning(false)
	step("begin; remove supplies(:s4) = :i2; remove supplies(:s5) = :i2; commit;")
	on.Session().SetStaticPruning(true)
	step("begin; remove supplies(:s6) = :i2; commit;")
	step("begin; set supplies(:s4) = :i2; commit;") // threshold re-derived: :i2 fires again

	if len(*firedOn) < 3 {
		t.Fatalf("workload drove only %d firing(s); the toggle drive is vacuous: %v", len(*firedOn), *firedOn)
	}
	if !on.Counting() || !on.Hybrid() {
		t.Error("toggles did not stick")
	}
	assertCountingTwinsEqual(t, on, off, firedOn, firedOff, outOn, outOff)
}

// TestRebuildNeverRunsStalePlans: compiled differential plans belong to
// the network that compiled them. Whatever invalidates the network — a
// new shared view, a capability declaration, a maintenance toggle —
// builds new plans on a new evaluator, and the old network's evaluator
// never scans another tuple.
func TestRebuildNeverRunsStalePlans(t *testing.T) {
	db := Open()
	if err := db.RegisterProcedure("record", func([]Value) error { return nil }); err != nil {
		t.Fatal(err)
	}
	db.MustExec(countingSchema)
	q := int64(50)
	update := func() {
		q-- // a fresh value every time, so the Δ-set is never empty
		db.MustExec(fmt.Sprintf("begin; set quantity(:i1) = %d; commit;", q))
	}
	update()
	for _, inv := range []struct {
		name string
		do   func()
	}{
		{"ShareView", func() {
			db.MustExec("create shared function slack(item i) -> integer as select quantity(i) - min_stock(i);")
		}},
		{"declare", func() { db.MustExec("declare min_stock readonly;") }},
		{"SetCounting", func() { db.SetCounting(true) }},
	} {
		old := db.Session().Rules().Network()
		scanned := old.Evaluator().ScannedTuples()
		if scanned == 0 {
			t.Fatalf("%s: the network about to be replaced never evaluated anything", inv.name)
		}
		inv.do()
		update()
		cur := db.Session().Rules().Network()
		if cur == old {
			t.Fatalf("%s did not rebuild the network", inv.name)
		}
		if got := old.Evaluator().ScannedTuples(); got != scanned {
			t.Errorf("%s: the replaced network's evaluator scanned %d more tuples", inv.name, got-scanned)
		}
		if cur.Evaluator().ScannedTuples() == 0 {
			t.Errorf("%s: the rebuilt network evaluated nothing", inv.name)
		}
	}
	if err := db.CheckInvariants(); err != nil {
		t.Error(err)
	}
}
