package partdiff

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// The monitor matrix: one seeded script, three monitors, counting on and
// off. The default (Hybrid) monitor decides per view and per wave
// whether to run partial differentials or to recompute, from the size of
// the wave's Δ-sets against the relations the view reads; whatever it
// decides, it must fire the same rule instances in the same order and
// leave the same state as partial differencing alone (Incremental) and
// as full recomputation (Naive). The script sweeps the Δ size of its
// transactions from one tuple to three relations' worth and back, twice,
// so the decision is made on both sides and switches in both
// directions, with rollbacks in between.

// matrixSchema has every shape the decision touches. The monitored
// condition of low is flat over three stored functions the massive
// transactions rewrite entirely — the fig. 7 shape, where one
// recomputation replaces six passes — and also reads a shared view two
// levels up; that shared view (margin) is itself fed from level 0
// (extra) and level 1 (pad). stock is an aggregate view, which is always
// recomputed and must not be disturbed by its neighbours' choosers.
const matrixSchema = `
create type item;
create type depot;
create function quantity(item) -> integer;
create function reserve(item) -> integer;
create function min_stock(item) -> integer;
create function slack(item) -> integer;
create function extra(item) -> integer;
create function stored_in(item) -> depot;
create function floor_level(depot) -> integer;
create shared function pad(item i) -> integer
    as select slack(i) + 1 for each item j where j = i;
create shared function margin(item i) -> integer
    as select pad(i) + extra(i) for each item j where j = i;
create function stock(depot d) -> integer
    as select sum(quantity(i)) for each item i where stored_in(i) = d;
create rule low() as
    when for each item i where quantity(i) < reserve(i) * 2 + min_stock(i) + margin(i)
    do record_low(i);
create rule drained() as
    when for each depot d where stock(d) < floor_level(d)
    do record_drained(d);
`

const matrixDepots = 4

// matrixPopulation creates n items over matrixDepots depots, none of
// them low, in transactions of 100.
func matrixPopulation(n int) []string {
	var out []string
	var b bytes.Buffer
	for d := 0; d < matrixDepots; d++ {
		fmt.Fprintf(&b, "create depot instances :d%d;\nset floor_level(:d%d) = %d;\n", d, d, 40*n/matrixDepots)
	}
	out = append(out, b.String())
	for lo := 0; lo < n; lo += 100 {
		b.Reset()
		b.WriteString("begin;\n")
		for i := lo; i < lo+100 && i < n; i++ {
			fmt.Fprintf(&b, "create item instances :i%d;\nset quantity(:i%d) = 100;\nset reserve(:i%d) = 10;\nset min_stock(:i%d) = 20;\n", i, i, i, i)
			fmt.Fprintf(&b, "set slack(:i%d) = 1;\nset extra(:i%d) = 1;\nset stored_in(:i%d) = :d%d;\n", i, i, i, i%matrixDepots)
		}
		b.WriteString("commit;\n")
		out = append(out, b.String())
	}
	return out
}

// matrixTxn is one transaction of the script: its statements, and
// whether it ends in rollback.
type matrixTxn struct {
	text     string
	items    int
	rollback bool
}

// genMatrixScript draws the sweep. A transaction of size k rewrites
// quantity, reserve and min_stock of k items (all n of them at the top:
// three times the extent of any one relation), now and then an item's
// slack or extra — a change that climbs through the shared views — or
// its depot; sizes climb from 1 to n and back, reps transactions at each
// step, and every fifth transaction rolls back.
func genMatrixScript(rng *rand.Rand, n, reps int) []matrixTxn {
	sizes := []int{1}
	for k := 3; k < n; k *= 3 {
		sizes = append(sizes, k)
	}
	sizes = append(sizes, n)
	for i := len(sizes) - 2; i >= 0; i-- {
		sizes = append(sizes, sizes[i])
	}
	sizes = append(sizes, sizes[1:]...) // up and down a second time
	var script []matrixTxn
	var b bytes.Buffer
	for _, k := range sizes {
		for r := 0; r < reps; r++ {
			b.Reset()
			b.WriteString("begin;\n")
			perm := rng.Perm(n)[:k]
			for _, i := range perm {
				fmt.Fprintf(&b, "set quantity(:i%d) = %d;\nset reserve(:i%d) = %d;\nset min_stock(:i%d) = %d;\n",
					i, rng.Intn(100), i, rng.Intn(30), i, rng.Intn(40))
				switch rng.Intn(12) {
				case 0:
					fmt.Fprintf(&b, "set stored_in(:i%d) = :d%d;\n", i, rng.Intn(matrixDepots))
				case 1:
					fmt.Fprintf(&b, "set slack(:i%d) = %d;\n", i, rng.Intn(5))
				case 2:
					fmt.Fprintf(&b, "set extra(:i%d) = %d;\n", i, rng.Intn(5))
				}
			}
			tx := matrixTxn{items: k, rollback: len(script)%5 == 4}
			if tx.rollback {
				b.WriteString("rollback;\n")
			} else {
				b.WriteString("commit;\n")
			}
			tx.text = b.String()
			script = append(script, tx)
		}
	}
	return script
}

// matrixDB is one configuration under test.
type matrixDB struct {
	name  string
	db    *DB
	fired []string
}

func openMatrixDB(t *testing.T, name string, n int, opts ...Option) *matrixDB {
	t.Helper()
	m := &matrixDB{name: name, db: Open(opts...)}
	for _, proc := range []string{"record_low", "record_drained"} {
		proc := proc
		if err := m.db.RegisterProcedure(proc, func(args []Value) error {
			m.fired = append(m.fired, fmt.Sprintf("%s%v", proc, args))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	m.db.MustExec(matrixSchema)
	for _, txn := range matrixPopulation(n) {
		m.db.MustExec(txn)
	}
	m.db.MustExec("activate low(); activate drained();")
	return m
}

func TestMonitorMatrix(t *testing.T) {
	n, reps := 1000, 3
	if testing.Short() {
		n = 300
	}
	const minWaves = 8 // transactions the default monitor must take each way
	for _, seed := range []int64{1, 2} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			script := genMatrixScript(rand.New(rand.NewSource(seed)), n, reps)
			dbs := []*matrixDB{
				openMatrixDB(t, "naive", n, WithMode(Naive)),
				openMatrixDB(t, "incremental", n, WithMode(Incremental)),
				openMatrixDB(t, "incremental+counting", n, WithMode(Incremental), WithCounting()),
				openMatrixDB(t, "default", n),
				openMatrixDB(t, "default+counting", n, WithCounting()),
			}
			ref := dbs[0]
			// Per default-mode database: transactions in which some view
			// was recomputed by choice, and transactions propagated
			// without any.
			recomputed, differentiated := map[string]int{}, map[string]int{}
			for ti, tx := range script {
				for _, m := range dbs {
					before := m.db.Stats()
					if _, err := m.db.Exec(tx.text); err != nil {
						t.Fatalf("%s: txn %d (%d items): %v", m.name, ti, tx.items, err)
					}
					if m.db.Hybrid() && !tx.rollback {
						if m.db.Stats().NaiveRecomputations > before.NaiveRecomputations {
							recomputed[m.name]++
						} else {
							differentiated[m.name]++
						}
					}
				}
				for _, m := range dbs[1:] {
					if !reflect.DeepEqual(m.fired, ref.fired) {
						t.Fatalf("txn %d (%d items, rollback=%v): %s fired\n%v\n%s fired\n%v",
							ti, tx.items, tx.rollback, m.name, tail(m.fired, len(ref.fired)), ref.name, tail(ref.fired, len(m.fired)))
					}
				}
			}
			if len(ref.fired) < n {
				t.Errorf("script fired %d rule instances; the firing-order comparison is thin", len(ref.fired))
			}
			want := ref.db.Session().Store().Snapshot()
			for _, m := range dbs {
				if err := m.db.CheckInvariants(); err != nil {
					t.Errorf("%s: invariants: %v", m.name, err)
				}
				if got := m.db.Session().Store().Snapshot(); !reflect.DeepEqual(got, want) {
					t.Errorf("%s: final state differs from %s's", m.name, ref.name)
				}
			}

			// Vacuity gates: the default monitor took both paths, often, and
			// moved between them in both directions; the other monitors
			// never recomputed by choice; counting counted and, after a
			// recomputed wave had bypassed its counts, reseeded them.
			for _, m := range dbs {
				mnt := m.db.Session().Rules().Maintainer()
				if !m.db.Hybrid() {
					if mnt.Switches() != 0 {
						t.Errorf("%s: %d strategy switches outside the Hybrid monitor", m.name, mnt.Switches())
					}
					continue
				}
				var toRecomp, toIncr int
				for _, d := range mnt.Decisions() {
					if d.Strategy.String() == "recomp" {
						toRecomp++
					} else {
						toIncr++
					}
				}
				if toRecomp == 0 || toIncr == 0 {
					t.Errorf("%s: %d switch(es) to recomputation, %d back; want both\n%+v", m.name, toRecomp, toIncr, mnt.Decisions())
				}
				if recomputed[m.name] < minWaves || differentiated[m.name] < minWaves {
					t.Errorf("%s: %d transactions recomputed a view, %d differentiated all; want at least %d each",
						m.name, recomputed[m.name], differentiated[m.name], minWaves)
				}
			}
			for _, m := range dbs {
				if !m.db.Counting() {
					continue
				}
				reg := m.db.Observability().Registry
				if reg.CounterValue("partdiff_maint_applied_total") == 0 {
					t.Errorf("%s: no derivation-count delta applied", m.name)
				}
				if m.db.Hybrid() && reg.CounterValue("partdiff_maint_reseeds_total") < 3 {
					t.Errorf("%s: %d reseeds; recomputed waves should have left counts to rebuild",
						m.name, reg.CounterValue("partdiff_maint_reseeds_total"))
				}
			}
		})
	}
}

// tail returns what s holds beyond its first n entries, or the last few
// of them when it holds no more: enough to see where two firing
// sequences part.
func tail(s []string, n int) []string {
	if len(s) > n {
		return s[n:]
	}
	if len(s) > 5 {
		return s[len(s)-5:]
	}
	return s
}
