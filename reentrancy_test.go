package partdiff

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
)

// The re-entrancy matrix. The session tells a rule action's own
// statements (which join the committing transaction) from a stranger's
// (which queue, or read a snapshot) by naming the gate's holder only
// where user code takes over — and there by the OS thread the holder is
// locked to while that code runs. Each case below is one way of
// arriving at an entry point while the gate is held. Run under -race:
// strangers read the holder's name while it changes.
//
// Every DB carries a short writer wait, so a caller wrongly made to
// queue behind itself fails with ErrSessionBusy instead of hanging the
// run.

const reentrySchema = `
create type item;
create function quantity(item) -> integer;
create function threshold(item) -> integer;
create rule low() as
    when for each item i where quantity(i) < threshold(i)
    do restock(i);
create item instances :a, :b;
set quantity(:a) = 100;
set threshold(:a) = 10;
set quantity(:b) = 100;
set threshold(:b) = 10;
`

// reentryDB opens a DB on reentrySchema with restock as the rule's
// action and the rule activated.
func reentryDB(t *testing.T, restock Procedure, opts ...Option) *DB {
	t.Helper()
	db := Open(append([]Option{WithWriterWait(5 * time.Second)}, opts...)...)
	if err := db.RegisterProcedure("restock", restock); err != nil {
		t.Fatal(err)
	}
	db.MustExec(reentrySchema + "activate low();")
	return db
}

// queryInt runs a single-value select and returns the value.
func queryInt(t *testing.T, db *DB, q string) int64 {
	t.Helper()
	r, err := db.Query(q)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	if len(r.Tuples) != 1 {
		t.Fatalf("%s: %d rows, want 1", q, len(r.Tuples))
	}
	return r.Tuples[0][0].I
}

// waitQueued returns once n writers are queued on db's gate.
func waitQueued(t *testing.T, db *DB, n int64) {
	t.Helper()
	depth := db.Observability().Registry.Gauge("partdiff_txn_gate_depth", "")
	deadline := time.Now().Add(5 * time.Second)
	for depth.Value() != n {
		if time.Now().After(deadline) {
			t.Fatalf("gate queue depth %d, want %d", depth.Value(), n)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// stillRunning fails the test if done is closed already.
func stillRunning(t *testing.T, done <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-done:
		t.Fatalf("%s returned while the session was held by someone else", what)
	default:
	}
}

func assertUsable(t *testing.T, db *DB) {
	t.Helper()
	if db.Session().Txns().InTransaction() {
		t.Fatal("a transaction is still open")
	}
	if _, err := db.Exec(`set quantity(:b) = 77;`); err != nil {
		t.Fatalf("DB unusable: %v", err)
	}
	if got := queryInt(t, db, `select quantity(:b);`); got != 77 {
		t.Errorf("quantity(:b) = %d after a plain update, want 77", got)
	}
	if err := db.CheckInvariants(); err != nil {
		t.Errorf("invariants: %v", err)
	}
}

func TestReentrancyMatrix(t *testing.T) {
	t.Run("action Exec and Query join the transaction", func(t *testing.T) {
		var db *DB
		var sawInAction int64
		var noted []Value
		db = reentryDB(t, func(args []Value) error {
			r, err := db.Query(`select quantity(:a);`)
			if err != nil {
				return err
			}
			sawInAction = r.Tuples[0][0].I
			db.SetVar("o", args[0])
			_, err = db.Exec(`set quantity(:o) = 500;`)
			return err
		})
		db.RegisterProcedure("note", func(args []Value) error {
			noted = append(noted, args[0])
			return nil
		})
		db.MustExec(`
create rule stocked() as
    when for each item i where quantity(i) > 400
    do note(i);
activate stocked();`)
		before := db.Stats()
		if _, err := db.Exec(`set quantity(:a) = 5;`); err != nil {
			t.Fatal(err)
		}
		if sawInAction != 5 {
			t.Errorf("the action's query saw quantity %d, want the uncommitted 5", sawInAction)
		}
		if got := queryInt(t, db, `select quantity(:a);`); got != 500 {
			t.Errorf("quantity(:a) = %d, want the action's 500", got)
		}
		a, _ := db.Var("a")
		if !reflect.DeepEqual(noted, []Value{a}) {
			t.Errorf("second-round rule fired for %v, want [%v]", noted, a)
		}
		if rounds := db.Stats().CheckRounds - before.CheckRounds; rounds < 2 {
			t.Errorf("%d check round(s), want the action's write to force a second", rounds)
		}
		assertUsable(t, db)
	})

	t.Run("cascade three deep", func(t *testing.T) {
		db := Open(WithWriterWait(5 * time.Second))
		var order []string
		step := func(name, stmt string) {
			db.RegisterProcedure(name, func(args []Value) error {
				order = append(order, name)
				db.SetVar("x", args[0])
				_, err := db.Exec(stmt)
				return err
			})
		}
		step("p1", `set s2(:x) = 1;`)
		step("p2", `set s3(:x) = 1;`)
		step("p3", `set s4(:x) = 1;`)
		db.MustExec(`
create type item;
create function s1(item) -> integer;
create function s2(item) -> integer;
create function s3(item) -> integer;
create function s4(item) -> integer;
create rule r1() as when for each item i where s1(i) > 0 do p1(i);
create rule r2() as when for each item i where s2(i) > 0 do p2(i);
create rule r3() as when for each item i where s3(i) > 0 do p3(i);
create item instances :k;
activate r1();
activate r2();
activate r3();`)
		if _, err := db.Exec(`set s1(:k) = 1;`); err != nil {
			t.Fatal(err)
		}
		if want := []string{"p1", "p2", "p3"}; !reflect.DeepEqual(order, want) {
			t.Errorf("actions ran %v, want %v", order, want)
		}
		if got := queryInt(t, db, `select s4(:k);`); got != 1 {
			t.Errorf("s4(:k) = %d, want 1", got)
		}
		if err := db.CheckInvariants(); err != nil {
			t.Error(err)
		}
	})

	t.Run("foreign function in a set expression re-enters", func(t *testing.T) {
		db := reentryDB(t, func([]Value) error { return nil })
		db.RegisterFunction("half_of_b", nil, "integer", func([]Value) ([][]Value, error) {
			r, err := db.Query(`select quantity(:b);`)
			if err != nil {
				return nil, err
			}
			if _, err := db.Exec(`set threshold(:b) = 1;`); err != nil {
				return nil, err
			}
			return [][]Value{{Int(r.Tuples[0][0].I / 2)}}, nil
		})
		if _, err := db.Exec(`set quantity(:a) = half_of_b();`); err != nil {
			t.Fatal(err)
		}
		if got := queryInt(t, db, `select quantity(:a);`); got != 50 {
			t.Errorf("quantity(:a) = %d, want 50", got)
		}
		if got := queryInt(t, db, `select threshold(:b);`); got != 1 {
			t.Errorf("threshold(:b) = %d, want the function's 1", got)
		}
		assertUsable(t, db)
	})

	t.Run("other goroutines queue or read a snapshot during an action", func(t *testing.T) {
		var db *DB
		inAction, release := make(chan struct{}), make(chan struct{})
		db = reentryDB(t, func([]Value) error {
			close(inAction)
			<-release
			return nil
		})
		first, second := make(chan struct{}), make(chan struct{})
		var firstErr, secondErr error
		go func() {
			defer close(first)
			_, firstErr = db.Exec(`set quantity(:a) = 5;`)
		}()
		<-inAction
		go func() {
			defer close(second)
			_, secondErr = db.Exec(`set threshold(:b) = 3;`)
		}()
		waitQueued(t, db, 1)
		stillRunning(t, second, "a second goroutine's Exec")
		// A stranger's query does not wait and sees no part of the open
		// transaction.
		if got := queryInt(t, db, `select quantity(:a);`); got != 100 {
			t.Errorf("a reader saw quantity %d during the action, want the committed 100", got)
		}
		if got := queryInt(t, db, `select threshold(:b);`); got != 10 {
			t.Errorf("the queued write is visible (threshold %d) before it was admitted", got)
		}
		close(release)
		<-first
		<-second
		if firstErr != nil || secondErr != nil {
			t.Fatalf("writers failed: %v / %v", firstErr, secondErr)
		}
		if a, b := queryInt(t, db, `select quantity(:a);`), queryInt(t, db, `select threshold(:b);`); a != 5 || b != 3 {
			t.Errorf("quantity(:a), threshold(:b) = %d, %d, want 5, 3", a, b)
		}
		assertUsable(t, db)
	})

	t.Run("explicit transaction split across calls holds a lease", func(t *testing.T) {
		fired := 0
		db := reentryDB(t, func([]Value) error { fired++; return nil })
		if err := db.Begin(); err != nil {
			t.Fatal(err)
		}
		rival := make(chan struct{})
		var rivalErr error
		go func() {
			defer close(rival)
			_, rivalErr = db.Exec(`set threshold(:b) = 3;`)
		}()
		waitQueued(t, db, 1)
		for _, stmt := range []string{`set quantity(:a) = 5;`, `set quantity(:b) = 6;`} {
			if _, err := db.Exec(stmt); err != nil {
				t.Fatalf("%s inside the lease: %v", stmt, err)
			}
		}
		if got := queryInt(t, db, `select quantity(:a);`); got != 5 {
			t.Errorf("the lease holder's query saw %d, want its own uncommitted 5", got)
		}
		stillRunning(t, rival, "the rival's Exec")
		if err := db.Commit(); err != nil {
			t.Fatal(err)
		}
		<-rival
		if rivalErr != nil {
			t.Fatalf("rival: %v", rivalErr)
		}
		if fired != 2 {
			t.Errorf("rule fired %d times at commit, want 2", fired)
		}
		if got := queryInt(t, db, `select threshold(:b);`); got != 3 {
			t.Errorf("threshold(:b) = %d, want the rival's 3", got)
		}
		assertUsable(t, db)
	})

	t.Run("panic in an action rolls back", func(t *testing.T) {
		boom := true
		db := reentryDB(t, func([]Value) error {
			if boom {
				boom = false
				panic("restock exploded")
			}
			return nil
		})
		_, err := db.Exec(`set quantity(:a) = 5;`)
		if err == nil || !strings.Contains(err.Error(), "panicked") {
			t.Fatalf("err = %v, want the contained panic", err)
		}
		if got := queryInt(t, db, `select quantity(:a);`); got != 100 {
			t.Errorf("quantity(:a) = %d, want the rolled-back 100", got)
		}
		assertUsable(t, db)
	})

	t.Run("Goexit in an action rolls back", func(t *testing.T) {
		// What a t.FailNow inside a procedure does to the goroutine that
		// called Exec.
		exit := true
		db := reentryDB(t, func([]Value) error {
			if exit {
				exit = false
				runtime.Goexit()
			}
			return nil
		})
		done, returned := make(chan struct{}), false
		go func() {
			defer close(done)
			db.Exec(`set quantity(:a) = 5;`)
			returned = true
		}()
		<-done
		if returned {
			t.Fatal("Exec returned; the Goexit did not reach its caller")
		}
		if got := queryInt(t, db, `select quantity(:a);`); got != 100 {
			t.Errorf("quantity(:a) = %d, want the rolled-back 100", got)
		}
		assertUsable(t, db)
	})

	// runaway drives a cascade that never terminates by itself and
	// returns the DB once it was aborted and rolled back.
	runaway := func(t *testing.T, stop func(n int), want string, opts ...Option) *DB {
		t.Helper()
		var db *DB
		n := 0
		db = reentryDB(t, func([]Value) error { return nil }, opts...)
		db.RegisterProcedure("bump", func(args []Value) error {
			n++
			stop(n)
			db.SetVar("_i", args[0])
			db.SetVar("_q", Int(args[1].I+1))
			_, err := db.Exec(`set threshold(:_i) = :_q;`)
			return err
		})
		db.MustExec(`
create nervous rule runaway() as
    when for each item i, integer q where threshold(i) = q and q > 10
    do bump(i, q);
activate runaway();`)
		db.Session().Rules().MaxRounds = 1 << 30
		_, err := db.Exec(`set threshold(:a) = 11;`)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("err = %v, want one mentioning %q", err, want)
		}
		if got := queryInt(t, db, `select threshold(:a);`); got != 10 {
			t.Errorf("threshold(:a) = %d, want the rolled-back 10", got)
		}
		return db
	}
	t.Run("check budget aborts a re-entrant cascade", func(t *testing.T) {
		db := runaway(t, func(int) {}, "budget", WithCheckBudget(5*time.Millisecond))
		db.MustExec(`deactivate runaway();`)
		assertUsable(t, db)
	})
	t.Run("check context aborts a re-entrant cascade", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		// The context stays cancelled, so no later commit gets through
		// a check phase; the aborted one must have left nothing behind.
		db := runaway(t, func(n int) {
			if n == 10 {
				cancel()
			}
		}, "canceled", WithCheckContext(ctx))
		if db.Session().Txns().InTransaction() {
			t.Error("a transaction is still open")
		}
		if err := db.CheckInvariants(); err != nil {
			t.Error(err)
		}
	})

	// SetVar needs the gate only to place the binding in the write-ahead
	// log: in memory it binds at once whoever holds the gate (and the
	// action's own SetVar walks no stack to be recognised); with a log
	// attached the action's binding joins its transaction's record and a
	// stranger's queues for its own.
	for _, durable := range []bool{false, true} {
		durable := durable
		name := "SetVar from an action and from a stranger, in memory"
		if durable {
			name = "SetVar from an action and from a stranger, logged"
		}
		t.Run(name, func(t *testing.T) {
			var db *DB
			inAction, release := make(chan struct{}), make(chan struct{})
			restock := func(args []Value) error {
				db.SetVar("from_action", Int(1))
				close(inAction)
				<-release
				db.SetVar("from_action", Int(2))
				_, err := db.Exec(`set quantity(:a) = 100;`)
				return err
			}
			dir := t.TempDir()
			if durable {
				var err error
				db, err = OpenDir(dir, WithProcedure("restock", restock), WithWriterWait(5*time.Second))
				if err != nil {
					t.Fatal(err)
				}
				db.MustExec(reentrySchema + "activate low();")
			} else {
				db = reentryDB(t, restock)
			}
			writer, stranger := make(chan struct{}), make(chan struct{})
			var writerErr error
			go func() {
				defer close(writer)
				_, writerErr = db.Exec(`set quantity(:a) = 5;`)
			}()
			<-inAction
			go func() {
				defer close(stranger)
				db.SetVar("from_stranger", Int(3))
			}()
			if durable {
				waitQueued(t, db, 1)
				stillRunning(t, stranger, "a stranger's logged SetVar")
			} else {
				select {
				case <-stranger:
				case <-time.After(5 * time.Second):
					t.Fatal("a stranger's in-memory SetVar waited for the gate")
				}
			}
			close(release)
			<-writer
			<-stranger
			if writerErr != nil {
				t.Fatalf("writer failed: %v", writerErr)
			}
			check := func(db *DB) {
				t.Helper()
				for name, want := range map[string]int64{"from_action": 2, "from_stranger": 3} {
					if v, ok := db.Var(name); !ok || v.I != want {
						t.Errorf("%s = %v (bound %v), want %d", name, v, ok, want)
					}
				}
			}
			check(db)
			assertUsable(t, db)
			if durable {
				if err := db.Close(); err != nil {
					t.Fatal(err)
				}
				re, err := OpenDir(dir, WithProcedure("restock", func([]Value) error { return nil }))
				if err != nil {
					t.Fatal(err)
				}
				defer re.Close()
				check(re)
			}
		})
	}

	t.Run("explicit transaction's commit runs actions that re-enter", func(t *testing.T) {
		var db *DB
		var sawInAction int64
		db = reentryDB(t, func(args []Value) error {
			r, err := db.Query(`select quantity(:a);`)
			if err != nil {
				return err
			}
			sawInAction = r.Tuples[0][0].I
			db.SetVar("o", args[0])
			_, err = db.Exec(`set quantity(:o) = 500;`)
			return err
		})
		if err := db.Begin(); err != nil {
			t.Fatal(err)
		}
		if _, err := db.Exec(`set quantity(:a) = 5;`); err != nil {
			t.Fatal(err)
		}
		if err := db.Commit(); err != nil {
			t.Fatal(err)
		}
		if sawInAction != 5 {
			t.Errorf("the action's query saw quantity %d, want the uncommitted 5", sawInAction)
		}
		if got := queryInt(t, db, `select quantity(:a);`); got != 500 {
			t.Errorf("quantity(:a) = %d, want the action's 500", got)
		}
		assertUsable(t, db)
	})

	t.Run("action locking and unlocking its thread in pairs still re-enters", func(t *testing.T) {
		var db *DB
		db = reentryDB(t, func(args []Value) error {
			for i := 0; i < 3; i++ {
				runtime.LockOSThread()
				runtime.LockOSThread()
				runtime.Gosched()
				runtime.UnlockOSThread()
				runtime.UnlockOSThread()
				runtime.Gosched()
			}
			db.SetVar("o", args[0])
			_, err := db.Exec(`set quantity(:o) = 500;`)
			return err
		})
		if _, err := db.Exec(`set quantity(:a) = 5;`); err != nil {
			t.Fatal(err)
		}
		if got := queryInt(t, db, `select quantity(:a);`); got != 500 {
			t.Errorf("quantity(:a) = %d, want the action's 500", got)
		}
		assertUsable(t, db)
	})

	t.Run("an action's spawned goroutine is a stranger", func(t *testing.T) {
		var db *DB
		var spawnedErr error
		db = reentryDB(t, func([]Value) error {
			done := make(chan struct{})
			go func() {
				defer close(done)
				ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
				defer cancel()
				_, spawnedErr = db.ExecContext(ctx, `set threshold(:b) = 1;`)
			}()
			<-done
			return nil
		})
		if _, err := db.Exec(`set quantity(:a) = 5;`); err != nil {
			t.Fatal(err)
		}
		if !errors.Is(spawnedErr, ErrSessionBusy) {
			t.Errorf("the spawned goroutine's Exec returned %v, want ErrSessionBusy", spawnedErr)
		}
		if got := queryInt(t, db, `select threshold(:b);`); got != 10 {
			t.Errorf("threshold(:b) = %d: the spawned goroutine's write was admitted", got)
		}
		assertUsable(t, db)
	})

	// A's action writes to B, whose own action writes back to A. B's
	// action runs on the thread A's action is locked to, so A recognises
	// it as its holder and the write joins A's open transaction (as a
	// direct re-entry would) instead of queueing behind it until the
	// deadline.
	t.Run("A→B→A across two DBs joins A's transaction", func(t *testing.T) {
		var dbA *DB
		dbB := Open(WithWriterWait(5*time.Second), WithProcedure("poke", func(args []Value) error {
			_, err := dbA.Exec(`set quantity(:a) = 500;`)
			return err
		}))
		dbB.MustExec(`
create type item;
create function v(item) -> integer;
create rule touched() as when for each item i where v(i) > 0 do poke(i);
create item instances :k;
set v(:k) = 0;
activate touched();`)
		dbA = reentryDB(t, func([]Value) error {
			_, err := dbB.Exec(`set v(:k) = 1;`)
			return err
		})
		before := dbA.Stats()
		if _, err := dbA.Exec(`set quantity(:a) = 5;`); err != nil {
			t.Fatal(err)
		}
		if got := queryInt(t, dbA, `select quantity(:a);`); got != 500 {
			t.Errorf("quantity(:a) = %d, want B's action's 500", got)
		}
		if got := queryInt(t, dbB, `select v(:k);`); got != 1 {
			t.Errorf("v(:k) = %d, want A's action's 1", got)
		}
		if rounds := dbA.Stats().CheckRounds - before.CheckRounds; rounds < 2 {
			t.Errorf("%d check round(s) on A, want B's action's write to force a second", rounds)
		}
		assertUsable(t, dbA)
		if err := dbB.CheckInvariants(); err != nil {
			t.Error(err)
		}
	})

	t.Run("an action's write to a second DB queues behind its holder", func(t *testing.T) {
		dbB := Open(WithWriterWait(5 * time.Second))
		dbB.MustExec(`
create type item;
create function v(item) -> integer;
create item instances :k;
set v(:k) = 0;`)
		dbA := reentryDB(t, func([]Value) error {
			_, err := dbB.Exec(`set v(:k) = 2;`)
			return err
		})
		held, release, holder := make(chan struct{}), make(chan struct{}), make(chan struct{})
		var holderErr error
		go func() {
			defer close(holder)
			if holderErr = dbB.Begin(); holderErr != nil {
				close(held)
				return
			}
			close(held)
			<-release
			if _, holderErr = dbB.Exec(`set v(:k) = 1;`); holderErr != nil {
				return
			}
			holderErr = dbB.Commit()
		}()
		<-held
		doneA := make(chan struct{})
		var errA error
		go func() {
			defer close(doneA)
			_, errA = dbA.Exec(`set quantity(:a) = 5;`)
		}()
		waitQueued(t, dbB, 1)
		stillRunning(t, doneA, "the Exec whose action writes to the held DB")
		close(release)
		<-holder
		<-doneA
		if holderErr != nil || errA != nil {
			t.Fatalf("holder: %v, action's DB: %v", holderErr, errA)
		}
		// The action's write was admitted after the holder's commit.
		if got := queryInt(t, dbB, `select v(:k);`); got != 2 {
			t.Errorf("v(:k) = %d, want 2 (the queued write last)", got)
		}
		assertUsable(t, dbA)
		if err := dbB.CheckInvariants(); err != nil {
			t.Error(err)
		}
	})
}
