package partdiff

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"partdiff/internal/faultinject"
	"partdiff/internal/wal"
)

// The durability suite: crash-recovery sweeps over every fault point in
// the commit/append/checkpoint path, torn-tail detection, replay
// determinism (re-fired deferred rule checks), checkpoint round trips,
// and a real kill -9 smoke test. It reuses the sweep schema, script
// generator, and transaction runner from faultsweep_test.go.

// durDB opens a durable DB on dir with the sweep schema's record
// procedure wired to *fired.
func durDB(t *testing.T, dir string, fired *[]string, opts ...Option) *DB {
	t.Helper()
	opts = append(opts, WithProcedure("record", func(args []Value) error {
		if fired != nil {
			*fired = append(*fired, fmt.Sprintf("%v", args[0]))
		}
		return nil
	}))
	db, err := OpenDir(dir, opts...)
	if err != nil {
		t.Fatalf("OpenDir(%s): %v", dir, err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

// stateBytes serializes the DB's full logical state for byte-for-byte
// comparison.
func stateBytes(db *DB) []byte {
	return wal.MarshalState(db.Session().CaptureState())
}

// probeScript is the swept transaction: two quantity updates, one of
// which fires the low() rule.
var probeScript = []string{
	"set quantity(:i1) = 5;",
	"set quantity(:i2) = 12;",
}

// TestDurableReopenRoundTrip: schema and committed updates survive a
// clean close and reopen byte-for-byte, rule actions re-fire during
// replay, and the reopened database accepts new work.
func TestDurableReopenRoundTrip(t *testing.T) {
	dir := t.TempDir()
	var fired []string
	db := durDB(t, dir, &fired)
	db.MustExec(sweepSchema)
	fired = nil
	if err := runScript(db, probeScript); err != nil {
		t.Fatal(err)
	}
	origFired := append([]string(nil), fired...)
	if len(origFired) == 0 {
		t.Fatal("probe fired no rules; test is vacuous")
	}
	want := stateBytes(db)
	wantLevels := db.Session().Rules().Network().Levels()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	var refired []string
	db2 := durDB(t, dir, &refired)
	if got := stateBytes(db2); !bytes.Equal(got, want) {
		t.Error("recovered state differs from pre-close state")
	}
	if !reflect.DeepEqual(refired, origFired) {
		t.Errorf("replay fired %v, original run fired %v", refired, origFired)
	}
	if got := db2.Session().Rules().Network().Levels(); !reflect.DeepEqual(got, wantLevels) {
		t.Errorf("recovered propagation network levels = %v, want %v", got, wantLevels)
	}
	if err := db2.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	db2.MustExec("set quantity(:i3) = 1;")
	if err := db2.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestFaultSweepCrashRecovery is the crash sweep: a fault (error or
// panic) is injected at every operation index the probe transaction
// hits — storage updates, propagation, differentials, rule actions, WAL
// append, WAL fsync — the process "crashes" (the DB is abandoned
// without Close), and the directory is reopened. Recovery must always
// land on exactly the pre-transaction or the post-transaction state,
// with invariants intact and the database accepting new commits.
func TestFaultSweepCrashRecovery(t *testing.T) {
	// Control run: pre- and post-probe reference states and the
	// operation count that bounds the sweep. The injector is installed
	// after the schema so only the probe transaction is swept —
	// identical statement sequences yield identical OIDs and log
	// sequence numbers, so the reference bytes compare exactly.
	ctl := durDB(t, t.TempDir(), nil)
	ctl.MustExec(sweepSchema)
	pre := stateBytes(ctl)
	inj := faultinject.New()
	ctl.Session().SetInjector(inj)
	if err := runScript(ctl, probeScript); err != nil {
		t.Fatalf("clean run failed: %v", err)
	}
	post := stateBytes(ctl)
	ops := inj.Ops()
	if ops == 0 {
		t.Fatal("clean run hit no fault points; sweep is vacuous")
	}

	stride := 1
	if testing.Short() {
		stride = 4
	}
	for idx := 0; idx < ops; idx += stride {
		kind := faultinject.Error
		if idx%2 == 1 {
			kind = faultinject.Panic
		}
		dir := t.TempDir()
		db := durDB(t, dir, nil)
		db.MustExec(sweepSchema)
		inj := faultinject.New()
		db.Session().SetInjector(inj)
		inj.ArmIndex(idx, kind)
		if err := runScript(db, probeScript); err == nil {
			t.Errorf("op %d (%v): injected fault did not surface", idx, kind)
			continue
		}
		// Crash: abandon db without Close and recover from disk.
		re, err := OpenDir(dir, WithProcedure("record", func([]Value) error { return nil }))
		if err != nil {
			t.Errorf("op %d (%v): recovery failed: %v", idx, kind, err)
			continue
		}
		got := stateBytes(re)
		if !bytes.Equal(got, pre) && !bytes.Equal(got, post) {
			t.Errorf("op %d (%v): recovered state is neither pre- nor post-transaction", idx, kind)
		}
		if ierr := re.CheckInvariants(); ierr != nil {
			t.Errorf("op %d (%v): invariants after recovery: %v", idx, kind, ierr)
		}
		re.MustExec("set threshold(:i3) = 2;")
		if ierr := re.CheckInvariants(); ierr != nil {
			t.Errorf("op %d (%v): invariants after post-recovery commit: %v", idx, kind, ierr)
		}
		re.Close()
	}
}

// TestTornFinalRecordDiscarded: a final WAL record torn mid-write (the
// crash window between write and fsync) is detected by its CRC frame
// and discarded — recovery lands on the last fully durable commit and
// the log accepts new records after the tear.
func TestTornFinalRecordDiscarded(t *testing.T) {
	for _, tc := range []struct {
		name string
		tear func(path string) error
	}{
		{"truncated tail", func(path string) error {
			st, err := os.Stat(path)
			if err != nil {
				return err
			}
			return os.Truncate(path, st.Size()-3)
		}},
		{"garbage tail", func(path string) error {
			f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
			if err != nil {
				return err
			}
			if _, err := f.Write([]byte{0x17, 0x00, 0x00, 0x00, 0xde, 0xad}); err != nil {
				f.Close()
				return err
			}
			return f.Close()
		}},
		{"corrupted payload", func(path string) error {
			b, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			b[len(b)-2] ^= 0x40
			return os.WriteFile(path, b, 0o644)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			db := durDB(t, dir, nil)
			db.MustExec(sweepSchema)
			db.MustExec("set quantity(:i1) = 15;")
			afterFirst := stateBytes(db)
			db.MustExec("set quantity(:i2) = 14;") // the record to tear
			afterSecond := stateBytes(db)
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			if err := tc.tear(filepath.Join(dir, "wal.log")); err != nil {
				t.Fatal(err)
			}

			re := durDB(t, dir, nil)
			got := stateBytes(re)
			var want []byte
			switch tc.name {
			case "garbage tail": // both commits are intact, only the junk goes
				want = afterSecond
			default: // the second commit is torn and must be discarded
				want = afterFirst
			}
			if !bytes.Equal(got, want) {
				t.Fatal("recovered state does not match the last durable commit")
			}
			if n := re.Observability().Registry.CounterValue("partdiff_wal_torn_records_total"); n != 1 {
				t.Errorf("torn records counter = %d, want 1", n)
			}
			if err := re.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			// The log is writable again after the tear was cut away.
			re.MustExec("set quantity(:i3) = 13;")
			want2 := stateBytes(re)
			if err := re.Close(); err != nil {
				t.Fatal(err)
			}
			re2 := durDB(t, dir, nil)
			if !bytes.Equal(stateBytes(re2), want2) {
				t.Error("post-tear commit did not survive reopen")
			}
		})
	}
}

// TestCheckpointPropertyRoundTrip is the property test: for seeded
// random workloads, checkpoint → reopen must yield byte-identical
// state, an equivalent propagation network, and the same explanations
// for an identical probe update.
func TestCheckpointPropertyRoundTrip(t *testing.T) {
	seeds := []int64{11, 12, 13, 14}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			workload := func(db *DB) {
				t.Helper()
				rng := rand.New(rand.NewSource(seed))
				db.MustExec(sweepSchema)
				for i := 0; i < 3; i++ {
					if err := runScript(db, genScript(rng, 6)); err != nil {
						t.Fatal(err)
					}
				}
			}
			dir := t.TempDir()
			db := durDB(t, dir, nil)
			workload(db)
			if err := db.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			// The checkpoint truncated the log: all state now lives in
			// the snapshot alone.
			want := stateBytes(db)
			wantLevels := db.Session().Rules().Network().Levels()
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}

			re := durDB(t, dir, nil)
			if got := stateBytes(re); !bytes.Equal(got, want) {
				t.Fatal("state recovered from checkpoint differs byte-for-byte")
			}
			if got := re.Session().Rules().Network().Levels(); !reflect.DeepEqual(got, wantLevels) {
				t.Errorf("recovered network levels = %v, want %v", got, wantLevels)
			}
			if err := re.CheckInvariants(); err != nil {
				t.Fatal(err)
			}

			// Same probe update, same ΔP: a clean in-memory run of the
			// identical workload must explain the probe identically.
			ctl := Open()
			ctl.RegisterProcedure("record", func([]Value) error { return nil })
			workload(ctl)
			const probe = "set quantity(:i1) = 0;"
			re.MustExec(probe)
			ctl.MustExec(probe)
			got, want2 := re.Explanations(), ctl.Explanations()
			if (len(got) != 0 || len(want2) != 0) && !reflect.DeepEqual(got, want2) {
				t.Errorf("probe explanations after recovery = %v, clean run = %v", got, want2)
			}
		})
	}
}

// TestRecoverySmoke is the kill -9 gate run by CI: a child process
// opens a durable database with sync=always, commits a known workload,
// signals readiness, and is killed with SIGKILL mid-run; the parent
// then recovers the directory in-process and verifies the state matches
// a clean control run exactly.
func TestRecoverySmoke(t *testing.T) {
	if dir := os.Getenv("PARTDIFF_SMOKE_DIR"); dir != "" {
		recoverySmokeChild(dir)
		return
	}
	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run=^TestRecoverySmoke$", "-test.count=1")
	cmd.Env = append(os.Environ(), "PARTDIFF_SMOKE_DIR="+dir)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	ready := filepath.Join(dir, "ready")
	deadline := time.Now().Add(30 * time.Second)
	for {
		if _, err := os.Stat(ready); err == nil {
			break
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			cmd.Wait()
			t.Fatal("child never became ready")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := cmd.Process.Kill(); err != nil { // SIGKILL: no cleanup, no Close
		t.Fatal(err)
	}
	cmd.Wait()
	os.Remove(ready)

	var fired []string
	re := durDB(t, dir, &fired)
	if err := re.CheckInvariants(); err != nil {
		t.Fatalf("invariants after kill -9 recovery: %v", err)
	}
	// Control: the same workload on a fresh directory.
	ctl := durDB(t, t.TempDir(), nil)
	smokeWorkload(ctl)
	if !bytes.Equal(stateBytes(re), stateBytes(ctl)) {
		t.Error("recovered state differs from clean control run")
	}
	if len(fired) == 0 {
		t.Error("replay re-fired no deferred rule checks")
	}
	re.MustExec("set quantity(:i3) = 4;")
	if err := re.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// smokeWorkload is the deterministic workload both the killed child and
// the control run execute.
func smokeWorkload(db *DB) {
	db.MustExec(sweepSchema)
	db.MustExec("set quantity(:i1) = 5;")  // fires low(i1)
	db.MustExec("set quantity(:i2) = 20;") // no firing
	db.MustExec("set quantity(:i1) = 7;")  // already triggered once
}

// recoverySmokeChild is the killed process: every commit is fsynced
// before acknowledgement, so everything committed before the ready
// marker must survive the SIGKILL.
func recoverySmokeChild(dir string) {
	db, err := OpenDir(dir,
		WithSyncPolicy(SyncAlways),
		WithProcedure("record", func([]Value) error { return nil }))
	if err != nil {
		fmt.Fprintln(os.Stderr, "smoke child:", err)
		os.Exit(1)
	}
	smokeWorkload(db)
	if err := os.WriteFile(filepath.Join(dir, "ready"), nil, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "smoke child:", err)
		os.Exit(1)
	}
	for { // wait for the SIGKILL
		time.Sleep(time.Second)
	}
}

// TestRecoveryResyncsMonitorState: the action events a commit record
// logs are applied after replay, outside every monitor, when the action
// did not run again (its procedure not registered at reopen). Monitor
// state that outlives a transaction — the naive monitor's previous
// truth sets, counting's support counts — must follow, or the rule never
// fires for the item again and the counted condition carries support for
// a tuple that is no longer derivable.
func TestRecoveryResyncsMonitorState(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts []Option
	}{
		{"default", nil},
		{"naive", []Option{WithMode(Naive)}},
		{"counting", []Option{WithCounting()}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			var db *DB
			fired := 0
			restock := func(args []Value) error {
				fired++
				_, err := db.Exec(fmt.Sprintf("set quantity(:a) = %d;", 100+fired))
				return err
			}
			db, err := OpenDir(dir, append(tc.opts, WithProcedure("order", restock))...)
			if err != nil {
				t.Fatal(err)
			}
			db.MustExec(`create type item;
				create function quantity(item) -> integer;
				create rule low() as when for each item i where quantity(i) < 10 do order(i);
				create item instances :a;
				set quantity(:a) = 100;
				activate low();`)
			for i := 0; i < 3; i++ {
				db.MustExec("set quantity(:a) = 5;")
			}
			if fired != 3 {
				t.Fatalf("order() ran %d times before the reopen, want 3", fired)
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}

			db, err = OpenDir(dir, tc.opts...) // order() is not registered: replay skips it
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			if err := db.CheckInvariants(); err != nil {
				t.Fatalf("after the reopen: %v", err)
			}
			res, err := db.Query("select q for each integer q where quantity(:a) = q;")
			if err != nil || len(res.Tuples) != 1 || res.Tuples[0][0] != Int(103) {
				t.Fatalf("recovered quantity(:a) = %v (%v), want 103", res, err)
			}
			if err := db.RegisterProcedure("order", restock); err != nil {
				t.Fatal(err)
			}
			db.MustExec("set quantity(:a) = 5;")
			if fired != 4 {
				t.Errorf("the drop after the reopen ran order() %d time(s), want 1", fired-3)
			}
			if err := db.CheckInvariants(); err != nil {
				t.Errorf("after the next drop: %v", err)
			}
		})
	}
}
