package amosql

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"partdiff/internal/rules"
)

// The session entry gate: what every Exec, Query and Commit pays to get
// in and out when nobody else holds the session. It used to include a
// goroutine-id lookup (a runtime.Stack walk, microseconds and linear in
// stack depth); now the holder stays anonymous until user code runs, so
// entry must neither allocate nor cost anything like one such walk —
// and once user code runs, the holder is named by its locked OS thread,
// so recognising a re-entrant call must not either.

// raceEnabled is set by race_test.go under -race, where instrumented
// mutexes cost more than the uninstrumented runtime's stack walk and the
// cost comparison below says nothing about a normal build.
var raceEnabled bool

// perOp returns the fastest observed cost of one fn call: the minimum
// over several batches, so a scheduling hiccup in one batch does not
// decide the comparison.
func perOp(fn func()) time.Duration {
	const batches, n = 7, 2000
	best := time.Duration(1<<63 - 1)
	for b := 0; b < batches; b++ {
		start := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		if d := time.Since(start) / n; d < best {
			best = d
		}
	}
	return best
}

func TestSessionEntryGate(t *testing.T) {
	s := NewSession(rules.Incremental)
	enterLeave := func() {
		if err := s.enter(); err != nil {
			t.Fatal(err)
		}
		s.leave(nil)
	}
	if got := testing.AllocsPerRun(1000, enterLeave); got != 0 {
		t.Errorf("uncontended enter+leave: %v allocations, want 0", got)
	}

	// A Query decides between the live store and a snapshot with
	// heldByCaller: on a free gate and on an anonymously held one that
	// answer needs no identity.
	notHeld := func() {
		if s.heldByCaller() {
			t.Fatal("heldByCaller on a gate the caller does not hold by name")
		}
	}
	if got := testing.AllocsPerRun(1000, notHeld); got != 0 {
		t.Errorf("heldByCaller, gate free: %v allocations, want 0", got)
	}
	if err := s.enter(); err != nil {
		t.Fatal(err)
	}
	if got := s.owner.Load(); got != ownerAnon {
		t.Fatalf("owner after an uncontended enter = %d, want anonymous", got)
	}
	if got := testing.AllocsPerRun(1000, notHeld); got != 0 {
		t.Errorf("heldByCaller, gate held anonymously: %v allocations, want 0", got)
	}
	anon := perOp(notHeld)
	s.leave(nil)

	// goid itself works, is stable, and is what the gate no longer pays.
	g1, ok1 := goid()
	g2, ok2 := goid()
	if !ok1 || !ok2 || g1 != g2 || g1 <= 0 {
		t.Fatalf("goid() = %d,%v then %d,%v; want one positive id twice", g1, ok1, g2, ok2)
	}
	other := make(chan int64)
	go func() { g, _ := goid(); other <- g }()
	if g := <-other; g == g1 || g <= 0 {
		t.Fatalf("another goroutine's id = %d, want positive and not %d", g, g1)
	}
	walk := perOp(func() { goid() })
	entry := perOp(enterLeave)

	// Inside asHolder — where rule actions and foreign functions run —
	// the caller is recognised by its thread, whether asHolder took over
	// from an anonymous holder or from an explicit transaction's lease.
	held := func() {
		if !s.heldByCaller() {
			t.Fatal("heldByCaller inside asHolder said no")
		}
	}
	named := map[string]time.Duration{}
	measure := func(what string) {
		t.Helper()
		prev := s.owner.Load()
		err := s.asHolder(func() error {
			if got := testing.AllocsPerRun(1000, held); got != 0 {
				t.Errorf("heldByCaller inside asHolder, %s: %v allocations, want 0", what, got)
			}
			named[what] = perOp(held)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := s.owner.Load(); got != prev {
			t.Errorf("owner after asHolder, %s = %d, want the previous %d", what, got, prev)
		}
	}
	if err := s.enter(); err != nil {
		t.Fatal(err)
	}
	measure("anonymous holder")
	s.leave(nil)
	if err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	if got := s.owner.Load(); got <= 0 {
		t.Fatalf("owner of an open lease = %d, want a goroutine id", got)
	}
	if err := s.enter(); err != nil {
		t.Fatal(err)
	}
	measure("lease-held")
	s.leave(nil)
	if err := s.Rollback(); err != nil {
		t.Fatal(err)
	}
	if got := s.owner.Load(); got != ownerFree {
		t.Errorf("owner after the lease ended = %d, want free", got)
	}

	t.Logf("goid %v, enter+leave %v, heldByCaller on an anonymous holder %v, inside asHolder %v",
		walk, entry, anon, named)
	if raceEnabled {
		return
	}
	if entry*4 >= walk {
		t.Errorf("uncontended enter+leave costs %v, want under a quarter of one goid() (%v)", entry, walk)
	}
	if anon*4 >= walk {
		t.Errorf("heldByCaller on an anonymous holder costs %v, want under a quarter of one goid() (%v)", anon, walk)
	}
	for what, d := range named {
		if d*4 >= walk {
			t.Errorf("heldByCaller inside asHolder, %s, costs %v, want under a quarter of one goid() (%v)", what, d, walk)
		}
	}
}

// A thread-named holder is recognised by the thread its goroutine is
// locked to. Strangers spinning on heldByCaller while the holder enters
// and leaves asHolder over and over — so that they keep being scheduled
// onto threads the holder has just unlocked — must never be taken for
// it, and the holder must always be. Every so often the holder yields
// inside asHolder, which is when a stranger would run on its thread if
// the thread were not locked.
func TestHolderIdentityNeverAdmitsStranger(t *testing.T) {
	s := NewSession(rules.Incremental)
	if err := s.enter(); err != nil {
		t.Fatal(err)
	}
	defer s.leave(nil)

	const strangers, rounds = 3, 10000
	var admitted, refused atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < strangers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if s.heldByCaller() {
					admitted.Add(1)
				}
				runtime.Gosched()
			}
		}()
	}
	for i := 0; i < rounds; i++ {
		s.asHolder(func() error {
			if i%16 == 0 {
				runtime.Gosched()
			}
			if !s.heldByCaller() {
				refused.Add(1)
			}
			return nil
		})
	}
	close(stop)
	wg.Wait()
	if n := admitted.Load(); n != 0 {
		t.Errorf("a stranger was taken for the holder %d times", n)
	}
	if n := refused.Load(); n != 0 {
		t.Errorf("the holder was refused %d times of %d", n, rounds)
	}
	if got := s.owner.Load(); got != ownerAnon {
		t.Errorf("owner after the rounds = %d, want anonymous", got)
	}
}
