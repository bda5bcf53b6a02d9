package amosql

import (
	"testing"
	"time"

	"partdiff/internal/rules"
)

// The session entry gate: what every Exec, Query and Commit pays to get
// in and out when nobody else holds the session. It used to include a
// goroutine-id lookup (a runtime.Stack walk, microseconds and linear in
// stack depth); now the holder stays anonymous until user code runs, so
// entry must neither allocate nor cost anything like one such walk.

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
	t.Logf("goid %v, enter+leave %v, heldByCaller on an anonymous holder %v", walk, entry, anon)
	if raceEnabled {
		return
	}
	if entry*4 >= walk {
		t.Errorf("uncontended enter+leave costs %v, want under a quarter of one goid() (%v)", entry, walk)
	}
	if anon*4 >= walk {
		t.Errorf("heldByCaller on an anonymous holder costs %v, want under a quarter of one goid() (%v)", anon, walk)
	}
}
