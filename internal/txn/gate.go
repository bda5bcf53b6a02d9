package txn

// Writer admission control. Transactions stay serial — the paper's
// execution model, and what the undo log, Δ-accumulators and deferred
// check phase assume — but concurrent callers now QUEUE for the writer
// role instead of being rejected: a fair FIFO gate hands the session
// from one writer to the next in arrival order, each waiter bounded by
// its context deadline. Snapshot readers never touch the gate.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"partdiff/internal/obs"
)

// ErrSessionBusy is returned when a caller's admission deadline expires
// before the writer gate frees up. It is only ever returned on deadline
// or cancellation — a waiter whose context stays live is eventually
// admitted. Test with errors.Is.
var ErrSessionBusy = errors.New("session busy: timed out waiting for the writer gate")

// ErrConflict is returned when an optimistic transaction's read set was
// invalidated by a commit that landed after its snapshot was pinned.
// The transaction wrote nothing; re-running it against a fresh snapshot
// may succeed (the facade retries a bounded number of times). Test with
// errors.Is.
var ErrConflict = errors.New("transaction conflict: read set changed since snapshot")

// gateMaxWaiters bounds the admission queue. Callers beyond it back off
// with jittered sleeps instead of growing the queue without bound.
const gateMaxWaiters = 128

// gateBackoffBase is the first backoff sleep when the queue is full;
// each retry doubles it up to gateBackoffMax, jittered ±50%.
const (
	gateBackoffBase = 200 * time.Microsecond
	gateBackoffMax  = 10 * time.Millisecond
)

type gateWaiter struct {
	ch chan struct{}
	// granted marks a handoff that may have raced the waiter's deadline;
	// gone marks a waiter that gave up and must be skipped.
	granted, gone bool
}

// Gate is the fair writer-admission gate: one holder at a time, waiters
// served in FIFO order with context deadlines. The zero value is not
// usable; call NewGate.
type Gate struct {
	mu   sync.Mutex
	held bool
	q    []*gateWaiter
	met  *Metrics
	rec  *obs.Recorder
}

// NewGate returns an open gate.
func NewGate() *Gate { return &Gate{met: &Metrics{}} }

// SetMetrics installs contention meters (nil restores the disabled
// defaults).
func (g *Gate) SetMetrics(m *Metrics) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if m == nil {
		m = &Metrics{}
	}
	g.met = m
}

// SetRecorder installs the flight recorder; each admission notes its
// wait so the next commit record carries a gate-wait attribution.
func (g *Gate) SetRecorder(r *obs.Recorder) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.rec = r
}

// Acquire blocks until the caller holds the gate or ctx is done. On
// deadline or cancellation it returns an error wrapping ErrSessionBusy.
// Admission is FIFO over live waiters, so no waiter is starved by later
// arrivals.
func (g *Gate) Acquire(ctx context.Context) error {
	start := time.Now()
	backoff := gateBackoffBase
	for {
		g.mu.Lock()
		if !g.held && len(g.q) == 0 {
			g.held = true
			rec := g.rec
			g.mu.Unlock()
			wait := time.Since(start)
			g.met.GateWaitSeconds.Observe(wait.Seconds())
			rec.NoteGateWait(wait)
			return nil
		}
		if len(g.q) < gateMaxWaiters {
			break
		}
		// Queue full: back off with jitter instead of growing it. The
		// jitter spreads re-arrivals so the head of the queue drains.
		g.mu.Unlock()
		g.met.GateBackoffs.Inc()
		d := backoff/2 + time.Duration(rand.Int63n(int64(backoff)))
		select {
		case <-time.After(d):
		case <-ctx.Done():
			g.met.GateTimeouts.Inc()
			return fmt.Errorf("%w (backed off %s behind a full queue): %v",
				ErrSessionBusy, time.Since(start).Round(time.Millisecond), ctx.Err())
		}
		if backoff *= 2; backoff > gateBackoffMax {
			backoff = gateBackoffMax
		}
	}
	w := &gateWaiter{ch: make(chan struct{})}
	g.q = append(g.q, w)
	g.met.GateDepth.Set(int64(len(g.q)))
	rec := g.rec
	g.mu.Unlock()
	select {
	case <-w.ch:
		wait := time.Since(start)
		g.met.GateWaitSeconds.Observe(wait.Seconds())
		rec.NoteGateWait(wait)
		return nil
	case <-ctx.Done():
		g.mu.Lock()
		if w.granted {
			// The handoff raced our deadline: we own the gate. Pass it on
			// rather than report a timeout while holding it.
			g.mu.Unlock()
			g.Release()
		} else {
			w.gone = true
			g.mu.Unlock()
		}
		g.met.GateTimeouts.Inc()
		return fmt.Errorf("%w (waited %s): %v",
			ErrSessionBusy, time.Since(start).Round(time.Millisecond), ctx.Err())
	}
}

// TryAcquire acquires the gate only if it is free with no waiters ahead
// — the uncontended admission, without the clock reads and the context
// an Acquire that may have to wait needs. It records the zero wait an
// uncontended Acquire would, so the gate-wait histogram and the flight
// recorder still see every admission.
func (g *Gate) TryAcquire() bool {
	g.mu.Lock()
	if g.held || len(g.q) > 0 {
		g.mu.Unlock()
		return false
	}
	g.held = true
	met, rec := g.met, g.rec
	g.mu.Unlock()
	met.GateWaitSeconds.Observe(0)
	rec.NoteGateWait(0)
	return true
}

// Release hands the gate to the oldest live waiter, or opens it.
func (g *Gate) Release() {
	g.mu.Lock()
	for len(g.q) > 0 {
		w := g.q[0]
		g.q = g.q[1:]
		if w.gone {
			continue
		}
		w.granted = true
		close(w.ch)
		g.met.GateDepth.Set(int64(len(g.q)))
		g.mu.Unlock()
		return
	}
	g.held = false
	g.met.GateDepth.Set(0)
	g.mu.Unlock()
}

// Waiters returns the current queue length (diagnostics).
func (g *Gate) Waiters() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.q)
}
