// Package txn implements transactions over the storage layer: a logical
// undo log, rollback by inverse replay, and the deferred check phase
// hook that runs at commit (§1: "condition evaluation is delayed until a
// check phase usually at commit time").
//
// Rollback replays the undo log inverted *through the normal update
// path*, so the inverse physical events flow into the same Δ-set
// accumulators as the original ones and cancel out under ∪Δ — after a
// rollback no rule sees any net change, with no special-casing in the
// monitor.
//
// # Commit hook ordering
//
// Hooks are named and ordered; Commit runs their callbacks in a fixed,
// documented sequence so that durability can never be reordered behind
// bookkeeping:
//
//  1. check phase   — every hook's OnCommit, in registration order
//     (the rules hook runs the deferred condition check here; action
//     updates join the transaction's undo log).
//  2. persist phase — every hook's OnPersist, in registration order,
//     receiving the full forward event log. The wal hook appends and
//     fsyncs here: fsync-before-ack. A persist error or panic rolls
//     the transaction back exactly like a failed check phase.
//  3. ack           — the transaction is finalized (active=false).
//  4. OnEnd(true)   — every hook, in registration order (monitors
//     discard Δ-sets, the session applies deferred object deletions,
//     the wal hook clears its per-transaction capture).
//  5. events        — events the check phase staged on the bus (rule
//     firings, Δ summaries) are published, stamped with the commit
//     sequence, followed by the txn/commit lifecycle event: the bus
//     never carries uncommitted work, and because publication happens
//     under the writer gate, bus order is commit-sequence order.
//  6. metrics       — Commits / CommitSeconds are observed last, after
//     the fsync, so the commit-latency histogram includes durability
//     and a metric update can never precede the ack it describes.
package txn

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"partdiff/internal/obs"
	"partdiff/internal/storage"
)

// ErrCorrupt is the sticky error a poisoned manager returns from every
// subsequent call: a rollback failed part-way, so the store may hold a
// partially undone transaction and no answer derived from it can be
// trusted. Test with errors.Is.
var ErrCorrupt = errors.New("database corrupt: rollback failed, store state is not trustworthy")

// Hook is one named participant in the transaction lifecycle. Any
// callback may be nil. See the package comment for the exact order in
// which Commit invokes them.
type Hook struct {
	// Name identifies the hook; AddHook replaces a same-named hook in
	// place, keeping its position in the order.
	Name string
	// OnEvent receives every physical event (including inverse events
	// replayed during rollback) — the rule monitor folds them into
	// Δ-sets here.
	OnEvent func(storage.Event)
	// OnCommit runs the deferred check phase. Updates performed by rule
	// actions during the check phase are part of the same transaction.
	OnCommit func() error
	// OnPersist runs after a successful check phase and before the
	// commit is acknowledged, receiving the transaction's forward event
	// log split at the check-phase boundary: user holds the events of
	// the transaction body, action the events issued by rule actions
	// during the check phase. Both are read-only views of the undo log
	// and must not be retained past the call. An error rolls the
	// transaction back: fsync-before-ack.
	OnPersist func(user, action []storage.Event) error
	// OnEnd runs after the transaction finishes (committed reports the
	// outcome); monitors discard base Δ-sets here.
	OnEnd func(committed bool)
}

// Manager coordinates transactions on one store. AMOS-style main-memory
// transactions are serial: callers must hold the session's writer gate
// (see Gate) around every Begin/Commit/Rollback. Corrupt alone is safe
// to call concurrently — snapshot readers poll it without the gate.
type Manager struct {
	store *storage.Store

	active     bool
	inRollback bool
	undo       []storage.Event
	// corrupt, once set, poisons the manager: Begin, Commit and
	// Rollback all return it (wrapping ErrCorrupt) forever after.
	// Guarded by cmu: it is read by gate-free snapshot readers.
	cmu     sync.Mutex
	corrupt error

	hooks []Hook

	met    *Metrics // never nil; zero-value Metrics when observability is off
	tracer *obs.Tracer
	// bus carries lifecycle and staged payload events; nil-safe (a nil
	// or inactive bus costs one atomic load per publish site). slow is
	// the slow-commit threshold (0 = disabled).
	bus  *obs.Bus
	slow time.Duration
	// rec is the flight recorder: commit records, the stall watchdog's
	// in-flight tracking, and the slow_commit / corruption /
	// conflict_storm triggers feed it. Nil-safe and disarmed-cheap like
	// the bus.
	rec *obs.Recorder
}

// NewManager creates a manager subscribed to the store's event stream.
func NewManager(store *storage.Store) *Manager {
	m := &Manager{store: store, met: &Metrics{}}
	store.Subscribe(m.observe)
	return m
}

// AddHook installs h at the end of the hook order, or — when a hook
// with the same name exists — replaces it in place.
func (m *Manager) AddHook(h Hook) {
	for i := range m.hooks {
		if m.hooks[i].Name == h.Name {
			m.hooks[i] = h
			return
		}
	}
	m.hooks = append(m.hooks, h)
}

// SetHooks installs a single anonymous monitor hook (replacing any
// previous SetHooks installation). Any callback may be nil. Kept for
// direct users of the manager; the session layer uses AddHook with
// named hooks.
func (m *Manager) SetHooks(onEvent func(storage.Event), onCommit func() error, onEnd func(committed bool)) {
	m.AddHook(Hook{Name: "monitor", OnEvent: onEvent, OnCommit: onCommit, OnEnd: onEnd})
}

func (m *Manager) observe(e storage.Event) {
	if m.active && !m.inRollback {
		m.undo = append(m.undo, e)
	}
	for i := range m.hooks {
		if m.hooks[i].OnEvent != nil {
			m.hooks[i].OnEvent(e)
		}
	}
}

// Begin starts a transaction.
func (m *Manager) Begin() error {
	if err := m.Corrupt(); err != nil {
		return err
	}
	if m.active {
		return fmt.Errorf("transaction already active")
	}
	m.active = true
	m.undo = m.undo[:0]
	// Inside the scope the store defers snapshot visibility to the
	// AdvanceCommit call at commit (rollback publishes nothing).
	m.store.BeginTxnScope()
	m.met.Begins.Inc()
	if m.bus.Active() {
		m.bus.Publish(obs.Event{Type: obs.EventTxn, Op: "begin"})
	}
	return nil
}

// Corrupt returns the sticky corruption error, or nil while the manager
// is healthy. Safe for concurrent use (snapshot readers fail fast on a
// poisoned database without taking the writer gate).
func (m *Manager) Corrupt() error {
	m.cmu.Lock()
	defer m.cmu.Unlock()
	return m.corrupt
}

func (m *Manager) setCorrupt(err error) {
	m.cmu.Lock()
	m.corrupt = err
	m.cmu.Unlock()
}

// InTransaction reports whether a transaction is active.
func (m *Manager) InTransaction() bool { return m.active }

// UpdateCount returns the number of physical events logged so far in the
// active transaction.
func (m *Manager) UpdateCount() int { return len(m.undo) }

// Commit runs the deferred check phase, persists, and finishes the
// transaction — in the fixed order documented in the package comment.
// If the check or persist phase fails (by error or by panic), the
// transaction is rolled back and the causing error returned; if that
// rollback itself fails the manager is poisoned (see ErrCorrupt). The
// transaction is guaranteed to be finalized either way — a panicking
// hook can not leave the manager active with a stale undo log.
func (m *Manager) Commit() error {
	if err := m.Corrupt(); err != nil {
		return err
	}
	if !m.active {
		return fmt.Errorf("no active transaction")
	}
	start := time.Now()
	rtok := m.rec.CommitBegin()
	csp := m.tracer.Begin("txn", "commit", obs.Int("undo_events", len(m.undo)))
	// Everything logged before the check phase is a user update;
	// everything appended during it is a rule-action update. Persist
	// hooks get the log split at this boundary so recovery can replay
	// the user part and re-derive the action part through a fresh check
	// phase.
	userLen := len(m.undo)
	m.met.UndoEvents.Observe(float64(userLen))
	checkStart := time.Now()
	if err := m.runCommitHooks(); err != nil {
		m.met.CheckFailures.Inc()
		rbErr := m.Rollback()
		m.met.CommitSeconds.Observe(time.Since(start).Seconds())
		m.rec.CommitEnd(rtok, obs.CommitRecord{
			Outcome: "rolled_back", Writes: userLen,
			CheckMs: ms(time.Since(checkStart)), TotalMs: ms(time.Since(start)),
		})
		csp.End(obs.Str("outcome", "rolled_back"))
		if rbErr != nil {
			return fmt.Errorf("check phase failed: %v (%w)", err, rbErr)
		}
		return fmt.Errorf("check phase failed, transaction rolled back: %w", err)
	}
	checkDur := time.Since(checkStart)
	persistStart := time.Now()
	if err := m.runPersistHooks(userLen); err != nil {
		m.met.PersistFailures.Inc()
		rbErr := m.Rollback()
		m.met.CommitSeconds.Observe(time.Since(start).Seconds())
		m.rec.CommitEnd(rtok, obs.CommitRecord{
			Outcome: "persist_failed", Writes: userLen, CheckMs: ms(checkDur),
			PersistMs: ms(time.Since(persistStart)), TotalMs: ms(time.Since(start)),
		})
		csp.End(obs.Str("outcome", "persist_failed"))
		if rbErr != nil {
			return fmt.Errorf("persist failed: %v (%w)", err, rbErr)
		}
		return fmt.Errorf("persist failed, transaction rolled back: %w", err)
	}
	persistDur := time.Since(persistStart)
	ackStart := time.Now()
	// Ack (step 3): finalize, then publish the write set — the commit
	// sequence advances and new snapshot pins see the transaction's
	// rows. Touched relations are stamped for optimistic read-set
	// validation; an empty transaction publishes nothing.
	m.active = false
	actionLen := len(m.undo) - userLen
	touched := touchedRelations(m.undo)
	m.undo = m.undo[:0]
	m.store.EndTxnScope()
	if len(touched) > 0 {
		m.store.AdvanceCommit(touched)
	}
	for i := range m.hooks {
		if m.hooks[i].OnEnd != nil {
			m.hooks[i].OnEnd(true)
		}
	}
	ackDur := time.Since(ackStart)
	// Event publication sits after the ack — the commit point — so
	// subscribers only ever see committed work: first the events the
	// check phase staged (rule firings, Δ summaries), then the commit
	// lifecycle event closing the batch. Writers are serialized, so
	// bus order is commit-sequence order.
	if m.bus.Active() {
		seq := m.store.CommitSeq()
		m.bus.CommitStaged(seq)
		m.bus.Publish(obs.Event{
			Type: obs.EventTxn, Op: "commit", CommitSeq: seq,
			Writes: userLen, Fired: actionLen,
		})
	}
	total := time.Since(start)
	// The commit record precedes the slow-commit trigger so a bundle's
	// frozen window includes the commit that tripped it.
	m.rec.CommitEnd(rtok, obs.CommitRecord{
		Outcome: "committed", CommitSeq: m.store.CommitSeq(),
		CheckMs: ms(checkDur), PersistMs: ms(persistDur), AckMs: ms(ackDur),
		TotalMs: ms(total), Writes: userLen, Fired: actionLen,
	})
	if m.slow > 0 && total > m.slow {
		m.met.SlowCommits.Inc()
		detail := fmt.Sprintf("commit exceeded slow threshold (%s > %s)", total, m.slow)
		m.bus.Publish(obs.Event{
			Type: obs.EventSystem, Op: "slow_commit", CommitSeq: m.store.CommitSeq(),
			Ms:        float64(total) / float64(time.Millisecond),
			CheckMs:   float64(checkDur) / float64(time.Millisecond),
			PersistMs: float64(persistDur) / float64(time.Millisecond),
			AckMs:     float64(ackDur) / float64(time.Millisecond),
			Detail:    detail,
		})
		m.rec.Trigger(obs.TrigSlowCommit, detail)
	}
	// Metrics last (step 5): the observed latency includes the fsync,
	// and no metric update precedes durability.
	m.met.Commits.Inc()
	m.met.CommitSeconds.Observe(total.Seconds())
	m.met.PersistSeconds.Observe(persistDur.Seconds())
	m.met.AckSeconds.Observe(ackDur.Seconds())
	csp.End(obs.Str("outcome", "committed"))
	return nil
}

// ms converts a duration to float milliseconds for recorder records.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// runCommitHooks invokes every check-phase callback in registration
// order, converting a panic into an error so Commit's
// rollback-and-finalize path runs regardless. A runtime.Goexit inside a
// hook (a t.FailNow in a rule action) cannot be converted: nothing
// returns to Commit, so the rollback is done here, on the way out,
// rather than leave the transaction open for the next caller to join.
func (m *Manager) runCommitHooks() (err error) {
	start := time.Now()
	sp := m.tracer.Begin("txn", "check_phase")
	returned := false
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("check phase panicked: %v", r)
		} else if !returned {
			m.met.CheckFailures.Inc()
			// A failed rollback poisons the manager, which every later
			// call reports; there is no caller to return it to.
			_ = m.Rollback()
		}
		m.met.CheckSeconds.Observe(time.Since(start).Seconds())
		sp.End()
	}()
	for i := range m.hooks {
		if m.hooks[i].OnCommit == nil {
			continue
		}
		if err = m.hooks[i].OnCommit(); err != nil {
			break
		}
	}
	returned = true
	return err
}

// runPersistHooks invokes every persist callback in registration order
// with the transaction's forward event log split at the check-phase
// boundary, converting a panic into an error. The slices are views of
// the live undo log — hooks must treat them as read-only and not
// retain them past the call.
func (m *Manager) runPersistHooks(userLen int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("persist panicked: %v", r)
		}
	}()
	for i := range m.hooks {
		if m.hooks[i].OnPersist == nil {
			continue
		}
		if err := m.hooks[i].OnPersist(m.undo[:userLen], m.undo[userLen:]); err != nil {
			return err
		}
	}
	return nil
}

// Rollback undoes every update of the active transaction by replaying
// the undo log inverted, in reverse order. Every undo failure — not
// just the first — is collected; any failure means the store no longer
// matches the pre-transaction state, so the manager is poisoned and
// the returned error wraps ErrCorrupt.
func (m *Manager) Rollback() error {
	if err := m.Corrupt(); err != nil {
		return err
	}
	if !m.active {
		return fmt.Errorf("no active transaction")
	}
	m.inRollback = true
	var undoErrs []error
	func() {
		// Inverse replay restores the pre-transaction state even where a
		// declared capability forbids the inverse operation for users
		// (undoing an insert into an append-only relation is a delete).
		m.store.SuspendEnforcement()
		defer m.store.ResumeEnforcement()
		// A panicking undo (e.g. injected at the storage layer) must
		// still finalize the transaction and poison the manager.
		defer func() {
			if r := recover(); r != nil {
				undoErrs = append(undoErrs, fmt.Errorf("undo panicked: %v", r))
			}
		}()
		for i := len(m.undo) - 1; i >= 0; i-- {
			e := m.undo[i]
			var err error
			if e.Kind == storage.InsertEvent {
				_, err = m.store.Delete(e.Relation, e.Tuple)
			} else {
				_, err = m.store.Insert(e.Relation, e.Tuple)
			}
			if err != nil {
				undoErrs = append(undoErrs, fmt.Errorf("undo %s: %v", e, err))
			}
		}
	}()
	m.inRollback = false
	m.active = false
	m.undo = m.undo[:0]
	m.store.EndTxnScope()
	m.met.Rollbacks.Inc()
	for i := range m.hooks {
		if m.hooks[i].OnEnd != nil {
			m.hooks[i].OnEnd(false)
		}
	}
	// Rolled-back work must never reach subscribers: drop whatever the
	// check phase staged, then announce the rollback itself.
	if m.bus.Active() {
		m.bus.DiscardStaged()
		m.bus.Publish(obs.Event{Type: obs.EventTxn, Op: "rollback"})
	}
	if len(undoErrs) > 0 {
		err := fmt.Errorf("%w: %v", ErrCorrupt, errors.Join(undoErrs...))
		m.setCorrupt(err)
		m.rec.Trigger(obs.TrigCorruption, err.Error())
		return err
	}
	return nil
}

// touchedRelations returns the distinct relation names in the event
// log, in first-touch order.
func touchedRelations(events []storage.Event) []string {
	if len(events) == 0 {
		return nil
	}
	seen := make(map[string]struct{}, 4)
	var out []string
	for _, e := range events {
		if _, ok := seen[e.Relation]; !ok {
			seen[e.Relation] = struct{}{}
			out = append(out, e.Relation)
		}
	}
	return out
}
