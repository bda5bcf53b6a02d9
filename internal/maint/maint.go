// Package maint is the dynamic maintenance subsystem: the runtime
// counterpart of the static differential pruning in internal/analyze.
// It bundles two cooperating pieces the propagation network consults
// during every wave:
//
//   - Counting maintenance: a per-derived-tuple derivation-count
//     sidecar (a multiset: a types.Map from tuple to count, like the
//     MVCC version sidecar in internal/storage). The network executes
//     triangle-form differentials (diff.GenerateCounting) under bag
//     semantics and folds the signed per-derivation deltas through the
//     count store; only 0↔positive support transitions surface as node
//     Δ-changes. A deletion that removes one of several derivations
//     decrements support and emits nothing — no recomputation of the
//     defining condition and no §7.2 membership probe are needed,
//     because the maintained counts make the node's Δ exact by
//     construction.
//
//   - The cost-based strategy chooser (the paper's §8 Hybrid made real;
//     chooser.go): per view and per propagation wave the network decides
//     between running the view's partial differentials and recomputing
//     it (old vs new state diff), from the wave's Δ sizes and the scan
//     costs it has observed on each path, with a floor under which a
//     wave is always differentiated and hysteresis above it. The state
//     sits on the network's nodes; this package keeps it alive across
//     network rebuilds and records the switches.
//
// Counts are transactional: every mutation is journaled (first touch
// per transaction) and rolled back exactly on abort. Crash recovery
// needs no count persistence at all — the invariant "counts equal the
// bag evaluation of the current state" makes a lazy reseed after
// recovery (or after any strategy switch that left them stale) produce
// exactly the counts an uninterrupted history would have.
package maint

import (
	"fmt"
	"sync"

	"partdiff/internal/delta"
	"partdiff/internal/obs"
	"partdiff/internal/types"
)

// Strategy is the per-view, per-wave propagation choice.
type Strategy uint8

// The strategies.
const (
	// Incremental propagates partial differentials (with counting when
	// enabled) — the paper's scheme.
	Incremental Strategy = iota
	// Recompute derives the view's Δ by evaluating it in the old and
	// new states and diffing — the naive method, which wins for tiny
	// extents under massive updates.
	Recompute
)

// String names the strategy as shown in reports.
func (s Strategy) String() string {
	if s == Recompute {
		return "recomp"
	}
	return "incr"
}

// Config controls the maintainer.
type Config struct {
	// Counting enables derivation-count maintenance for differenced
	// views.
	Counting bool
}

// Bag is a wave's signed derivation-count changes, accumulated per
// tuple over its triangle-differential executions — and, with every
// count positive, a view's count store.
type Bag = types.Map[int64]

// viewState is the maintainer's per-view record: the count store and
// the chooser's cost memory. Chooser state survives count reseeds and
// network rebuilds (it is workload history, not derived data).
type viewState struct {
	name  string
	canon string // canonical definition fingerprint at registration

	counts *Bag // tuple → derivation count (> 0); nil when empty
	seeded bool // counts reflect some consistent state
	dirty  bool // counts are stale (a recompute wave bypassed them)

	chooser Chooser
}

// undoKind discriminates journal entries.
type undoKind uint8

const (
	undoCount undoKind = iota // one tuple's count (first touch per txn)
	undoState                 // whole count store (reseed / registration)
	undoDirty                 // the dirty flag alone (MarkDirty)
)

// undoEntry restores one piece of maintainer state on rollback. Entries
// are replayed in reverse journal order.
type undoEntry struct {
	kind undoKind
	vs   *viewState

	key  types.Tuple // undoCount
	hash uint64
	old  int64 // 0: the tuple was not counted

	oldCounts *Bag // undoState
	oldSeeded bool
	oldDirty  bool
}

// Decision is one journaled strategy switch: the strategy the view
// moved to, and the wave's Δ size and predicted costs that moved it.
type Decision struct {
	Seq        uint64
	View       string
	Strategy   Strategy
	SeedTotal  int
	IncrCost   float64
	RecompCost float64
}

// decisionRing bounds the switch journal.
const decisionRing = 128

// Maintainer owns the count stores and the strategy chooser for one
// rules manager. It outlives propagation-network rebuilds (the manager
// passes the same maintainer to every rebuilt network), so counts and
// cost history survive definition changes that don't touch a view.
//
// All methods are nil-safe where the propagation hot path calls them,
// and internally locked: invariant checks and reports may run from a
// monitoring goroutine while a check phase is propagating.
type Maintainer struct {
	counting bool
	met      *Metrics
	bus      *obs.Bus
	rec      *obs.Recorder

	mu    sync.Mutex
	views map[string]*viewState

	// undo is the transaction journal; touched/stateTouched implement
	// first-touch-per-transaction semantics.
	undo         []undoEntry
	touched      map[*viewState]*types.Set
	stateTouched map[*viewState]bool

	decisions []Decision // ring of switches, most recent last
	switches  uint64
}

// New returns a maintainer with the given configuration.
func New(cfg Config) *Maintainer {
	return &Maintainer{
		counting: cfg.Counting,
		met:      &Metrics{},
		views:    map[string]*viewState{},
	}
}

// Counting reports whether derivation-count maintenance is enabled.
func (m *Maintainer) Counting() bool { return m != nil && m.counting }

// view returns the view's record, creating it on first use. Caller
// holds m.mu.
func (m *Maintainer) view(name string) *viewState {
	vs, ok := m.views[name]
	if !ok {
		vs = &viewState{name: name}
		vs.chooser.m, vs.chooser.view = m, name
		m.views[name] = vs
	}
	return vs
}

// SetCounting toggles derivation-count maintenance. Turning it on
// invalidates every view's counts: while it was off the network
// propagated without maintaining them, so whatever they say is stale —
// each view reseeds lazily on its next counted wave. The invalidation
// is not journaled: no abort makes counts that missed committed
// transactions valid again, and a reseed is right in any state.
func (m *Maintainer) SetCounting(on bool) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.counting == on {
		return
	}
	m.counting = on
	if on {
		for _, vs := range m.views {
			vs.seeded = false
		}
	}
}

// SetMetrics installs the registry-backed meter set (nil restores the
// disabled default).
func (m *Maintainer) SetMetrics(met *Metrics) {
	if met == nil {
		met = &Metrics{}
	}
	m.met = met
}

// SetBus installs the event bus strategy-switch system events are
// published on (nil disables).
func (m *Maintainer) SetBus(b *obs.Bus) { m.bus = b }

// SetRecorder installs the flight recorder strategy switches are
// recorded on (nil disables).
func (m *Maintainer) SetRecorder(r *obs.Recorder) { m.rec = r }

// Register (re)declares a counted view. When the canonical definition
// matches the registration the counts were built under, they are kept;
// a changed definition drops them (journaled — a mid-transaction
// redefinition that rolls back gets its counts back), so the next wave
// reseeds against the new definition. Chooser state is always kept.
func (m *Maintainer) Register(view, canon string) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	vs := m.view(view)
	if vs.canon == canon {
		return
	}
	if vs.canon == "" {
		vs.canon = canon // first registration: no counts to drop
		return
	}
	m.recordStateUndo(vs)
	vs.canon = canon
	vs.counts = nil
	vs.seeded = false
	vs.dirty = false
}

// NeedsReseed reports whether the view's counts must be rebuilt before
// the next Apply (never seeded, dropped at registration, or marked
// stale by a recompute wave).
func (m *Maintainer) NeedsReseed(view string) bool {
	if m == nil {
		return false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	vs, ok := m.views[view]
	return ok && (!vs.seeded || vs.dirty)
}

// Reseed rebuilds the view's counts from scratch: enumerate must yield
// the view's bag extent (one emit per derivation) in the state the
// counts should reflect — the propagation network passes the OLD state
// of the current change window, so applying the window's deltas on top
// lands on the new state. The replaced store is journaled whole (one
// pointer swap), so an abort restores the previous counts and flags.
func (m *Maintainer) Reseed(view string, enumerate func(emit func(types.Tuple) error) error) error {
	if m == nil {
		return fmt.Errorf("maint: no maintainer")
	}
	counts := &Bag{}
	if err := enumerate(func(t types.Tuple) error {
		n, _ := counts.Ref(t)
		*n++
		return nil
	}); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	vs, ok := m.views[view]
	if !ok {
		return fmt.Errorf("maint: view %q not registered", view)
	}
	m.recordStateUndo(vs)
	vs.counts = counts
	vs.seeded = true
	vs.dirty = false
	m.met.Reseeds.Inc()
	m.met.CountedTuples.Set(m.countedTuplesLocked())
	return nil
}

// MarkDirty flags the view's counts as stale — a recompute wave derived
// the node's Δ without going through them. Cheap and journaled; the
// counts themselves are kept in case the transaction aborts.
func (m *Maintainer) MarkDirty(view string) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	vs, ok := m.views[view]
	if !ok || vs.dirty || !vs.seeded {
		return
	}
	if !m.stateTouched[vs] {
		m.undo = append(m.undo, undoEntry{kind: undoDirty, vs: vs, oldDirty: vs.dirty})
		m.markStateTouched(vs)
	}
	vs.dirty = true
}

// Apply folds one wave's signed derivation-count deltas into the
// view's count store and returns the exact node Δ: a tuple whose
// support crossed 0→positive is a net insertion, positive→0 a net
// deletion, every other change is support-only and emits nothing. A
// support underflow means the triangle differentials and the store
// disagree — a bug, surfaced as an error so the transaction rolls back
// rather than silently corrupting the monitor.
func (m *Maintainer) Apply(view string, bag *Bag) (*delta.Set, error) {
	if m == nil {
		return nil, fmt.Errorf("maint: no maintainer")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	vs, ok := m.views[view]
	if !ok {
		return nil, fmt.Errorf("maint: view %q not registered", view)
	}
	if !vs.seeded || vs.dirty {
		return nil, fmt.Errorf("maint: counts of %q not seeded", view)
	}
	out := delta.New()
	var applied, retracted int64
	var err error
	// The bag's stored hashes probe the count store: no tuple is hashed
	// here. (Each forbids mutating bag; it is vs.counts that changes.)
	bag.Each(func(h uint64, t types.Tuple, dn *int64) bool {
		if *dn == 0 {
			return true
		}
		var old int64
		if c := vs.counts.FindH(h, t); c != nil {
			old = *c
		}
		n := old + *dn
		if n < 0 {
			err = fmt.Errorf("maint: support of %s%s would drop to %d (counts out of sync)", view, t, n)
			return false
		}
		m.recordCountUndo(vs, h, t, old)
		if n == 0 {
			vs.counts.DeleteH(h, t)
		} else {
			c, _ := vs.counts.RefH(h, t)
			*c = n
		}
		applied++
		switch {
		case old == 0 && n > 0:
			out.Insert(t)
		case old > 0 && n == 0:
			out.Delete(t)
			retracted++
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	m.met.Applied.Add(applied)
	m.met.Retractions.Add(retracted)
	m.met.CountedTuples.Set(m.countedTuplesLocked())
	return out, nil
}

// Support returns a tuple's current derivation count (0 when untracked)
// and whether the view has seeded, clean counts at all.
func (m *Maintainer) Support(view string, t types.Tuple) (int64, bool) {
	if m == nil {
		return 0, false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	vs, ok := m.views[view]
	if !ok || !vs.seeded || vs.dirty {
		return 0, false
	}
	if c := vs.counts.Find(t); c != nil {
		return *c, true
	}
	return 0, true
}

// VerifyCounts checks the counting invariant for one view: the
// maintained counts must equal a fresh bag enumeration of the current
// state. Views that are unseeded or dirty are vacuously consistent
// (they reseed before their next use). enumerate yields the view's
// current-state bag extent.
func (m *Maintainer) VerifyCounts(view string, enumerate func(emit func(types.Tuple) error) error) error {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	vs, ok := m.views[view]
	if !ok || !vs.seeded || vs.dirty {
		m.mu.Unlock()
		return nil
	}
	have := vs.counts.Clone()
	m.mu.Unlock()
	var fresh Bag
	if err := enumerate(func(t types.Tuple) error {
		n, _ := fresh.Ref(t)
		*n++
		return nil
	}); err != nil {
		return err
	}
	var err error
	fresh.Each(func(h uint64, t types.Tuple, n *int64) bool {
		var got int64
		if c := have.FindH(h, t); c != nil {
			got = *c
		}
		if got != *n {
			err = fmt.Errorf("maint: %s support of %s is %d, fresh evaluation derives it %d time(s)", view, t, got, *n)
		}
		return err == nil
	})
	if err != nil {
		return err
	}
	have.Each(func(h uint64, t types.Tuple, n *int64) bool {
		if fresh.FindH(h, t) == nil {
			err = fmt.Errorf("maint: %s carries support %d for %s, which is no longer derivable", view, *n, t)
		}
		return err == nil
	})
	return err
}

// OnEnd closes the transaction journal: on commit the journal is simply
// discarded (the counts already reflect the committed state); on abort
// it is replayed in reverse, restoring every touched count, store and
// flag to its pre-transaction value.
func (m *Maintainer) OnEnd(committed bool) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if !committed {
		for i := len(m.undo) - 1; i >= 0; i-- {
			u := m.undo[i]
			switch u.kind {
			case undoCount:
				if u.old > 0 {
					c, _ := u.vs.counts.RefH(u.hash, u.key)
					*c = u.old
				} else {
					u.vs.counts.DeleteH(u.hash, u.key)
				}
			case undoState:
				u.vs.counts = u.oldCounts
				u.vs.seeded = u.oldSeeded
				u.vs.dirty = u.oldDirty
			case undoDirty:
				u.vs.dirty = u.oldDirty
			}
		}
		m.met.Rollbacks.Inc()
		m.met.CountedTuples.Set(m.countedTuplesLocked())
	}
	m.undo = nil
	m.touched = nil
	m.stateTouched = nil
}

// recordCountUndo journals one tuple's pre-image, first touch per
// transaction. A whole-store undo recorded earlier in the same
// transaction subsumes later key entries only for the replaced map;
// key undos always refer to the live map, and reverse-order replay
// keeps the two consistent. Caller holds m.mu.
func (m *Maintainer) recordCountUndo(vs *viewState, h uint64, t types.Tuple, old int64) {
	if m.touched == nil {
		m.touched = map[*viewState]*types.Set{}
	}
	tk := m.touched[vs]
	if tk == nil {
		tk = &types.Set{}
		m.touched[vs] = tk
	}
	if !tk.AddH(h, t) {
		return
	}
	m.undo = append(m.undo, undoEntry{kind: undoCount, vs: vs, key: t, hash: h, old: old})
}

// recordStateUndo journals the whole count store (pointer swap), first
// touch per transaction. Caller holds m.mu.
func (m *Maintainer) recordStateUndo(vs *viewState) {
	if m.stateTouched[vs] {
		return
	}
	m.markStateTouched(vs)
	m.undo = append(m.undo, undoEntry{
		kind: undoState, vs: vs,
		oldCounts: vs.counts, oldSeeded: vs.seeded, oldDirty: vs.dirty,
	})
	// The store is about to be replaced wholesale: per-key touch marks
	// for the old map no longer apply to the new one.
	if m.touched != nil {
		delete(m.touched, vs)
	}
}

func (m *Maintainer) markStateTouched(vs *viewState) {
	if m.stateTouched == nil {
		m.stateTouched = map[*viewState]bool{}
	}
	m.stateTouched[vs] = true
}

// countedTuplesLocked sums the live count-store sizes. Caller holds
// m.mu.
func (m *Maintainer) countedTuplesLocked() int64 {
	var n int64
	for _, vs := range m.views {
		n += int64(vs.counts.Len())
	}
	return n
}
