// Package storage implements the in-memory extensional database: named
// base relations (the extents of stored functions) with a hash index on
// each column that is probed (index.go), plus the physical update event
// stream that the rule monitor taps to accumulate Δ-sets (§4.1 of the
// paper).
//
// Updates to stored functions follow AMOS semantics: `set f(k)=v` first
// removes the old value tuples for the key and then adds the new one,
// producing the physical events −(f,k,old), +(f,k,v) in that order.
package storage

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"partdiff/internal/faultinject"
	"partdiff/internal/obs"
	"partdiff/internal/types"
)

// EventKind distinguishes physical insertions from deletions.
type EventKind int

// The physical event kinds.
const (
	InsertEvent EventKind = iota
	DeleteEvent
)

// String returns "+" or "-" as in the paper's event notation.
func (k EventKind) String() string {
	if k == InsertEvent {
		return "+"
	}
	return "-"
}

// Event is one physical update event on a base relation.
type Event struct {
	Relation string
	Kind     EventKind
	Tuple    types.Tuple
}

// String renders the event as in §4.1, e.g. +(min_stock,#1,150).
func (e Event) String() string {
	return fmt.Sprintf("%s(%s,%s)", e.Kind, e.Relation, tupleInner(e.Tuple))
}

func tupleInner(t types.Tuple) string {
	var b []byte
	for i, v := range t {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, v.String()...)
	}
	return string(b)
}

// Listener observes physical update events. Listeners are invoked
// synchronously, after the store has been modified.
type Listener func(Event)

// Source is a read-only view of a relation, the interface the query
// evaluator runs against. Both live relations and rolled-back (old
// state) views implement it.
type Source interface {
	// Arity returns the number of columns.
	Arity() int
	// Len returns the number of tuples.
	Len() int
	// Each iterates all tuples; stops early when fn returns false.
	Each(fn func(types.Tuple) bool)
	// Lookup iterates the tuples whose column col equals v.
	Lookup(col int, v types.Value, fn func(types.Tuple) bool)
	// Contains reports tuple membership.
	Contains(t types.Tuple) bool
}

// Relation is a stored base relation with a hash index on each column
// that is probed.
type Relation struct {
	name    string
	arity   int
	keyCols []int
	rows    types.Set
	// index[col] is column col's index, nil until the column is first
	// probed (index.go); the slice itself is nil for an arity-1
	// relation, whose rows are its index.
	index []atomic.Pointer[colIndex]
	// objCols are the columns that can hold objects (SetObjectColumns);
	// nil means undeclared, and every column is searched.
	objCols []int
	met     *Metrics // never nil; zero-value Metrics when observability is off

	// MVCC sidecar (see mvcc.go), guarded by latch: added maps each
	// recently-added live row to its write sequence, dead holds the
	// tombstones snapshots may still need under the deleted tuple,
	// lastWrite is the commit sequence of the last committed write
	// (conflict validation). Both tables drain to empty whenever no
	// snapshot is pinned.
	latch     rwlatch
	added     types.Map[uint64]
	dead      types.Map[[]deadRow]
	lastWrite uint64
}

// NewRelation creates an empty relation. keyCols are the columns that
// form the functional key for Set (the argument columns of a stored
// function); they may be empty for pure assert/retract relations.
func NewRelation(name string, arity int, keyCols []int) (*Relation, error) {
	if arity <= 0 {
		return nil, fmt.Errorf("relation %q: arity must be positive", name)
	}
	for _, c := range keyCols {
		if c < 0 || c >= arity {
			return nil, fmt.Errorf("relation %q: key column %d out of range", name, c)
		}
	}
	r := &Relation{name: name, arity: arity, keyCols: append([]int(nil), keyCols...), met: &Metrics{}}
	if arity > 1 {
		r.index = make([]atomic.Pointer[colIndex], arity)
	}
	return r, nil
}

// Name returns the relation name.
func (r *Relation) Name() string { return r.name }

// Arity returns the number of columns.
func (r *Relation) Arity() int { return r.arity }

// KeyCols returns the functional key columns.
func (r *Relation) KeyCols() []int { return r.keyCols }

// Len returns the number of tuples.
func (r *Relation) Len() int { return r.rows.Len() }

// Contains reports whether the relation holds t.
func (r *Relation) Contains(t types.Tuple) bool {
	r.met.IndexProbes.Inc()
	return r.rows.Contains(t)
}

// Each iterates all tuples.
func (r *Relation) Each(fn func(types.Tuple) bool) {
	r.met.Reads.Add(int64(r.rows.Len()))
	r.rows.Each(fn)
}

// Tuples returns all tuples in deterministic order.
func (r *Relation) Tuples() []types.Tuple { return r.rows.Tuples() }

// Rows returns the live tuple set (callers must not mutate it).
func (r *Relation) Rows() *types.Set { return &r.rows }

// Lookup iterates tuples with column col equal to v using the column's
// hash index, which the first probe builds. It is the gate holder's
// live read path.
func (r *Relation) Lookup(col int, v types.Value, fn func(types.Tuple) bool) {
	if col < 0 || col >= r.arity {
		return
	}
	r.met.IndexProbes.Inc()
	p := r.probe(col, v)
	r.met.Reads.Add(int64(p.len()))
	p.eachH(func(_ uint64, t types.Tuple) bool { return fn(t) })
}

// LookupCount returns the number of tuples with column col equal to v.
func (r *Relation) LookupCount(col int, v types.Value) int {
	if col < 0 || col >= r.arity {
		return 0
	}
	r.met.IndexProbes.Inc()
	p := r.probe(col, v)
	return p.len()
}

// insert adds t with no version bookkeeping — the recovery path, which
// runs before any snapshot can be pinned; reports whether it was newly
// added. Transactional writers use insertAt (mvcc.go).
func (r *Relation) insert(t types.Tuple) (bool, error) {
	if len(t) != r.arity {
		return false, fmt.Errorf("relation %q: tuple arity %d, want %d", r.name, len(t), r.arity)
	}
	r.latch.lock()
	defer r.latch.unlock()
	h := t.Hash()
	if !r.rows.AddH(h, t) {
		return false, nil
	}
	r.met.Inserts.Inc()
	r.indexAdd(h, t)
	return true, nil
}

// remove deletes t with no version bookkeeping (recovery path); reports
// whether it was present. Transactional writers use removeAt (mvcc.go).
func (r *Relation) remove(t types.Tuple) (bool, error) {
	if len(t) != r.arity {
		return false, fmt.Errorf("relation %q: tuple arity %d, want %d", r.name, len(t), r.arity)
	}
	r.latch.lock()
	defer r.latch.unlock()
	h := t.Hash()
	if !r.rows.RemoveH(h, t) {
		return false, nil
	}
	r.met.Deletes.Inc()
	r.indexRemove(h, t)
	return true, nil
}

// Store is the collection of base relations plus the physical event
// stream. It is safe for concurrent use; events fire while holding the
// store lock, so listeners must not re-enter the store.
type Store struct {
	mu        sync.RWMutex
	rels      map[string]*Relation
	listeners []Listener
	inj       *faultinject.Injector
	met       *Metrics
	// bus, when active, receives a system/capability_violation event
	// for every update rejected by a declared capability (SetBus).
	bus *obs.Bus
	// rec, when armed, gets a capability_violation anomaly trigger for
	// the same rejections (SetRecorder).
	rec *obs.Recorder
	// caps holds declared change capabilities (capability.go); relations
	// absent from the map admit both signs. Guarded by mu. capSuspend
	// counts open SuspendEnforcement scopes (rollback's inverse replay).
	caps       map[string]Capability
	capSuspend atomic.Int32

	// MVCC state (see mvcc.go): commitSeq is the sequence of the last
	// committed transaction (the in-flight writer writes at commitSeq+1),
	// pins refcounts the snapshots readers hold (guarded by pinMu, which
	// also serializes pinning against AdvanceCommit), and dirty names the
	// relations whose version sidecars await garbage collection (guarded
	// by mu).
	commitSeq atomic.Uint64
	pinMu     sync.Mutex
	pins      map[uint64]int
	dirty     map[string]struct{}
	// txnDepth counts open transaction scopes (see BeginTxnScope). A
	// write outside any scope advances the commit sequence itself, so
	// direct store use — population loops, tests — stays visible to
	// snapshot readers without a transaction layer above it.
	txnDepth atomic.Int32
}

// BeginTxnScope and EndTxnScope bracket a transaction: writes inside a
// scope become snapshot-visible only when the transaction layer calls
// AdvanceCommit at commit; writes outside any scope advance the commit
// sequence themselves, each its own atomic unit.
func (s *Store) BeginTxnScope() { s.txnDepth.Add(1) }

// EndTxnScope closes the scope opened by BeginTxnScope.
func (s *Store) EndTxnScope() { s.txnDepth.Add(-1) }

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{
		rels:  make(map[string]*Relation),
		pins:  make(map[uint64]int),
		dirty: make(map[string]struct{}),
		met:   &Metrics{},
	}
}

// CreateRelation creates and registers a new base relation.
func (s *Store) CreateRelation(name string, arity int, keyCols []int) (*Relation, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.rels[name]; ok {
		return nil, fmt.Errorf("relation %q already exists", name)
	}
	r, err := NewRelation(name, arity, keyCols)
	if err != nil {
		return nil, err
	}
	if s.met != nil {
		r.met = s.met
	}
	s.rels[name] = r
	return r, nil
}

// Relation looks up a relation by name.
func (s *Store) Relation(name string) (*Relation, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	r, ok := s.rels[name]
	return r, ok
}

// RelationNames returns all relation names in sorted order.
func (s *Store) RelationNames() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.rels))
	for n := range s.rels {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Subscribe registers a listener for physical update events and returns
// an unsubscribe function.
func (s *Store) Subscribe(l Listener) func() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.listeners = append(s.listeners, l)
	idx := len(s.listeners) - 1
	return func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		s.listeners[idx] = nil
	}
}

func (s *Store) emit(e Event) {
	for _, l := range s.listeners {
		if l != nil {
			l(e)
		}
	}
}

// SetInjector installs a fault injector on the store's update paths
// (nil disables injection).
func (s *Store) SetInjector(inj *faultinject.Injector) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.inj = inj
}

// Insert asserts a tuple; it reports whether the tuple was newly added
// and emits a physical + event if so.
func (s *Store) Insert(rel string, t types.Tuple) (bool, error) {
	added, err := s.insertTx(rel, t)
	if err == nil && added && s.txnDepth.Load() == 0 {
		s.AdvanceCommit([]string{rel})
	}
	return added, err
}

func (s *Store) insertTx(rel string, t types.Tuple) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.rels[rel]
	if !ok {
		return false, fmt.Errorf("relation %q does not exist", rel)
	}
	if err := s.checkCapability(rel, InsertEvent); err != nil {
		return false, err
	}
	// Fire before mutating, so an injected error leaves the store clean.
	if err := s.inj.Fire(faultinject.StoreInsert); err != nil {
		return false, err
	}
	added, err := r.insertAt(t, s.writeSeq())
	if err != nil || !added {
		return added, err
	}
	s.dirty[rel] = struct{}{}
	s.emit(Event{Relation: rel, Kind: InsertEvent, Tuple: t})
	return true, nil
}

// Delete retracts a tuple; it reports whether the tuple was present and
// emits a physical − event if so.
func (s *Store) Delete(rel string, t types.Tuple) (bool, error) {
	removed, err := s.deleteTx(rel, t)
	if err == nil && removed && s.txnDepth.Load() == 0 {
		s.AdvanceCommit([]string{rel})
	}
	return removed, err
}

func (s *Store) deleteTx(rel string, t types.Tuple) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.rels[rel]
	if !ok {
		return false, fmt.Errorf("relation %q does not exist", rel)
	}
	if err := s.checkCapability(rel, DeleteEvent); err != nil {
		return false, err
	}
	if err := s.inj.Fire(faultinject.StoreDelete); err != nil {
		return false, err
	}
	removed, err := r.removeAt(t, s.writeSeq())
	if err != nil || !removed {
		return removed, err
	}
	s.dirty[rel] = struct{}{}
	s.emit(Event{Relation: rel, Kind: DeleteEvent, Tuple: t})
	return true, nil
}

// LoadTuples bulk-inserts tuples into rel WITHOUT emitting physical
// events or firing fault points — the snapshot-restore path, which must
// not feed Δ-sets, undo logs or the write-ahead log while rebuilding
// the pre-crash state. Outside recovery, use Insert.
func (s *Store) LoadTuples(rel string, ts []types.Tuple) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.rels[rel]
	if !ok {
		return fmt.Errorf("relation %q does not exist", rel)
	}
	for _, t := range ts {
		if _, err := r.insert(t); err != nil {
			return err
		}
	}
	return nil
}

// ApplyLogged applies one logged physical event WITHOUT emitting events
// or firing fault points — the recovery reconciliation path, which
// converges the store on the logged post-commit state after replay
// (idempotent under set semantics: re-inserting a present tuple or
// deleting an absent one is a no-op, and reports changed false). Outside
// recovery, use Insert/Delete.
func (s *Store) ApplyLogged(e Event) (changed bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.rels[e.Relation]
	if !ok {
		return false, fmt.Errorf("relation %q does not exist", e.Relation)
	}
	if e.Kind == InsertEvent {
		return r.insert(e.Tuple)
	}
	return r.remove(e.Tuple)
}

// Set performs a stored-function update: it retracts every tuple whose
// key columns equal key, then asserts key ++ value. Physical events are
// emitted in paper order (− before +); the listeners see the retracted
// tuples. It returns how many tuples it retracted.
func (s *Store) Set(rel string, key []types.Value, value []types.Value) (retracted int, err error) {
	retracted, changed, err := s.setTx(rel, key, value)
	// Advance even on a mid-Set fault: outside a transaction nothing
	// undoes the retractions already applied, so they must be visible.
	if changed && s.txnDepth.Load() == 0 {
		s.AdvanceCommit([]string{rel})
	}
	return retracted, err
}

func (s *Store) setTx(rel string, key []types.Value, value []types.Value) (int, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.rels[rel]
	if !ok {
		return 0, false, fmt.Errorf("relation %q does not exist", rel)
	}
	if len(key) != len(r.keyCols) {
		return 0, false, fmt.Errorf("relation %q: key arity %d, want %d", rel, len(key), len(r.keyCols))
	}
	nt := make(types.Tuple, 0, len(key)+len(value))
	nt = append(nt, key...)
	nt = append(nt, value...)
	if len(nt) != r.arity {
		return 0, false, fmt.Errorf("relation %q: set arity %d, want %d", rel, len(nt), r.arity)
	}
	var buf [1]types.Tuple
	old := r.keyMatches(key, &buf)
	// If the new tuple is already the (only) current value, Set is a
	// no-op and emits nothing — there is no physical change.
	if len(old) == 1 && old[0].KeyEqual(nt) {
		return 0, false, nil
	}
	// Capability enforcement happens before any mutation so a rejected
	// Set leaves the store clean: the insert bit is always needed, the
	// delete bit only when old values must be retracted.
	if err := s.checkCapability(rel, InsertEvent); err != nil {
		return 0, false, err
	}
	if len(old) > 0 {
		if err := s.checkCapability(rel, DeleteEvent); err != nil {
			return 0, false, err
		}
	}
	changed := false
	seq := s.writeSeq()
	for _, t := range old {
		// A fault here leaves earlier retractions applied (and their
		// events emitted), so the undo log can still restore them.
		if err := s.inj.Fire(faultinject.StoreDelete); err != nil {
			return 0, changed, err
		}
		if removed, _ := r.removeAt(t, seq); removed {
			s.dirty[rel] = struct{}{}
			changed = true
			s.emit(Event{Relation: rel, Kind: DeleteEvent, Tuple: t})
		}
	}
	if err := s.inj.Fire(faultinject.StoreInsert); err != nil {
		return 0, changed, err
	}
	if added, _ := r.insertAt(nt, seq); added {
		s.dirty[rel] = struct{}{}
		changed = true
		s.emit(Event{Relation: rel, Kind: InsertEvent, Tuple: nt})
	}
	return len(old), changed, nil
}

// SetObjectColumns declares the columns of rel that can hold objects —
// those whose declared type is not a scalar. TuplesReferencing searches
// only these, so an object deletion never builds an index on a column
// that cannot hold one. An undeclared relation is searched in every
// column.
func (s *Store) SetObjectColumns(rel string, cols []int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.rels[rel]
	if !ok {
		return fmt.Errorf("relation %q does not exist", rel)
	}
	for _, c := range cols {
		if c < 0 || c >= r.arity {
			return fmt.Errorf("relation %q: object column %d out of range", rel, c)
		}
	}
	r.objCols = append(make([]int, 0, len(cols)), cols...)
	return nil
}

// TuplesReferencing returns, per relation, the tuples in which value v
// appears in any column that can hold it (SetObjectColumns) — the
// foot-print that must be retracted when an object is deleted.
// Relations are keyed by name; tuple order within a relation is
// deterministic.
func (s *Store) TuplesReferencing(v types.Value) map[string][]types.Tuple {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := map[string][]types.Tuple{}
	for name, r := range s.rels {
		seen := types.NewSet()
		for col := 0; col < r.arity; col++ {
			if r.objCols != nil && !slices.Contains(r.objCols, col) {
				continue
			}
			r.Lookup(col, v, func(t types.Tuple) bool {
				seen.Add(t)
				return true
			})
		}
		if seen.Len() > 0 {
			out[name] = seen.Tuples()
		}
	}
	return out
}

// Snapshot returns every relation's tuples in deterministic order,
// keyed by relation name — a logical copy for state comparisons in
// crash-safety tests. Empty relations are included.
func (s *Store) Snapshot() map[string][]types.Tuple {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make(map[string][]types.Tuple, len(s.rels))
	for name, r := range s.rels {
		r.latch.rlock()
		out[name] = r.rows.Tuples()
		r.latch.runlock()
	}
	return out
}

// CheckInvariants verifies index↔tuple-set consistency of every
// relation: a type extent keeps no index; each built column index
// covers exactly the rows — every row filed under its value, every
// posting a live row of that value, the postings summing to the row
// count — no posting is empty, and an inline posting carries its row's
// hash.
func (s *Store) CheckInvariants() error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	names := make([]string, 0, len(s.rels))
	for n := range s.rels {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if err := s.rels[n].checkConsistency(); err != nil {
			return err
		}
	}
	return nil
}

func (r *Relation) checkConsistency() error {
	r.latch.rlock()
	defer r.latch.runlock()
	if err := r.checkVersions(); err != nil {
		return err
	}
	if r.arity == 1 && r.index != nil {
		return fmt.Errorf("relation %q: a type extent keeps a column index", r.name)
	}
	var err error
	r.rows.EachH(func(h uint64, t types.Tuple) bool {
		if len(t) != r.arity {
			err = fmt.Errorf("relation %q: row %s has arity %d, want %d", r.name, t, len(t), r.arity)
			return false
		}
		if h != t.Hash() {
			err = fmt.Errorf("relation %q: row %s is filed under hash %#x, its hash is %#x", r.name, t, h, t.Hash())
			return false
		}
		for col := range r.index {
			ix := r.index[col].Load()
			if ix == nil {
				continue
			}
			p := ix.Find(t[col : col+1])
			if p != nil && p.set == nil && p.row.KeyEqual(t) && p.h != h {
				err = fmt.Errorf("relation %q: inline posting of %s on column %d carries hash %#x, its row's is %#x", r.name, t, col, p.h, h)
				return false
			}
			if !p.containsH(h, t) {
				err = fmt.Errorf("relation %q: row %s missing from index on column %d", r.name, t, col)
				return false
			}
		}
		return true
	})
	if err != nil {
		return err
	}
	for col := range r.index {
		ix := r.index[col].Load()
		if ix == nil {
			continue
		}
		total := 0
		ix.Each(func(_ uint64, key types.Tuple, p *posting) bool {
			if p.len() == 0 {
				err = fmt.Errorf("relation %q: index on column %d keeps an empty posting set for %s", r.name, col, key)
				return false
			}
			total += p.len()
			p.eachH(func(_ uint64, t types.Tuple) bool {
				if !r.rows.Contains(t) {
					err = fmt.Errorf("relation %q: index on column %d holds phantom tuple %s", r.name, col, t)
					return false
				}
				if !t[col].KeyEqual(key[0]) {
					err = fmt.Errorf("relation %q: tuple %s indexed under wrong key %s on column %d", r.name, t, key, col)
					return false
				}
				return true
			})
			return err == nil
		})
		if err != nil {
			return err
		}
		if total != r.rows.Len() {
			return fmt.Errorf("relation %q: index on column %d covers %d tuples, rows hold %d", r.name, col, total, r.rows.Len())
		}
	}
	return nil
}

// Get returns the value columns of the tuples matching key (for a stored
// function lookup), in deterministic order.
func (s *Store) Get(rel string, key []types.Value) ([][]types.Value, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	r, ok := s.rels[rel]
	if !ok {
		return nil, fmt.Errorf("relation %q does not exist", rel)
	}
	if len(r.keyCols) == 0 && len(key) == 0 {
		var out [][]types.Value
		for _, t := range r.Tuples() {
			out = append(out, []types.Value(t))
		}
		return out, nil
	}
	var out [][]types.Value
	var buf [1]types.Tuple
	for _, t := range r.keyMatches(key, &buf) {
		out = append(out, []types.Value(t[len(r.keyCols):]))
	}
	return out, nil
}
