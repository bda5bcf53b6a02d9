package storage

// Multi-version concurrency control for snapshot reads.
//
// Writers are serialized by the session's admission gate (internal/txn),
// so at any moment there is at most one transaction in flight; it writes
// at sequence commitSeq+1. Readers pin the current commitSeq and see
// exactly the rows committed at or before it: a row is visible at
// snapshot S iff it was added at addSeq <= S and not deleted at delSeq
// <= S. Version metadata lives in a per-relation sidecar — `added`
// records the write sequence of recently-added live rows, `dead` holds
// tombstones of recently-deleted ones — and is garbage-collected at
// every commit down to the oldest pinned snapshot. With no snapshots
// pinned the sidecar drains to empty and the MVCC layer costs a table
// probe per mutation — under the row's own hash, computed once per
// physical event and shared with the row set and the indexes.
//
// Rollback replays the undo log inverted through the normal update path
// (internal/txn), and the sidecar rules below make that replay exact:
// re-inserting a tuple the same transaction deleted resurrects its
// tombstone (restoring the original addSeq), and deleting a tuple the
// same transaction added removes it without a tombstone. After a
// rollback the sidecar is byte-identical to its pre-transaction state,
// so the aborted transaction's write sequence can be reused safely.

import (
	"fmt"
	"runtime"
	"sync/atomic"

	"partdiff/internal/types"
)

// rwlatch is a tiny writer-preference spin latch guarding one
// relation's rows, indexes and version sidecar. A fresh reader waits
// while a writer is queued (wantw > 0), so continuous read traffic can
// never starve the writer; the writer holds it for one physical row
// mutation, so readers wait microseconds, not query-lengths.
//
// Writer preference is safe against reader recursion (a self-join calls
// Lookup while inside Each on the same relation) because recursive
// acquisition never reaches the latch: snapshot readers skip
// re-latching via the view's held set, and the live read path runs only
// in the serialized writer's own goroutine, where wantw is necessarily
// zero (the admission gate allows one writer at a time, and it cannot
// be spinning in lock() while evaluating).
type rwlatch struct {
	// state >= 0: number of readers; -1: writer.
	state atomic.Int32
	// wantw counts writers spinning in lock(). Fresh readers wait while
	// it is nonzero so the writer's CAS window opens.
	wantw atomic.Int32
}

func (l *rwlatch) rlock() {
	for {
		if l.wantw.Load() == 0 {
			s := l.state.Load()
			if s >= 0 && l.state.CompareAndSwap(s, s+1) {
				return
			}
		}
		runtime.Gosched()
	}
}

func (l *rwlatch) runlock() { l.state.Add(-1) }

func (l *rwlatch) lock() {
	l.wantw.Add(1)
	for !l.state.CompareAndSwap(0, -1) {
		runtime.Gosched()
	}
	l.wantw.Add(-1)
}

func (l *rwlatch) unlock() { l.state.Store(0) }

// deadRow is a tombstone: a tuple deleted at delSeq that snapshots
// pinned before it must still see. addSeq is the sequence the row was
// added at (0 when it predates the sidecar, e.g. recovery-loaded rows).
type deadRow struct {
	t      types.Tuple
	addSeq uint64
	delSeq uint64
}

// writeSeq returns the sequence the in-flight transaction writes at.
func (s *Store) writeSeq() uint64 { return s.commitSeq.Load() + 1 }

// CommitSeq returns the sequence of the last committed transaction.
func (s *Store) CommitSeq() uint64 { return s.commitSeq.Load() }

// AdvanceCommit publishes a committed transaction's writes: it bumps
// the commit sequence (rows written at the new sequence become visible
// to snapshots pinned from now on), stamps every touched relation for
// conflict validation, and garbage-collects version metadata older than
// the oldest pinned snapshot. The caller (the transaction manager, at
// ack) must be the serialized writer.
func (s *Store) AdvanceCommit(touched []string) uint64 {
	s.pinMu.Lock()
	seq := s.commitSeq.Load() + 1
	s.commitSeq.Store(seq)
	min := seq
	for p := range s.pins {
		if p < min {
			min = p
		}
	}
	s.pinMu.Unlock()
	s.mu.Lock()
	for _, n := range touched {
		if r, ok := s.rels[n]; ok {
			r.latch.lock()
			r.lastWrite = seq
			r.latch.unlock()
		}
	}
	s.purgeDirtyLocked(min)
	s.mu.Unlock()
	return seq
}

// purgeDirtyLocked drops version metadata no snapshot at or after min
// needs. Caller holds s.mu.
func (s *Store) purgeDirtyLocked(min uint64) {
	for n := range s.dirty {
		r, ok := s.rels[n]
		if !ok || r.purge(min) {
			delete(s.dirty, n)
		}
	}
}

// purge removes sidecar entries covered by every snapshot >= min; it
// reports whether the sidecar is now empty.
func (r *Relation) purge(min uint64) bool {
	r.latch.lock()
	defer r.latch.unlock()
	r.added.DeleteIf(func(_ uint64, _ types.Tuple, a *uint64) bool { return *a <= min })
	r.dead.DeleteIf(func(_ uint64, _ types.Tuple, ds *[]deadRow) bool {
		keep := (*ds)[:0]
		for _, d := range *ds {
			if d.delSeq > min {
				keep = append(keep, d)
			}
		}
		*ds = keep
		return len(keep) == 0
	})
	return r.added.Len() == 0 && r.dead.Len() == 0
}

// SnapshotView is a pinned read view of the store at one commit
// sequence. It is safe for concurrent use with the writer, but serves
// ONE reading goroutine at a time (each query pins its own view; an
// Atomic transaction's single goroutine reuses one); Close releases the
// pin (idempotent) so version metadata can be collected.
//
// rels is copied out of the store at pin time so Source never takes the
// store lock: a snapshot evaluator resolves predicates from inside
// latched row callbacks (mid-join), and going back to store.mu there
// deadlocks against a writer that takes store.mu before the row latch.
//
// held counts, per relation, how many of the view's sources currently
// hold its read latch. A nested acquire (self-join: Lookup from inside
// Each's row callback) sees held > 0 and skips the latch — the outer
// call already holds it — which is what lets the latch itself give
// writers strict preference without deadlocking reader recursion.
// Single-goroutine use (above) is what makes the plain map safe.
type SnapshotView struct {
	st     *Store
	seq    uint64
	rels   map[string]*Relation
	held   map[*Relation]int
	closed atomic.Bool
}

// PinSnapshot pins the current commit sequence and returns a consistent
// read view over it.
func (s *Store) PinSnapshot() *SnapshotView {
	s.pinMu.Lock()
	seq := s.commitSeq.Load()
	s.pins[seq]++
	s.pinMu.Unlock()
	s.mu.RLock()
	rels := make(map[string]*Relation, len(s.rels))
	for n, r := range s.rels {
		rels[n] = r
	}
	s.mu.RUnlock()
	s.met.SnapshotPins.Inc()
	s.met.PinnedSnapshots.Add(1)
	return &SnapshotView{st: s, seq: seq, rels: rels, held: make(map[*Relation]int)}
}

// Seq returns the pinned commit sequence.
func (v *SnapshotView) Seq() uint64 { return v.seq }

// Close releases the pin. When the last pin drops, retained version
// metadata is collected immediately rather than waiting for the next
// commit.
func (v *SnapshotView) Close() {
	if v.closed.Swap(true) {
		return
	}
	s := v.st
	s.pinMu.Lock()
	s.pins[v.seq]--
	if s.pins[v.seq] <= 0 {
		delete(s.pins, v.seq)
	}
	idle := len(s.pins) == 0
	min := s.commitSeq.Load()
	s.pinMu.Unlock()
	s.met.PinnedSnapshots.Add(-1)
	if idle {
		s.mu.Lock()
		s.purgeDirtyLocked(min)
		s.mu.Unlock()
	}
}

// Source returns a Source reading the named relation as of the pinned
// sequence, or false if the relation did not exist at pin time. The
// lookup runs on the view's own relation map — never the store lock —
// so it is safe to call from inside another Source's row callback.
func (v *SnapshotView) Source(name string) (Source, bool) {
	r, ok := v.rels[name]
	if !ok {
		return nil, false
	}
	return snapSource{r: r, seq: v.seq, view: v}, true
}

// WriteSince reports whether any of the named relations was touched by
// a commit after seq — the read-set validation of an optimistic
// transaction. Callers must hold the writer gate, so no commit can race
// the check.
func (s *Store) WriteSince(seq uint64, rels map[string]bool) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for n := range rels {
		if r, ok := s.rels[n]; ok {
			r.latch.rlock()
			lw := r.lastWrite
			r.latch.runlock()
			if lw > seq {
				return true
			}
		}
	}
	return false
}

// snapSource adapts one relation to a Source at a fixed snapshot
// sequence: live rows added after the snapshot are filtered out, and
// tombstoned rows still visible at it are merged back in.
type snapSource struct {
	r    *Relation
	seq  uint64
	view *SnapshotView
}

func (v snapSource) Arity() int { return v.r.arity }

// acquire read-latches the relation through the view's held set: a
// nested call on a relation the view already holds (self-join) skips
// the latch, so the writer-preference latch cannot deadlock reader
// recursion. Every acquire is paired with a release.
func (v snapSource) acquire() {
	if v.view.held[v.r] > 0 {
		v.view.held[v.r]++
	} else {
		v.r.latch.rlock()
		v.view.held[v.r] = 1
	}
}

func (v snapSource) release() {
	if n := v.view.held[v.r] - 1; n > 0 {
		v.view.held[v.r] = n
	} else {
		delete(v.view.held, v.r)
		v.r.latch.runlock()
	}
}

// hidden reports whether the live row t (hash h) is too new for the
// snapshot. Caller holds the latch.
func (v snapSource) hidden(h uint64, t types.Tuple) bool {
	a := v.r.added.FindH(h, t)
	return a != nil && *a > v.seq
}

// deadVisible reports whether tombstone d is visible at the snapshot.
func (v snapSource) deadVisible(d deadRow) bool {
	return d.addSeq <= v.seq && d.delSeq > v.seq
}

// eachDead calls fn for every tombstone visible at the snapshot, until
// fn returns false.
func (v snapSource) eachDead(fn func(types.Tuple) bool) {
	v.r.dead.Each(func(_ uint64, _ types.Tuple, ds *[]deadRow) bool {
		for _, d := range *ds {
			if v.deadVisible(d) && !fn(d.t) {
				return false
			}
		}
		return true
	})
}

// eachLive calls fn for every row of s visible at the snapshot; it
// reports whether fn stopped the iteration. Each row's stored hash
// probes the sidecar (an empty sidecar answers without looking).
func (v snapSource) eachLive(s *types.Set, fn func(types.Tuple) bool) (stopped bool) {
	s.EachH(func(h uint64, t types.Tuple) bool {
		stopped = !v.hidden(h, t) && !fn(t)
		return !stopped
	})
	return stopped
}

func (v snapSource) Len() int {
	v.acquire()
	defer v.release()
	if v.r.added.Len() == 0 && v.r.dead.Len() == 0 {
		return v.r.rows.Len()
	}
	n := 0
	count := func(types.Tuple) bool { n++; return true }
	v.eachLive(&v.r.rows, count)
	v.eachDead(count)
	return n
}

func (v snapSource) Each(fn func(types.Tuple) bool) {
	v.acquire()
	defer v.release()
	v.r.met.Reads.Add(int64(v.r.rows.Len()))
	if !v.eachLive(&v.r.rows, fn) {
		v.eachDead(fn)
	}
}

// Lookup probes the column's index, building it first under the read
// latch it takes anyway — in a self-join, the one its view already
// holds (index.go).
func (v snapSource) Lookup(col int, val types.Value, fn func(types.Tuple) bool) {
	if col < 0 || col >= v.r.arity {
		return
	}
	v.acquire()
	defer v.release()
	v.r.met.IndexProbes.Inc()
	p := v.r.probe(col, val)
	v.r.met.Reads.Add(int64(p.len()))
	if p.eachH(func(h uint64, t types.Tuple) bool { return v.hidden(h, t) || fn(t) }) {
		return
	}
	if v.r.dead.Len() == 0 {
		return
	}
	v.eachDead(func(t types.Tuple) bool {
		return !t[col].KeyEqual(val) || fn(t)
	})
}

func (v snapSource) Contains(t types.Tuple) bool {
	v.acquire()
	defer v.release()
	v.r.met.IndexProbes.Inc()
	h := t.Hash()
	if v.r.rows.ContainsH(h, t) && !v.hidden(h, t) {
		return true
	}
	if ds := v.r.dead.FindH(h, t); ds != nil {
		for _, d := range *ds {
			if v.deadVisible(d) {
				return true
			}
		}
	}
	return false
}

// insertAt adds t at write sequence seq, recording it in the version
// sidecar; it reports whether the tuple was newly added. Re-inserting a
// tuple the same transaction deleted resurrects its tombstone so a
// rollback's inverse replay restores the sidecar exactly.
func (r *Relation) insertAt(t types.Tuple, seq uint64) (bool, error) {
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
	addSeq := seq
	if ds := r.dead.FindH(h, t); ds != nil {
		for i, d := range *ds {
			if d.delSeq != seq {
				continue
			}
			// Resurrect: the row is live again as of its original
			// addSeq (0 = predates the sidecar, nothing to record).
			addSeq = d.addSeq
			if *ds = append((*ds)[:i], (*ds)[i+1:]...); len(*ds) == 0 {
				r.dead.DeleteH(h, t)
			}
			break
		}
	}
	if addSeq > 0 {
		a, _ := r.added.RefH(h, t)
		*a = addSeq
	}
	return true, nil
}

// removeAt deletes t at write sequence seq, leaving a tombstone for
// older snapshots — unless the same transaction added the row, in which
// case it was never visible outside the transaction and is removed
// without a trace.
func (r *Relation) removeAt(t types.Tuple, seq uint64) (bool, error) {
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
	var addSeq uint64
	if a := r.added.FindH(h, t); a != nil {
		addSeq = *a
		r.added.DeleteH(h, t)
	}
	if addSeq != seq {
		ds, _ := r.dead.RefH(h, t)
		*ds = append(*ds, deadRow{t: t, addSeq: addSeq, delSeq: seq})
	}
	return true, nil
}

// checkVersions verifies sidecar sanity: every `added` entry names a
// live row, every tombstone is filed under its own tuple, and every
// tombstone's lifetime is well-formed. Caller holds the latch or is the
// quiesced writer.
func (r *Relation) checkVersions() error {
	var err error
	r.added.Each(func(h uint64, t types.Tuple, a *uint64) bool {
		if h != t.Hash() || !r.rows.ContainsH(h, t) {
			err = fmt.Errorf("relation %q: version sidecar marks missing row %s as added at %d", r.name, t, *a)
		}
		return err == nil
	})
	if err != nil {
		return err
	}
	r.dead.Each(func(h uint64, k types.Tuple, ds *[]deadRow) bool {
		if len(*ds) == 0 {
			err = fmt.Errorf("relation %q: version sidecar keeps an empty tombstone list for %s", r.name, k)
		}
		for _, d := range *ds {
			if h != d.t.Hash() || !d.t.KeyEqual(k) {
				err = fmt.Errorf("relation %q: tombstone keyed %s holds tuple %s", r.name, k, d.t)
			} else if d.delSeq <= d.addSeq {
				err = fmt.Errorf("relation %q: tombstone %s deleted at %d before added at %d", r.name, d.t, d.delSeq, d.addSeq)
			}
		}
		return err == nil
	})
	return err
}
