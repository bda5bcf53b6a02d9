package amosql

// Concurrent sessions. Writers stay serial — the paper's execution
// model, which the undo log, Δ-accumulators and deferred check phase
// all assume — but concurrency is no longer rejected:
//
//   - Writers QUEUE on a fair FIFO admission gate (txn.Gate) bounded by
//     a context deadline; ErrSessionBusy is returned only when that
//     deadline expires. An explicit transaction holds the gate as a
//     lease from Begin to Commit/Rollback, so its statements cannot
//     interleave with another writer's.
//   - Readers never touch the gate: Query from a non-owning goroutine
//     pins an MVCC snapshot (storage.SnapshotView) and evaluates
//     against it with a private compiler and evaluator, seeing exactly
//     the commits sequenced before the pin.
//   - Re-entrant calls from the holder are admitted at once: a rule
//     action's updates join the committing transaction. The holder
//     stays anonymous while only session code runs and is named just
//     where user code that can re-enter takes over: a check round's
//     actions and a foreign function in an expression (asHolder, which
//     locks the goroutine to its OS thread and names the thread), and a
//     lease that outlives the call (leave, which names the goroutine).
//   - Atomic runs an optimistic transaction: reads on a snapshot with
//     the read set recorded, writes buffered, then validated and
//     applied under the gate — ErrConflict when a commit invalidated
//     the read set (the facade retries with jittered backoff).
//
// Shared compile-time state is split by lock: schemaMu orders DDL
// (which mutates the ObjectLog program) against snapshot compiles and
// evaluations; ifaceMu guards the interface-variable map.

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"time"

	"partdiff/internal/eval"
	"partdiff/internal/objectlog"
	"partdiff/internal/storage"
	"partdiff/internal/txn"
	"partdiff/internal/types"
)

// defaultWriterWait bounds writer admission for calls without their own
// context deadline. Generous: under a healthy load the queue drains in
// microseconds, and a stuck explicit transaction should surface as a
// timeout, not a hang.
const defaultWriterWait = 30 * time.Second

// SetWriterWait sets the default admission deadline applied to calls
// that carry no context deadline of their own (<= 0 waits forever).
func (s *Session) SetWriterWait(d time.Duration) { s.writerWait.Store(int64(d)) }

// Session.owner is one of: ownerFree; ownerAnon; a goroutine id (ids
// start at 1), naming a lease's holder; or a thread tag below
// ownerAnon, naming the goroutine asHolder has locked to that thread.
const (
	ownerFree int64 = 0
	// ownerAnon: the gate is held and the holder has not been named.
	// Whoever it is, it is busy inside session code, so no caller
	// arriving at an entry point can be it.
	ownerAnon int64 = -1
)

// threadTag names a locked OS thread: the sign bit, a 30-bit generation
// above the 32-bit thread id. Bit 62 stays clear, so no tag is ownerAnon.
func threadTag(tid int64, gen uint32) int64 {
	return -1<<63 | int64(gen&(1<<30-1))<<32 | tid
}

const tidMask = 1<<32 - 1

// goid returns the calling goroutine's id, parsed in place from the
// "goroutine N [status]:" header runtime.Stack writes. The walk behind
// it costs microseconds and grows with the depth of the caller's stack,
// so it is only made to name and recognise a lease's holder (and, on
// platforms without a thread id, by callerThread). ok is false when the
// header does not parse: that is no identity, never one to compare
// equal to another failure.
func goid() (id int64, ok bool) {
	const prefix = "goroutine "
	var buf [len(prefix) + 20]byte // the widest int64 and the space after it
	n := runtime.Stack(buf[:], false)
	if n < len(prefix) || string(buf[:len(prefix)]) != prefix {
		return 0, false
	}
	i := len(prefix)
	for ; i < n && '0' <= buf[i] && buf[i] <= '9'; i++ {
		id = id*10 + int64(buf[i]-'0')
	}
	if i == len(prefix) || i == n || buf[i] != ' ' {
		return 0, false
	}
	return id, true
}

// heldByCaller reports whether the caller is the named holder of the
// gate. A free or anonymously held gate answers no without asking who
// the caller is. A lease's holder is recognised by goroutine id. A
// thread-named holder is recognised by the caller's thread: while the
// tag stands, its goroutine is locked to that thread and no other
// goroutine runs there, so a caller that finds itself on the thread
// with the same tag read before and after is the holder. The second
// read rejects a stranger that read the tag, was moved onto the thread
// after the holder unlocked it, and called callerThread there; the
// generation keeps a later asHolder on the same thread from restoring
// the tag it read.
func (s *Session) heldByCaller() bool {
	o := s.owner.Load()
	switch {
	case o == ownerFree || o == ownerAnon:
		return false
	case o > 0:
		g, ok := goid()
		return ok && g == o
	}
	t, ok := callerThread()
	return ok && t == o&tidMask && s.owner.Load() == o
}

// enter acquires the writer gate with the default deadline; see
// enterCtx.
func (s *Session) enter() error { return s.enterCtx(context.Background()) }

// enterCtx admits the calling goroutine as the session's writer. It
// fails fast on a poisoned database (sticky ErrCorrupt); re-entrant
// calls from the named holder are admitted immediately (rule actions
// legitimately issue statements during the check phase, and an explicit
// transaction's statements re-enter its lease). Everyone else takes the
// gate if it is free — the common case, which reads no clock and builds
// no deadline — or queues FIFO until it frees or ctx expires
// (ErrSessionBusy). The new holder is anonymous.
func (s *Session) enterCtx(ctx context.Context) error {
	if err := s.txns.Corrupt(); err != nil {
		return err
	}
	if s.heldByCaller() {
		s.depth++
		return nil
	}
	if !s.gate.TryAcquire() {
		if err := s.awaitGate(ctx); err != nil {
			return err
		}
	}
	s.owner.Store(ownerAnon)
	s.depth = 1
	return nil
}

// awaitGate queues for the gate, bounded by ctx's deadline or, absent
// one, the session's writer-wait default.
func (s *Session) awaitGate(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if _, has := ctx.Deadline(); !has {
		if w := time.Duration(s.writerWait.Load()); w > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, w)
			defer cancel()
		}
	}
	return s.gate.Acquire(ctx)
}

// leave exits one nesting level. At depth zero the gate is released —
// unless an explicit transaction is open, whose lease persists until
// Commit/Rollback; its holder is named now, so that its next statement
// is recognised on entry. A group-commit fsync wait armed by the wal
// hook is drained AFTER the release, so the next writer appends its
// record behind ours and shares the fsync; the commit is acknowledged to
// the caller only once durable (fsync-before-ack, now batched). errp
// receives the durability failure if the call itself succeeded.
func (s *Session) leave(errp *error) {
	s.depth--
	if s.depth > 0 {
		return
	}
	if s.explicit && s.txns.InTransaction() {
		if s.owner.Load() == ownerAnon {
			// Unnamed (the id did not parse), the lease admits nobody,
			// its holder included, until a deadline expires.
			if g, ok := goid(); ok {
				s.owner.Store(g)
			}
		}
		return
	}
	s.explicit = false
	wait := s.syncWait
	s.syncWait = nil
	s.owner.Store(ownerFree)
	s.gate.Release()
	if wait != nil {
		if err := wait(); err != nil && errp != nil && *errp == nil {
			*errp = fmt.Errorf("commit applied but not durable: %w", err)
		}
	}
}

// asHolder runs fn — session code about to call user code that may
// re-enter the session: a check round's actions, a foreign function —
// with the gate's holder named, so the re-entrant call is admitted to
// the transaction instead of queueing behind it.
//
// The holder is named by its OS thread, in place: the goroutine is
// locked to the thread it runs on and owner becomes that thread's tag
// under a fresh generation; on the way out the previous owner is
// restored before the thread is unlocked. Recognising the holder then
// costs a thread-id read, not a stack walk, however deep fn calls. A
// lease's goroutine-id owner is replaced the same way and restored
// after fn, so an explicit transaction's commit gets the same cheap
// recognition; its holder is never left locked across API calls,
// because a goroutine that exits locked takes its thread with it and
// the thread's id can be reused. A panic or runtime.Goexit in fn runs
// the deferred restore and unlock on its way to the caller.
//
// A holder that is thread-named already — fn nested inside another
// asHolder — is the running goroutine, and fn runs as it stands. So it
// does when the gate is free (the rule manager driven without the
// session's entry points has nobody to recognise) and when the caller
// has no id to give (fn runs under the previous owner: at worst its
// re-entrant calls queue until their deadline, but no stranger is ever
// admitted).
func (s *Session) asHolder(fn func() error) error {
	prev := s.owner.Load()
	if prev == ownerFree || prev < ownerAnon {
		return fn()
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	t, ok := callerThread()
	if !ok || t > tidMask {
		return fn()
	}
	s.holderGen++
	s.owner.Store(threadTag(t, s.holderGen))
	defer s.owner.Store(prev)
	return fn()
}

// --- interface-variable map (shared with gate-free readers) ---

func (s *Session) getIface(name string) (types.Value, bool) {
	s.ifaceMu.RLock()
	defer s.ifaceMu.RUnlock()
	v, ok := s.iface[name]
	return v, ok
}

// setIface binds name for the gate holder. Inside a transaction the
// first rebinding of a variable journals its previous binding, which
// rollback restores (settleIface).
func (s *Session) setIface(name string, v types.Value) {
	s.ifaceMu.Lock()
	if s.txns.InTransaction() {
		if _, seen := s.ifaceUndo[name]; !seen {
			prev, ok := s.iface[name]
			if s.ifaceUndo == nil {
				s.ifaceUndo = map[string]ifaceBinding{}
			}
			s.ifaceUndo[name] = ifaceBinding{v: prev, ok: ok}
		}
	}
	s.iface[name] = v
	s.ifaceMu.Unlock()
}

// setIfaceUnjournaled binds name for a caller that may not hold the
// gate, and so cannot ask whether a transaction is open: the binding is
// outside any transaction's undo.
func (s *Session) setIfaceUnjournaled(name string, v types.Value) {
	s.ifaceMu.Lock()
	s.iface[name] = v
	s.ifaceMu.Unlock()
}

// settleIface ends the transaction's journal of rebound variables: a
// rollback puts every journaled variable back as it was before the
// transaction, a commit keeps the new bindings.
func (s *Session) settleIface(committed bool) {
	if len(s.ifaceUndo) == 0 {
		return
	}
	s.ifaceMu.Lock()
	if !committed {
		for name, b := range s.ifaceUndo {
			if b.ok {
				s.iface[name] = b.v
			} else {
				delete(s.iface, name)
			}
		}
	}
	clear(s.ifaceUndo)
	s.ifaceMu.Unlock()
}

// delIfaceObj unbinds name if it still refers to oid.
func (s *Session) delIfaceObj(name string, oid types.OID) {
	s.ifaceMu.Lock()
	if cur, ok := s.iface[name]; ok && cur.Kind == types.KindObject && cur.O == oid {
		delete(s.iface, name)
	}
	s.ifaceMu.Unlock()
}

// copyIface snapshots the interface variables for a reader's private
// compiler.
func (s *Session) copyIface() map[string]types.Value {
	s.ifaceMu.RLock()
	defer s.ifaceMu.RUnlock()
	out := make(map[string]types.Value, len(s.iface))
	for k, v := range s.iface {
		out[k] = v
	}
	return out
}

// ifaceNames returns the bound variable names in sorted order.
func (s *Session) ifaceNames() []string {
	s.ifaceMu.RLock()
	names := make([]string, 0, len(s.iface))
	for n := range s.iface {
		names = append(names, n)
	}
	s.ifaceMu.RUnlock()
	sort.Strings(names)
	return names
}

// --- snapshot reads ---

// snapEnv resolves predicates for a snapshot query: base relations come
// from the pinned view, and when reads is non-nil every base predicate
// touched is recorded (the optimistic read set). Δ-sets and old states
// exist only inside the check phase, which runs on the live store.
type snapEnv struct {
	prog  *objectlog.Program
	view  *storage.SnapshotView
	reads map[string]bool
}

func (e snapEnv) Program() *objectlog.Program { return e.prog }

func (e snapEnv) Source(pred string, dk objectlog.DeltaKind, old bool) (storage.Source, error) {
	if dk != objectlog.DeltaNone || old {
		return nil, fmt.Errorf("Δ-sets and old states are only available during the check phase")
	}
	src, ok := e.view.Source(pred)
	if !ok {
		return nil, fmt.Errorf("relation %q does not exist", pred)
	}
	if e.reads != nil {
		e.reads[pred] = true
	}
	return src, nil
}

// snapshotQuery evaluates one select against a freshly pinned snapshot,
// without the writer gate. Aggregate selects register a program
// definition and therefore fall back to the gated path.
func (s *Session) snapshotQuery(ctx context.Context, sel SelectStmt) (*Result, error) {
	if err := s.txns.Corrupt(); err != nil {
		return nil, err
	}
	if _, _, ok := (&compiler{cat: s.cat}).aggregateCall(&sel.Query); ok {
		return s.gatedQuery(ctx, sel)
	}
	view := s.store.PinSnapshot()
	defer view.Close()
	return s.snapshotSelect(sel, view, nil)
}

// snapshotSelect compiles and evaluates sel against view with a private
// compiler and evaluator. schemaMu (R) is held for the duration so no
// DDL mutates the program or catalog mid-evaluation; base predicates
// resolved are recorded in reads when non-nil.
func (s *Session) snapshotSelect(sel SelectStmt, view *storage.SnapshotView, reads map[string]bool) (*Result, error) {
	s.schemaMu.RLock()
	defer s.schemaMu.RUnlock()
	comp := &compiler{cat: s.cat, iface: s.copyIface()}
	if _, _, ok := comp.aggregateCall(&sel.Query); ok {
		return nil, fmt.Errorf("aggregate selects are not supported on snapshot reads; run them through Exec or outside Atomic")
	}
	name := fmt.Sprintf("_snap%d", s.snapGensym.Add(1))
	def, _, err := comp.compileQuery(name, nil, &sel.Query)
	if err != nil {
		return nil, err
	}
	ev := eval.New(snapEnv{prog: s.mgr.Program(), view: view, reads: reads})
	ev.SetMetrics(s.evMet)
	out := types.NewSet()
	for _, c := range def.Clauses {
		if err := objectlog.CheckSafe(c); err != nil {
			return nil, err
		}
		sc, ok := objectlog.Simplify(c)
		if !ok {
			continue
		}
		if err := ev.EvalClause(sc, out); err != nil {
			return nil, err
		}
	}
	cols := make([]string, len(sel.Query.Exprs))
	for i, e := range sel.Query.Exprs {
		cols[i] = e.String()
	}
	return &Result{Columns: cols, Tuples: out.Tuples()}, nil
}

// gatedQuery runs a select on the live store under the writer gate (the
// aggregate fallback).
func (s *Session) gatedQuery(ctx context.Context, sel SelectStmt) (*Result, error) {
	if err := s.enterCtx(ctx); err != nil {
		return nil, err
	}
	return s.liveQuery(sel)
}

// liveQuery runs a select on the live store for a caller that has
// entered the session, and leaves it.
func (s *Session) liveQuery(sel SelectStmt) (r *Result, err error) {
	defer s.leave(&err)
	res, err := s.execStmtSafe(sel, "")
	if err != nil {
		return nil, err
	}
	return &res, nil
}

// --- optimistic transactions ---

// AtomicTx is the handle an optimistic transaction body works through:
// Query runs on the transaction's pinned snapshot and records the read
// set; Exec buffers statements that are validated and applied at
// commit. A body's reads never see its own buffered writes.
type AtomicTx struct {
	s     *Session
	view  *storage.SnapshotView
	reads map[string]bool
	stmts []string
}

// Query evaluates a select against the transaction's snapshot,
// recording the base relations it touched for commit-time validation.
func (tx *AtomicTx) Query(src string) (*Result, error) {
	st, err := ParseOne(src)
	if err != nil {
		return nil, err
	}
	sel, ok := st.(SelectStmt)
	if !ok {
		return nil, fmt.Errorf("Query expects a select statement")
	}
	return tx.s.snapshotSelect(sel, tx.view, tx.reads)
}

// Exec buffers src for commit. It is parsed now, so malformed input
// fails inside the body; transaction-control statements are rejected —
// the optimistic commit is the transaction.
func (tx *AtomicTx) Exec(src string) error {
	stmts, _, err := ParseWithSources(src)
	if err != nil {
		return err
	}
	for _, st := range stmts {
		if t, ok := st.(TxnStmt); ok {
			return fmt.Errorf("%s is not allowed inside Atomic (the optimistic commit is the transaction)", t.Kind)
		}
	}
	tx.stmts = append(tx.stmts, src)
	return nil
}

// Atomic runs fn as ONE optimistic transaction: reads on a pinned
// snapshot, buffered writes applied under the writer gate after
// validating that no commit touched a relation the body read since the
// snapshot was pinned. On invalidation it returns ErrConflict without
// having written anything — fn is safe to re-run against a fresh
// snapshot (the facade's Atomic does so with bounded retries). A
// read-only body (no Exec calls) never takes the gate at all.
func (s *Session) Atomic(ctx context.Context, fn func(*AtomicTx) error) (err error) {
	if err := s.txns.Corrupt(); err != nil {
		return err
	}
	view := s.store.PinSnapshot()
	defer view.Close()
	tx := &AtomicTx{s: s, view: view, reads: make(map[string]bool)}
	if err := fn(tx); err != nil {
		return err
	}
	if len(tx.stmts) == 0 {
		return nil
	}
	if err = s.enterCtx(ctx); err != nil {
		return err
	}
	defer s.leave(&err)
	if s.store.WriteSince(view.Seq(), tx.reads) {
		s.txns.MarkConflict()
		return fmt.Errorf("%w (snapshot %d)", txn.ErrConflict, view.Seq())
	}
	if err = s.txns.Begin(); err != nil {
		return err
	}
	for _, src := range tx.stmts {
		if _, err = s.execScript(src); err != nil {
			if rbErr := s.txns.Rollback(); rbErr != nil {
				return fmt.Errorf("%v (%w)", err, rbErr)
			}
			return err
		}
	}
	return s.txns.Commit()
}
