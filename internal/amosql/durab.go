package amosql

// Durability: attaching a session to a data directory, recovery, and
// checkpointing. See internal/wal for the on-disk formats and DESIGN.md
// "Durability & recovery" for the algorithm.
//
// Recovery replays a commit record's USER events through a real
// transaction and lets the deferred check phase re-derive ΔP and
// re-fire the rules — the propagation network is rebuilt by the same
// machinery that built it originally. The logged ACTION events are then
// reconciled into the store, so the final state is reached even when an
// action's procedure is not registered at recovery time (its dispatch
// is a no-op then; see buildAction). Action procedures are assumed
// deterministic; their external side effects are at-least-once across
// a crash.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"time"

	"partdiff/internal/obs"
	"partdiff/internal/storage"
	"partdiff/internal/txn"
	"partdiff/internal/types"
	"partdiff/internal/wal"
)

// DirConfig configures AttachDir.
type DirConfig struct {
	// Policy is the commit-path fsync policy.
	Policy wal.SyncPolicy
	// CheckpointEvery, when > 0, takes an automatic checkpoint after
	// every N committed transactions.
	CheckpointEvery int
	// CheckpointInterval, when > 0, runs a background goroutine that
	// checkpoints periodically, skipping ticks when the session is busy
	// or inside a transaction.
	CheckpointInterval time.Duration
}

// AttachDir binds the session to a data directory: it recovers the
// database from the latest valid snapshot plus the write-ahead log
// tail, then installs the wal commit hook so every later transaction is
// logged (fsync-before-ack under the configured policy). It must be
// called on a fresh session, before any statements.
func (s *Session) AttachDir(dir string, cfg DirConfig) (err error) {
	if err = s.enter(); err != nil {
		return err
	}
	defer s.leave(&err)
	if s.wal != nil {
		return fmt.Errorf("session already attached to %s", s.walDir)
	}
	if s.txns.InTransaction() {
		return fmt.Errorf("cannot attach a data directory inside a transaction")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	s.walMet = wal.NewMetrics(s.obs.Registry)
	st, err := wal.ReadLatestSnapshot(dir)
	if err != nil {
		return err
	}
	log, recs, err := wal.Open(filepath.Join(dir, "wal.log"), cfg.Policy, s.inj, s.walMet)
	if err != nil {
		return err
	}
	log.SetBus(s.obs.Bus, 0)
	log.SetRecorder(s.obs.Flight)
	span := s.obs.Tracer.Begin("wal", "recovery", obs.Int("log_records", len(recs)))
	recStart := time.Now()
	s.recovering.Store(true)
	err = func() error {
		if st != nil {
			if err := s.loadState(st); err != nil {
				return fmt.Errorf("snapshot restore: %w", err)
			}
			s.walSeq = st.Seq
		}
		for i := range recs {
			if recs[i].Seq <= s.walSeq {
				continue // covered by the snapshot
			}
			if err := s.replayRecord(&recs[i]); err != nil {
				return fmt.Errorf("wal replay (seq %d): %w", recs[i].Seq, err)
			}
			s.walSeq = recs[i].Seq
			s.walMet.RecoveredRecords.Inc()
		}
		return nil
	}()
	s.recovering.Store(false)
	span.End()
	if err != nil {
		log.Close()
		return err
	}
	s.wal = log
	s.walDir = dir
	s.walLive.Store(log)
	s.checkpointEvery = cfg.CheckpointEvery
	s.txns.AddHook(txn.Hook{Name: "wal", OnPersist: s.walPersist, OnEnd: s.walEnd})
	if cfg.CheckpointInterval > 0 {
		s.startCheckpointer(cfg.CheckpointInterval)
	}
	if s.obs.Bus.Active() {
		s.obs.Bus.Publish(obs.Event{
			Type: obs.EventSystem, Op: "recovery",
			Ms:     float64(time.Since(recStart)) / float64(time.Millisecond),
			Detail: fmt.Sprintf("recovered %s: %d log record(s) replayed", dir, len(recs)),
		})
	}
	return nil
}

// Live reports process liveness: nil unless the database is poisoned
// (a failed rollback left the store untrustworthy). Safe to call from
// any goroutine without holding the session.
func (s *Session) Live() error { return s.txns.Corrupt() }

// Ready reports readiness to serve: recovery is complete, the database
// is not poisoned, and — when a data directory is attached — the
// write-ahead log is not sticky-poisoned by a failed append or fsync.
// Safe to call from any goroutine without holding the session.
// The error text leads with a stable reason token — corrupt,
// recovering, or wal-poisoned — so a /readyz 503 body tells an operator
// which of the three states the server is in before the detail.
func (s *Session) Ready() error {
	if err := s.Live(); err != nil {
		return fmt.Errorf("corrupt: %w", err)
	}
	if s.recovering.Load() {
		return fmt.Errorf("recovering: recovery in progress")
	}
	if l := s.walLive.Load(); l != nil {
		if err := l.Err(); err != nil {
			return fmt.Errorf("wal-poisoned: %w", err)
		}
	}
	return nil
}

// loadState rebuilds the database from a snapshot: the DDL journal is
// re-executed (rebuilding compiled conditions and rule actions, which
// cannot be serialized), then objects, interface variables and table
// contents are restored, and finally the journal's activations are
// replayed — against the loaded tables, which at snapshot time were
// quiescent, so each activation derives the same initial condition
// state it had before the crash. Loading tables before any rule is
// active keeps the restore out of every Δ-set.
func (s *Session) loadState(st *wal.State) error {
	s.ddl = append([]string(nil), st.DDL...)
	var deferred []string
	for _, src := range st.DDL {
		stmt, err := ParseOne(src)
		if err != nil {
			return fmt.Errorf("journal DDL %q: %w", src, err)
		}
		switch stmt.(type) {
		case ActivateStmt, DeactivateStmt:
			deferred = append(deferred, src)
			continue
		}
		if _, err := s.execScript(src); err != nil {
			return fmt.Errorf("journal DDL %q: %w", src, err)
		}
	}
	s.cat.SetNextOID(st.NextOID)
	for _, o := range st.Objects {
		if err := s.cat.RestoreObject(o.OID, o.Type); err != nil {
			return err
		}
	}
	for _, b := range st.Iface {
		s.setIface(b.Name, b.Value)
	}
	for _, t := range st.Tables {
		if _, ok := s.store.Relation(t.Name); !ok {
			if _, err := s.store.CreateRelation(t.Name, t.Arity, t.KeyCols); err != nil {
				return err
			}
		}
		if err := s.store.LoadTuples(t.Name, t.Tuples); err != nil {
			return err
		}
	}
	for _, src := range deferred {
		if _, err := s.execScript(src); err != nil {
			return fmt.Errorf("journal DDL %q: %w", src, err)
		}
	}
	return nil
}

// replayRecord applies one log record during recovery.
func (s *Session) replayRecord(r *wal.Record) error {
	switch r.Kind {
	case wal.RecDDL:
		s.ddl = append(s.ddl, r.Stmt)
		_, err := s.execScript(r.Stmt)
		return err
	case wal.RecIface:
		for _, b := range r.Binds {
			s.setIface(b.Name, b.Value)
		}
		return nil
	case wal.RecCommit:
		return s.replayCommit(r)
	default:
		return fmt.Errorf("unknown record kind %d", r.Kind)
	}
}

// replayCommit redoes one committed transaction: objects are reborn
// under their original OIDs, the user events are applied through a real
// transaction, and Commit re-runs the deferred check phase — the same
// Δ re-derives the same triggering, re-firing the rules. The logged
// action events are then reconciled (idempotent under set semantics)
// and the transaction's object deletions and bindings applied.
func (s *Session) replayCommit(r *wal.Record) error {
	if err := s.txns.Begin(); err != nil {
		return err
	}
	abort := func(err error) error {
		s.txns.Rollback()
		return err
	}
	for _, o := range r.ObjNews {
		if err := s.cat.RestoreObject(o.OID, o.Type); err != nil {
			return abort(err)
		}
	}
	for _, e := range r.Events {
		var err error
		if e.Kind == storage.InsertEvent {
			_, err = s.store.Insert(e.Relation, e.Tuple)
		} else {
			_, err = s.store.Delete(e.Relation, e.Tuple)
		}
		if err != nil {
			return abort(err)
		}
	}
	if err := s.txns.Commit(); err != nil {
		return err
	}
	var changed []string
	for _, e := range r.ActEvents {
		ok, err := s.store.ApplyLogged(e)
		if err != nil {
			return err
		}
		if ok && !slices.Contains(changed, e.Relation) {
			changed = append(changed, e.Relation)
		}
	}
	if len(changed) > 0 {
		// The actions whose effects these are did not run: the monitors
		// never saw the change.
		if err := s.mgr.Resync(changed); err != nil {
			return err
		}
	}
	for _, b := range r.Binds {
		s.setIface(b.Name, b.Value)
	}
	for _, oid := range r.ObjDels {
		s.cat.DeleteObject(oid)
		s.ifaceMu.Lock()
		for name, v := range s.iface {
			if v.Kind == types.KindObject && v.O == oid {
				delete(s.iface, name)
			}
		}
		s.ifaceMu.Unlock()
	}
	return nil
}

// walOn reports whether commit capture for the write-ahead log is live.
func (s *Session) walOn() bool { return s.wal != nil && !s.recovering.Load() }

// logDDL journals one schema statement's source text and, with a data
// directory attached, appends it to the write-ahead log. DDL is logged
// at execution time — like the in-memory catalog it survives a
// surrounding transaction rollback. A failed append is reported as the
// statement's error: the change is applied in memory but will not
// survive a crash.
func (s *Session) logDDL(src string) error {
	if s.recovering.Load() || src == "" {
		return nil
	}
	s.ddl = append(s.ddl, src)
	if s.wal == nil {
		return nil
	}
	s.walSeq++
	if err := s.wal.Append(&wal.Record{Seq: s.walSeq, Kind: wal.RecDDL, Stmt: src}); err != nil {
		return fmt.Errorf("schema change applied but not logged: %w", err)
	}
	return nil
}

// walPersist is the wal hook's persist callback (see the commit order
// in internal/txn): it appends the commit record, and the commit is
// acknowledged to the caller only after an fsync covers it. Under
// SyncAlways the fsync happens here, and an error rolls the transaction
// back — no acknowledged commit is ever lost. Under SyncGrouped only
// the append happens inside the writer gate; the fsync wait is armed on
// the session and drained by leave() AFTER the gate is released, so
// concurrent committers append behind each other and share one batched
// fsync (group commit). A grouped fsync failure therefore surfaces as
// "commit applied but not durable" from the committing call — the log
// is poisoned and every later commit fails — instead of a rollback.
func (s *Session) walPersist(user, action []storage.Event) error {
	if !s.walOn() {
		return nil
	}
	rec := &wal.Record{
		Kind:      wal.RecCommit,
		Events:    user,
		ActEvents: action,
		ObjNews:   s.walObjNews,
		ObjDels:   s.walObjDels,
		Binds:     s.walBinds,
	}
	if rec.Empty() {
		return nil
	}
	rec.Seq = s.walSeq + 1
	if s.wal.Policy() == wal.SyncGrouped {
		if err := s.wal.Write(rec); err != nil {
			return err
		}
		s.walSeq++
		if s.depth > 0 {
			// Gated commit, inside an enter/leave pair: arm the fsync
			// wait for leave() to drain after the gate is released, so
			// concurrent committers share one batched fsync.
			s.syncWait = s.wal.AwaitSync
			return nil
		}
		// Direct transaction-manager commit (no gate, nothing will run
		// leave()): wait for the group fsync here to keep the
		// fsync-before-ack guarantee.
		return s.wal.AwaitSync()
	}
	if err := s.wal.Append(rec); err != nil {
		return err
	}
	s.walSeq++
	return nil
}

// walEnd clears the per-transaction capture and drives commit-count
// checkpointing.
func (s *Session) walEnd(committed bool) {
	s.walObjNews, s.walObjDels, s.walBinds = nil, nil, nil
	if committed && s.walOn() && s.checkpointEvery > 0 {
		s.commitsSinceCkpt++
		if s.commitsSinceCkpt >= s.checkpointEvery {
			// Best effort: after a failed automatic checkpoint the log
			// just stays longer, and the next commit retries.
			_ = s.checkpointLocked()
		}
	}
}

// Checkpoint snapshots the database into the data directory and
// truncates the write-ahead log. The snapshot is durable (temp file,
// fsync, atomic rename, directory fsync) before the log is reset, so a
// crash at any point recovers: before the rename the old snapshot +
// full log win; between rename and reset, replay skips the records the
// new snapshot covers (by seq).
func (s *Session) Checkpoint() error {
	return s.CheckpointContext(context.Background())
}

// CheckpointContext is Checkpoint bounded by ctx for writer admission
// (the background checkpointer uses a short deadline so a busy session
// costs a retry, not a stall).
func (s *Session) CheckpointContext(ctx context.Context) (err error) {
	if err = s.enterCtx(ctx); err != nil {
		return err
	}
	defer s.leave(&err)
	return s.checkpointLocked()
}

func (s *Session) checkpointLocked() error {
	if s.wal == nil {
		return fmt.Errorf("no data directory attached")
	}
	if s.txns.InTransaction() {
		return fmt.Errorf("cannot checkpoint inside a transaction")
	}
	if err := s.wal.Err(); err != nil {
		return err
	}
	ckptStart := time.Now()
	if err := wal.WriteSnapshot(s.walDir, s.CaptureState(), s.inj, s.walMet); err != nil {
		return err
	}
	s.commitsSinceCkpt = 0
	if err := s.wal.Reset(); err != nil {
		return err
	}
	s.obs.Flight.RecordFsync("checkpoint", time.Since(ckptStart))
	if s.obs.Bus.Active() {
		s.obs.Bus.Publish(obs.Event{
			Type: obs.EventSystem, Op: "checkpoint",
			CommitSeq: s.store.CommitSeq(),
			Ms:        float64(time.Since(ckptStart)) / float64(time.Millisecond),
			Detail:    fmt.Sprintf("snapshot through wal seq %d", s.walSeq),
		})
	}
	return nil
}

// SaveTo writes a standalone snapshot of the current database into dir
// (created if missing) without attaching the session to it — an
// on-demand backup, also usable from a purely in-memory session. A
// directory already holding database files is refused, except the
// session's own data directory, where SaveTo is just Checkpoint.
func (s *Session) SaveTo(dir string) (err error) {
	if err = s.enter(); err != nil {
		return err
	}
	defer s.leave(&err)
	if s.txns.InTransaction() {
		return fmt.Errorf("cannot save inside a transaction")
	}
	if s.wal != nil && dir == s.walDir {
		return s.checkpointLocked()
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if wal.IsSnapshotFile(e.Name()) || e.Name() == "wal.log" {
			return fmt.Errorf("refusing to save into %s: it already contains %s", dir, e.Name())
		}
	}
	return wal.WriteSnapshot(dir, s.CaptureState(), nil, nil)
}

// CaptureState serializes the full logical database state — the DDL
// journal, object universe, interface variables, and every base
// relation — in deterministic order. Exported so tests can compare
// states byte-for-byte via wal.MarshalState.
func (s *Session) CaptureState() *wal.State {
	st := &wal.State{
		Seq:     s.walSeq,
		DDL:     append([]string(nil), s.ddl...),
		NextOID: s.cat.NextOID(),
	}
	for _, o := range s.cat.Objects() {
		st.Objects = append(st.Objects, wal.ObjectRec{OID: o.OID, Type: o.Type})
	}
	for _, n := range s.ifaceNames() {
		v, _ := s.getIface(n)
		st.Iface = append(st.Iface, wal.Bind{Name: n, Value: v})
	}
	for _, rn := range s.store.RelationNames() {
		rel, _ := s.store.Relation(rn)
		st.Tables = append(st.Tables, wal.Table{
			Name: rn, Arity: rel.Arity(), KeyCols: rel.KeyCols(), Tuples: rel.Tuples(),
		})
	}
	return st
}

// startCheckpointer runs the periodic background checkpointer.
func (s *Session) startCheckpointer(interval time.Duration) {
	s.ckptStop = make(chan struct{})
	s.ckptWG.Add(1)
	go func() {
		defer s.ckptWG.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				s.tickCheckpoint(interval)
			case <-s.ckptStop:
				return
			}
		}
	}()
}

// tickCheckpoint attempts one background checkpoint. A busy session
// (writers holding the gate past the admission deadline) is retried a
// few times with jittered backoff rather than silently skipping the
// whole tick; contention retries and abandoned ticks are counted in
// the wal metrics. Non-contention failures (poisoned log, checkpoint
// I/O errors) stay best-effort: the log just grows until a later tick
// or commit-count checkpoint succeeds.
func (s *Session) tickCheckpoint(interval time.Duration) {
	wait := interval / 4
	if wait <= 0 || wait > 2*time.Second {
		wait = 2 * time.Second
	}
	const attempts = 3
	for i := 0; i < attempts; i++ {
		if i > 0 {
			s.walMet.CkptBusyRetries.Inc()
			d := time.Duration(i) * 5 * time.Millisecond
			d += time.Duration(rand.Int63n(int64(d)))
			select {
			case <-time.After(d):
			case <-s.ckptStop:
				return
			}
		}
		ctx, cancel := context.WithTimeout(context.Background(), wait)
		err := s.CheckpointContext(ctx)
		cancel()
		if err == nil {
			return
		}
		if !errors.Is(err, txn.ErrSessionBusy) {
			return
		}
	}
	s.walMet.CkptSkippedTicks.Inc()
}

// Close stops the background checkpointer, shuts the flight recorder
// down (draining queued diagnostics bundles to disk first), and closes
// the write-ahead log, flushing it once more. The in-memory session
// stays usable but commits fail once the log is closed — durability is
// never silently dropped. Close on a never-attached session only stops
// the recorder.
func (s *Session) Close() error {
	if s.ckptStop != nil {
		close(s.ckptStop)
		s.ckptWG.Wait()
		s.ckptStop = nil
	}
	// The recorder closes before the log: a bundle already queued may
	// still be completing, and its extras source re-enters the session,
	// which must still be coherent.
	s.obs.Flight.Close()
	if s.wal == nil {
		return nil
	}
	return s.wal.Close()
}
