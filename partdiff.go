// Package partdiff is an active main-memory object-relational DBMS with
// rule condition monitoring by partial differencing — a reproduction of
// Sköld & Risch, "Using Partial Differencing for Efficient Monitoring of
// Deferred Complex Rule Conditions" (ICDE 1996).
//
// A DB speaks AMOSQL (the query language of AMOS): types, stored and
// derived functions, declarative select queries, and CA rules whose
// conditions are monitored incrementally. Rule conditions are compiled
// to partial differentials — one small query per influent relation and
// change sign — and changes are propagated at commit time through a
// breadth-first, bottom-up propagation network, without ever
// materializing the monitored conditions.
//
// Quick start:
//
//	db := partdiff.Open()
//	db.RegisterProcedure("order", func(args []partdiff.Value) error { ... })
//	db.MustExec(`
//	    create type item;
//	    create function quantity(item) -> integer;
//	    create function low(item i) -> integer as
//	        select quantity(i) for each item j where j = i;
//	    ...
//	    create rule monitor_items() as
//	        when for each item i where quantity(i) < threshold(i)
//	        do order(i, max_stock(i) - quantity(i));
//	    activate monitor_items();
//	`)
package partdiff

import (
	"context"
	"errors"
	"io"
	"math/rand"
	"net/http"
	"time"

	"partdiff/internal/amosql"
	"partdiff/internal/catalog"
	"partdiff/internal/obs"
	"partdiff/internal/rules"
	"partdiff/internal/storage"
	"partdiff/internal/txn"
	"partdiff/internal/types"
	"partdiff/internal/wal"
)

// ErrCorrupt is the sticky error a poisoned database returns from every
// call after a rollback failed part-way: the store may hold a partially
// undone transaction, so no answer derived from it can be trusted.
// Test with errors.Is.
var ErrCorrupt = txn.ErrCorrupt

// ErrSessionBusy is returned when a writer's admission to the database
// timed out: another writer (typically an open explicit transaction)
// held the session past the call's context deadline — or past the
// WithWriterWait default when the call carries no deadline. Writers
// otherwise QUEUE rather than fail; reads never wait at all (they run
// on MVCC snapshots). Test with errors.Is.
var ErrSessionBusy = txn.ErrSessionBusy

// ErrConflict is returned by Atomic when commit-time validation found
// that a concurrent transaction changed a relation the body had read
// from its snapshot. DB.Atomic retries a few times automatically; the
// error escapes only when the retries are exhausted. Test with
// errors.Is.
var ErrConflict = txn.ErrConflict

// Value is a database value (nil, bool, int, float, string, or object
// reference).
type Value = types.Value

// Tuple is one result row.
type Tuple = types.Tuple

// OID identifies a database object.
type OID = types.OID

// Value constructors, re-exported for convenience.
var (
	// Int makes an integer value.
	Int = types.Int
	// Float makes a floating point value.
	Float = types.Float
	// Str makes a string value.
	Str = types.Str
	// Bool makes a boolean value.
	Bool = types.Bool
	// Obj makes an object reference value.
	Obj = types.Obj
)

// Mode selects the rule condition monitoring strategy.
type Mode = rules.Mode

// The monitoring modes. Hybrid, the default, is the paper's partial
// differencing monitor with its §8 remedy built in: per view and per
// propagation wave the engine compares, from the Δ sizes it holds and
// the scan costs it has observed, what running the view's partial
// differentials would cost with what recomputing the view would, and
// does the cheaper — so massive updates of small relations (the paper's
// fig. 7) pay one pass, not one per differential. Incremental is partial
// differencing only; Naive is the §6 full-recomputation baseline.
const (
	Incremental = rules.Incremental
	Naive       = rules.Naive
	Hybrid      = rules.Hybrid
)

// Result is the outcome of one executed statement.
type Result = amosql.Result

// Explanation records why a rule triggered: which partial differentials
// fired and with which sign (§1 explainability).
type Explanation = rules.Explanation

// Stats counts monitor work (propagations, differentials executed,
// naive recomputations, actions run).
type Stats = rules.Stats

// SyncPolicy selects when the write-ahead log is fsynced relative to
// commit acknowledgement (see OpenDir and WithSyncPolicy).
type SyncPolicy = wal.SyncPolicy

// The sync policies: SyncAlways fsyncs before every commit ack,
// SyncGrouped coalesces concurrent committers into shared fsyncs with
// identical durability, SyncNone leaves records in the OS page cache
// (surviving a process crash but not an OS crash).
const (
	SyncAlways  = wal.SyncAlways
	SyncGrouped = wal.SyncGrouped
	SyncNone    = wal.SyncNone
)

// Procedure is a foreign procedure callable from rule actions. It runs
// during the check phase of the committing transaction and may call
// back into the DB: its Exec joins that transaction (and can force a
// further check round), its Query sees the transaction's uncommitted
// state. It runs on the goroutine that called Exec or Commit, locked to
// its OS thread (runtime.LockOSThread): the DB recognises the
// procedure's calls by that thread. A procedure may lock and unlock the
// thread itself in balanced pairs, but must not call
// runtime.UnlockOSThread more times than it called LockOSThread; its
// calls from a goroutine it spawns are a stranger's, and queue behind
// the transaction. A panic is contained and rolls the transaction back;
// runtime.Goexit (and so testing.T.FailNow) ends the committing
// goroutine, after the rollback.
type Procedure = catalog.Procedure

// ForeignFunc is a foreign function usable in procedural expressions.
// Like a Procedure it may call back into the DB, runs locked to the
// calling goroutine's OS thread, and must not call
// runtime.UnlockOSThread more times than it called LockOSThread.
type ForeignFunc = catalog.ForeignFunc

// DB is an active database instance.
type DB struct {
	sess *amosql.Session
}

// Option configures Open.
type Option func(*config)

type config struct {
	mode        Mode
	noDeletions bool
	lazy        bool
	adaptive    bool
	noPruning   bool
	counting    bool
	budget      time.Duration
	ctx         context.Context
	writerWait  time.Duration
	wwSet       bool
	slowCommit  time.Duration

	// Flight recorder: arm when flightRec is set; flightDir, when
	// non-empty, is where diagnostics bundles land.
	flightRec bool
	flightDir string

	// Durability knobs (OpenDir only).
	sync       SyncPolicy
	ckptEvery  int
	ckptEveryD time.Duration
	// Procedures/functions to register before recovery replays the log,
	// so recovered rule actions re-fire through them.
	procs []namedProc
	ffns  []namedFFn
}

type namedProc struct {
	name string
	p    Procedure
}

type namedFFn struct {
	name   string
	params []string
	result string
	fn     ForeignFunc
}

// WithMode selects the condition monitoring strategy (default Hybrid).
func WithMode(m Mode) Option {
	return func(c *config) { c.mode = m }
}

// WithoutDeletionMonitoring disables negative partial differentials —
// the configuration of the paper's §6 benchmark (insertion monitoring
// only). Half the differentials execute, at the price that a pending
// trigger is not withdrawn when a later rule action makes the
// condition false again within the same check phase.
func WithoutDeletionMonitoring() Option {
	return func(c *config) { c.noDeletions = true }
}

// WithLazyAnalysis disables the eager definition-time static analysis
// of derived functions and rule conditions. By default, `create
// function` and `create rule` run the internal/analyze passes (range
// restriction, stratification, type checking, differencing
// applicability) and reject definitions with error-severity
// diagnostics; with this option, defects surface at activation or
// commit time instead, as in earlier releases.
func WithLazyAnalysis() Option {
	return func(c *config) { c.lazy = true }
}

// WithoutStaticPruning disables the whole-network Δ-effect analysis
// that runs when a propagation network is built. By default (pruning
// on), differentials whose trigger Δ-set is provably always empty —
// e.g. the Δ− differentials of a relation declared `append only` — or
// whose disjunct is unsatisfiable across view boundaries are compiled
// but dropped from scheduling; the analysis is sound, so pruned and
// unpruned monitoring are observably identical. This option keeps every
// compiled differential scheduled, for A/B comparison (the `bench -exp
// prune` experiment) and for debugging the analysis itself.
func WithoutStaticPruning() Option {
	return func(c *config) { c.noPruning = true }
}

// WithCounting enables counting maintenance: every differenced
// condition view carries a per-derived-tuple derivation count
// maintained by triangle-form counting differentials, so a deletion
// decrements support and retracts the tuple only when its count reaches
// zero — no recomputation of the defining condition and no §7.2
// membership probes on deletes. Counts are transactional (rolled back
// exactly on abort) and rebuilt lazily after recovery, redefinition or a
// wave the Hybrid monitor recomputed. Requires deletion monitoring (the
// default); with WithoutDeletionMonitoring it compiles but stays
// inactive. See DESIGN.md "Counting maintenance & hybrid propagation".
func WithCounting() Option {
	return func(c *config) { c.counting = true }
}

// WithCheckBudget bounds the wall-clock duration of each commit-time
// check phase. A rule cascade that exceeds the budget aborts with an
// error and the transaction rolls back — Δ-sets cancel, no rule sees a
// partial cascade. This complements the cascade round bound
// (rules.Manager.MaxRounds) for rule sets whose rounds are individually
// expensive rather than numerous. Zero means unlimited.
func WithCheckBudget(d time.Duration) Option {
	return func(c *config) { c.budget = d }
}

// WithCheckContext aborts any check phase as soon as ctx is done, via
// the same rollback path as WithCheckBudget.
func WithCheckContext(ctx context.Context) Option {
	return func(c *config) { c.ctx = ctx }
}

// WithAdaptiveStats switches the join optimizer from its static cost
// model to observed workload statistics: every full enumeration of a
// derived function feeds its observed cardinality (and every literal
// match its observed scan volume) into an EWMA table that the greedy
// join-order ranking consults, so the plans of rule-condition
// differentials and ad-hoc queries adapt to the data actually seen.
// Most useful for workloads where a derived function is far smaller (or
// larger) than the static guess assumes — see DESIGN.md "Profiling &
// adaptive statistics".
func WithAdaptiveStats() Option {
	return func(c *config) { c.adaptive = true }
}

// WithWriterWait sets the default deadline a writer waits for admission
// when its call carries no context deadline of its own (default 30s;
// <= 0 waits forever). Concurrent writers queue FIFO; a waiter whose
// deadline expires gets ErrSessionBusy. Calls made through the
// *Context variants are bounded by their context instead.
func WithWriterWait(d time.Duration) Option {
	return func(c *config) { c.writerWait, c.wwSet = d, true }
}

// WithSlowCommitThreshold emits a structured system event (op
// "slow_commit", with per-phase check/persist/ack timings) and bumps
// partdiff_txn_slow_commits_total whenever a commit takes longer than d
// end to end. Zero (the default) disables slow-commit reporting.
func WithSlowCommitThreshold(d time.Duration) Option {
	return func(c *config) { c.slowCommit = d }
}

// WithFlightRecorder arms the always-on flight recorder: fixed-size
// in-memory rings continuously capture propagation-wave summaries,
// per-commit phase timings, WAL fsync latencies, hybrid-chooser
// switches and recent events. When an anomaly trigger fires (slow
// commit, fsync stall, capability violation, corruption, WAL
// poisoning, check-budget abort, conflict storm, commit stall) the
// window is frozen and written to dir as a self-contained diagnostics
// bundle; an empty dir captures (and counts triggers) without writing
// bundles. See DB.FlightRecorder for runtime control.
func WithFlightRecorder(dir string) Option {
	return func(c *config) { c.flightRec, c.flightDir = true, dir }
}

// WithSyncPolicy selects the write-ahead log's fsync policy (default
// SyncAlways). Only meaningful with OpenDir.
func WithSyncPolicy(p SyncPolicy) Option {
	return func(c *config) { c.sync = p }
}

// WithCheckpointEvery takes an automatic checkpoint after every n
// committed transactions (0, the default, disables commit-count
// checkpointing). Only meaningful with OpenDir.
func WithCheckpointEvery(n int) Option {
	return func(c *config) { c.ckptEvery = n }
}

// WithCheckpointInterval runs a background checkpointer every d
// (0 disables it). Ticks that find the database busy or inside a
// transaction are skipped. Only meaningful with OpenDir.
func WithCheckpointInterval(d time.Duration) Option {
	return func(c *config) { c.ckptEveryD = d }
}

// WithProcedure registers a foreign procedure as the database opens —
// with OpenDir, before recovery runs, so rule actions re-fired while
// replaying the log dispatch through it. Actions whose procedure is not
// registered at recovery time are skipped during replay (their database
// updates are still recovered from the log). See Procedure for how it
// runs.
func WithProcedure(name string, p Procedure) Option {
	return func(c *config) { c.procs = append(c.procs, namedProc{name, p}) }
}

// WithForeignFunc registers a foreign function as the database opens
// (the function-as-action counterpart of WithProcedure). No user type
// exists yet when options are applied, so its parameter and result
// types must be scalar; a declaration the catalog rejects makes Open
// panic and OpenDir fail.
func WithForeignFunc(name string, paramTypes []string, resultType string, fn ForeignFunc) Option {
	return func(c *config) {
		c.ffns = append(c.ffns, namedFFn{name, paramTypes, resultType, fn})
	}
}

// Open creates an empty in-memory active database. It panics when an
// option's procedure or foreign function cannot be registered (a
// programming error; OpenDir returns it instead).
func Open(opts ...Option) *DB {
	db, _, err := open(opts)
	if err != nil {
		panic(err)
	}
	return db
}

func open(opts []Option) (*DB, *config, error) {
	cfg := config{mode: Hybrid}
	for _, o := range opts {
		o(&cfg)
	}
	db := &DB{sess: amosql.NewSession(cfg.mode)}
	if cfg.noDeletions {
		db.sess.Rules().SetMonitorDeletions(false)
	}
	if cfg.lazy {
		db.sess.SetLazyAnalysis(true)
	}
	if cfg.adaptive {
		db.sess.EnableAdaptiveStats()
	}
	if cfg.noPruning {
		db.sess.SetStaticPruning(false)
	}
	if cfg.counting {
		db.sess.SetCounting(true)
	}
	db.sess.Rules().CheckBudget = cfg.budget
	db.sess.Rules().CheckContext = cfg.ctx
	if cfg.wwSet {
		db.sess.SetWriterWait(cfg.writerWait)
	}
	if cfg.slowCommit > 0 {
		db.sess.Txns().SetSlowCommitThreshold(cfg.slowCommit)
	}
	if cfg.flightRec {
		db.sess.SetFlightRecorder(cfg.flightDir)
	}
	for _, np := range cfg.procs {
		if err := db.RegisterProcedure(np.name, np.p); err != nil {
			return nil, nil, err
		}
	}
	for _, nf := range cfg.ffns {
		if err := db.RegisterFunction(nf.name, nf.params, nf.result, nf.fn); err != nil {
			return nil, nil, err
		}
	}
	return db, &cfg, nil
}

// OpenDir opens a durable active database backed by the data directory
// dir (created if missing): the latest snapshot is loaded, the
// write-ahead log tail is replayed through the normal commit machinery
// — rebuilding the propagation network and re-firing deferred rule
// checks — and every later committed transaction is logged under the
// configured sync policy before it is acknowledged. Register the rule
// actions' procedures with WithProcedure so replayed rules dispatch
// through them. Close the database when done.
func OpenDir(dir string, opts ...Option) (*DB, error) {
	db, cfg, err := open(opts)
	if err != nil {
		return nil, err
	}
	err = db.sess.AttachDir(dir, amosql.DirConfig{
		Policy:             cfg.sync,
		CheckpointEvery:    cfg.ckptEvery,
		CheckpointInterval: cfg.ckptEveryD,
	})
	if err != nil {
		return nil, err
	}
	return db, nil
}

// Checkpoint snapshots the database into its data directory and
// truncates the write-ahead log. It fails on an in-memory database
// (use SaveTo for those) and inside a transaction.
func (db *DB) Checkpoint() error { return db.sess.Checkpoint() }

// SaveTo writes a standalone snapshot of the current database state
// into dir — a backup, loadable later with OpenDir. It refuses a
// directory that already contains database files (other than the
// database's own data directory, where it is equivalent to
// Checkpoint).
func (db *DB) SaveTo(dir string) error { return db.sess.SaveTo(dir) }

// Close stops background checkpointing and closes the write-ahead log.
// A no-op for in-memory databases.
func (db *DB) Close() error { return db.sess.Close() }

// Exec parses and executes AMOSQL statements, returning one result per
// statement. Statements outside an explicit transaction auto-commit
// (running the deferred rule check phase immediately). Concurrent
// writers queue FIFO for admission; see ErrSessionBusy.
func (db *DB) Exec(src string) ([]Result, error) { return db.sess.Exec(src) }

// ExecContext is Exec with the wait for writer admission bounded by
// ctx's deadline (expiry returns ErrSessionBusy).
func (db *DB) ExecContext(ctx context.Context, src string) ([]Result, error) {
	return db.sess.ExecContext(ctx, src)
}

// MustExec is Exec but panics on error — for examples and tests.
func (db *DB) MustExec(src string) []Result { return db.sess.MustExec(src) }

// Query executes a single select statement. From goroutines that do not
// hold the session (everything except a rule action querying
// mid-commit) it runs against a pinned MVCC snapshot of the last
// committed state, without waiting for writers at all.
func (db *DB) Query(src string) (*Result, error) { return db.sess.Query(src) }

// QueryContext is Query with a context (the deadline matters only on
// the gated paths: re-entrant live queries and aggregate selects).
func (db *DB) QueryContext(ctx context.Context, src string) (*Result, error) {
	return db.sess.QueryContext(ctx, src)
}

// Begin starts an explicit transaction; rule conditions are monitored
// deferred, at Commit. The session is held (leased) until Commit or
// Rollback: concurrent writers queue, snapshot reads proceed.
func (db *DB) Begin() error { return db.sess.Begin() }

// BeginContext is Begin with writer admission bounded by ctx.
func (db *DB) BeginContext(ctx context.Context) error { return db.sess.BeginContext(ctx) }

// Commit runs the deferred check phase (change propagation, conflict
// resolution, set-oriented action execution) and commits. A panic in a
// registered procedure or anywhere in the check phase is contained and
// rolls the transaction back; if rollback itself fails the database is
// poisoned and every later call returns ErrCorrupt.
func (db *DB) Commit() error { return db.sess.Commit() }

// Rollback undoes the active transaction; Δ-sets cancel out so no rule
// sees any net change.
func (db *DB) Rollback() error { return db.sess.Rollback() }

// Tx is the handle an Atomic body works through: Query reads from the
// transaction's pinned snapshot (recording the read set), Exec buffers
// writes for the optimistic commit.
type Tx = amosql.AtomicTx

// Atomic runs fn as one optimistic transaction: its Queries all see the
// same pinned snapshot of the last committed state, its Execs are
// buffered, and at the end the buffered writes are validated and
// applied as a single transaction — provided no concurrent commit
// touched a relation the body read. On conflict the body is re-run
// against a fresh snapshot, up to a few attempts with jittered backoff;
// if the last attempt still conflicts, the ErrConflict escapes. fn must
// therefore be safe to call multiple times (pure reads + buffered
// writes are; side effects outside the database are not rolled back).
// A read-only body never waits on writers at all.
func (db *DB) Atomic(ctx context.Context, fn func(*Tx) error) error {
	const attempts = 4
	var err error
	for i := 0; i < attempts; i++ {
		if i > 0 {
			db.sess.Txns().MarkConflictRetry()
			d := time.Duration(i) * 500 * time.Microsecond
			d += time.Duration(rand.Int63n(int64(d)))
			select {
			case <-time.After(d):
			case <-ctx.Done():
				return err
			}
		}
		if err = db.sess.Atomic(ctx, fn); !errors.Is(err, ErrConflict) {
			return err
		}
	}
	return err
}

// CheckInvariants verifies cross-layer consistency: storage
// index↔tuple-set agreement, every object a stored function refers to
// lying in its column type's extent, propagation-network level
// monotonicity, and — outside a transaction — that no Δ-set or pending
// trigger set survived the last check phase. It returns nil on a
// healthy database and the first violation (or the sticky ErrCorrupt)
// otherwise.
func (db *DB) CheckInvariants() error { return db.sess.CheckInvariants() }

// RegisterProcedure exposes a Go function as an AMOSQL procedure for
// rule actions.
func (db *DB) RegisterProcedure(name string, p Procedure) error {
	return db.sess.RegisterProcedure(name, p)
}

// RegisterFunction exposes a Go function as a foreign AMOSQL function
// (procedural contexts only; conditions must be declarative).
func (db *DB) RegisterFunction(name string, paramTypes []string, resultType string, fn ForeignFunc) error {
	return db.sess.RegisterFunction(name, paramTypes, resultType, fn)
}

// Capability restricts the admitted change kinds of a base relation
// (see DeclareCapability and the AMOSQL `declare` statement).
type Capability = storage.Capability

// The capabilities: CapFrozen admits no changes, CapInserts only
// insertions ("append only"), CapDeletes only deletions, CapAll any
// change (every relation's default).
const (
	CapFrozen  = storage.CapFrozen
	CapInserts = storage.CapInserts
	CapDeletes = storage.CapDeletes
	CapAll     = storage.CapAll
)

// DeclareCapability restricts the admitted change kinds of a stored
// function's relation (or a type extent, via its type:NAME relation).
// The store rejects excluded updates from then on, and the static
// network analysis prunes the partial differentials the restriction
// makes impossible. Capabilities only narrow: widening a declared
// capability is an error. Equivalent to the AMOSQL statement
// `declare NAME readonly|append only|delete only|read-write;` — prefer
// the statement on durable databases, which journals it for recovery.
func (db *DB) DeclareCapability(rel string, c Capability) error {
	return db.sess.DeclareCapability(rel, c)
}

// Var returns the value of a session interface variable (e.g. "item1"
// after `create item instances :item1`).
func (db *DB) Var(name string) (Value, bool) { return db.sess.IfaceVar(name) }

// SetVar binds a session interface variable. On a database with a data
// directory, a binding made inside a transaction is undone by the
// transaction's rollback, like one made by `create ... instances :v`. On
// an in-memory database SetVar binds outside any transaction, so the
// binding survives a rollback.
func (db *DB) SetVar(name string, v Value) { db.sess.SetIfaceVar(name, v) }

// Explanations returns the explanations recorded during the most recent
// check phase: which influents caused each rule to trigger, and whether
// by insertion or deletion.
func (db *DB) Explanations() []Explanation { return db.sess.Rules().LastExplanations() }

// Stats returns cumulative monitor statistics.
func (db *DB) Stats() Stats { return db.sess.Rules().Stats() }

// ResetStats zeroes the monitor statistics.
func (db *DB) ResetStats() { db.sess.Rules().ResetStats() }

// SetOutput directs the builtin print procedure's output (default:
// discarded).
func (db *DB) SetOutput(w io.Writer) { db.sess.Output = w }

// SetDebug directs a human-readable trace of every check phase —
// accumulated changes, differentials executed, trigger folding,
// conflict resolution, actions — to w (nil disables).
func (db *DB) SetDebug(w io.Writer) { db.sess.Rules().SetDebug(w) }

// Observability returns the database's metrics registry and tracer
// bundle. Every subsystem — storage, evaluator, Δ-sets, propagation
// network, transactions, rule monitor — reports into it.
func (db *DB) Observability() *obs.Observability { return db.sess.Observability() }

// WriteMetrics writes every registered metric in Prometheus text
// exposition format (version 0.0.4).
func (db *DB) WriteMetrics(w io.Writer) error {
	return db.sess.Observability().Registry.WritePrometheus(w)
}

// WriteMetricsPrefix writes only the metric families matching prefix
// (the partdiff_ namespace part may be omitted: "propnet" matches
// partdiff_propnet_...).
func (db *DB) WriteMetricsPrefix(w io.Writer, prefix string) error {
	return db.sess.Observability().Registry.WritePrometheusPrefix(w, prefix)
}

// SetProfiling turns the propagation profiler on or off: per-rule,
// per-differential accounting of executions, Δ-cardinalities, tuples
// scanned, wall time and zero-effect executions, reported by
// ProfileReport. Off by default; accumulated entries survive turning it
// off.
func (db *DB) SetProfiling(on bool) { db.sess.SetProfiling(on) }

// ProfileReport writes the propagation profiler's report: the topK most
// expensive partial differentials ranked by observed cost, attributed
// to their rules, with zero-effect execution counts per source (topK <=
// 0 writes all).
func (db *DB) ProfileReport(w io.Writer, topK int) error {
	return db.sess.ProfileReport(w, topK)
}

// SetCounting enables or disables counting maintenance at runtime (see
// WithCounting). The propagation network is rebuilt on change; counts
// reseed lazily on the next propagation.
func (db *DB) SetCounting(on bool) { db.sess.SetCounting(on) }

// Counting reports whether counting maintenance is on.
func (db *DB) Counting() bool { return db.sess.Counting() }

// SetHybrid switches at runtime between the Hybrid monitor (true) and
// the Incremental one (false); see the Mode constants. No effect on a
// database opened WithMode(Naive).
func (db *DB) SetHybrid(on bool) { db.sess.SetHybrid(on) }

// Hybrid reports whether the monitor is the Hybrid one.
func (db *DB) Hybrid() bool { return db.sess.Hybrid() }

// HybridReport writes the maintenance subsystem's report: per-view
// strategies, count-store sizes, observed cost EWMAs and the journal of
// recent strategy switches.
func (db *DB) HybridReport(w io.Writer) error { return db.sess.HybridReport(w) }

// Event is one structured observability event: a rule firing with its
// triggering Δ-sets, a per-commit Δ summary, a transaction lifecycle
// transition, or a system occurrence (checkpoint, recovery, fsync
// stall, capability violation, slow commit).
type Event = obs.Event

// EventType classifies events; see the Event* constants.
type EventType = obs.EventType

// The event types a subscription can filter on.
const (
	// EventRuleFiring: a rule activation fired during a committed check
	// phase, with its condition bindings and triggering differentials.
	EventRuleFiring = obs.EventRuleFiring
	// EventDelta: the per-relation Δ summary of one committed
	// propagation wave.
	EventDelta = obs.EventDelta
	// EventTxn: transaction lifecycle (begin, commit, rollback,
	// conflict).
	EventTxn = obs.EventTxn
	// EventSystem: checkpoint, recovery, wal fsync stalls, capability
	// violations, slow commits, hybrid strategy switches, diagnostics
	// bundles written by the flight recorder.
	EventSystem = obs.EventSystem
	// EventGap: synthesized locally on a subscription whose buffer
	// overflowed, carrying the count of missed events.
	EventGap = obs.EventGap
)

// Subscription is an in-process event subscription; consume it with
// Next/TryNext and Close it when done. A slow consumer loses oldest
// events first and sees an EventGap marker in their place.
type Subscription = obs.Subscription

// DeltaEntry is one relation's contribution to an event's Δ summary.
type DeltaEntry = obs.DeltaEntry

// Subscribe opens an in-process subscription to the database's event
// stream, filtered to the given event types (none = all). The first
// subscription arms the bus; it stays armed for the lifetime of the
// database so reconnecting subscribers can resume from the event ring.
// Events describing transactional work (rule firings, Δ summaries) are
// published only after their transaction's commit point, in commit
// order; rolled-back transactions publish nothing but the rollback.
func (db *DB) Subscribe(types ...EventType) *Subscription {
	return db.sess.Observability().Bus.Subscribe(0, types...)
}

// EventBus exposes the underlying event bus for advanced use: resuming
// from a known event ID (SubscribeFrom), attaching sinks, or publishing
// application events.
func (db *DB) EventBus() *obs.Bus { return db.sess.Observability().Bus }

// FlightRecorder exposes the database's flight recorder (never nil;
// disarmed unless WithFlightRecorder was given or Arm is called). Use
// it to Dump an on-demand diagnostics bundle, tune trigger thresholds,
// list bundles on disk, or write the shell's \flightrec report.
func (db *DB) FlightRecorder() *obs.Recorder { return db.sess.FlightRecorder() }

// MonitorHandler returns an http.Handler serving the database's live
// monitoring surface: Prometheus text at /metrics (filterable with
// ?prefix=), expvar JSON at /debug/vars, Go runtime profiles at
// /debug/pprof/, the /healthz and /readyz probes (liveness fails once
// the database is poisoned; readiness additionally requires recovery
// to be complete and the write-ahead log healthy, and names the
// blocking state — corrupt, recovering, wal-poisoned — in the 503
// body), and the flight recorder's diagnostics bundles: GET
// /debug/bundle captures one on demand, GET /debug/bundles/ lists and
// serves those written to disk.
func (db *DB) MonitorHandler() http.Handler {
	return obs.HandlerWith(db.sess.Observability().Registry, obs.HandlerOpts{
		Live:   db.sess.Live,
		Ready:  db.sess.Ready,
		Flight: db.sess.FlightRecorder(),
	})
}

// ServeMonitor starts an HTTP monitoring server on addr (e.g.
// "localhost:6060") serving MonitorHandler. Close the returned server
// when done.
func (db *DB) ServeMonitor(addr string) (*obs.Server, error) {
	return obs.ServeHandler(addr, db.MonitorHandler())
}

// Trace is an in-progress structured trace capture. Stop it, then
// Export the collected events as Chrome trace_event JSON loadable in
// chrome://tracing or https://ui.perfetto.dev.
type Trace struct {
	sink   *obs.ChromeSink
	detach func()
}

// StartTrace begins capturing structured trace events — commit and
// check-phase spans, propagation rounds, every individual partial
// differential execution with its view/influent/sign attribution, rule
// triggerings and action executions.
func (db *DB) StartTrace() *Trace {
	sink := obs.NewChromeSink()
	detach := db.sess.Observability().Tracer.Attach(sink)
	return &Trace{sink: sink, detach: detach}
}

// Stop detaches the capture from the tracer. Idempotent.
func (t *Trace) Stop() { t.detach() }

// Len returns the number of events captured so far.
func (t *Trace) Len() int { return t.sink.Len() }

// Export writes the captured events as Chrome trace_event JSON.
func (t *Trace) Export(w io.Writer) error { return t.sink.Export(w) }

// Session exposes the underlying AMOSQL session for advanced use
// (direct access to the store, catalog, rule manager and transaction
// manager).
func (db *DB) Session() *amosql.Session { return db.sess }
