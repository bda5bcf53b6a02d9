package amosql

import (
	"context"
	"fmt"
	"io"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"partdiff/internal/analyze"
	"partdiff/internal/catalog"
	"partdiff/internal/eval"
	"partdiff/internal/faultinject"
	"partdiff/internal/objectlog"
	"partdiff/internal/obs"
	"partdiff/internal/rules"
	"partdiff/internal/storage"
	"partdiff/internal/txn"
	"partdiff/internal/types"
	"partdiff/internal/wal"
)

// Result is the outcome of one executed statement.
type Result struct {
	// Columns names the result columns of a select (expression text).
	Columns []string
	// Tuples are the result rows of a select, in deterministic order.
	Tuples []types.Tuple
	// Message summarizes a non-query statement's effect.
	Message string
}

// Session is an AMOSQL session: a database (store + catalog), a rule
// manager, a transaction manager, and the session's interface variables.
type Session struct {
	store *storage.Store
	cat   *catalog.Catalog
	mgr   *rules.Manager
	txns  *txn.Manager
	iface map[string]types.Value
	comp  *compiler
	ev    *eval.Evaluator

	// pendingDeletes holds objects whose catalog destruction is
	// deferred to commit: their stored footprint is retracted inside
	// the transaction (and restored by rollback), but the OID itself
	// dies only if the transaction commits.
	pendingDeletes []pendingObject
	// pendingCreates holds the objects created by the running
	// transaction: a rollback retracts their extent memberships, so they
	// die in the catalog too.
	pendingCreates []pendingObject
	// ifaceUndo journals the binding each interface variable had before
	// the running transaction first rebound it (setIface); rollback
	// restores them. Written by the gate holder under ifaceMu.
	ifaceUndo map[string]ifaceBinding

	// lintMode turns rule actions into no-ops, so a script can be
	// executed for analysis only (the \lint and -lint paths) without
	// requiring its foreign procedures or performing their effects.
	lintMode bool

	// Concurrency control (see concurrency.go). Transactions are serial
	// (internal/txn): gate is the fair FIFO writer-admission gate, owner
	// says who holds it — ownerFree, ownerAnon (held by whoever is
	// running session code), the id of a lease's goroutine, or the tag
	// of the OS thread asHolder locked the holder to, whose generation
	// holderGen counts — and depth is the holder's re-entrancy count:
	// re-entrant calls from the holder are part of the execution model
	// (rule actions issue updates that join the committing transaction),
	// and the holder is named exactly where it hands control to code
	// that can make them.
	// explicit marks a gate lease held across calls by an open explicit
	// transaction; writerWait (ns) is the default admission deadline.
	// syncWait, armed by the wal hook under SyncGrouped, is the pending
	// group fsync the session drains after releasing the gate. Readers
	// run on MVCC snapshots and never touch the gate: snapGensym names
	// their private query predicates, schemaMu orders DDL (W) against
	// snapshot compiles/evaluations (R), ifaceMu guards the
	// interface-variable map against gate-free readers.
	gate       *txn.Gate
	owner      atomic.Int64
	depth      int
	explicit   bool
	holderGen  uint32
	writerWait atomic.Int64
	syncWait   func() error
	snapGensym atomic.Int64
	schemaMu   sync.RWMutex
	ifaceMu    sync.RWMutex
	evMet      *eval.Metrics

	// Output receives the output of the builtin print procedure.
	Output io.Writer

	// obs is the session-wide observability bundle every subsystem
	// reports into (see NewSession).
	obs *obs.Observability

	// Durability state (zero until AttachDir; see durab.go). wal is the
	// open log, walDir its directory, walSeq the seq of the last record
	// appended (or covered by the loaded snapshot), ddl the journal of
	// every schema statement's source text in execution order (replayed
	// before a snapshot's tables are loaded), and recovering is true
	// while replay is re-executing logged work, which suppresses
	// re-logging and makes unknown action procedures no-ops (atomic so
	// the gate-free Ready health probe can read it).
	wal        *wal.Log
	walDir     string
	walSeq     uint64
	walMet     *wal.Metrics
	ddl        []string
	recovering atomic.Bool
	inj        *faultinject.Injector
	// walLive mirrors wal for gate-free readers (the Ready health
	// probe, SetIfaceVar deciding whether it has anything to log); it is
	// published only after recovery completes.
	walLive atomic.Pointer[wal.Log]
	// Per-transaction capture for the commit record, cleared by the wal
	// hook's OnEnd: objects created/deleted and interface variables
	// bound by the transaction.
	walObjNews []wal.ObjectRec
	walObjDels []types.OID
	walBinds   []wal.Bind
	// Automatic checkpointing: every N commits (0 = never) and/or a
	// background ticker goroutine.
	checkpointEvery  int
	commitsSinceCkpt int
	ckptStop         chan struct{}
	ckptWG           sync.WaitGroup
}

// pendingObject is an object whose catalog entry is settled at
// transaction end, with the interface variable it was bound to.
type pendingObject struct {
	varName string
	oid     types.OID
}

// ifaceBinding is an interface variable's binding, or (ok false) its
// absence.
type ifaceBinding struct {
	v  types.Value
	ok bool
}

// NewSession creates a session with the given monitoring mode.
func NewSession(mode rules.Mode) *Session {
	st := storage.NewStore()
	s := &Session{
		store: st,
		cat:   catalog.New(),
		mgr:   rules.NewManager(st, mode),
		iface: map[string]types.Value{},
	}
	s.txns = txn.NewManager(st)
	s.gate = txn.NewGate()
	// Rule actions run as the gate's named holder, so the statements
	// they issue are recognised as the committing transaction's own.
	s.mgr.RunActions = s.asHolder
	s.writerWait.Store(int64(defaultWriterWait))
	// The rules hook precedes the wal hook (added by AttachDir): Δ-sets
	// and deferred deletions settle before the wal hook's bookkeeping,
	// and the documented commit order (check → persist → ack → OnEnd →
	// metrics) puts the fsync strictly before the ack either way.
	s.txns.AddHook(txn.Hook{
		Name:     "rules",
		OnEvent:  s.mgr.OnEvent,
		OnCommit: s.mgr.CheckPhase,
		OnEnd: func(committed bool) {
			s.mgr.OnEnd(committed)
			s.finishDeletes(committed)
		},
	})
	s.comp = &compiler{cat: s.cat, iface: s.iface}
	s.ev = eval.New(sessEnv{s})
	s.mgr.SetAnalyzerOptions(analyze.WithCatalog(s.cat))
	// One observability bundle spans the whole stack: the rule manager
	// (and through it every propagation network and its evaluator), the
	// store, the transaction manager, and the session's ad-hoc query
	// evaluator all report into the same registry and tracer.
	s.obs = obs.New()
	s.mgr.SetObservability(s.obs)
	s.store.SetMetrics(storage.NewMetrics(s.obs.Registry))
	s.store.SetBus(s.obs.Bus)
	tm := txn.NewMetrics(s.obs.Registry)
	s.txns.SetObs(tm, s.obs.Tracer)
	s.txns.SetBus(s.obs.Bus)
	s.gate.SetMetrics(tm)
	// Flight recorder taps: commit phase records (txn), gate-wait
	// attribution, capability-violation triggers (store). The recorder
	// itself stays disarmed until Session.SetFlightRecorder /
	// partdiff.WithFlightRecorder arms it.
	s.txns.SetRecorder(s.obs.Flight)
	s.gate.SetRecorder(s.obs.Flight)
	s.store.SetRecorder(s.obs.Flight)
	s.obs.Flight.AddSource(s.bundleExtras)
	s.evMet = eval.NewMetrics(s.obs.Registry)
	s.ev.SetMetrics(s.evMet)
	s.cat.RegisterProcedure("print", func(args []types.Value) error {
		if s.Output == nil {
			return nil
		}
		parts := make([]string, len(args))
		for i, v := range args {
			parts[i] = v.String()
		}
		_, err := fmt.Fprintln(s.Output, strings.Join(parts, " "))
		return err
	})
	return s
}

// Store returns the underlying store.
func (s *Session) Store() *storage.Store { return s.store }

// Catalog returns the schema catalog.
func (s *Session) Catalog() *catalog.Catalog { return s.cat }

// Rules returns the rule manager.
func (s *Session) Rules() *rules.Manager { return s.mgr }

// Txns returns the transaction manager.
func (s *Session) Txns() *txn.Manager { return s.txns }

// Observability returns the session-wide registry + tracer bundle.
func (s *Session) Observability() *obs.Observability { return s.obs }

// SetProfiling turns the propagation profiler on or off. Accumulated
// entries are kept when turning it off (reports stay available).
func (s *Session) SetProfiling(on bool) { s.obs.Profiler.Enable(on) }

// Profiling reports whether the propagation profiler is on.
func (s *Session) Profiling() bool { return s.obs.Profiler.Enabled() }

// ProfileReport writes the propagation profiler's report — the topK
// most expensive partial differentials with per-rule attribution and
// zero-effect counts (topK <= 0 writes all).
func (s *Session) ProfileReport(w io.Writer, topK int) error {
	return s.mgr.ProfileReport(w, topK)
}

// EnableAdaptiveStats switches both evaluators the session owns — the
// rule manager's propagation evaluator and the ad-hoc query evaluator —
// from the static join-cost model to observed workload statistics.
// Both share one table, so cardinalities learned during propagation
// also improve ad-hoc queries (and vice versa). Idempotent.
func (s *Session) EnableAdaptiveStats() {
	s.ev.SetStats(s.mgr.EnableAdaptiveStats())
}

// IfaceVar returns the value of a session interface variable. Safe for
// concurrent use.
func (s *Session) IfaceVar(name string) (types.Value, bool) {
	return s.getIface(name)
}

// SetIfaceVar binds a session interface variable. With a data directory
// attached, a binding made outside a transaction is logged immediately
// (RecIface); one made inside a transaction rides in the commit record,
// and the transaction's rollback undoes it like a binding made by
// `create ... instances`. Only the logging needs the writer gate — it
// places the binding in the log's record order — so an in-memory session
// binds under the map's own lock and never asks who holds the gate (a
// rule action calling SetVar would pay a thread-id read for the answer);
// such a binding is outside any transaction and survives its rollback.
// If admission fails (deadline expiry on a stuck session) the binding
// still lands in memory — the historical best-effort contract — but is
// not logged.
func (s *Session) SetIfaceVar(name string, v types.Value) {
	if s.walLive.Load() == nil {
		s.setIfaceUnjournaled(name, v)
		return
	}
	if err := s.enterCtx(context.Background()); err != nil {
		s.setIfaceUnjournaled(name, v)
		return
	}
	var err error
	defer s.leave(&err)
	s.setIface(name, v)
	if s.txns.InTransaction() {
		s.walBinds = append(s.walBinds, wal.Bind{Name: name, Value: v})
		return
	}
	s.walSeq++
	// Best effort: an append failure poisons the log, and the next
	// commit surfaces it through the persist hook.
	_ = s.wal.Append(&wal.Record{Seq: s.walSeq, Kind: wal.RecIface, Binds: []wal.Bind{{Name: name, Value: v}}})
}

// SetLazyAnalysis disables (true) or re-enables (false) the eager
// definition-time static analysis of derived functions and rules,
// restoring the historical behavior where defects surface at
// activation or commit time.
func (s *Session) SetLazyAnalysis(lazy bool) { s.mgr.SetLazyAnalysis(lazy) }

// SetLintMode controls lint mode: rule actions become no-ops, so
// scripts can be executed for analysis without their foreign
// procedures being registered or run.
func (s *Session) SetLintMode(on bool) { s.lintMode = on }

// SetStaticPruning controls whether rebuilt propagation networks run
// the whole-network Δ-effect analysis and drop provably zero-effect
// differentials from scheduling (default on; turn off for A/B
// comparison).
func (s *Session) SetStaticPruning(on bool) {
	s.schemaMu.Lock()
	defer s.schemaMu.Unlock()
	s.mgr.SetStaticPruning(on)
}

// StaticPruning reports whether static differential pruning is on.
func (s *Session) StaticPruning() bool { return s.mgr.StaticPruning() }

// SetCounting enables or disables counting maintenance: differenced
// condition views carry per-derived-tuple derivation counts, so
// deletions decrement support and retract only at count zero — no
// recomputation and no §7.2 membership probes on deletes. The network
// is rebuilt on change.
func (s *Session) SetCounting(on bool) {
	s.schemaMu.Lock()
	defer s.schemaMu.Unlock()
	s.mgr.SetCounting(on)
}

// Counting reports whether counting maintenance is on.
func (s *Session) Counting() bool { return s.mgr.Counting() }

// SetHybrid switches between the Hybrid monitor (on: per view and per
// wave, partial differencing or recomputation, whichever the Δ sizes
// predict is cheaper — §8) and the Incremental one (off).
func (s *Session) SetHybrid(on bool) {
	s.schemaMu.Lock()
	defer s.schemaMu.Unlock()
	s.mgr.SetHybrid(on)
}

// Hybrid reports whether the monitor is the Hybrid one.
func (s *Session) Hybrid() bool { return s.mgr.Hybrid() }

// HybridReport writes the maintenance subsystem's state: per-view
// strategies, count-store sizes, cost EWMAs and the journal of recent
// strategy switches (the shell's \hybrid report).
func (s *Session) HybridReport(w io.Writer) error {
	return s.mgr.HybridReport(w)
}

// DeclareCapability is the Go-API form of the `declare` statement: it
// restricts the admitted change kinds of a base relation. Unlike the
// statement it is not journaled — embedders of durable sessions should
// execute `declare <name> <capability>;` instead so recovery replays
// the restriction.
func (s *Session) DeclareCapability(rel string, c storage.Capability) error {
	s.schemaMu.Lock()
	defer s.schemaMu.Unlock()
	return s.mgr.DeclareCapability(rel, c)
}

// AnalyzeAll runs the static analyzer over every derived-function
// definition and every rule condition currently defined, returning the
// combined report (the \lint command).
func (s *Session) AnalyzeAll() analyze.Report {
	an := s.mgr.Analyzer()
	rep := an.AnalyzeProgram()
	for _, name := range s.mgr.RuleNames() {
		r, _ := s.mgr.Rule(name)
		rep = append(rep, an.AnalyzeRule(r.CondDef, r.NumParams)...)
	}
	// The whole-network pass (OL3xx): trigger-impossible differentials,
	// interprocedurally dead disjuncts, shared-subnetwork candidates.
	rep = append(rep, s.mgr.AnalyzeNetwork().Report...)
	return rep
}

// analyzeDef validates a derived-function definition: the full static
// analyzer when eager (returning its report so warnings can be shown),
// or the historical per-clause safety check when lazy.
func (s *Session) analyzeDef(def *objectlog.Def) (analyze.Report, error) {
	if s.mgr.LazyAnalysis() {
		for _, c := range def.Clauses {
			if err := objectlog.CheckSafe(c); err != nil {
				return nil, err
			}
		}
		return nil, nil
	}
	rep := s.mgr.AnalyzeViewDef(def)
	return rep, rep.Err()
}

// appendWarnings appends warning diagnostics to a statement message,
// one per line, so eager analysis surfaces them in the shell.
func appendWarnings(msg string, rep analyze.Report) string {
	w := rep.Warnings()
	if len(w) == 0 {
		return msg
	}
	return msg + "\n" + w.String()
}

// RegisterProcedure exposes a Go function as a foreign procedure
// callable from rule actions ("foreign functions can be written in Lisp
// or C" in AMOS; here they are written in Go).
func (s *Session) RegisterProcedure(name string, p catalog.Procedure) error {
	return s.cat.RegisterProcedure(name, p)
}

// RegisterFunction exposes a Go function as a foreign AMOSQL function
// (usable in procedural expressions; not in monitored conditions).
func (s *Session) RegisterFunction(name string, params []string, result string, fn catalog.ForeignFunc) error {
	ps := make([]catalog.Param, len(params))
	for i, t := range params {
		ps[i] = catalog.Param{Type: t}
	}
	return s.cat.DeclareFunction(&catalog.Function{
		Name: name, Kind: catalog.Foreign, Params: ps,
		Results: []string{result}, Fn: fn,
	})
}

// Exec parses and executes all statements in src, returning one result
// per statement. Execution stops at the first error. Concurrent callers
// queue for the writer gate (see concurrency.go).
func (s *Session) Exec(src string) ([]Result, error) {
	return s.ExecContext(context.Background(), src)
}

// ExecContext is Exec bounded by ctx: the deadline (or, absent one, the
// session's writer-wait default) caps the wait for writer admission.
// Expiry returns an error wrapping txn.ErrSessionBusy.
func (s *Session) ExecContext(ctx context.Context, src string) (out []Result, err error) {
	// Parse outside the gate: malformed input never queues.
	stmts, srcs, err := ParseWithSources(src)
	if err != nil {
		return nil, err
	}
	if err = s.enterCtx(ctx); err != nil {
		return nil, err
	}
	defer s.leave(&err)
	return s.execStmts(stmts, srcs)
}

// execScript parses and runs src under an already-held gate (the
// optimistic-transaction apply path, and recovery's replay of journaled
// statements).
func (s *Session) execScript(src string) ([]Result, error) {
	stmts, srcs, err := ParseWithSources(src)
	if err != nil {
		return nil, err
	}
	return s.execStmts(stmts, srcs)
}

func (s *Session) execStmts(stmts []Stmt, srcs []string) ([]Result, error) {
	out := make([]Result, 0, len(stmts))
	for i, st := range stmts {
		r, err := s.execStmtSafe(st, srcs[i])
		if err != nil {
			return out, err
		}
		out = append(out, r)
	}
	return out, nil
}

// execStmtSafe runs one statement with panic containment: a panic (a
// foreign function in a procedural expression, an injected storage
// fault) becomes an error, and an implicit transaction the statement
// opened is rolled back so the store returns to its pre-statement
// state.
func (s *Session) execStmtSafe(st Stmt, src string) (res Result, err error) {
	wasActive := s.txns.InTransaction()
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("statement panicked: %v", r)
			if !wasActive && s.txns.InTransaction() {
				if rbErr := s.txns.Rollback(); rbErr != nil {
					err = fmt.Errorf("%v (%w)", err, rbErr)
				}
			}
		}
	}()
	return s.execStmt(st, src)
}

// MustExec is Exec for tests and examples: it panics on error.
func (s *Session) MustExec(src string) []Result {
	out, err := s.Exec(src)
	if err != nil {
		panic(err)
	}
	return out
}

// Query executes a single select statement and returns its rows. From
// the session's named holder (a rule action or foreign function querying
// mid-commit, a statement of an open explicit transaction) it runs on
// the live store inside the transaction; from anyone else it runs
// against a pinned MVCC snapshot WITHOUT waiting for the writer gate,
// seeing exactly the committed state.
func (s *Session) Query(src string) (*Result, error) {
	return s.QueryContext(context.Background(), src)
}

// QueryContext is Query with a context; the deadline only matters on
// the gated paths (re-entrant live queries and the aggregate fallback).
func (s *Session) QueryContext(ctx context.Context, src string) (*Result, error) {
	st, err := ParseOne(src)
	if err != nil {
		return nil, err
	}
	sel, ok := st.(SelectStmt)
	if !ok {
		return nil, fmt.Errorf("Query expects a select statement")
	}
	if s.heldByCaller() {
		s.depth++ // re-entrant; enterCtx would only ask again
		return s.liveQuery(sel)
	}
	return s.snapshotQuery(ctx, sel)
}

// Begin starts an explicit transaction. The session's writer gate is
// held as a lease until Commit or Rollback, so the transaction's
// statements (from this goroutine) never interleave with anyone
// else's — concurrent callers queue and are admitted afterwards.
func (s *Session) Begin() error {
	return s.BeginContext(context.Background())
}

// BeginContext is Begin bounded by ctx for writer admission.
func (s *Session) BeginContext(ctx context.Context) (err error) {
	if err = s.enterCtx(ctx); err != nil {
		return err
	}
	defer s.leave(&err)
	if err = s.txns.Begin(); err == nil {
		s.explicit = true
	}
	return err
}

// Commit runs the deferred check phase and commits; it releases the
// explicit transaction's gate lease.
func (s *Session) Commit() error {
	return s.CommitContext(context.Background())
}

// CommitContext is Commit bounded by ctx for writer admission (only
// relevant when called without an open lease).
func (s *Session) CommitContext(ctx context.Context) (err error) {
	if err = s.enterCtx(ctx); err != nil {
		return err
	}
	defer s.leave(&err)
	return s.txns.Commit()
}

// Rollback undoes the active transaction and releases the explicit
// transaction's gate lease.
func (s *Session) Rollback() error {
	return s.RollbackContext(context.Background())
}

// RollbackContext is Rollback bounded by ctx for writer admission.
func (s *Session) RollbackContext(ctx context.Context) (err error) {
	if err = s.enterCtx(ctx); err != nil {
		return err
	}
	defer s.leave(&err)
	return s.txns.Rollback()
}

// SetInjector installs a fault injector across the session's storage,
// propagation, rule and durability layers (nil disables injection).
func (s *Session) SetInjector(inj *faultinject.Injector) {
	s.inj = inj
	s.store.SetInjector(inj)
	s.mgr.SetInjector(inj)
	if s.wal != nil {
		s.wal.SetInjector(inj)
	}
}

// CheckInvariants verifies cross-layer consistency: storage
// index↔tuple-set agreement and version-sidecar sanity, the referential
// invariant (checkReferences), propagation-network level monotonicity,
// and — outside a transaction — that every Δ-set and pending trigger
// set is empty. It takes the writer gate so the state it inspects is
// quiescent; on a poisoned database it returns the sticky corruption
// error.
func (s *Session) CheckInvariants() (err error) {
	if err = s.enterCtx(context.Background()); err != nil {
		return err
	}
	defer s.leave(&err)
	if err := s.store.CheckInvariants(); err != nil {
		return err
	}
	if err := s.checkReferences(); err != nil {
		return err
	}
	return s.mgr.CheckInvariants(!s.txns.InTransaction())
}

// checkReferences verifies the referential invariant compiled plans
// rely on to drop type-extent literals: every object value in a column
// of a stored function lies in the extent of the column's type and of
// each of its supertypes.
func (s *Session) checkReferences() error {
	for _, name := range s.cat.FunctionNames() {
		f, _ := s.cat.Function(name)
		rel, ok := s.store.Relation(name)
		if f.Kind != catalog.Stored || !ok {
			continue
		}
		for col, tn := range f.ColumnTypes() {
			for _, typ := range s.cat.ImpliedExtents(tn) {
				ext, ok := s.store.Relation(objectlog.TypePred(typ))
				if !ok {
					return fmt.Errorf("referential invariant: type %s has no extent", typ)
				}
				var err error
				rel.Each(func(t types.Tuple) bool {
					if !ext.Contains(t[col : col+1]) {
						err = fmt.Errorf("referential invariant: %s%s holds %s, which is not in the extent of %s", name, t, t[col], typ)
					}
					return err == nil
				})
				if err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// execStmt dispatches one statement; src is its source text (empty for
// statements built without ParseWithSources), journaled and logged for
// the schema statements so recovery can re-execute them.
func (s *Session) execStmt(st Stmt, src string) (Result, error) {
	var res Result
	var err error
	// The schema statements mutate the ObjectLog program (and the rule
	// manager's networks), which gate-free snapshot readers compile and
	// evaluate against under schemaMu (R) — so they run under schemaMu (W).
	switch x := st.(type) {
	case CreateType:
		s.schemaMu.Lock()
		res, err = s.execCreateType(x)
		s.schemaMu.Unlock()
	case CreateFunction:
		s.schemaMu.Lock()
		res, err = s.execCreateFunction(x)
		s.schemaMu.Unlock()
	case CreateRule:
		s.schemaMu.Lock()
		res, err = s.execCreateRule(x)
		s.schemaMu.Unlock()
	case ActivateStmt:
		s.schemaMu.Lock()
		res, err = s.execActivate(x)
		s.schemaMu.Unlock()
	case DeactivateStmt:
		s.schemaMu.Lock()
		res, err = s.execDeactivate(x)
		s.schemaMu.Unlock()
	case DeclareStmt:
		s.schemaMu.Lock()
		res, err = s.execDeclare(x)
		s.schemaMu.Unlock()
	case CreateInstances:
		return s.execCreateInstances(x)
	case UpdateStmt:
		return s.execUpdate(x)
	case SelectStmt:
		return s.execSelect(x)
	case DeleteInstances:
		return s.execDeleteInstances(x)
	case ExplainStmt:
		return s.execExplain(x)
	case TxnStmt:
		return s.execTxn(x)
	default:
		return Result{}, fmt.Errorf("unhandled statement %T", st)
	}
	// The first group are the schema statements: journal and log their
	// source on success so recovery can re-execute them.
	if err == nil {
		if lerr := s.logDDL(src); lerr != nil {
			return res, lerr
		}
	}
	return res, err
}

func (s *Session) execCreateType(x CreateType) (Result, error) {
	if _, err := s.cat.CreateType(x.Name, x.Unders...); err != nil {
		return Result{}, err
	}
	// The type extent is a base relation so conditions can range over
	// "for each <type> x" and react to instance creation.
	if _, err := s.store.CreateRelation(objectlog.TypePred(x.Name), 1, nil); err != nil {
		return Result{}, err
	}
	// A new schema epoch: memoized "unknown predicate" verdicts can flip.
	s.mgr.InvalidateAnalysis()
	return Result{Message: fmt.Sprintf("type %s created", x.Name)}, nil
}

// execDeclare restricts the admitted change kinds of a stored function
// or a type extent. The restriction is enforced by the store from here
// on and rebuilds the propagation network, so the whole-network
// Δ-effect analysis prunes the differentials it makes impossible.
// Journaled like the other schema statements: recovery re-executes it
// before the snapshot's tables are loaded (the load paths bypass
// enforcement, so a populated-then-frozen relation restores cleanly).
func (s *Session) execDeclare(x DeclareStmt) (Result, error) {
	c, ok := storage.ParseCapability(x.Capability)
	if !ok {
		return Result{}, fmt.Errorf("unknown capability %q (want readonly, append only, delete only or read-write)", x.Capability)
	}
	rel := x.Name
	if _, ok := s.store.Relation(rel); !ok {
		if _, ok := s.cat.Type(x.Name); ok {
			rel = objectlog.TypePred(x.Name)
		}
	}
	if err := s.mgr.DeclareCapability(rel, c); err != nil {
		return Result{}, err
	}
	return Result{Message: fmt.Sprintf("%s declared %s", x.Name, c)}, nil
}

func (s *Session) execCreateInstances(x CreateInstances) (Result, error) {
	commit, err := s.autoBegin()
	if err != nil {
		return Result{}, err
	}
	for _, v := range x.Vars {
		oid, err := s.cat.NewObject(x.TypeName)
		if err != nil {
			return Result{}, s.autoAbort(commit, err)
		}
		s.pendingCreates = append(s.pendingCreates, pendingObject{varName: v, oid: oid})
		// Insert into the extent of the type and all supertypes (the
		// type graph is a DAG; each extent gets the instance once).
		t, _ := s.cat.Type(x.TypeName)
		for _, sup := range t.AllSupertypes() {
			if _, err := s.store.Insert(objectlog.TypePred(sup.Name), types.Tuple{types.Obj(oid)}); err != nil {
				return Result{}, s.autoAbort(commit, err)
			}
		}
		s.setIface(v, types.Obj(oid))
		if s.walOn() {
			s.walObjNews = append(s.walObjNews, wal.ObjectRec{OID: oid, Type: x.TypeName})
			s.walBinds = append(s.walBinds, wal.Bind{Name: v, Value: types.Obj(oid)})
		}
	}
	if err := s.autoCommit(commit); err != nil {
		return Result{}, err
	}
	return Result{Message: fmt.Sprintf("%d %s instance(s) created", len(x.Vars), x.TypeName)}, nil
}

func (s *Session) execCreateFunction(x CreateFunction) (Result, error) {
	ps := make([]catalog.Param, len(x.Params))
	for i, p := range x.Params {
		ps[i] = catalog.Param{Type: p.Type, Name: p.Name}
	}
	f := &catalog.Function{
		Name: x.Name, Params: ps, Results: []string{x.Result},
	}
	if x.Body == nil {
		f.Kind = catalog.Stored
		if err := s.cat.DeclareFunction(f); err != nil {
			return Result{}, err
		}
		if _, err := s.store.CreateRelation(x.Name, f.Arity(), f.KeyCols()); err != nil {
			return Result{}, err
		}
		// Updates and deletions keep every object value of the relation in
		// its column type's extents; compiled plans drop the type literals
		// this implies. Only the non-scalar columns can hold an object, so
		// only they are searched when one is deleted.
		cols := make([][]string, f.Arity())
		var objCols []int
		for i, tn := range f.ColumnTypes() {
			cols[i] = s.cat.ImpliedExtents(tn)
			if !catalog.IsScalarType(tn) {
				objCols = append(objCols, i)
			}
		}
		s.mgr.Program().SetColumnExtents(x.Name, cols)
		if err := s.store.SetObjectColumns(x.Name, objCols); err != nil {
			return Result{}, err
		}
		s.mgr.InvalidateAnalysis()
		return Result{Message: fmt.Sprintf("stored function %s created", x.Name)}, nil
	}
	f.Kind = catalog.Derived
	for _, p := range x.Params {
		if p.Name == "" {
			return Result{}, fmt.Errorf("derived function %q: parameters must be named", x.Name)
		}
	}
	if err := s.cat.DeclareFunction(f); err != nil {
		return Result{}, err
	}
	// Aggregate bodies (extension; §8 future work in the paper):
	// `select sum(salary(e)) for each employee e where ...` becomes an
	// aggregate view monitored by re-evaluation.
	if op, inner, ok := s.comp.aggregateCall(x.Body); ok {
		def, err := s.comp.compileAggregateQuery(x.Name, x.Params, x.Body, op, inner)
		if err != nil {
			return Result{}, err
		}
		rep, err := s.analyzeDef(def)
		if err != nil {
			return Result{}, err
		}
		if err := s.mgr.Program().Define(def); err != nil {
			return Result{}, err
		}
		s.cat.SetBody(x.Name, def)
		msg := fmt.Sprintf("aggregate function %s (%s) created", x.Name, op)
		return Result{Message: appendWarnings(msg, rep)}, nil
	}
	def, _, err := s.comp.compileQuery(x.Name, x.Params, x.Body)
	if err != nil {
		return Result{}, err
	}
	rep, err := s.analyzeDef(def)
	if err != nil {
		return Result{}, err
	}
	def = objectlog.SimplifyDef(def)
	if err := s.mgr.Program().Define(def); err != nil {
		return Result{}, err
	}
	s.cat.SetBody(x.Name, def)
	kind := "derived"
	if x.Shared {
		if err := s.mgr.ShareView(def); err != nil {
			return Result{}, err
		}
		kind = "shared derived"
	}
	return Result{Message: appendWarnings(fmt.Sprintf("%s function %s created", kind, x.Name), rep)}, nil
}

func (s *Session) execCreateRule(x CreateRule) (Result, error) {
	cond := &SelectQuery{Where: x.Where}
	for _, fe := range x.ForEach {
		cond.Exprs = append(cond.Exprs, VarRef{Name: fe.Name})
	}
	cond.ForEach = x.ForEach
	condName := "cnd_" + x.Name
	def, headNames, err := s.comp.compileQuery(condName, x.Params, cond)
	if err != nil {
		return Result{}, err
	}
	// Eager definition-time analysis: reject errors before the rule is
	// registered, and keep the report so warnings reach the shell. The
	// manager re-checks errors in DefineRule for direct API users.
	var rep analyze.Report
	if !s.mgr.LazyAnalysis() {
		rep = s.mgr.AnalyzeRuleDef(def, len(x.Params))
		if err := rep.Err(); err != nil {
			return Result{}, fmt.Errorf("rule %q: %w", x.Name, err)
		}
	}
	action, err := s.buildAction(x, headNames)
	if err != nil {
		return Result{}, err
	}
	// ECA events: each names a stored function or a type (its extent).
	var events []string
	for _, ev := range x.Events {
		if f, ok := s.cat.Function(ev); ok {
			if f.Kind != catalog.Stored {
				return Result{}, fmt.Errorf("rule %s: event %q must be a stored function or type", x.Name, ev)
			}
			events = append(events, ev)
			continue
		}
		if _, ok := s.cat.Type(ev); ok {
			events = append(events, objectlog.TypePred(ev))
			continue
		}
		return Result{}, fmt.Errorf("rule %s: unknown event %q", x.Name, ev)
	}
	err = s.mgr.DefineRule(&rules.Rule{
		Name:      x.Name,
		CondDef:   def,
		NumParams: len(x.Params),
		Action:    action,
		Strict:    !x.Nervous,
		Priority:  int(x.Priority),
		Events:    events,
	})
	if err != nil {
		return Result{}, err
	}
	return Result{Message: appendWarnings(fmt.Sprintf("rule %s created", x.Name), rep)}, nil
}

// buildAction compiles the procedural action of a rule into a callback
// that evaluates the argument expressions under the instance bindings
// and invokes the foreign procedure (or foreign function used as a
// procedure).
func (s *Session) buildAction(x CreateRule, headNames []string) (rules.Action, error) {
	proc := x.ActionProc
	argExprs := x.ActionArgs
	return func(inst types.Tuple) error {
		if s.lintMode {
			return nil
		}
		if len(inst) != len(headNames) {
			return fmt.Errorf("rule %s: instance arity %d, head %d", x.Name, len(inst), len(headNames))
		}
		binds := make(map[string]types.Value, len(headNames))
		for i, n := range headNames {
			if n != "" {
				binds[n] = inst[i]
			}
		}
		args := make([]types.Value, len(argExprs))
		for i, ae := range argExprs {
			v, err := s.evalExpr(ae, binds)
			if err != nil {
				return fmt.Errorf("rule %s action argument %d: %w", x.Name, i+1, err)
			}
			args[i] = v
		}
		if p, ok := s.cat.Procedure(proc); ok {
			return callProcedure(proc, p, args)
		}
		if f, ok := s.cat.Function(proc); ok && f.Kind == catalog.Foreign {
			_, err := callForeign(proc, f.Fn, args)
			return err
		}
		if s.recovering.Load() {
			// Recovery replay: the embedding app has not (re-)registered
			// this procedure. The action's database updates are already in
			// the commit record being replayed (and are reconciled after
			// it), so the dispatch is skipped rather than failing recovery.
			return nil
		}
		return fmt.Errorf("rule %s: unknown procedure %q", x.Name, proc)
	}, nil
}

// callProcedure invokes a registered foreign procedure with panic
// containment: user Go code that panics becomes an error on the normal
// rollback path, never a process crash. Note that external side effects
// the procedure performed before failing are NOT undone by rollback.
func callProcedure(name string, p catalog.Procedure, args []types.Value) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("procedure %s panicked: %v", name, r)
		}
	}()
	return p(args)
}

// callForeign invokes a registered foreign function with panic
// containment.
func callForeign(name string, fn catalog.ForeignFunc, args []types.Value) (rows [][]types.Value, err error) {
	defer func() {
		if r := recover(); r != nil {
			rows, err = nil, fmt.Errorf("foreign function %s panicked: %v", name, r)
		}
	}()
	return fn(args)
}

func (s *Session) execUpdate(x UpdateStmt) (Result, error) {
	f, ok := s.cat.Function(x.Fn)
	if !ok {
		return Result{}, fmt.Errorf("unknown function %q", x.Fn)
	}
	if f.Kind != catalog.Stored {
		return Result{}, fmt.Errorf("%s is a %s function; only stored functions can be updated", x.Fn, f.Kind)
	}
	if len(x.Args) != len(f.Params) {
		return Result{}, fmt.Errorf("function %q takes %d arguments, got %d", x.Fn, len(f.Params), len(x.Args))
	}
	key := make([]types.Value, len(x.Args))
	for i, ae := range x.Args {
		v, err := s.evalExpr(ae, nil)
		if err != nil {
			return Result{}, err
		}
		if !s.cat.ValueConformsTo(v, f.Params[i].Type) {
			return Result{}, fmt.Errorf("%s: argument %d (%s) does not conform to type %s", x.Fn, i+1, v, f.Params[i].Type)
		}
		key[i] = v
	}
	val, err := s.evalExpr(x.Value, nil)
	if err != nil {
		return Result{}, err
	}
	if !s.cat.ValueConformsTo(val, f.Results[0]) {
		return Result{}, fmt.Errorf("%s: value %s does not conform to type %s", x.Fn, val, f.Results[0])
	}
	tuple := append(append(types.Tuple{}, key...), val)
	if x.Op != "remove" {
		// The catalog forgets a deleted object only at commit; until then
		// its extent memberships are already gone, and a new reference to
		// it would dangle.
		for _, pd := range s.pendingDeletes {
			if slices.Contains(tuple, types.Obj(pd.oid)) {
				return Result{}, fmt.Errorf("%s: :%s was deleted in this transaction", x.Fn, pd.varName)
			}
		}
	}
	commit, err := s.autoBegin()
	if err != nil {
		return Result{}, err
	}
	switch x.Op {
	case "set":
		_, err = s.store.Set(x.Fn, key, []types.Value{val})
	case "add":
		_, err = s.store.Insert(x.Fn, tuple)
	case "remove":
		_, err = s.store.Delete(x.Fn, tuple)
	}
	if err != nil {
		return Result{}, s.autoAbort(commit, err)
	}
	if err := s.autoCommit(commit); err != nil {
		return Result{}, err
	}
	return Result{Message: x.Op + " ok"}, nil
}

// execDeleteInstances deletes objects: every stored tuple referencing
// the object is retracted first (rules observe the deletions — this is
// how conditions react to objects disappearing), then the object leaves
// its type extents and is destroyed.
func (s *Session) execDeleteInstances(x DeleteInstances) (Result, error) {
	commit, err := s.autoBegin()
	if err != nil {
		return Result{}, err
	}
	n := 0
	for _, v := range x.Vars {
		val, ok := s.getIface(v)
		if !ok {
			return Result{}, s.autoAbort(commit, fmt.Errorf("undefined interface variable :%s", v))
		}
		if val.Kind != types.KindObject {
			return Result{}, s.autoAbort(commit, fmt.Errorf(":%s is not an object", v))
		}
		if _, ok := s.cat.ObjectType(val.O); !ok {
			return Result{}, s.autoAbort(commit, fmt.Errorf(":%s refers to a deleted object", v))
		}
		// Retract the object's entire stored footprint, its extent
		// memberships last: a statement that fails half-way inside an
		// explicit transaction leaves no tuple referencing an object
		// outside its extents.
		refs := s.store.TuplesReferencing(val)
		for _, extents := range []bool{false, true} {
			for rel, tuples := range refs {
				if _, ok := objectlog.IsTypePred(rel); ok != extents {
					continue
				}
				for _, t := range tuples {
					if _, err := s.store.Delete(rel, t); err != nil {
						return Result{}, s.autoAbort(commit, err)
					}
				}
			}
		}
		s.pendingDeletes = append(s.pendingDeletes, pendingObject{varName: v, oid: val.O})
		if s.walOn() {
			s.walObjDels = append(s.walObjDels, val.O)
		}
		n++
	}
	if err := s.autoCommit(commit); err != nil {
		return Result{}, err
	}
	return Result{Message: fmt.Sprintf("%d object(s) deleted", n)}, nil
}

// execExplain renders the compiled form of a query or the monitoring
// plan of a rule — the ObjectLog clauses and, for activated rules, the
// partial differentials the propagation network executes.
func (s *Session) execExplain(x ExplainStmt) (Result, error) {
	var sb strings.Builder
	if x.Query != nil {
		s.comp.gensym++
		name := fmt.Sprintf("_explain%d", s.comp.gensym)
		if op, inner, ok := s.comp.aggregateCall(x.Query); ok {
			def, err := s.comp.compileAggregateQuery(name, nil, x.Query, op, inner)
			if err != nil {
				return Result{}, err
			}
			fmt.Fprintf(&sb, "aggregate %s over:\n%s", op, objectlog.SimplifyDef(def))
			return Result{Message: sb.String()}, nil
		}
		def, _, err := s.comp.compileQuery(name, nil, x.Query)
		if err != nil {
			return Result{}, err
		}
		sb.WriteString(objectlog.SimplifyDef(def).String())
		return Result{Message: sb.String()}, nil
	}
	r, ok := s.mgr.Rule(x.Rule)
	if !ok {
		return Result{}, fmt.Errorf("unknown rule %q", x.Rule)
	}
	fmt.Fprintf(&sb, "rule %s condition:\n%s\n", r.Name, r.CondDef)
	infos := s.mgr.ActivationsOf(x.Rule)
	if len(infos) == 0 {
		sb.WriteString("(not activated)")
		return Result{Message: sb.String()}, nil
	}
	for _, info := range infos {
		fmt.Fprintf(&sb, "activation %s monitors %s:\n%s\n", info.Key, info.CondName, info.Def)
		if len(info.Differentials) == 0 {
			sb.WriteString("  (monitored by re-evaluation)\n")
			continue
		}
		for _, d := range info.Differentials {
			fmt.Fprintf(&sb, "  %s\n", d)
		}
	}
	return Result{Message: strings.TrimRight(sb.String(), "\n")}, nil
}

// finishDeletes settles the catalog and the interface variables at
// transaction end. A commit destroys the deleted objects; a rollback
// rebinds the variables the transaction rebound to what they named
// before it, and destroys the created objects, whose extent memberships
// inverse replay just retracted, while the deleted objects, whose
// footprint it restored, stay alive.
func (s *Session) finishDeletes(committed bool) {
	s.settleIface(committed)
	dead := s.pendingCreates
	if committed {
		dead = s.pendingDeletes
	}
	for _, pd := range dead {
		s.cat.DeleteObject(pd.oid)
		s.delIfaceObj(pd.varName, pd.oid)
	}
	s.pendingDeletes = s.pendingDeletes[:0]
	s.pendingCreates = nil // a bulk load's worth is not kept alive
}

func (s *Session) execSelect(x SelectStmt) (Result, error) {
	s.comp.gensym++
	name := fmt.Sprintf("_query%d", s.comp.gensym)
	// Ad-hoc aggregate queries: select sum(f(x)) for each ... where ...
	if op, inner, ok := s.comp.aggregateCall(&x.Query); ok {
		def, err := s.comp.compileAggregateQuery(name, nil, &x.Query, op, inner)
		if err != nil {
			return Result{}, err
		}
		s.schemaMu.Lock()
		err = s.mgr.Program().Define(def)
		s.schemaMu.Unlock()
		if err != nil {
			return Result{}, err
		}
		ev := eval.New(sessEnv{s})
		ext, err := ev.EvalPred(name, false)
		if err != nil {
			return Result{}, err
		}
		return Result{
			Columns: []string{x.Query.Exprs[0].String()},
			Tuples:  ext.Tuples(),
		}, nil
	}
	def, _, err := s.comp.compileQuery(name, nil, &x.Query)
	if err != nil {
		return Result{}, err
	}
	out := types.NewSet()
	for _, c := range def.Clauses {
		if err := objectlog.CheckSafe(c); err != nil {
			return Result{}, err
		}
		sc, ok := objectlog.Simplify(c)
		if !ok {
			continue // statically empty disjunct
		}
		if err := s.ev.EvalClause(sc, out); err != nil {
			return Result{}, err
		}
	}
	cols := make([]string, len(x.Query.Exprs))
	for i, e := range x.Query.Exprs {
		cols[i] = e.String()
	}
	return Result{Columns: cols, Tuples: out.Tuples()}, nil
}

func (s *Session) execActivate(x ActivateStmt) (Result, error) {
	args, err := s.evalExprs(x.Args)
	if err != nil {
		return Result{}, err
	}
	key, err := s.mgr.Activate(x.Rule, args...)
	if err != nil {
		return Result{}, err
	}
	return Result{Message: fmt.Sprintf("activated %s", key)}, nil
}

func (s *Session) execDeactivate(x DeactivateStmt) (Result, error) {
	args, err := s.evalExprs(x.Args)
	if err != nil {
		return Result{}, err
	}
	key := rules.ActivationKey(x.Rule, args)
	if err := s.mgr.Deactivate(key); err != nil {
		return Result{}, err
	}
	return Result{Message: fmt.Sprintf("deactivated %s", key)}, nil
}

func (s *Session) evalExprs(es []Expr) ([]types.Value, error) {
	out := make([]types.Value, len(es))
	for i, e := range es {
		v, err := s.evalExpr(e, nil)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

func (s *Session) execTxn(x TxnStmt) (Result, error) {
	var err error
	switch x.Kind {
	case "begin":
		if err = s.txns.Begin(); err == nil {
			// The surrounding gate hold becomes the transaction's lease
			// (released by leave once the transaction ends).
			s.explicit = true
		}
	case "commit":
		err = s.txns.Commit()
	case "rollback":
		err = s.txns.Rollback()
	}
	if err != nil {
		return Result{}, err
	}
	return Result{Message: x.Kind + " ok"}, nil
}

// autoBegin starts an implicit transaction when none is active; the
// returned flag tells autoCommit whether to commit it.
func (s *Session) autoBegin() (bool, error) {
	if s.txns.InTransaction() {
		return false, nil
	}
	return true, s.txns.Begin()
}

func (s *Session) autoCommit(mine bool) error {
	if !mine {
		return nil
	}
	return s.txns.Commit()
}

func (s *Session) autoAbort(mine bool, cause error) error {
	if mine {
		s.txns.Rollback()
	}
	return cause
}

// evalExpr evaluates a procedural expression (update arguments, action
// arguments) against the current database state.
func (s *Session) evalExpr(e Expr, binds map[string]types.Value) (types.Value, error) {
	switch x := e.(type) {
	case ConstExpr:
		return x.Value, nil
	case IfaceRef:
		v, ok := s.getIface(x.Name)
		if !ok {
			return types.Value{}, fmt.Errorf("undefined interface variable :%s", x.Name)
		}
		return v, nil
	case VarRef:
		if v, ok := binds[x.Name]; ok {
			return v, nil
		}
		return types.Value{}, fmt.Errorf("unbound variable %q", x.Name)
	case Unary:
		v, err := s.evalExpr(x.X, binds)
		if err != nil {
			return types.Value{}, err
		}
		switch x.Op {
		case "-":
			return types.Sub(types.Int(0), v)
		case "not":
			return types.Bool(!v.AsBool()), nil
		}
		return types.Value{}, fmt.Errorf("unknown unary operator %q", x.Op)
	case Binary:
		l, err := s.evalExpr(x.L, binds)
		if err != nil {
			return types.Value{}, err
		}
		// Short-circuit boolean connectives.
		switch x.Op {
		case "and":
			if !l.AsBool() {
				return types.Bool(false), nil
			}
			r, err := s.evalExpr(x.R, binds)
			if err != nil {
				return types.Value{}, err
			}
			return types.Bool(r.AsBool()), nil
		case "or":
			if l.AsBool() {
				return types.Bool(true), nil
			}
			r, err := s.evalExpr(x.R, binds)
			if err != nil {
				return types.Value{}, err
			}
			return types.Bool(r.AsBool()), nil
		}
		r, err := s.evalExpr(x.R, binds)
		if err != nil {
			return types.Value{}, err
		}
		switch x.Op {
		case "+":
			return types.Add(l, r)
		case "-":
			return types.Sub(l, r)
		case "*":
			return types.Mul(l, r)
		case "/":
			return types.Div(l, r)
		case "=":
			return types.Bool(l.Equal(r)), nil
		case "!=":
			return types.Bool(!l.Equal(r)), nil
		case "<":
			return types.Bool(l.Compare(r) < 0), nil
		case "<=":
			return types.Bool(l.Compare(r) <= 0), nil
		case ">":
			return types.Bool(l.Compare(r) > 0), nil
		case ">=":
			return types.Bool(l.Compare(r) >= 0), nil
		}
		return types.Value{}, fmt.Errorf("unknown operator %q", x.Op)
	case Call:
		return s.evalCall(x, binds)
	default:
		return types.Value{}, fmt.Errorf("cannot evaluate %s", e)
	}
}

func (s *Session) evalCall(x Call, binds map[string]types.Value) (types.Value, error) {
	f, ok := s.cat.Function(x.Fn)
	if !ok {
		return types.Value{}, fmt.Errorf("unknown function %q", x.Fn)
	}
	if len(x.Args) != len(f.Params) {
		return types.Value{}, fmt.Errorf("function %q takes %d arguments, got %d", x.Fn, len(f.Params), len(x.Args))
	}
	args := make([]types.Value, len(x.Args))
	for i, ae := range x.Args {
		v, err := s.evalExpr(ae, binds)
		if err != nil {
			return types.Value{}, err
		}
		args[i] = v
	}
	switch f.Kind {
	case catalog.Stored:
		rows, err := s.store.Get(x.Fn, args)
		if err != nil {
			return types.Value{}, err
		}
		if len(rows) == 0 {
			return types.Value{}, fmt.Errorf("%s has no value for %v", x.Fn, types.Tuple(args))
		}
		return rows[0][0], nil
	case catalog.Derived:
		// Evaluate as a point subquery over the definition.
		lit := objectlog.Literal{Pred: x.Fn}
		for _, v := range args {
			lit.Args = append(lit.Args, objectlog.C(v))
		}
		res := objectlog.V("_Res")
		lit.Args = append(lit.Args, res)
		head := objectlog.Literal{Pred: "_call", Args: []objectlog.Term{res}}
		out := types.NewSet()
		if err := s.ev.EvalClause(objectlog.Clause{Head: head, Body: []objectlog.Literal{lit}}, out); err != nil {
			return types.Value{}, err
		}
		ts := out.Tuples()
		if len(ts) == 0 {
			return types.Value{}, fmt.Errorf("%s has no value for %v", x.Fn, types.Tuple(args))
		}
		return ts[0][0], nil
	default: // Foreign
		var rows [][]types.Value
		err := s.asHolder(func() (err error) {
			rows, err = callForeign(x.Fn, f.Fn, args)
			return err
		})
		if err != nil {
			return types.Value{}, err
		}
		if len(rows) == 0 || len(rows[0]) == 0 {
			return types.Value{}, fmt.Errorf("foreign function %s returned no value", x.Fn)
		}
		return rows[0][0], nil
	}
}

// sessEnv resolves predicates for ad-hoc session queries (select
// statements and procedural derived-function calls). Δ-sets and old
// states are not available outside the check phase.
type sessEnv struct{ s *Session }

// Program implements eval.Env.
func (e sessEnv) Program() *objectlog.Program { return e.s.mgr.Program() }

// Source implements eval.Env over the live store only.
func (e sessEnv) Source(pred string, dk objectlog.DeltaKind, old bool) (storage.Source, error) {
	if dk != objectlog.DeltaNone || old {
		return nil, fmt.Errorf("Δ-sets and old states are only available during the check phase")
	}
	rel, ok := e.s.store.Relation(pred)
	if !ok {
		return nil, fmt.Errorf("relation %q does not exist", pred)
	}
	return rel, nil
}
