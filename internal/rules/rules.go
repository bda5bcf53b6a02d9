// Package rules implements CA (Condition–Action) rules with deferred
// condition monitoring (§3 of the paper): rule objects, per-parameter
// activation, the commit-time check phase with conflict resolution and
// set-oriented action execution, strict and nervous execution semantics
// (§3.2, §7.2), and explainability (§1).
//
// Three monitors are provided:
//
//   - Hybrid — the default, and the §8 "future work" method: partial
//     differencing over the propagation network, in which every view,
//     wave by wave, is recomputed (by logical rollback, unmaterialized)
//     instead when the accumulated changes are large against the
//     relations it reads. The decision is the network's (propnet,
//     maint.Chooser).
//   - Incremental — partial differencing only (the paper's contribution,
//     and the reference the equivalence tests and fig. 7 need).
//   - Naive — full recomputation of each affected condition with a
//     materialized previous truth set (the §6 baseline).
package rules

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"partdiff/internal/analyze"
	"partdiff/internal/delta"
	"partdiff/internal/diff"
	"partdiff/internal/eval"
	"partdiff/internal/faultinject"
	"partdiff/internal/maint"
	"partdiff/internal/objectlog"
	"partdiff/internal/obs"
	"partdiff/internal/propnet"
	"partdiff/internal/storage"
	"partdiff/internal/types"
)

// Mode selects the condition monitoring strategy.
type Mode int

// The monitoring modes.
const (
	Incremental Mode = iota
	Naive
	Hybrid
)

// String returns the mode name.
func (m Mode) String() string {
	switch m {
	case Incremental:
		return "incremental"
	case Naive:
		return "naive"
	case Hybrid:
		return "hybrid"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Action is a rule action, executed once per net-new condition instance
// (set-oriented execution semantics: data is passed from the condition
// to the action through the shared query variables, materialized here as
// the instance tuple).
type Action func(instance types.Tuple) error

// Rule is a CA rule: a declarative condition and a procedural action.
type Rule struct {
	Name string
	// CondDef is the condition function definition. Its head arguments
	// are the rule parameters (the first NumParams) followed by the
	// for-each result variables passed to the action.
	CondDef *objectlog.Def
	// NumParams is the number of leading head arguments that are rule
	// parameters, bound at activation time.
	NumParams int
	// Action runs for each instance for which the condition became
	// true.
	Action Action
	// Strict selects strict execution semantics: the action runs only
	// when the condition's truth value changes from false to true. With
	// nervous semantics (Strict=false) the rule may also trigger when
	// an update re-derives an already-true instance (§3.2).
	Strict bool
	// Priority orders conflict resolution (higher first; ties broken by
	// rule name).
	Priority int
	// Events, when non-empty, turns the CA rule into an ECA rule: the
	// condition is only tested in check rounds where at least one of
	// the named base relations was updated ("the event part just
	// further restricts when the condition is tested", §1). Condition
	// changes arriving without a matching event are discarded for this
	// rule.
	Events []string
}

// eventMatches reports whether any of the rule's event relations is in
// the changed set (always true for pure CA rules).
func (r *Rule) eventMatches(changed map[string]bool) bool {
	if len(r.Events) == 0 {
		return true
	}
	for _, e := range r.Events {
		if changed[e] {
			return true
		}
	}
	return false
}

// Activation is one activated (rule, parameters) pair. Rules are
// activated and deactivated separately for different parameters (§3.1).
type Activation struct {
	Key      string
	Rule     *Rule
	Args     []types.Value
	CondName string
	// Def is the specialized, expanded condition definition monitored
	// by the network.
	Def *objectlog.Def

	// trigger holds the pending net-triggered instances: insertions
	// mark instances, deletions un-mark them ("if something happens
	// later in the transaction which causes the condition to become
	// false again, the rule is no longer triggered").
	trigger *delta.Set
	// prevTrue is the materialized previous truth set (naive monitor
	// only; the incremental monitor never materializes conditions).
	prevTrue *types.Set
}

// Explanation records why a rule instance triggered: which partial
// differentials executed in the triggering round, and with which sign.
type Explanation struct {
	Rule       string
	Activation string
	Round      int
	Instances  []types.Tuple
	Entries    []propnet.TraceEntry
}

// Stats counts monitor work, for the performance experiments of §6.
type Stats struct {
	Propagations          int
	DifferentialsExecuted int
	NaiveRecomputations   int
	TriggeredInstances    int
	ActionsExecuted       int
	CheckRounds           int
}

// Add accumulates s2 into s.
func (s *Stats) Add(s2 Stats) {
	s.Propagations += s2.Propagations
	s.DifferentialsExecuted += s2.DifferentialsExecuted
	s.NaiveRecomputations += s2.NaiveRecomputations
	s.TriggeredInstances += s2.TriggeredInstances
	s.ActionsExecuted += s2.ActionsExecuted
	s.CheckRounds += s2.CheckRounds
}

// ConflictResolver picks one activation among those with pending
// triggered instances. The default resolver picks the highest priority,
// breaking ties by activation key.
type ConflictResolver func(candidates []*Activation) *Activation

// Manager owns the rule base and runs the deferred check phase.
type Manager struct {
	store *storage.Store
	prog  *objectlog.Program

	mode Mode
	// MaxRounds bounds rule-cascade loops in one check phase.
	MaxRounds int
	// CheckBudget bounds the wall-clock duration of one check phase
	// (0 = unlimited). A cascade that exceeds it aborts with an error,
	// which flows through the normal rollback path.
	CheckBudget time.Duration
	// CheckContext, when non-nil, aborts the check phase as soon as the
	// context is done (same rollback path as CheckBudget).
	CheckContext context.Context
	// Resolve is the conflict resolution method.
	Resolve ConflictResolver
	// RunActions is handed the set-oriented action loop of every check
	// round that fires; it must call loop exactly once and return its
	// error (the default does just that). Actions are the one place the
	// check phase calls user code, so the embedding session replaces it
	// to run them where a re-entrant call is recognised as the
	// transaction's own.
	RunActions func(loop func() error) error

	rules map[string]*Rule
	// activations is keyed by activation key; sorted caches its values
	// in key order for the check phase, which walks them several times
	// per round. setActivation and dropActivation are the only writers
	// and reset the cache.
	activations map[string]*Activation
	sorted      []*Activation
	sharedViews []*objectlog.Def
	sharedNames map[string]bool

	// lazyAnalysis disables the eager definition-time static analysis
	// of rule conditions and shared views, restoring the historical
	// behavior where defects surface at activation or commit time.
	lazyAnalysis bool
	// analyzerOpts is extra analyzer context supplied by the embedding
	// session (typically the schema catalog).
	analyzerOpts []analyze.Option

	net      *propnet.Network
	netDirty bool
	// pending holds physical events observed while the network was dirty.
	// OnEvent runs under the store's write lock (emit → txn observe), and
	// a rebuild there would re-run the Δ-effect analysis — which reads
	// store capabilities and extents and so self-deadlocks on that lock.
	// Dirty-network events are buffered here and folded into the base
	// Δ-sets by the next ensureNet at a safe point (a toggle, activation,
	// or the check phase, none of which hold the store lock).
	pending  []storage.Event
	diffOpts diff.Options
	inj      *faultinject.Injector
	// maintainer is the counting/hybrid maintenance subsystem. It
	// outlives network rebuilds: derivation counts and chooser cost
	// history survive redefinitions that don't change a view.
	maintainer *maint.Maintainer
	// staticPruning enables the whole-network Δ-effect analysis on every
	// rebuilt network (on by default; opt-out for A/B comparison).
	staticPruning bool

	// analysisCache memoizes definition-time analysis per definition
	// name, keyed by the canonical rendering (so an unchanged definition
	// is analyzed once, however many times `create rule` / \lint walk
	// it). analysisRuns counts actual (cache-missing) analyzer runs.
	analysisCache map[string]analysisEntry
	analysisRuns  int64

	// stats, when non-nil (EnableAdaptiveStats), is the observed
	// workload statistics table shared by every rebuilt network's
	// evaluator — the adaptive join optimizer's memory.
	stats *eval.Stats

	explanations []Explanation
	condSeq      int

	// Observability: obs is the registry + tracer bundle (never nil;
	// NewManager installs a private one, the embedding session replaces
	// it via SetObservability). met backs the Stats view with atomic
	// counters; netMet/evalMet are handed to every rebuilt network.
	obs     *obs.Observability
	met     *Metrics
	netMet  *propnet.Metrics
	evalMet *eval.Metrics

	// debug remembers the writer passed to SetDebug; the actual output
	// path is a TextSink attached to the tracer (debugDetach removes it).
	debug       io.Writer
	debugDetach func()
}

// SetDebug directs a human-readable check-phase trace to w (nil
// disables it). The trace is produced by the structured tracing API:
// each debug line is an instant event in the "rules.debug" category and
// w receives exactly those events through a filtering text sink — a
// Chrome trace exporter attached to the same tracer sees them too.
func (m *Manager) SetDebug(w io.Writer) {
	if m.debugDetach != nil {
		m.debugDetach()
		m.debugDetach = nil
	}
	m.debug = w
	if w != nil {
		m.debugDetach = m.obs.Tracer.Attach(obs.NewTextSink(w, "rules.debug"))
	}
}

// SetInjector installs a fault injector on the check-phase paths and on
// the live propagation network (nil disables injection).
func (m *Manager) SetInjector(inj *faultinject.Injector) {
	m.inj = inj
	if m.net != nil {
		m.net.SetInjector(inj)
	}
}

func (m *Manager) debugf(format string, args ...any) {
	if m.obs.Tracer.Enabled() {
		m.obs.Tracer.Instant("rules.debug", "debug", obs.Str("msg", fmt.Sprintf(format, args...)))
	}
}

// NewManager creates a rule manager in the given monitoring mode.
func NewManager(store *storage.Store, mode Mode) *Manager {
	m := &Manager{
		store:         store,
		prog:          objectlog.NewProgram(),
		mode:          mode,
		MaxRounds:     100,
		maintainer:    maint.New(maint.Config{}),
		rules:         map[string]*Rule{},
		activations:   map[string]*Activation{},
		sharedNames:   map[string]bool{},
		diffOpts:      diff.DefaultOptions(),
		netDirty:      true,
		staticPruning: true,
		analysisCache: map[string]analysisEntry{},
	}
	m.Resolve = defaultResolver
	m.RunActions = func(loop func() error) error { return loop() }
	m.SetObservability(obs.New())
	return m
}

func defaultResolver(cands []*Activation) *Activation {
	best := cands[0]
	for _, c := range cands[1:] {
		if c.Rule.Priority > best.Rule.Priority ||
			(c.Rule.Priority == best.Rule.Priority && c.Key < best.Key) {
			best = c
		}
	}
	return best
}

// Mode returns the monitoring mode.
func (m *Manager) Mode() Mode { return m.mode }

// SetMonitorDeletions controls whether negative partial differentials
// are generated and propagated. The default (true) gives exact
// net-change semantics: a condition that becomes true and then false
// again within one check phase is withdrawn. Disabling matches the
// configuration of the paper's §6 benchmark, which monitored
// insertions only ("often the rule condition depends only on positive
// changes", §4.4): half the differentials run, at the price that a
// trigger set in one round is not withdrawn by a later negative change
// in the same check phase. The network is rebuilt on change.
func (m *Manager) SetMonitorDeletions(on bool) {
	if m.diffOpts.Negative == on {
		return
	}
	m.diffOpts.Negative = on
	m.netDirty = true
}

// SetStaticPruning controls whether rebuilt networks run the
// whole-network Δ-effect analysis and drop provably zero-effect
// differentials from scheduling (default on). The network is rebuilt
// on change.
func (m *Manager) SetStaticPruning(on bool) {
	if m.staticPruning == on {
		return
	}
	m.staticPruning = on
	m.netDirty = true
}

// StaticPruning reports whether static differential pruning is enabled.
func (m *Manager) StaticPruning() bool { return m.staticPruning }

// SetCounting enables or disables counting maintenance: differenced
// views carry a per-derived-tuple derivation count, so a deletion
// decrements support and retracts the tuple only at count zero — no
// recomputation of the defining condition and no §7.2 verification on
// deletes. Counting needs both differencing signs; with deletion
// monitoring off it compiles but stays inactive. The network is rebuilt
// on change (counting differentials are compiled at Finalize).
func (m *Manager) SetCounting(on bool) {
	if m.Counting() == on {
		return
	}
	m.maintainer.SetCounting(on)
	m.netDirty = true
}

// Counting reports whether counting maintenance is enabled.
func (m *Manager) Counting() bool { return m.maintainer.Counting() }

// SetHybrid switches at runtime between the Hybrid monitor (on: each
// view, wave by wave, runs its partial differentials or is recomputed,
// whichever its Δ sizes predict is cheaper — §8) and the Incremental one
// (off: partial differencing only). Turning it off forgets the views'
// current strategies but not their observed costs. It has no effect on
// a Naive monitor, whose materialized truth sets the others do not keep.
func (m *Manager) SetHybrid(on bool) {
	if m.mode == Naive || m.Hybrid() == on {
		return
	}
	m.mode = Incremental
	if on {
		m.mode = Hybrid
	} else {
		m.maintainer.ResetStrategies()
	}
	if m.net != nil {
		m.net.SetHybrid(on)
	}
}

// Hybrid reports whether the monitor is the Hybrid one.
func (m *Manager) Hybrid() bool { return m.mode == Hybrid }

// Maintainer returns the maintenance subsystem.
func (m *Manager) Maintainer() *maint.Maintainer { return m.maintainer }

// HybridReport writes the maintenance subsystem's state — per-view
// strategies, count-store sizes, cost EWMAs and the journal of recent
// strategy switches (the shell's \hybrid report).
func (m *Manager) HybridReport(w io.Writer) error {
	return m.maintainer.WriteReport(w, m.Hybrid())
}

// StrategyOf labels a view's current maintenance strategy for the
// profiler report ("count", "incr", "recomp"; empty means the view has
// only ever run its partial differentials, unweighed).
func (m *Manager) StrategyOf(view string) string {
	return m.maintainer.StrategyLabel(view)
}

// DeclareCapability restricts the admitted change kinds of a base
// relation (enforced by the store) and rebuilds the network so the
// static analysis can prune differentials the restriction makes
// impossible.
func (m *Manager) DeclareCapability(rel string, cap storage.Capability) error {
	if err := m.store.DeclareCapability(rel, cap); err != nil {
		return err
	}
	m.netDirty = true
	return nil
}

// Program returns the derived-predicate program (shared with the AMOSQL
// compiler, which registers derived function definitions here).
func (m *Manager) Program() *objectlog.Program { return m.prog }

// SetLazyAnalysis controls whether definition-time static analysis is
// skipped (true restores the historical lazy path, where defects
// surface at activation or commit time).
func (m *Manager) SetLazyAnalysis(lazy bool) { m.lazyAnalysis = lazy }

// LazyAnalysis reports whether definition-time analysis is disabled.
func (m *Manager) LazyAnalysis() bool { return m.lazyAnalysis }

// SetAnalyzerOptions supplies extra context for definition-time
// analysis (typically analyze.WithCatalog from the embedding session).
func (m *Manager) SetAnalyzerOptions(opts ...analyze.Option) {
	m.analyzerOpts = opts
}

// Analyzer returns a static analyzer over the manager's program and
// the store's base relations, plus any options set with
// SetAnalyzerOptions.
func (m *Manager) Analyzer() *analyze.Analyzer {
	opts := []analyze.Option{analyze.WithRelations(func(name string) (int, bool) {
		rel, ok := m.store.Relation(name)
		if !ok {
			return 0, false
		}
		return rel.Arity(), true
	})}
	opts = append(opts, m.analyzerOpts...)
	return analyze.New(m.prog, opts...)
}

// analysisEntry is one memoized definition analysis.
type analysisEntry struct {
	canon     string // canonical rendering of the analyzed definition
	numParams int
	rule      bool
	rep       analyze.Report
}

// AnalyzeRuleDef analyzes a rule condition definition through the
// per-definition cache: an unchanged definition (same name, same
// canonical rendering, same parameter count) reuses the memoized
// report instead of re-running the analyzer.
func (m *Manager) AnalyzeRuleDef(def *objectlog.Def, numParams int) analyze.Report {
	return m.analyzeCached(def, numParams, true)
}

// AnalyzeViewDef analyzes a view definition through the per-definition
// cache.
func (m *Manager) AnalyzeViewDef(def *objectlog.Def) analyze.Report {
	return m.analyzeCached(def, 0, false)
}

func (m *Manager) analyzeCached(def *objectlog.Def, numParams int, rule bool) analyze.Report {
	canon := objectlog.CanonicalDef(def)
	if e, ok := m.analysisCache[def.Name]; ok &&
		e.canon == canon && e.numParams == numParams && e.rule == rule {
		return e.rep
	}
	m.analysisRuns++
	var rep analyze.Report
	if rule {
		rep = m.Analyzer().AnalyzeRule(def, numParams)
	} else {
		rep = m.Analyzer().AnalyzeDef(def)
	}
	m.analysisCache[def.Name] = analysisEntry{canon: canon, numParams: numParams, rule: rule, rep: rep}
	return rep
}

// AnalysisRuns returns how many definition analyses actually ran (cache
// misses) over the manager's lifetime.
func (m *Manager) AnalysisRuns() int64 { return m.analysisRuns }

// InvalidateAnalysis drops every memoized definition analysis. The
// embedding session calls this after schema changes (new types,
// functions, relations): a verdict like "unknown predicate" can flip
// when the context grows, so cached reports are only valid within one
// schema epoch.
func (m *Manager) InvalidateAnalysis() {
	m.analysisCache = map[string]analysisEntry{}
}

// AnalyzeNetwork runs the whole-network Δ-effect analysis (the OL3xx
// diagnostics) over every derived definition currently in the program,
// using the store's declared base-relation capabilities — the \lint
// view of what a rebuilt propagation network would prune. It is not
// cached: the verdicts depend on the whole program and the capability
// declarations, not on any single definition.
func (m *Manager) AnalyzeNetwork() *analyze.NetResult {
	var views []*objectlog.Def
	for _, name := range m.prog.Names() {
		if d, ok := m.prog.Def(name); ok {
			views = append(views, d)
		}
	}
	return m.Analyzer().AnalyzeNet(views, func(name string) analyze.Cap {
		return analyze.Cap(m.store.Capability(name))
	}, m.diffOpts)
}

// RuleNames returns the defined rule names, sorted.
func (m *Manager) RuleNames() []string {
	out := make([]string, 0, len(m.rules))
	for n := range m.rules {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// DefineRule registers a rule. The condition definition is validated
// and kept unexpanded; expansion happens per activation.
func (m *Manager) DefineRule(r *Rule) error {
	if r.Name == "" {
		return fmt.Errorf("rule must be named")
	}
	if _, ok := m.rules[r.Name]; ok {
		return fmt.Errorf("rule %q already exists", r.Name)
	}
	if r.CondDef == nil || len(r.CondDef.Clauses) == 0 {
		return fmt.Errorf("rule %q has no condition", r.Name)
	}
	if r.NumParams < 0 || r.NumParams > r.CondDef.Arity {
		return fmt.Errorf("rule %q: NumParams %d out of range for condition arity %d", r.Name, r.NumParams, r.CondDef.Arity)
	}
	if r.Action == nil {
		return fmt.Errorf("rule %q has no action", r.Name)
	}
	if !m.lazyAnalysis {
		if err := m.AnalyzeRuleDef(r.CondDef, r.NumParams).Err(); err != nil {
			return fmt.Errorf("rule %q: %w", r.Name, err)
		}
	}
	m.rules[r.Name] = r
	return nil
}

// Rule looks up a rule.
func (m *Manager) Rule(name string) (*Rule, bool) {
	r, ok := m.rules[name]
	return r, ok
}

// ShareView registers a derived view as a shared intermediate node
// (§7.1 node sharing): conditions referencing it are not expanded
// through it, and its changes are propagated once for all consumers.
func (m *Manager) ShareView(def *objectlog.Def) error {
	if m.sharedNames[def.Name] {
		return fmt.Errorf("view %q already shared", def.Name)
	}
	if m.lazyAnalysis {
		for _, c := range def.Clauses {
			if err := objectlog.CheckSafe(c); err != nil {
				return fmt.Errorf("view %s: %w", def.Name, err)
			}
		}
	} else if err := m.AnalyzeViewDef(def).Err(); err != nil {
		return fmt.Errorf("view %s: %w", def.Name, err)
	}
	m.sharedViews = append(m.sharedViews, def)
	m.sharedNames[def.Name] = true
	m.netDirty = true
	return nil
}

// Activate activates a rule for the given parameter values and returns
// the activation key.
func (m *Manager) Activate(ruleName string, args ...types.Value) (string, error) {
	r, ok := m.rules[ruleName]
	if !ok {
		return "", fmt.Errorf("rule %q does not exist", ruleName)
	}
	if len(args) != r.NumParams {
		return "", fmt.Errorf("rule %q takes %d parameters, got %d", ruleName, r.NumParams, len(args))
	}
	key := ActivationKey(ruleName, args)
	if _, ok := m.activations[key]; ok {
		return "", fmt.Errorf("rule %q already activated for %v", ruleName, args)
	}
	m.condSeq++
	condName := fmt.Sprintf("cnd_%s#%d", ruleName, m.condSeq)
	def, err := m.specialize(r, condName, args)
	if err != nil {
		return "", err
	}
	a := &Activation{
		Key:      key,
		Rule:     r,
		Args:     args,
		CondName: condName,
		Def:      def,
		trigger:  delta.New(),
	}
	m.setActivation(a)
	if err := m.ensureNet(); err != nil {
		m.dropActivation(key)
		return "", err
	}
	if m.mode == Naive {
		ext, err := m.net.Evaluator().EvalPred(condName, false)
		if err != nil {
			m.dropActivation(key)
			return "", err
		}
		a.prevTrue = ext
	}
	m.met.Activations.Inc()
	return key, nil
}

// ActivationKey renders the canonical activation key for a rule and
// its parameter values, e.g. "watch(2)".
func ActivationKey(rule string, args []types.Value) string {
	if len(args) == 0 {
		return rule
	}
	parts := make([]string, len(args))
	for i, v := range args {
		parts[i] = v.String()
	}
	return rule + "(" + strings.Join(parts, ",") + ")"
}

// Deactivate removes a rule activation by key (as returned by Activate)
// or by bare rule name for parameterless activations.
func (m *Manager) Deactivate(key string) error {
	if _, ok := m.activations[key]; !ok {
		return fmt.Errorf("no activation %q", key)
	}
	m.dropActivation(key)
	return m.ensureNet()
}

// Activations returns the activation keys, sorted.
func (m *Manager) Activations() []string {
	out := make([]string, 0, len(m.activations))
	for k := range m.activations {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// specialize binds the rule parameters in the condition definition
// (substituting the activation arguments as constants, but keeping the
// parameter positions in the head so action instances carry them),
// renames the head to condName, and expands derived functions (stopping
// at shared views).
func (m *Manager) specialize(r *Rule, condName string, args []types.Value) (*objectlog.Def, error) {
	arity := r.CondDef.Arity
	var clauses []objectlog.Clause
	counter := 0
	for _, c := range r.CondDef.Clauses {
		cc := c.RenameApart(&counter)
		sub := map[string]objectlog.Term{}
		var extra []objectlog.Literal
		newHead := objectlog.Literal{Pred: condName}
		for i, ha := range cc.Head.Args {
			if i < r.NumParams {
				av := objectlog.C(args[i])
				if ha.IsVar {
					if prev, ok := sub[ha.Var]; ok {
						extra = append(extra, objectlog.Lit(objectlog.BuiltinEQ, prev, av))
					} else {
						sub[ha.Var] = av
					}
				} else if !ha.Const.Equal(args[i]) {
					// Statically false disjunct for these parameters.
					goto skip
				}
				newHead.Args = append(newHead.Args, av)
				continue
			}
			newHead.Args = append(newHead.Args, ha)
		}
		{
			body := make([]objectlog.Literal, 0, len(cc.Body)+len(extra))
			for _, l := range cc.Body {
				body = append(body, l.Substitute(sub))
			}
			body = append(body, extra...)
			nc := objectlog.Clause{Head: newHead.Substitute(sub), Body: body}
			expanded, err := objectlog.Expand(nc, m.prog, m.sharedNames)
			if err != nil {
				return nil, fmt.Errorf("rule %s: %w", r.Name, err)
			}
			// Static simplification: folds the eq-literals expansion
			// introduces and prunes statically empty disjuncts.
			for _, ec := range expanded {
				if sc, ok := objectlog.Simplify(ec); ok {
					clauses = append(clauses, sc)
				}
			}
		}
	skip:
	}
	if len(clauses) == 0 {
		return nil, fmt.Errorf("rule %s: condition is statically empty for arguments %v", r.Name, args)
	}
	def := &objectlog.Def{Name: condName, Arity: arity, Clauses: clauses}
	for _, c := range def.Clauses {
		if err := objectlog.CheckSafe(c); err != nil {
			return nil, fmt.Errorf("rule %s: %w", r.Name, err)
		}
	}
	return def, nil
}

// ensureNet (re)builds the propagation network, migrating any base
// Δ-sets accumulated in the old network.
func (m *Manager) ensureNet() error {
	if !m.netDirty && m.net != nil {
		return nil
	}
	old := m.net
	net := propnet.New(m.store, m.prog, m.diffOpts)
	net.SetStaticPruning(m.staticPruning)
	net.SetInjector(m.inj)
	net.SetObs(m.netMet, m.obs.Tracer)
	net.SetProfiler(m.obs.Profiler)
	net.SetBus(m.obs.Bus)
	net.SetRecorder(m.obs.Flight)
	net.SetMaintainer(m.maintainer)
	net.SetHybrid(m.mode == Hybrid)
	net.Evaluator().SetMetrics(m.evalMet)
	net.Evaluator().SetStats(m.stats)
	for _, sv := range m.sharedViews {
		if m.sharedViewUsed(sv.Name) {
			if err := net.AddView(sv, false); err != nil {
				return err
			}
		}
	}
	for _, a := range m.sortedActivations() {
		if err := net.AddView(a.Def, true); err != nil {
			return err
		}
	}
	if err := net.Finalize(); err != nil {
		return err
	}
	if old != nil {
		for _, pred := range old.ChangedBase() {
			if d := net.BaseDelta(pred); d != nil {
				d.UnionInto(old.BaseDelta(pred))
			}
		}
		net.AdoptCounters(old)
	}
	m.net = net
	m.netDirty = false
	// Fold in events that arrived while the network was dirty (OnEvent
	// cannot rebuild under the store lock, so it buffers them instead).
	for _, e := range m.pending {
		m.fold(e)
	}
	m.pending = m.pending[:0]
	return nil
}

// sharedViewUsed reports whether any activation references the shared
// view (directly or through other shared views).
func (m *Manager) sharedViewUsed(name string) bool {
	var refs func(def *objectlog.Def, seen map[string]bool) bool
	refs = func(def *objectlog.Def, seen map[string]bool) bool {
		for _, infl := range def.Influents() {
			if infl == name {
				return true
			}
			if seen[infl] {
				continue
			}
			seen[infl] = true
			if d, ok := m.prog.Def(infl); ok && m.sharedNames[infl] {
				if refs(d, seen) {
					return true
				}
			}
		}
		return false
	}
	for _, a := range m.activations {
		if refs(a.Def, map[string]bool{}) {
			return true
		}
	}
	return false
}

// setActivation adds a to the activation set; the network must be
// rebuilt to monitor its condition.
func (m *Manager) setActivation(a *Activation) {
	m.activations[a.Key] = a
	m.sorted = nil
	m.netDirty = true
}

// dropActivation removes the activation with the given key.
func (m *Manager) dropActivation(key string) {
	delete(m.activations, key)
	m.sorted = nil
	m.netDirty = true
}

// sortedActivations returns the activations in key order. The slice is
// shared between calls and never modified: a change to the activation
// set makes the next call build a new one, so a caller that activates
// or deactivates while ranging over it (a rule action may) keeps a
// consistent view.
func (m *Manager) sortedActivations() []*Activation {
	if m.sorted == nil && len(m.activations) > 0 {
		out := make([]*Activation, 0, len(m.activations))
		for _, a := range m.activations {
			out = append(out, a)
		}
		sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
		m.sorted = out
	}
	return m.sorted
}

// OnEvent folds a physical update event into the network's base Δ-sets.
// It never rebuilds the network: it is called with the store's write
// lock held, and a rebuild runs the Δ-effect analysis, which reads
// store capabilities — a self-deadlock. While the network is dirty (a
// runtime toggle such as SetCounting/SetStaticPruning, a
// capability declaration, or a late shared-view definition), events are
// buffered and folded in by the next safe rebuild.
func (m *Manager) OnEvent(e storage.Event) {
	if len(m.activations) == 0 {
		return
	}
	if m.netDirty || m.net == nil {
		m.pending = append(m.pending, e)
		return
	}
	m.fold(e)
}

// fold applies one physical event to the live network's base Δ-sets.
// Relations that influence no activated rule have no Δ-set, so
// unmonitored updates carry no overhead (§1).
func (m *Manager) fold(e storage.Event) {
	d := m.net.BaseDelta(e.Relation)
	if d == nil {
		return
	}
	if e.Kind == storage.InsertEvent {
		d.Insert(e.Tuple)
	} else {
		d.Delete(e.Tuple)
	}
}

// OnEnd discards all monitor state at transaction end. The maintenance
// subsystem closes its undo journal first: on abort every derivation
// count, reseed and dirty flag touched this transaction is restored to
// its pre-transaction value.
func (m *Manager) OnEnd(committed bool) {
	m.maintainer.OnEnd(committed)
	m.pending = m.pending[:0]
	if m.net == nil {
		return
	}
	m.net.ClearBase()
	for _, a := range m.activations {
		a.trigger.Clear()
	}
}

// Resync brings the monitor state that outlives a transaction back in
// line with the store after the changed relations were written outside
// every monitor (recovery's reconciliation of logged action events):
// counted views they feed reseed before their next use, and the naive
// monitor recomputes the previous truth sets of the conditions they
// influence. Partial differencing keeps no such state, so with counting
// off the incremental and hybrid monitors have nothing to do. Call it
// outside a transaction.
func (m *Manager) Resync(changed []string) error {
	if m.net == nil {
		return nil
	}
	if m.maintainer.Counting() {
		m.net.MarkStale(changed)
		m.maintainer.OnEnd(true) // no transaction will close the journal
	}
	if m.mode != Naive {
		return nil
	}
	in := map[string]bool{}
	for _, rel := range changed {
		in[rel] = true
	}
	for _, a := range m.sortedActivations() {
		if !m.affectedBy(a, in) {
			continue
		}
		ext, err := m.net.Evaluator().EvalPred(a.CondName, false)
		if err != nil {
			return err
		}
		a.prevTrue = ext
	}
	return nil
}

// CheckInvariants verifies monitor-level invariants: the propagation
// network's structure and, with quiescent set (no transaction active),
// that no base Δ-set, wave-front Δ-set or pending trigger set survived
// the last check phase — leftovers would surface as phantom changes in
// the next transaction.
func (m *Manager) CheckInvariants(quiescent bool) error {
	if m.net == nil {
		return nil
	}
	if err := m.net.CheckInvariants(quiescent); err != nil {
		return err
	}
	if quiescent {
		for _, a := range m.sortedActivations() {
			if !a.trigger.IsEmpty() {
				return fmt.Errorf("activation %s holds a pending trigger set outside the check phase: %s", a.Key, a.trigger)
			}
		}
		if len(m.pending) > 0 {
			return fmt.Errorf("%d buffered event(s) survived transaction end", len(m.pending))
		}
	}
	return nil
}

// Stats returns cumulative monitor statistics. It is a compatibility
// view computed from the atomic metrics registry, so it is safe to call
// from another goroutine while a check phase runs (each field is an
// atomic load; the struct as a whole is a consistent-enough snapshot
// for monitoring, not a linearizable one).
func (m *Manager) Stats() Stats {
	return Stats{
		Propagations:          int(m.met.Propagations.Value()),
		DifferentialsExecuted: int(m.met.Differentials.Value()),
		NaiveRecomputations:   int(m.met.NaiveRecomputations.Value()),
		TriggeredInstances:    int(m.met.Triggered.Value()),
		ActionsExecuted:       int(m.met.Actions.Value()),
		CheckRounds:           int(m.met.CheckRounds.Value()),
	}
}

// ResetStats zeroes the statistics counters (the benchmark harness
// isolates measurements with this).
func (m *Manager) ResetStats() {
	m.met.Propagations.Reset()
	m.met.Differentials.Reset()
	m.met.NaiveRecomputations.Reset()
	m.met.Triggered.Reset()
	m.met.Actions.Reset()
	m.met.CheckRounds.Reset()
}

// LastExplanations returns the explanations recorded during the most
// recent check phase.
func (m *Manager) LastExplanations() []Explanation { return m.explanations }

// Network returns the live propagation network (for inspection and
// tests). It may be nil before the first activation.
func (m *Manager) Network() *propnet.Network {
	m.ensureNet()
	return m.net
}

// ActivationInfo describes one activation for inspection (the explain
// statement).
type ActivationInfo struct {
	Key      string
	CondName string
	// Def is the specialized, expanded condition definition.
	Def *objectlog.Def
	// Differentials are the partial differentials the network executes
	// for this condition (empty for aggregate/recursive conditions,
	// which are re-evaluated).
	Differentials []diff.Differential
}

// ActivationsOf returns inspection records for every activation of the
// named rule, sorted by key.
func (m *Manager) ActivationsOf(rule string) []ActivationInfo {
	var out []ActivationInfo
	for _, a := range m.sortedActivations() {
		if a.Rule.Name != rule {
			continue
		}
		info := ActivationInfo{Key: a.Key, CondName: a.CondName, Def: a.Def}
		if ds, err := diff.Generate(a.Def, m.diffOpts); err == nil {
			info.Differentials = ds
		}
		out = append(out, info)
	}
	return out
}
