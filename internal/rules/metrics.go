package rules

import (
	"partdiff/internal/delta"
	"partdiff/internal/eval"
	"partdiff/internal/maint"
	"partdiff/internal/obs"
	"partdiff/internal/propnet"
)

// Metrics is the rule manager's meter set, the registry-backed source
// of truth behind the Stats compatibility view. The zero value is a
// valid disabled meter set, but a Manager always carries registered
// meters (NewManager creates a private registry when the embedding
// session does not supply one) so Stats() keeps working.
type Metrics struct {
	Propagations        *obs.Counter
	Differentials       *obs.Counter
	NaiveRecomputations *obs.Counter
	Triggered           *obs.Counter
	Actions             *obs.Counter
	CheckRounds         *obs.Counter
	// Activations counts Activate calls over the manager's lifetime.
	Activations *obs.Counter
	// RuleTriggered breaks triggered instances down per rule.
	RuleTriggered *obs.CounterVec
}

// NewMetrics registers the rule-monitor meters in r.
func NewMetrics(r *obs.Registry) *Metrics {
	return &Metrics{
		Propagations:        r.Counter("partdiff_rules_propagations_total", "Propagation-network runs performed by the monitor."),
		Differentials:       r.Counter("partdiff_rules_differentials_total", "Partial differentials executed on behalf of rule conditions."),
		NaiveRecomputations: r.Counter("partdiff_rules_naive_recomputations_total", "Full condition recomputations (naive and hybrid fallback)."),
		Triggered:           r.Counter("partdiff_rules_triggered_instances_total", "Net-new condition instances handed to actions."),
		Actions:             r.Counter("partdiff_rules_actions_total", "Rule action executions."),
		CheckRounds:         r.Counter("partdiff_rules_check_rounds_total", "Check-phase rounds that processed base changes."),
		Activations:         r.Counter("partdiff_rules_activations_total", "Rule activations performed."),
		RuleTriggered:       r.CounterVec("partdiff_rules_rule_triggered_total", "Triggered instances per rule.", "rule"),
	}
}

// SetObservability installs the registry + tracer bundle the manager
// (and the subsystems it owns: propagation networks and their
// evaluators) report into. Called by the embedding session with its
// bundle; NewManager installs a private bundle so a standalone manager
// is observable too. Metrics are registry-backed with get-or-create
// semantics, so the frequent network rebuilds (ensureNet) keep
// accumulating into the same meters.
func (m *Manager) SetObservability(o *obs.Observability) {
	if o == nil {
		o = obs.New()
	}
	m.obs = o
	m.met = NewMetrics(o.Registry)
	m.netMet = propnet.NewMetrics(o.Registry)
	m.evalMet = eval.NewMetrics(o.Registry)
	delta.RegisterMetrics(o.Registry)
	m.maintainer.SetMetrics(maint.NewMetrics(o.Registry))
	m.maintainer.SetBus(o.Bus)
	m.maintainer.SetRecorder(o.Flight)
	if m.net != nil {
		m.net.SetObs(m.netMet, o.Tracer)
		m.net.SetProfiler(o.Profiler)
		m.net.Evaluator().SetMetrics(m.evalMet)
	}
	// Re-attach the debug writer's text sink to the new tracer.
	if m.debug != nil {
		w := m.debug
		m.SetDebug(nil)
		m.SetDebug(w)
	}
}

// Observability returns the manager's registry + tracer bundle.
func (m *Manager) Observability() *obs.Observability { return m.obs }

// tracing reports whether structured tracing is live (some sink is
// attached — a debug writer, a Chrome exporter, or both).
func (m *Manager) tracing() bool { return m.obs.Tracer.Enabled() }
