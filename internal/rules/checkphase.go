package rules

import (
	"fmt"
	"time"

	"partdiff/internal/delta"
	"partdiff/internal/faultinject"
	"partdiff/internal/objectlog"
	"partdiff/internal/obs"
	"partdiff/internal/propnet"
	"partdiff/internal/types"
)

// CheckPhase runs the deferred rule processing at commit time:
//
//	loop:
//	  1. if base relations changed, derive each activated condition's
//	     net Δ (through the propagation network, or naively) and fold it
//	     into the activation's pending trigger set with ∪Δ;
//	  2. choose ONE triggered rule through conflict resolution;
//	  3. execute its action set-oriented, once per net-true instance —
//	     action updates accumulate new base Δs;
//	  4. repeat until no rule is triggered and no changes are pending.
//
// Change propagation is performed only when changes affecting activated
// rules have occurred, so transactions that touch no influent pay
// nothing.
//
// CheckPhase is crash-safe: a panic anywhere inside it (a foreign
// procedure, an evaluator bug, an injected fault) is recovered and
// converted to an error, so it flows through the transaction manager's
// normal rollback path instead of unwinding through Commit with the
// transaction half-finished.
func (m *Manager) CheckPhase() (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("check phase panicked: %v", r)
		}
	}()
	return m.checkPhase()
}

// checkDeadline returns the absolute wall-clock deadline of the check
// phase starting now, or the zero time when unbudgeted.
func (m *Manager) checkDeadline() time.Time {
	if m.CheckBudget <= 0 {
		return time.Time{}
	}
	return time.Now().Add(m.CheckBudget)
}

// overBudget reports whether the check phase has exhausted its
// wall-clock budget or its context.
func (m *Manager) overBudget(deadline time.Time) error {
	if !deadline.IsZero() && time.Now().After(deadline) {
		err := fmt.Errorf("check phase exceeded budget %v (non-terminating cascade?)", m.CheckBudget)
		m.obs.Flight.Trigger(obs.TrigCheckBudget, err.Error())
		return err
	}
	if m.CheckContext != nil {
		if err := m.CheckContext.Err(); err != nil {
			return fmt.Errorf("check phase canceled: %w", err)
		}
	}
	return nil
}

func (m *Manager) checkPhase() error {
	if len(m.activations) == 0 {
		return nil
	}
	if err := m.ensureNet(); err != nil {
		return err
	}
	deadline := m.checkDeadline()
	m.explanations = m.explanations[:0]
	for round := 1; ; round++ {
		if round > m.MaxRounds {
			err := fmt.Errorf("rule cascade exceeded %d rounds (non-terminating rule set?)", m.MaxRounds)
			m.obs.Flight.Trigger(obs.TrigCheckBudget, err.Error())
			return err
		}
		if err := m.overBudget(deadline); err != nil {
			return err
		}
		if m.net.HasChanges() {
			m.met.CheckRounds.Inc()
			rsp := m.obs.Tracer.Begin("rules", "check_round", obs.Int("round", round))
			if m.tracing() {
				m.debugf("check round %d: changed base relations %v", round, m.net.ChangedBase())
			}
			if err := m.deriveTriggers(round); err != nil {
				rsp.End(obs.Str("error", err.Error()))
				return err
			}
			if m.tracing() {
				for _, te := range m.net.Trace() {
					m.debugf("  %s produced %d tuple(s)", te.Differential, te.Produced)
				}
				for _, a := range m.sortedActivations() {
					if !a.trigger.IsEmpty() {
						m.debugf("  pending %s: %s", a.Key, a.trigger)
					}
				}
			}
			m.net.ClearBase()
			rsp.End()
		}
		// Conflict resolution: choose one triggered rule.
		var cands []*Activation
		for _, a := range m.sortedActivations() {
			if a.trigger.Plus().Len() > 0 {
				cands = append(cands, a)
			}
		}
		if len(cands) == 0 {
			if m.net.HasChanges() {
				continue // action updates arrived while executing; propagate them
			}
			return nil
		}
		chosen := m.Resolve(cands)
		instances := chosen.trigger.Plus().Tuples()
		chosen.trigger.Clear()
		m.met.Triggered.Add(int64(len(instances)))
		m.met.RuleTriggered.With(chosen.Rule.Name).Add(int64(len(instances)))
		m.obs.Tracer.Instant("rules", "triggered",
			obs.Str("rule", chosen.Rule.Name),
			obs.Str("activation", chosen.Key),
			obs.Int("round", round),
			obs.Int("instances", len(instances)))
		if m.obs.Bus.Active() {
			m.stageFiring(chosen, round, instances)
		}
		if m.tracing() {
			names := make([]string, len(cands))
			for i, c := range cands {
				names[i] = c.Key
			}
			m.debugf("round %d: conflict resolution among %v chose %s; executing %d instance(s)",
				round, names, chosen.Key, len(instances))
		}
		// Set-oriented action execution over the net changes.
		err := m.RunActions(func() error { return m.runActions(chosen.Rule, instances, deadline) })
		if err != nil {
			return err
		}
	}
}

// runActions executes r's action once per instance, in order.
func (m *Manager) runActions(r *Rule, instances []types.Tuple, deadline time.Time) error {
	for _, inst := range instances {
		m.debugf("  action %s%s", r.Name, inst)
		if err := m.overBudget(deadline); err != nil {
			return err
		}
		if err := m.runAction(r, inst); err != nil {
			return err
		}
		m.met.Actions.Inc()
	}
	return nil
}

// maxEventInstances bounds the condition bindings carried on one
// firing event: a set-oriented firing over a huge extent must not
// inflate the bus (the count survives in the activation's metrics).
const maxEventInstances = 64

// stageFiring stages one rule-firing event on the bus: rule +
// activation, check round, the condition bindings it fires for, and
// the triggering differentials recorded for the activation so far in
// this check phase. Staged events publish only after the commit point;
// a rollback discards them.
func (m *Manager) stageFiring(a *Activation, round int, instances []types.Tuple) {
	ev := obs.Event{
		Type:       obs.EventRuleFiring,
		Rule:       a.Rule.Name,
		Activation: a.Key,
		Round:      round,
	}
	for i, inst := range instances {
		if i == maxEventInstances {
			ev.Detail = fmt.Sprintf("instances truncated to %d of %d", maxEventInstances, len(instances))
			break
		}
		ev.Instances = append(ev.Instances, inst.String())
	}
	for _, x := range m.explanations {
		if x.Activation == a.Key {
			for _, te := range x.Entries {
				ev.Deltas = append(ev.Deltas, obs.DeltaEntry{Relation: te.Differential, Plus: te.Produced})
			}
		}
	}
	m.obs.Bus.Stage(ev)
}

// runAction dispatches one action instance with panic containment: a
// panicking foreign procedure becomes an error that rolls the
// transaction back, it never unwinds through the check phase.
func (m *Manager) runAction(r *Rule, inst types.Tuple) (err error) {
	var sp *obs.Span
	if m.tracing() {
		sp = m.obs.Tracer.Begin("rules", "action "+r.Name, obs.Str("instance", inst.String()))
	}
	defer func() {
		if rec := recover(); rec != nil {
			err = fmt.Errorf("rule %s action on %s panicked: %v", r.Name, inst, rec)
		}
		sp.End()
	}()
	if err := m.inj.Fire(faultinject.RuleAction); err != nil {
		return fmt.Errorf("rule %s action on %s: %w", r.Name, inst, err)
	}
	if err := r.Action(inst); err != nil {
		return fmt.Errorf("rule %s action on %s: %w", r.Name, inst, err)
	}
	return nil
}

// deriveTriggers computes each activated condition's Δ for the current
// window of base changes and folds it into the pending trigger sets.
func (m *Manager) deriveTriggers(round int) error {
	if m.mode == Naive {
		return m.deriveNaive()
	}
	return m.deriveIncremental(round)
}

// deriveIncremental propagates through the network — the Incremental
// and the Hybrid monitor alike: which views of a wave are differentiated
// and which recomputed is the network's decision (propnet.SetHybrid).
func (m *Manager) deriveIncremental(round int) error {
	changed := map[string]bool{}
	for _, pred := range m.net.ChangedBase() {
		changed[pred] = true
	}
	deltas, err := m.net.Propagate()
	if err != nil {
		return err
	}
	m.met.Propagations.Inc()
	m.met.Differentials.Add(int64(m.net.Executed()))
	m.met.NaiveRecomputations.Add(int64(m.net.Recomputed()))
	trace := m.net.Trace()
	for _, a := range m.sortedActivations() {
		d := deltas[a.CondName]
		if d.IsEmpty() {
			continue
		}
		if !a.Rule.eventMatches(changed) {
			// ECA rule: no matching event this round — the condition is
			// not tested, its changes are dropped.
			continue
		}
		if a.Rule.Strict {
			if err := m.strictFilter(a, d); err != nil {
				return err
			}
		}
		if d.IsEmpty() {
			continue
		}
		m.recordExplanation(a, round, d, trace)
		a.trigger.UnionInto(d)
	}
	return nil
}

// strictFilter drops claimed insertions whose instances were already
// true in the old state (the condition did not transition false→true).
// The old state is probed by logical rollback — the condition is never
// materialized (§7.2).
func (m *Manager) strictFilter(a *Activation, d *delta.Set) error {
	ev := m.net.Evaluator()
	var drop []types.Tuple
	var evalErr error
	d.Plus().Each(func(t types.Tuple) bool {
		held, err := ev.Derivable(a.CondName, t, true)
		if err != nil {
			evalErr = err
			return false
		}
		if held {
			drop = append(drop, t)
		}
		return true
	})
	if evalErr != nil {
		return evalErr
	}
	for _, t := range drop {
		d.Plus().Remove(t)
	}
	return nil
}

func (m *Manager) recordExplanation(a *Activation, round int, d *delta.Set, trace []propnet.TraceEntry) {
	if d.Plus().Len() == 0 {
		return
	}
	var entries []propnet.TraceEntry
	for _, e := range trace {
		if e.View == a.CondName && e.Produced > 0 {
			entries = append(entries, e)
		}
	}
	m.explanations = append(m.explanations, Explanation{
		Rule:       a.Rule.Name,
		Activation: a.Key,
		Round:      round,
		Instances:  d.Plus().Tuples(),
		Entries:    entries,
	})
}

// deriveNaive recomputes every affected condition completely and diffs
// it against the materialized previous truth set — the §6 baseline.
func (m *Manager) deriveNaive() error {
	changed := map[string]bool{}
	for _, pred := range m.net.ChangedBase() {
		changed[pred] = true
	}
	ev := m.net.Evaluator()
	for _, a := range m.sortedActivations() {
		if !m.affectedBy(a, changed) {
			continue
		}
		newTrue, err := ev.EvalPred(a.CondName, false)
		if err != nil {
			return err
		}
		m.met.NaiveRecomputations.Inc()
		d := delta.Diff(a.prevTrue, newTrue)
		a.prevTrue = newTrue
		if d.IsEmpty() {
			continue
		}
		if !a.Rule.eventMatches(changed) {
			// ECA rule without a matching event: the truth set was
			// refreshed but the changes are not acted upon (keeps the
			// naive monitor equivalent to the incremental one).
			continue
		}
		a.trigger.UnionInto(d)
		m.explanations = append(m.explanations, Explanation{
			Rule:       a.Rule.Name,
			Activation: a.Key,
			Instances:  d.Plus().Tuples(),
		})
	}
	return nil
}

// affectedBy reports whether any changed base relation (transitively)
// influences the activation's condition.
func (m *Manager) affectedBy(a *Activation, changed map[string]bool) bool {
	var visit func(def *objectlog.Def, seen map[string]bool) bool
	visit = func(def *objectlog.Def, seen map[string]bool) bool {
		for _, infl := range def.Influents() {
			if changed[infl] {
				return true
			}
			if seen[infl] {
				continue
			}
			seen[infl] = true
			if d, ok := m.prog.Def(infl); ok {
				if visit(d, seen) {
					return true
				}
			}
		}
		return false
	}
	return visit(a.Def, map[string]bool{})
}
