// Package diff implements the partial differencing compiler — the
// primary contribution of the paper (§4.3–§4.5). Given the definition of
// a derived relation P, it generates one partial differential per
// (disjunct, influent occurrence, sign):
//
//	ΔP/Δ+X — the insertions into P caused by insertions into X, obtained
//	         by substituting the occurrence of X by Δ+X; all other
//	         literals are evaluated in the NEW database state.
//
//	ΔP/Δ−X — the deletions from P caused by deletions from X, obtained by
//	         substituting the occurrence by Δ−X; all other literals are
//	         evaluated in the OLD state (logical rollback, fig. 3),
//	         because deleted tuples joined with the state in which they
//	         were present.
//
// A negated occurrence ¬X crosses signs (Δ(~X) = <Δ−X, Δ+X>, §4.5):
// deletions from X insert into P (evaluated against the new state of the
// other literals), and insertions into X delete from P (other literals
// old).
package diff

import (
	"fmt"
	"sort"

	"partdiff/internal/objectlog"
)

// Differential is one compiled partial differential of a view.
type Differential struct {
	// View is the affected predicate P.
	View string
	// Influent is the predicate X whose change triggers this
	// differential.
	Influent string
	// TriggerSign selects which side of ΔX feeds the differential
	// (DeltaPlus or DeltaMinus).
	TriggerSign objectlog.DeltaKind
	// EffectSign is the side of ΔP this differential contributes to.
	// It differs from TriggerSign exactly when the influent occurrence
	// is negated.
	EffectSign objectlog.DeltaKind
	// Clause is the executable differential query. Its head produces P
	// tuples; its body contains exactly one Δ-annotated literal.
	Clause objectlog.Clause
	// Disjunct and Occurrence identify which clause of the view's
	// definition and which body literal this differential was derived
	// from (for explainability, §1).
	Disjunct   int
	Occurrence int
	// Counting marks a triangle-form differential produced by
	// GenerateCounting: evaluated under bag semantics its results are
	// exact signed derivation-count deltas, not an over-approximation.
	Counting bool
}

// Name renders the paper's notation, e.g.
// "Δcnd_monitor_items/Δ+quantity". Counting differentials carry a "#"
// marker so profiler entries never collide with the standard form.
func (d Differential) Name() string {
	if d.Counting {
		return fmt.Sprintf("Δ#%s/%s%s", d.View, d.TriggerSign, d.Influent)
	}
	return fmt.Sprintf("Δ%s/%s%s", d.View, d.TriggerSign, d.Influent)
}

// Key identifies a differential within a compiled program. Generate
// emits at most one differential per (view, disjunct, occurrence,
// trigger sign), so the key is unique and stable across regeneration —
// the static analyzer records its prune verdicts against it and the
// propagation network looks them up when scheduling.
type Key struct {
	View       string
	Disjunct   int
	Occurrence int
	Trigger    objectlog.DeltaKind
}

// Key returns the differential's identity key.
func (d Differential) Key() Key {
	return Key{View: d.View, Disjunct: d.Disjunct, Occurrence: d.Occurrence, Trigger: d.TriggerSign}
}

// String renders the key compactly, e.g. "cnd_r#0.2/Δ+".
func (k Key) String() string {
	return fmt.Sprintf("%s#%d.%d/%s", k.View, k.Disjunct, k.Occurrence, k.Trigger)
}

// String renders the differential with its clause.
func (d Differential) String() string {
	return fmt.Sprintf("%s: %s", d.Name(), d.Clause)
}

// Plan classifies how a view can be monitored by the propagation
// network.
type Plan int

// The monitoring plans.
const (
	// Differenced views get one partial differential per (disjunct,
	// influent occurrence, sign) — the paper's incremental scheme.
	Differenced Plan = iota
	// ReevalAggregate views are aggregate views, re-evaluated old vs
	// new state on any influent change.
	ReevalAggregate
	// ReevalRecursive views are members of a recursive component,
	// recomputed by fixpoint when an influent outside the component
	// changes.
	ReevalRecursive
)

// String names the plan.
func (p Plan) String() string {
	switch p {
	case ReevalAggregate:
		return "reeval-aggregate"
	case ReevalRecursive:
		return "reeval-recursive"
	default:
		return "differenced"
	}
}

// Classify determines how def can be monitored within prog, before any
// differentials are generated. It is the single applicability gate
// shared by the propagation network and the static analyzer: a
// definition with Δ- or old-annotated literals cannot enter the
// network at all (error), aggregate and recursive definitions fall
// back to re-evaluation, and everything else is differenced.
func Classify(def *objectlog.Def, prog *objectlog.Program) (Plan, error) {
	for _, c := range def.Clauses {
		for _, l := range c.Body {
			if l.Delta != objectlog.DeltaNone || l.Old {
				return 0, fmt.Errorf("[%s] definition of %s contains annotated literal %s; differentials must be generated from plain clauses", objectlog.CodeAnnotatedLiteral, def.Name, l)
			}
		}
	}
	if def.Aggregate != "" {
		return ReevalAggregate, nil
	}
	if prog != nil && prog.IsRecursive(def.Name) {
		return ReevalRecursive, nil
	}
	return Differenced, nil
}

// Options control differential generation.
type Options struct {
	// Positive generates insertion-monitoring differentials.
	Positive bool
	// Negative generates deletion-monitoring differentials. Conditions
	// that are insertion-monotone (no negation, and no rule semantics
	// requiring deletions) can skip these (§4.4: "often the rule
	// condition depends only on positive changes").
	Negative bool
}

// DefaultOptions monitors both signs.
func DefaultOptions() Options { return Options{Positive: true, Negative: true} }

// Generate compiles the partial differentials of a derived predicate
// definition. The definition's clauses must be fully normalized
// conjunctions (use objectlog.Expand first); literals that are already
// delta- or old-annotated are rejected.
func Generate(def *objectlog.Def, opts Options) ([]Differential, error) {
	if def.Aggregate != "" {
		return nil, fmt.Errorf("definition of %s is an aggregate view; aggregates are monitored by re-evaluation, not partial differentials", def.Name)
	}
	var out []Differential
	for ci, c := range def.Clauses {
		if err := objectlog.CheckSafe(c); err != nil {
			return nil, fmt.Errorf("definition of %s: %w", def.Name, err)
		}
		for li, l := range c.Body {
			if objectlog.IsBuiltin(l.Pred) {
				continue
			}
			if l.Delta != objectlog.DeltaNone || l.Old {
				return nil, fmt.Errorf("[%s] definition of %s contains annotated literal %s; differentials must be generated from plain clauses", objectlog.CodeAnnotatedLiteral, def.Name, l)
			}
			if !l.Negated {
				if opts.Positive {
					out = append(out, makeDifferential(def.Name, c, ci, li,
						objectlog.DeltaPlus, objectlog.DeltaPlus, false))
				}
				if opts.Negative {
					out = append(out, makeDifferential(def.Name, c, ci, li,
						objectlog.DeltaMinus, objectlog.DeltaMinus, true))
				}
			} else {
				// Sign crossing for negated occurrences.
				if opts.Positive {
					// P gains when X loses; others new.
					out = append(out, makeDifferential(def.Name, c, ci, li,
						objectlog.DeltaMinus, objectlog.DeltaPlus, false))
				}
				if opts.Negative {
					// P loses when X gains; others old.
					out = append(out, makeDifferential(def.Name, c, ci, li,
						objectlog.DeltaPlus, objectlog.DeltaMinus, true))
				}
			}
		}
	}
	return out, nil
}

// makeDifferential builds one differential: occurrence idx of the clause
// body is replaced by a positive Δ-literal; when othersOld, every other
// state-bearing literal is marked old.
func makeDifferential(view string, c objectlog.Clause, disjunct, idx int,
	trigger, effect objectlog.DeltaKind, othersOld bool) Differential {

	cc := c.Clone()
	occ := cc.Body[idx]
	occ.Negated = false // Δ-sets are consulted positively
	occ.Delta = trigger
	occ.Old = false
	cc.Body[idx] = occ
	if othersOld {
		for i := range cc.Body {
			if i == idx {
				continue
			}
			cc.Body[i] = cc.Body[i].WithOld()
		}
	}
	return Differential{
		View:        view,
		Influent:    c.Body[idx].Pred,
		TriggerSign: trigger,
		EffectSign:  effect,
		Clause:      cc,
		Disjunct:    disjunct,
		Occurrence:  idx,
	}
}

// GenerateCounting compiles the triangle-form (exact) differentials of
// a derived predicate definition, used by counting maintenance. Where
// Generate evaluates the non-occurrence literals uniformly (all NEW on
// the plus side, all OLD on the minus side) — an over-approximation
// that can claim the same derivation from two occurrences — the
// triangle form evaluates literals BEFORE occurrence i in the NEW
// state and literals AFTER it in the OLD state. Summed over all
// occurrences with their signs, the results telescope:
//
//	P_new − P_old = Σ_i  (new₁…new_{i-1}, ΔXᵢ, old_{i+1}…old_k)
//
// an identity over signed multisets (Z-relations) because every body
// literal is set-valued here (base relations and deduplicated derived
// sub-queries; a negated literal is the 0/1 factor 1−X, whose delta is
// −ΔX — the usual sign crossing with multiplicity one). Evaluated
// under bag semantics (eval.Plan.ExecBag) each produced head tuple is
// one derivation gained (EffectSign Δ+) or lost (Δ−), so folding the
// results into a per-tuple support count maintains the exact
// derivation count of every view tuple.
func GenerateCounting(def *objectlog.Def) ([]Differential, error) {
	if def.Aggregate != "" {
		return nil, fmt.Errorf("definition of %s is an aggregate view; aggregates are monitored by re-evaluation, not counting differentials", def.Name)
	}
	var out []Differential
	for ci, c := range def.Clauses {
		if err := objectlog.CheckSafe(c); err != nil {
			return nil, fmt.Errorf("definition of %s: %w", def.Name, err)
		}
		for li, l := range c.Body {
			if objectlog.IsBuiltin(l.Pred) {
				continue
			}
			if l.Delta != objectlog.DeltaNone || l.Old {
				return nil, fmt.Errorf("[%s] definition of %s contains annotated literal %s; differentials must be generated from plain clauses", objectlog.CodeAnnotatedLiteral, def.Name, l)
			}
			if !l.Negated {
				out = append(out,
					makeCounting(def.Name, c, ci, li, objectlog.DeltaPlus, objectlog.DeltaPlus),
					makeCounting(def.Name, c, ci, li, objectlog.DeltaMinus, objectlog.DeltaMinus))
			} else {
				// Sign crossing: Δ(1−X) = −ΔX, multiplicity one.
				out = append(out,
					makeCounting(def.Name, c, ci, li, objectlog.DeltaMinus, objectlog.DeltaPlus),
					makeCounting(def.Name, c, ci, li, objectlog.DeltaPlus, objectlog.DeltaMinus))
			}
		}
	}
	return out, nil
}

// makeCounting builds one triangle-form differential: occurrence idx
// becomes a positive Δ-literal, literals before it stay in the new
// state, literals after it are marked old. Builtins are rigid (state-
// independent), so marking them old is harmless.
func makeCounting(view string, c objectlog.Clause, disjunct, idx int,
	trigger, effect objectlog.DeltaKind) Differential {

	cc := c.Clone()
	occ := cc.Body[idx]
	occ.Negated = false // Δ-sets are consulted positively
	occ.Delta = trigger
	occ.Old = false
	cc.Body[idx] = occ
	for i := idx + 1; i < len(cc.Body); i++ {
		cc.Body[i] = cc.Body[i].WithOld()
	}
	return Differential{
		View:        view,
		Influent:    c.Body[idx].Pred,
		TriggerSign: trigger,
		EffectSign:  effect,
		Clause:      cc,
		Disjunct:    disjunct,
		Occurrence:  idx,
		Counting:    true,
	}
}

// ByInfluent groups differentials by influent predicate, preserving
// generation order within each group.
func ByInfluent(ds []Differential) map[string][]Differential {
	out := map[string][]Differential{}
	for _, d := range ds {
		out[d.Influent] = append(out[d.Influent], d)
	}
	return out
}

// Influents returns the distinct influent names of the differentials,
// sorted.
func Influents(ds []Differential) []string {
	seen := map[string]bool{}
	for _, d := range ds {
		seen[d.Influent] = true
	}
	out := make([]string, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
