package eval

import (
	"fmt"

	"partdiff/internal/objectlog"
	"partdiff/internal/types"
)

// Recursive view evaluation (extension; §8 of the paper lists recursion
// as future work and the §5 footnote sketches the approach: "revisiting
// nodes below and using fixed point techniques").
//
// A recursive component is evaluated bottom-up to a fixpoint: extents
// of all component members start empty, clauses are re-evaluated with
// component references resolved against the current extents, and
// iteration stops when no new tuples appear. Monotone conjunctive
// clauses guarantee termination over the finite active domain.

// maxFixpointIterations is a backstop against non-terminating
// components (possible only with arithmetic generating fresh values).
const maxFixpointIterations = 100000

// fixpointComponent computes the extents of every member of pred's
// recursive component, in the old or new database state.
func (e *Evaluator) fixpointComponent(pred string, old bool, depth int) (map[string]*types.Set, error) {
	if depth > e.MaxDepth {
		return nil, fmt.Errorf("evaluation exceeded max derivation depth %d", e.MaxDepth)
	}
	prog := e.env.Program()
	comp := prog.Component(pred)
	if len(comp) == 0 {
		return nil, fmt.Errorf("predicate %q is not recursive", pred)
	}
	exts := make(map[string]*types.Set, len(comp))
	for _, m := range comp {
		exts[m] = types.NewSet()
	}
	// Install the override (saving any enclosing fixpoint — nested
	// independent components).
	saved := e.fixpoint
	merged := make(map[string]*types.Set, len(saved)+len(exts))
	for k, v := range saved {
		merged[k] = v
	}
	for k, v := range exts {
		merged[k] = v
	}
	e.fixpoint = merged
	defer func() { e.fixpoint = saved }()

	// Negation inside a recursive component is not stratified — reject
	// it (standard Datalog restriction).
	for _, m := range comp {
		def, _ := prog.Def(m)
		for _, c := range def.Clauses {
			for _, l := range c.Body {
				if l.Negated && exts[l.Pred] != nil {
					return nil, fmt.Errorf("[%s] recursive component of %q negates member %q: unstratified negation is not supported", objectlog.CodeUnstratifiedNegation, pred, l.Pred)
				}
			}
		}
	}
	for iter := 0; ; iter++ {
		if iter > maxFixpointIterations {
			return nil, fmt.Errorf("fixpoint of %q did not converge after %d iterations", pred, maxFixpointIterations)
		}
		changed := false
		for _, m := range comp {
			plans, err := e.subPlans(e.pred(m), 0, old)
			if err != nil {
				return nil, err
			}
			ext := exts[m]
			// The plan scans ext (through e.fixpoint) while it emits, and
			// a set must not grow under its own Each: collect a run's new
			// tuples in a scratch set and fold it in when the run is over.
			var fresh types.Set
			grow := func(t types.Tuple) error {
				if h := t.Hash(); !ext.ContainsH(h, t) {
					fresh.AddH(h, t)
				}
				return nil
			}
			for _, p := range plans {
				if err := p.run(nil, depth+1, grow); err != nil {
					return nil, err
				}
				if fresh.Len() > 0 {
					changed = true
					ext.AddAll(&fresh)
					fresh.Clear()
				}
			}
		}
		if !changed {
			return exts, nil
		}
	}
}
