package eval

import (
	"fmt"

	"partdiff/internal/objectlog"
	"partdiff/internal/types"
)

// aggregate evaluates a call to an aggregate view (extension; §8 of the
// paper lists aggregates as future work). The definition's clauses
// compute the pre-aggregation relation (group key ++ witnesses ++
// value); this runs their sub-plans — seeded with any bound group-key
// arguments of vals, as mask says — groups, folds, and hands each folded
// tuple to each (which unifies it with the call).
func (e *Evaluator) aggregate(pi *predInfo, mask uint64, old bool, vals types.Tuple, depth int, each func(types.Tuple) error) error {
	def := pi.def
	g := def.GroupCols
	if len(vals) != g+1 {
		return fmt.Errorf("aggregate %s called with arity %d, want %d", def.Name, len(vals), g+1)
	}
	plans, err := e.subPlans(pi, mask&(1<<uint(g)-1), old)
	if err != nil {
		return err
	}
	// Pre-aggregation tuples, deduplicated across clauses (set
	// semantics over group ++ witnesses ++ value).
	pre := types.NewSet()
	collect := func(t types.Tuple) error { pre.Add(t); return nil }
	for _, p := range plans {
		if err := p.run(vals, depth+1, collect); err != nil {
			return err
		}
	}
	// Group and fold.
	type state struct {
		key   types.Tuple
		count int64
		sum   types.Value
		min   types.Value
		max   types.Value
		err   error
	}
	var groups types.Map[*state]
	var order []*state // groups in first-seen order
	pre.Each(func(t types.Tuple) bool {
		key := t[:g:g]
		val := t[len(t)-1]
		p, fresh := groups.Ref(key)
		if fresh {
			*p = &state{key: key, min: val, max: val, sum: types.Int(0)}
			order = append(order, *p)
		}
		st := *p
		st.count++
		if st.err == nil {
			st.sum, st.err = types.Add(st.sum, val)
		}
		if val.Compare(st.min) < 0 {
			st.min = val
		}
		if val.Compare(st.max) > 0 {
			st.max = val
		}
		return true
	})
	// Emit one folded tuple per group, unified against the call.
	out := types.NewSet()
	for _, st := range order {
		var folded types.Value
		switch def.Aggregate {
		case objectlog.AggCount:
			folded = types.Int(st.count)
		case objectlog.AggSum:
			if st.err != nil {
				return fmt.Errorf("aggregate %s: %w", def.Name, st.err)
			}
			folded = st.sum
		case objectlog.AggMin:
			folded = st.min
		case objectlog.AggMax:
			folded = st.max
		default:
			return fmt.Errorf("unknown aggregate operator %q", def.Aggregate)
		}
		out.Add(append(st.key.Clone(), folded))
	}
	// Deterministic order for reproducible evaluation.
	for _, t := range out.Tuples() {
		if err := each(t); err != nil {
			return err
		}
	}
	return nil
}
