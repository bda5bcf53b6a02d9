package eval

import (
	"fmt"

	"partdiff/internal/objectlog"
	"partdiff/internal/storage"
	"partdiff/internal/types"
)

// ReferenceEval is a deliberately naive generate-and-test evaluator used
// for differential testing of the optimized evaluator: it enumerates the
// full cartesian product of the extents of all positive relational
// literals, unifies, and then checks builtins and negations under the
// complete substitution. Exponential — use only on tiny databases.
//
// Supported literals: positive/negated base relations in any state the
// Env serves — current, old, Δ+ and Δ− are all just sources resolved
// through Env.Source, so the shapes partial differentials take are
// covered — plus comparisons, arithmetic, and eq. Derived predicates
// are not supported: a test that wants them hands the reference an Env
// serving their materialized extents as base relations.
func ReferenceEval(env Env, c objectlog.Clause, out *types.Set) error {
	var positives []objectlog.Literal
	var checks []objectlog.Literal
	for _, l := range c.Body {
		if objectlog.IsBuiltin(l.Pred) || l.Negated {
			checks = append(checks, l)
			continue
		}
		if env.Program().IsDerived(l.Pred) {
			return fmt.Errorf("reference evaluator: derived literal %s unsupported", l)
		}
		positives = append(positives, l)
	}
	sub := map[string]types.Value{}
	return refEnumerate(env, positives, checks, c.Head, sub, out)
}

func refEnumerate(env Env, positives, checks []objectlog.Literal, head objectlog.Literal, sub map[string]types.Value, out *types.Set) error {
	if len(positives) == 0 {
		return refCheckAndEmit(env, checks, head, sub, out)
	}
	lit := positives[0]
	src, err := env.Source(lit.Pred, lit.Delta, lit.Old)
	if err != nil {
		return err
	}
	var tuples []types.Tuple
	src.Each(func(t types.Tuple) bool { tuples = append(tuples, t); return true })
	for _, t := range tuples {
		if len(t) != len(lit.Args) {
			return fmt.Errorf("arity mismatch on %s", lit)
		}
		var bound []string
		ok := true
		for i, a := range lit.Args {
			if !a.IsVar {
				if !a.Const.Equal(t[i]) {
					ok = false
					break
				}
				continue
			}
			if v, has := sub[a.Var]; has {
				if !v.Equal(t[i]) {
					ok = false
					break
				}
				continue
			}
			sub[a.Var] = t[i]
			bound = append(bound, a.Var)
		}
		if ok {
			if err := refEnumerate(env, positives[1:], checks, head, sub, out); err != nil {
				return err
			}
		}
		for _, v := range bound {
			delete(sub, v)
		}
	}
	return nil
}

func refCheckAndEmit(env Env, checks []objectlog.Literal, head objectlog.Literal, sub map[string]types.Value, out *types.Set) error {
	// eq literals may bind; process checks to a fixpoint, then test.
	local := map[string]types.Value{}
	get := func(t objectlog.Term) (types.Value, bool) {
		if !t.IsVar {
			return t.Const, true
		}
		if v, ok := sub[t.Var]; ok {
			return v, true
		}
		v, ok := local[t.Var]
		return v, ok
	}
	pending := append([]objectlog.Literal(nil), checks...)
	for progress := true; progress && len(pending) > 0; {
		progress = false
		var rest []objectlog.Literal
		for _, l := range pending {
			switch {
			case objectlog.IsArithmetic(l.Pred):
				a, aok := get(l.Args[0])
				b, bok := get(l.Args[1])
				if !aok || !bok {
					rest = append(rest, l)
					continue
				}
				var res types.Value
				var err error
				switch l.Pred {
				case objectlog.BuiltinPlus:
					res, err = types.Add(a, b)
				case objectlog.BuiltinMinus:
					res, err = types.Sub(a, b)
				case objectlog.BuiltinTimes:
					res, err = types.Mul(a, b)
				default:
					res, err = types.Div(a, b)
				}
				if err != nil {
					return nil // row fails quietly, as in the evaluator
				}
				if r, rok := get(l.Args[2]); rok {
					if !r.Equal(res) {
						return nil
					}
				} else {
					local[l.Args[2].Var] = res
				}
				progress = true
			case l.Pred == objectlog.BuiltinEQ && !l.Negated:
				a, aok := get(l.Args[0])
				b, bok := get(l.Args[1])
				switch {
				case aok && bok:
					if !a.Equal(b) {
						return nil
					}
					progress = true
				case aok:
					local[l.Args[1].Var] = a
					progress = true
				case bok:
					local[l.Args[0].Var] = b
					progress = true
				default:
					rest = append(rest, l)
					continue
				}
			case objectlog.IsComparison(l.Pred):
				a, aok := get(l.Args[0])
				b, bok := get(l.Args[1])
				if !aok || !bok {
					rest = append(rest, l)
					continue
				}
				if !cmpHolds(l.Pred, a, b) {
					return nil
				}
				progress = true
			default: // negated relational literal
				vals := make(types.Tuple, len(l.Args))
				ready := true
				for i, a := range l.Args {
					v, ok := get(a)
					if !ok {
						ready = false
						break
					}
					vals[i] = v
				}
				if !ready {
					rest = append(rest, l)
					continue
				}
				src, err := env.Source(l.Pred, l.Delta, l.Old)
				if err != nil {
					return err
				}
				if src.Contains(vals) {
					return nil
				}
				progress = true
			}
		}
		pending = rest
	}
	if len(pending) > 0 {
		return fmt.Errorf("reference evaluator: unsafe clause, stuck on %v", pending)
	}
	t := make(types.Tuple, len(head.Args))
	for i, a := range head.Args {
		v, ok := get(a)
		if !ok {
			return fmt.Errorf("reference evaluator: head variable %s unbound", a.Var)
		}
		t[i] = v
	}
	out.Add(t)
	return nil
}

// refStore exposes Source construction for tests that need a bare
// storage-backed Env without deltas.
type refStore struct {
	Store *storage.Store
	Prog  *objectlog.Program
}

// NewStoreEnv wraps a store and program as an Env without Δ-sets or old
// states (select-query semantics).
func NewStoreEnv(st *storage.Store, prog *objectlog.Program) Env {
	return refStore{Store: st, Prog: prog}
}

// Program implements Env.
func (e refStore) Program() *objectlog.Program { return e.Prog }

// Source implements Env over the live store only.
func (e refStore) Source(pred string, dk objectlog.DeltaKind, old bool) (storage.Source, error) {
	if dk != objectlog.DeltaNone || old {
		return nil, fmt.Errorf("no Δ-sets or old states in a bare store env")
	}
	rel, ok := e.Store.Relation(pred)
	if !ok {
		return nil, fmt.Errorf("relation %q does not exist", pred)
	}
	return rel, nil
}
