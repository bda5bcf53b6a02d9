package main

// Output checks, run on every invocation and outside every timed region.
// Each check is one attempted operation; a check that does not hold is a
// failed operation and fails the command.

import (
	"fmt"
	"reflect"
	"runtime"

	"partdiff"
)

// checkOutputs verifies the measured database: the closed-form firing
// count, the program's own invariants, the full state against the
// harness model, and the oracle twins.
func checkOutputs(rep *report, in *instance, m *model) error {
	rep.check(in.fired == in.wantFired,
		"order() ran %d times, the script's closed form is %d", in.fired, in.wantFired)
	err := in.db.CheckInvariants()
	rep.check(err == nil, "CheckInvariants: %v", err)
	bad := m.checkState(in.db)
	rep.check(len(bad) == 0, "state differs from the script's model: %v", bad)
	return checkOracle(rep, in.w, in.sc)
}

// oracleCap bounds the oracle's share of a run: 5 % of fig6_small is
// 7 500 transactions, four seconds under Naive even on 40 items.
const oracleCap = 1000

// checkOracle replays the first 5 % of the workload's transactions (at
// most oracleCap; same generator, same seed) on two fresh databases of
// w.oracleItems objects — default options and WithMode(Naive), the
// paper's full-recomputation baseline — and requires the same firing
// sequence and the same state digest from both, and the state the
// harness model predicts from each. The measured database is held to
// that same model, which is what ties it to Naive. The report's samples
// line says how many transactions and firings were compared.
func checkOracle(rep *report, w *workload, sc *script) error {
	type outcome struct {
		digest string
		seq    []string
	}
	n := min(oracleCap, max(w.cycle(), len(sc.ops)/20/w.cycle()*w.cycle()))
	osc := w.script(sc.seed, min(w.oracleItems, sc.items), n)
	var got [2]outcome
	for i, opts := range [][]partdiff.Option{nil, {partdiff.WithMode(partdiff.Naive)}} {
		dir, err := newDataDir(w.durable)
		if err != nil {
			return err
		}
		in, err := setup(w, osc, dir, 0, opts...)
		if err != nil {
			return err
		}
		in.keepSeq = true
		m := newModel(osc, 0)
		var stepErr error
		for k := range osc.ops {
			if stepErr = in.step(); stepErr != nil {
				break
			}
			m.apply(&osc.ops[k])
		}
		if stepErr == nil {
			got[i].digest, stepErr = m.digest(in.db)
		}
		if stepErr == nil {
			bad := m.checkState(in.db)
			rep.check(len(bad) == 0, "oracle twin %d: state differs from the script's model: %v", i, bad)
		}
		got[i].seq = in.seq
		if err := in.close(); err != nil {
			return err
		}
		if stepErr != nil {
			return fmt.Errorf("oracle replay: %w", stepErr)
		}
	}
	rep.check(reflect.DeepEqual(got[0].seq, got[1].seq),
		"firing sequence differs from naive replay: %d vs %d firings over %d txns",
		len(got[0].seq), len(got[1].seq), n)
	rep.check(got[0].digest == got[1].digest,
		"state digest differs from naive replay after %d txns", n)
	rep.counts["oracle_txns"], rep.counts["oracle_items"] = float64(n), float64(osc.items)
	rep.counts["oracle_firings"] = float64(len(got[1].seq))
	return nil
}

// reopen closes the database and opens its directory again, returning
// how long OpenDir took: loading the latest snapshot, if any, and
// replaying the log through the commit machinery, rule firings included.
// Like every set-up, every recovery starts from a collected heap.
func (in *instance) reopen() (recoverNs int64, err error) {
	if err := in.db.Close(); err != nil {
		return 0, fmt.Errorf("close: %w", err)
	}
	in.db = nil
	runtime.GC()
	in.replaying = true
	t := now()
	db, err := partdiff.OpenDir(in.dir,
		partdiff.WithSyncPolicy(partdiff.SyncAlways), partdiff.WithProcedure("order", in.order))
	recoverNs = now() - t
	in.replaying = false
	if err != nil {
		return 0, fmt.Errorf("reopen: %w", err)
	}
	in.db = db
	return recoverNs, nil
}

// checkRecovery reopens the database's directory and requires that
// recovery re-fired the rule exactly as often as the replayed script's
// closed form says, that the recovered state is the model's, and that the
// program's invariants hold. It returns how long the reopen took.
func checkRecovery(rep *report, in *instance, m *model) (recoverNs int64, err error) {
	firedBefore := in.fired
	if recoverNs, err = in.reopen(); err != nil {
		return 0, err
	}
	rep.counts["recovered_records"] = float64(in.db.Observability().Registry.CounterValue("partdiff_wal_recovered_records_total"))
	rep.check(in.fired-firedBefore == in.wantFired,
		"recovery re-fired order() %d times, the replayed script's closed form is %d", in.fired-firedBefore, in.wantFired)
	bad := m.checkState(in.db)
	rep.check(len(bad) == 0, "recovered state differs from the script's model: %v", bad)
	err = in.db.CheckInvariants()
	rep.check(err == nil, "CheckInvariants after reopen: %v", err)
	return recoverNs, nil
}

// checkDurable is the close, reopen, compare of a durable workload's
// measured database: checkRecovery, and the state digest after the reopen
// must equal the digest before the close.
func checkDurable(rep *report, in *instance, m *model) (recoverNs int64, err error) {
	before, err := m.digest(in.db)
	if err != nil {
		return 0, err
	}
	if recoverNs, err = checkRecovery(rep, in, m); err != nil {
		return 0, err
	}
	after, err := m.digest(in.db)
	if err != nil {
		return 0, err
	}
	rep.check(before == after, "state digest after reopen differs from the digest before close")
	return recoverNs, nil
}
