package main

// Layer rigs: unit costs of single layers, measured by replaying the
// inputs the traced pass captured straight into each layer's public
// functions, at the workload's sizes. A unit cost times the matching
// per-transaction count predicts the layer's share of txn_p50_us; a rig
// that moves while the end-to-end metric does not says the layer is not
// on the blocking path of that workload.
//
// Only this file and trace.go reach below the facade.

import (
	"context"
	"fmt"

	"partdiff"
	"partdiff/internal/amosql"
	"partdiff/internal/diff"
	"partdiff/internal/propnet"
	"partdiff/internal/storage"
)

// rigInput is the state the captured events apply to: a copy of every
// base relation, taken just before capture starts.
type rigInput struct {
	rels []rigRel
}

type rigRel struct {
	name    string
	arity   int
	keyCols []int
	tuples  []partdiff.Tuple
}

func newRigInput(in *instance) *rigInput {
	st := in.db.Session().Store()
	snap := st.Snapshot()
	ri := &rigInput{}
	for _, name := range st.RelationNames() {
		r, _ := st.Relation(name)
		ri.rels = append(ri.rels, rigRel{name, r.Arity(), r.KeyCols(), snap[name]})
	}
	return ri
}

// bareStore builds a store with no listeners, metrics or transaction
// layer above it, holding the rig input.
func (ri *rigInput) bareStore() (*storage.Store, error) {
	st := storage.NewStore()
	for _, r := range ri.rels {
		if _, err := st.CreateRelation(r.name, r.arity, r.keyCols); err != nil {
			return nil, err
		}
		if err := st.LoadTuples(r.name, r.tuples); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// buildNet assembles a standalone propagation network over st for the
// live database's activation, the way the rule manager does: shared
// views first, then the monitored condition. It returns the time spent
// in Finalize (differential generation, Δ-effect analysis, levels).
func buildNet(in *instance, st *storage.Store) (net *propnet.Network, cond string, finalizeNs int64, err error) {
	mgr := in.db.Session().Rules()
	acts := mgr.ActivationsOf(in.sc.rule)
	if len(acts) != 1 {
		return nil, "", 0, fmt.Errorf("rig: %d activations of %s, want 1", len(acts), in.sc.rule)
	}
	live := mgr.Network()
	net = propnet.New(st, mgr.Program(), diff.DefaultOptions())
	for _, name := range live.Nodes() {
		nd, _ := live.Node(name)
		if nd.Base || name == acts[0].CondName {
			continue
		}
		def, ok := mgr.Program().Def(name)
		if !ok {
			return nil, "", 0, fmt.Errorf("rig: view %s has no definition", name)
		}
		if err := net.AddView(def, false); err != nil {
			return nil, "", 0, err
		}
	}
	if err := net.AddView(acts[0].Def, true); err != nil {
		return nil, "", 0, err
	}
	t := now()
	if err := net.Finalize(); err != nil {
		return nil, "", 0, err
	}
	return net, acts[0].CondName, now() - t, nil
}

const (
	rigRepeats = 5  // set-up rigs: median of this many
	maxProbes  = 64 // derivability probes timed per workload
)

// runRigs replays the captured events wave by wave: apply to a bare
// store, fold into the network's base Δ-sets, propagate. It must run
// after the registry counts were read — Δ-set folds are counted
// process-wide.
func runRigs(rep *report, in *instance, ri *rigInput, events []capEvent) error {
	put := rep.metrics.put
	if ri == nil || len(events) == 0 {
		return fmt.Errorf("rig: the traced pass captured no events")
	}

	// amosql: parse the same statements the traced transactions ran.
	var parseNs, stmts int64
	for i, bytes := 0, 0; i < len(in.sc.ops) && bytes < 1<<20; i++ {
		body := in.sc.ops[i].body()
		t := now()
		parsed, err := amosql.Parse(body)
		parseNs += now() - t
		if err != nil {
			return fmt.Errorf("rig: parse: %w", err)
		}
		stmts += int64(len(parsed))
		bytes += len(body)
	}
	put("amosql.parse_ns_per_stmt", ratio(float64(parseNs), float64(stmts)))

	st, err := ri.bareStore()
	if err != nil {
		return err
	}
	net, cond, _, err := buildNet(in, st)
	if err != nil {
		return err
	}
	ev := net.Evaluator()

	var applyNs, foldNs, propNs, probeNs, waves, probes int64
	scanned0 := ev.ScannedTuples()
	var minus []partdiff.Tuple
	for lo := 0; lo < len(events); {
		hi := lo
		for hi < len(events) && events[hi].txn == events[lo].txn && events[hi].wave == events[lo].wave {
			hi++
		}
		wave := events[lo:hi]
		lo = hi

		// Like a transaction: writes inside a scope, made visible to
		// snapshots once at the end.
		touched := map[string]bool{}
		for i := range wave {
			touched[wave[i].ev.Relation] = true
		}
		names := make([]string, 0, len(touched))
		for n := range touched {
			names = append(names, n)
		}
		st.BeginTxnScope()
		t := now()
		for i := range wave {
			e := &wave[i].ev
			if e.Kind == storage.InsertEvent {
				_, err = st.Insert(e.Relation, e.Tuple)
			} else {
				_, err = st.Delete(e.Relation, e.Tuple)
			}
			if err != nil {
				return fmt.Errorf("rig: replay %v: %w", e, err)
			}
		}
		applyNs += now() - t
		st.EndTxnScope()
		st.AdvanceCommit(names)

		t = now()
		for i := range wave {
			e := &wave[i].ev
			d := net.BaseDelta(e.Relation)
			if d == nil {
				continue
			}
			if e.Kind == storage.InsertEvent {
				d.Insert(e.Tuple)
			} else {
				d.Delete(e.Tuple)
			}
		}
		foldNs += now() - t

		t = now()
		out, err := net.Propagate()
		propNs += now() - t
		if err != nil {
			return fmt.Errorf("rig: propagate: %w", err)
		}
		waves++

		// §7.2: the tuples this wave retracted from the condition are the
		// ones a derivability probe is paid for, in the state the wave
		// left. Probe them before the base Δ-sets are dropped.
		if d := out[cond]; d != nil && probes < maxProbes {
			minus = append(minus[:0], d.Minus().Tuples()...)
			for _, tup := range minus {
				if probes == maxProbes {
					break
				}
				t = now()
				_, err := ev.Derivable(cond, tup, false)
				probeNs += now() - t
				if err != nil {
					return fmt.Errorf("rig: derivable: %w", err)
				}
				probes++
			}
		}
		net.ClearBase()
	}
	waveScanned := ev.ScannedTuples() - scanned0
	put("storage.apply_ns_per_event", float64(applyNs)/float64(len(events)))
	put("delta.fold_ns_per_event", float64(foldNs)/float64(len(events)))
	put("propnet.propagate_us_per_wave", float64(propNs)/1e3/float64(waves))
	put("eval.scanned_per_wave", float64(waveScanned)/float64(waves))
	rep.counts["rig_waves"] = float64(waves)

	// No retraction in the replay (the condition never held): probe the
	// condition for objects it does not hold for — the same fruitless
	// search.
	for i := 0; probes < maxProbes && i < in.sc.items; i++ {
		v, ok := in.db.Var(fmt.Sprintf("i%d", i))
		if !ok {
			break
		}
		t := now()
		_, err := ev.Derivable(cond, partdiff.Tuple{v}, false)
		probeNs += now() - t
		if err != nil {
			return fmt.Errorf("rig: derivable: %w", err)
		}
		probes++
	}
	put("eval.derivable_us", ratio(float64(probeNs)/1e3, float64(probes)))

	// eval: full evaluation of the condition — what naive monitoring
	// pays per check round.
	var full []float64
	for r := 0; r < rigRepeats; r++ {
		s0 := ev.ScannedTuples()
		t := now()
		if _, err := ev.EvalPred(cond, false); err != nil {
			return fmt.Errorf("rig: eval: %w", err)
		}
		ns := now() - t
		full = append(full, ratio(float64(ns), float64(ev.ScannedTuples()-s0)))
	}
	put("eval.full_ns_per_scanned", medianF(full))

	// storage: pinning an MVCC snapshot, the fixed cost of every query.
	const pins = 1000
	t := now()
	for i := 0; i < pins; i++ {
		st.PinSnapshot().Close()
	}
	put("storage.pin_us", float64(now()-t)/1e3/pins)

	// Set-up costs: differential generation, network finalization and
	// the activate statement.
	acts := in.db.Session().Rules().ActivationsOf(in.sc.rule)
	var gen, fin, act []float64
	for r := 0; r < rigRepeats; r++ {
		t := now()
		if _, err := diff.Generate(acts[0].Def, diff.DefaultOptions()); err != nil {
			return fmt.Errorf("rig: generate: %w", err)
		}
		gen = append(gen, float64(now()-t)/1e3)
		_, _, ns, err := buildNet(in, st)
		if err != nil {
			return err
		}
		fin = append(fin, float64(ns)/1e6)
	}
	for r := 0; r < rigRepeats; r++ {
		if _, err := in.db.Exec(in.sc.deactivate()); err != nil {
			return fmt.Errorf("rig: deactivate: %w", err)
		}
		t := now()
		if _, err := in.db.Exec(in.sc.activate()); err != nil {
			return fmt.Errorf("rig: activate: %w", err)
		}
		act = append(act, float64(now()-t)/1e6)
	}
	put("diff.generate_us", medianF(gen))
	put("propnet.finalize_ms", medianF(fin))
	put("rules.activate_ms", medianF(act))
	return nil
}

// reference is one non-default configuration the same script is run
// under for a short while. The ratios are reported and never gated: they
// are the paper's figures (naive over incremental), the standing question
// of the deletion path (counting over probing) and the cumulative price
// of every observer armed at once.
type reference struct {
	metric string
	on     []string // workloads it is reported on
	opts   []partdiff.Option
	armed  bool
	// cold skips the warm-up transactions: under naive monitoring each
	// costs a full evaluation of the condition.
	cold bool
	ops  func(sc *script) int
}

var references = []reference{
	{
		metric: "rules.naive_over_incr", on: []string{"fig6_small", "fig7_massive"},
		opts: []partdiff.Option{partdiff.WithMode(partdiff.Naive)}, cold: true,
		ops: func(sc *script) int {
			if len(sc.ops) > 1000 {
				return 6 // fig6_small: 160 ms per naively monitored transaction
			}
			return 4
		},
	},
	{
		metric: "maint.counting_over_probe", on: []string{"delete_retract"},
		opts: []partdiff.Option{partdiff.WithCounting()},
		ops:  func(sc *script) int { return 100 },
	},
	{
		metric: "obs.armed_over_default", on: []string{"fig6_small", "fig7_massive"},
		opts: []partdiff.Option{partdiff.WithFlightRecorder("")}, armed: true,
		ops: func(sc *script) int {
			if len(sc.ops) > 1000 {
				return 20000
			}
			return 12
		},
	},
}

// runReferences reports each reference configuration's median
// transaction latency over the default configuration's.
func runReferences(rep *report, w *workload, sc *script, defaultP50us float64) error {
	for _, ref := range references {
		if !contains(ref.on, w.name) {
			continue
		}
		dir, err := newDataDir(w.durable)
		if err != nil {
			return err
		}
		warm := sc.warm
		if ref.cold {
			warm = 0
		}
		in, err := setup(w, sc, dir, warm, ref.opts...)
		if err != nil {
			return fmt.Errorf("%s: %w", ref.metric, err)
		}
		stopObservers := func() {}
		if ref.armed {
			stopObservers = armObservers(in.db)
		}
		n := ref.ops(sc)
		if n > len(sc.ops)-sc.warm {
			n = len(sc.ops) - sc.warm
		}
		lat := make([]int64, 0, n)
		var stepErr error
		for i := 0; i < n && stepErr == nil; i += w.cycle() {
			t := now()
			for k := 0; k < w.cycle() && stepErr == nil; k++ {
				stepErr = in.step()
			}
			lat = append(lat, now()-t)
		}
		stopObservers()
		if err := in.close(); err != nil {
			return err
		}
		if stepErr != nil {
			return fmt.Errorf("%s: %w", ref.metric, stepErr)
		}
		rep.metrics.put(ref.metric, ratio(quantile(lat, 0.5)/1e3, defaultP50us))
	}
	return nil
}

// tracedDurable produces the wal rig metrics: recovery cost per log
// record from a close and reopen, then the cost of a checkpoint.
func tracedDurable(rep *report, in *instance, m *model) error {
	recoverNs, err := checkDurable(rep, in, m)
	if err != nil {
		return err
	}
	rep.metrics.put("wal.recover_us_per_record", ratio(float64(recoverNs)/1e3, rep.counts["recovered_records"]))
	var ck []float64
	for r := 0; r < 3; r++ {
		t := now()
		if err := in.db.Checkpoint(); err != nil {
			return fmt.Errorf("rig: checkpoint: %w", err)
		}
		ck = append(ck, float64(now()-t)/1e6)
	}
	rep.metrics.put("wal.checkpoint_ms", medianF(ck))
	return nil
}

func contains(list []string, s string) bool {
	for _, x := range list {
		if x == s {
			return true
		}
	}
	return false
}

// armObservers turns on everything that watches a commit: the
// propagation profiler, one bus subscriber that drains as fast as events
// arrive, and a structured trace capture. (The flight recorder is armed
// by option, in window-only mode.) The returned function stops them and
// waits for the drainer.
func armObservers(db *partdiff.DB) (stop func()) {
	db.SetProfiling(true)
	sub := db.Subscribe()
	tr := db.StartTrace()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			if _, err := sub.Next(ctx); err != nil {
				return
			}
		}
	}()
	return func() {
		tr.Stop()
		cancel()
		<-done
		sub.Close()
	}
}
