package main

// The traced pass: per-layer attribution of a transaction's cost, taken
// entirely from outside the program. Harness clocks bracket the three
// facade calls of a transaction (Begin, Exec, Commit); one txn.Hook
// appended after the session's own hooks stamps the boundaries inside
// Commit (check → persist → end); the harness-registered order procedure
// stamps actions; a store listener captures the physical events that
// the layer rigs (rigs.go) replay. The program's internal tracer is not
// used: it is due to be rewritten and a layer metric must survive that.
//
// Traced numbers never mix with the end-to-end ones. The pass alternates
// untraced and traced blocks on one database so that the cost of tracing
// itself is a reported number (bench.trace_overhead_frac).

import (
	"bufio"
	"encoding/json"
	"os"
	"runtime"
	"runtime/metrics"

	"partdiff/internal/storage"
	"partdiff/internal/txn"
)

// Span kinds; spanNames gives the layer-qualified names used in the
// spans file and the metric names.
const (
	spTxn = iota
	spBegin
	spExec
	spCommit
	spCheck
	spAction
	spPersist
	spEnd
	spPost
	spCapture
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"txn", "txn.begin", "amosql.exec", "txn.commit", "rules.check",
	"rules.action", "wal.persist", "txn.end", "txn.post", "bench.capture",
}

// span is one timed interval. parent is the index of the causing span in
// tracer.spans (-1 for a transaction's root); all spans of a transaction
// share txn.
type span struct {
	kind       uint8
	parent     int32
	txn        int32
	start, end int64
}

// capEvent is one captured physical event. wave separates the check
// rounds of a transaction: events issued by the user statements are wave
// 0, events issued from inside rule actions are wave 1.
type capEvent struct {
	ev   storage.Event
	txn  int32
	wave uint8
}

// Capture limits: the rigs replay what was captured, so this bounds
// their run time as well.
const (
	maxCapEvents = 30000
	maxCapNs     = int64(1e9)
)

type tracer struct {
	on    bool // false during the untraced blocks: hook and listener return at once
	spans []span
	txn   int32

	root, commit, phase int32 // open spans of the current transaction
	cur                 int32 // span physical events are caused by: exec, or the running action
	inAction            bool
	firstAction         int64

	capturing bool
	capNs     int64
	events    []capEvent

	// One latency sample spans period transactions (see workload.period);
	// pend accumulates the current cycle.
	period   int
	pend     [numSpanKinds]int64
	pendDur  int64
	pendTxns int

	// Per-cycle samples, microseconds.
	self     [numSpanKinds][]float64
	total    []float64
	firstAct []float64 // Commit call → first action
	unattrib []float64
}

func newTracer(period int) *tracer {
	return &tracer{period: period, spans: make([]span, 0, 1<<20), events: make([]capEvent, 0, maxCapEvents)}
}

func (t *tracer) open(kind uint8, parent int32, start int64) int32 {
	t.spans = append(t.spans, span{kind: kind, parent: parent, txn: t.txn, start: start})
	return int32(len(t.spans) - 1)
}

func (t *tracer) close(id int32, end int64) { t.spans[id].end = end }

// hook is appended after the session's hooks, so each of its callbacks
// runs when every participant of that commit phase has finished. A span
// ends and the next one starts on clock readings of their own — here and
// in tracedStep — so whatever passes between two spans is nobody's self
// time and shows in txn.unattributed_frac.
func (t *tracer) hook() txn.Hook {
	next := func(kind uint8) {
		if t.on {
			t.close(t.phase, now())
			t.phase = t.open(kind, t.commit, now())
		}
	}
	return txn.Hook{
		Name:      "benchmark",
		OnCommit:  func() error { next(spPersist); return nil },
		OnPersist: func(user, action []storage.Event) error { next(spEnd); return nil },
		OnEnd:     func(bool) { next(spPost) },
	}
}

// listen is the store listener. It runs under the store's lock, so it
// only appends.
func (t *tracer) listen(e storage.Event) {
	if !t.capturing {
		return
	}
	n := now()
	wave := uint8(0)
	if t.inAction {
		wave = 1
	}
	t.events = append(t.events, capEvent{ev: e, txn: t.txn, wave: wave})
	id := t.open(spCapture, t.cur, n)
	t.close(id, now())
}

func (t *tracer) openAction(start int64) int32 {
	if !t.on {
		return -1
	}
	if t.firstAction == 0 {
		t.firstAction = start
	}
	id := t.open(spAction, t.phase, start)
	t.cur, t.inAction = id, true
	return id
}

func (t *tracer) closeAction(id int32, end int64) {
	if id < 0 {
		return
	}
	t.close(id, end)
	t.inAction = false
}

// tracedStep runs the next op as three facade calls with a span tree
// around them.
func (in *instance) tracedStep() error {
	t := in.tr
	o := &in.sc.ops[in.next]
	first := int32(len(t.spans))
	t.firstAction = 0

	t.root = t.open(spTxn, -1, now())
	begin := t.open(spBegin, t.root, now())
	err := in.db.Begin()
	t.close(begin, now())
	if err != nil {
		return err
	}

	exec := t.open(spExec, t.root, now())
	t.cur = exec
	_, err = in.db.Exec(o.body())
	t.close(exec, now())
	if err != nil {
		in.db.Rollback()
		return err
	}

	t.commit = t.open(spCommit, t.root, now())
	t.phase = t.open(spCheck, t.commit, now())
	err = in.db.Commit()
	t.close(t.phase, now())
	t.close(t.commit, now())
	t.close(t.root, now())
	in.advance()
	if err != nil {
		return err
	}
	t.account(first)
	if t.capturing {
		t.capNs += t.spans[first].end - t.spans[first].start
		// Stop at the end of a cycle so alternating scripts are captured
		// in whole periods.
		if (t.capNs >= maxCapNs || len(t.events) >= maxCapEvents/2) && t.pendTxns == 0 {
			t.capturing = false
		}
	}
	t.txn++
	return nil
}

// account folds the finished transaction's spans (spans[first:]) into
// the current cycle, and the cycle into the samples when it is complete.
// A span's self time is its duration minus the part its children cover;
// the self time of the txn and txn.commit spans, which make no call of
// their own, is the time between their children.
func (t *tracer) account(first int32) {
	for i := first; i < int32(len(t.spans)); i++ {
		s := &t.spans[i]
		d := s.end - s.start
		t.pend[s.kind] += d
		if s.parent >= first {
			t.pend[t.spans[s.parent].kind] -= d
		}
	}
	t.pendDur += t.spans[first].end - t.spans[first].start
	if t.firstAction != 0 {
		t.firstAct = append(t.firstAct, float64(t.firstAction-t.spans[t.commit].start)/1e3)
	}
	if t.pendTxns++; t.pendTxns < t.period {
		return
	}
	for k := range t.pend {
		t.self[k] = append(t.self[k], float64(t.pend[k])/1e3)
	}
	t.total = append(t.total, float64(t.pendDur)/1e3)
	t.unattrib = append(t.unattrib, float64(t.pend[spTxn]+t.pend[spCommit])/float64(t.pendDur))
	t.pend, t.pendDur, t.pendTxns = [numSpanKinds]int64{}, 0, 0
}

// writeSpans writes every span as one JSON line.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	type line struct {
		ID     int    `json:"id"`
		Name   string `json:"name"`
		Start  int64  `json:"start_ns"`
		End    int64  `json:"end_ns"`
		Parent int32  `json:"parent"`
		Txn    int32  `json:"txn"`
	}
	enc := json.NewEncoder(w)
	for i, s := range t.spans {
		if err := enc.Encode(line{i, spanNames[s.kind], s.start, s.end, s.parent, s.txn}); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// regSnap is a snapshot of the database's metrics registry: counters and
// gauges by family name (label children summed), histograms by name.
type regSnap struct {
	val  map[string]float64
	hist map[string]histSnap
}

type histSnap struct {
	bounds  []float64
	buckets []int64
	count   int64
}

func snapRegistry(in *instance) regSnap {
	s := regSnap{val: map[string]float64{}, hist: map[string]histSnap{}}
	for _, p := range in.db.Observability().Registry.Gather() {
		if p.Bounds != nil {
			s.hist[p.Name] = histSnap{p.Bounds, append([]int64(nil), p.Buckets...), p.Count}
			continue
		}
		s.val[p.Name] += p.Value
	}
	return s
}

// delta returns the growth of a counter family between two snapshots.
func (a regSnap) delta(b regSnap, name string) float64 { return b.val[name] - a.val[name] }

// histQuantile estimates the q-quantile (seconds) of the observations a
// histogram gained between two snapshots, interpolating inside the
// bucket the rank falls in.
func (a regSnap) histQuantile(b regSnap, name string, q float64) float64 {
	hb, ok := b.hist[name]
	if !ok {
		return 0
	}
	ha := a.hist[name]
	count := hb.count - ha.count
	if count <= 0 {
		return 0
	}
	rank := q * float64(count)
	prevCum, prevBound := 0.0, 0.0
	for i, bound := range hb.bounds {
		cum := float64(hb.buckets[i])
		if i < len(ha.buckets) {
			cum -= float64(ha.buckets[i])
		}
		if cum >= rank {
			if cum == prevCum {
				return bound
			}
			return prevBound + (bound-prevBound)*(rank-prevCum)/(cum-prevCum)
		}
		prevCum, prevBound = cum, bound
	}
	return prevBound
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// gcCPU reads the runtime's cumulative GC and total CPU seconds.
func gcCPU() (gc, total float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindFloat64 {
		gc = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		total = s[1].Value.Float64()
	}
	return gc, total
}

// blockRun is what the four alternating blocks of a traced pass leave
// behind, besides the tracer's spans.
type blockRun struct {
	plain      []int64 // untraced latencies, one per cycle
	errs       int64
	txns       float64
	wallNs     int64
	rig        *rigInput
	reg0, reg1 regSnap
	ms0, ms1   runtime.MemStats
	gcCPU      float64 // GC share of the CPU seconds spent over the blocks
}

// runBlocks alternates untraced and traced blocks on one database. The
// pass is shorter than the end-to-end one: half the budget goes to the
// blocks, the rest of the run to rigs and reference configurations.
func runBlocks(in *instance, m *model, lim limits) *blockRun {
	const blocks = 4
	tr, sc := in.tr, in.sc
	blockNs := int64(lim.seconds * 1e9 / 2 / blocks)
	blockOps := 0 // fixed-count form: half the script, in even blocks
	if blockNs == 0 {
		blockOps = max(2, ((len(sc.ops)-sc.warm)/2/blocks+1)&^1)
	}
	br := &blockRun{}
	runtime.GC()
	runtime.ReadMemStats(&br.ms0)
	gc0, cpu0 := gcCPU()
	br.reg0 = snapRegistry(in)
	start := now()
	for b := 0; b < blocks; b++ {
		traced := b%2 == 1
		if traced && br.rig == nil {
			// The rigs need the state the captured events apply to.
			br.rig = newRigInput(in)
			tr.capturing = true
		}
		tr.on = traced
		bStart := now()
		for n := 0; ; n += tr.period {
			if blockNs > 0 && now()-bStart >= blockNs {
				break
			}
			if blockNs == 0 && n >= blockOps {
				break
			}
			c0 := now()
			for k := 0; k < tr.period; k++ {
				o := &sc.ops[in.next]
				var err error
				if traced {
					err = in.tracedStep()
				} else {
					err = in.step()
				}
				if err != nil {
					br.errs++
				}
				m.apply(o)
			}
			if !traced {
				br.plain = append(br.plain, now()-c0)
			}
		}
		tr.on, tr.capturing = false, false
	}
	br.wallNs = now() - start
	br.reg1 = snapRegistry(in)
	gc1, cpu1 := gcCPU()
	br.gcCPU = ratio(gc1-gc0, cpu1-cpu0)
	runtime.ReadMemStats(&br.ms1)
	br.txns = float64((len(br.plain) + len(tr.total)) * tr.period)
	return br
}

// putSpanMetrics reports the commit-path spans (medians of per-cycle self
// times) and the cost of tracing itself.
func putSpanMetrics(rep *report, tr *tracer, plain []int64) (plainP50us float64) {
	put := rep.metrics.put
	put("txn.begin_us", medianF(tr.self[spBegin]))
	put("amosql.exec_us", medianF(tr.self[spExec]))
	put("rules.check_us", medianF(tr.self[spCheck]))
	put("rules.action_us", medianF(tr.self[spAction]))
	put("rules.first_action_us", medianF(tr.firstAct))
	put("wal.persist_us", medianF(tr.self[spPersist]))
	put("txn.end_us", medianF(tr.self[spEnd]))
	put("txn.post_us", medianF(tr.self[spPost]))
	put("txn.unattributed_frac", medianF(tr.unattrib))
	tracedP50, plainP50 := medianF(tr.total), quantile(plain, 0.5)/1e3
	overhead := ratio(tracedP50, plainP50) - 1
	put("bench.trace_overhead_frac", overhead)
	put("bench.untraced_p50_us", plainP50)
	put("bench.traced_p50_us", tracedP50)
	rep.unresolved = overhead > 0.10
	return plainP50
}

// putCountMetrics reports counts per transaction from the registry's
// golden-tested names, and the runtime's view of the same interval.
func putCountMetrics(rep *report, br *blockRun) {
	put := rep.metrics.put
	delta := func(name string) float64 { return br.reg0.delta(br.reg1, name) }
	per := func(name string) float64 { return delta(name) / br.txns }
	diffs, zero := delta("partdiff_propnet_differentials_total"), delta("partdiff_propnet_zero_effect_total")
	scanned, folds := delta("partdiff_eval_tuples_scanned_total"), delta("partdiff_delta_folds_total")
	put("propnet.propagations_per_txn", per("partdiff_propnet_propagations_total"))
	put("propnet.differentials_per_txn", diffs/br.txns)
	put("propnet.zero_effect_per_txn", zero/br.txns)
	put("propnet.useful_exec_frac", ratio(diffs-zero, diffs))
	put("eval.tuples_scanned_per_txn", scanned/br.txns)
	put("eval.scanned_per_emitted", ratio(scanned, delta("partdiff_propnet_node_emitted_tuples_total")))
	put("delta.folds_per_txn", folds/br.txns)
	put("delta.cancel_frac", ratio(delta("partdiff_delta_cancellations_total"), folds))
	put("storage.index_probes_per_txn", per("partdiff_storage_index_probes_total"))
	put("storage.tuple_reads_per_txn", per("partdiff_storage_tuple_reads_total"))
	put("rules.check_rounds_per_txn", per("partdiff_rules_check_rounds_total"))
	put("rules.actions_per_txn", per("partdiff_rules_actions_total"))
	put("maint.applied_per_txn", per("partdiff_maint_applied_total"))
	put("maint.strategy_switches", delta("partdiff_maint_strategy_switches_total"))
	put("wal.fsyncs_per_txn", per("partdiff_wal_fsyncs_total"))
	put("txn.gate_wait_p50_us", 1e6*br.reg0.histQuantile(br.reg1, "partdiff_txn_gate_wait_seconds", 0.5))
	put("txn.conflicts", delta("partdiff_txn_conflicts_total"))
	put("txn.commit_p99_us", 1e6*br.reg0.histQuantile(br.reg1, "partdiff_txn_commit_seconds", 0.99))

	put("go.gc_cpu_frac", br.gcCPU)
	put("go.gc_cycles", float64(br.ms1.NumGC-br.ms0.NumGC))
	put("go.heap_peak_mb", float64(br.ms1.HeapSys)/(1<<20))
}

// runTraced is the traced pass of one workload.
func runTraced(w *workload, seed int64, scale float64, lim limits, spansOut string) (*report, error) {
	sc := w.generate(seed, scale)
	rep := &report{workload: w.name, metrics: metricSet{}, counts: map[string]float64{}}
	dir, err := newDataDir(w.durable)
	if err != nil {
		return nil, err
	}
	in, err := setup(w, sc, dir, sc.warm)
	if err != nil {
		return nil, err
	}
	defer func() { in.close() }()
	m := newModel(sc, sc.warm)

	tr := newTracer(w.cycle())
	in.tr = tr
	sess := in.db.Session()
	sess.Txns().AddHook(tr.hook())
	unsubscribe := sess.Store().Subscribe(tr.listen)
	defer unsubscribe()

	st := &loopStats{queryLat: make([]int64, 0, 1<<16)}
	stopReader := in.startReader(st, m)
	br := runBlocks(in, m, lim)
	stopReader()
	// Queries are mixed_rw's concurrent reader's, or a read probe after
	// the blocks; either way count the snapshots they pinned.
	pins0 := br.reg0
	if !w.reader {
		pins0 = br.reg1
		in.readProbe(st, m)
	}
	pins := pins0.delta(snapRegistry(in), "partdiff_storage_snapshot_pins_total")

	rep.counts["txns_untraced"] = float64(len(br.plain) * tr.period)
	rep.counts["txns_traced"] = float64(len(tr.total) * tr.period)
	rep.counts["spans"] = float64(len(tr.spans))
	rep.counts["captured_events"] = float64(len(tr.events))
	rep.counts["wall_s"] = float64(br.wallNs) / 1e9
	rep.countOps(int64(br.txns), br.errs, st)

	plainP50 := putSpanMetrics(rep, tr, br.plain)
	putCountMetrics(rep, br)
	rep.metrics.put("storage.snapshot_pins_per_query", ratio(pins, float64(len(st.queryLat))))

	if err := checkOutputs(rep, in, m); err != nil {
		return nil, err
	}
	if err := runRigs(rep, in, br.rig, tr.events); err != nil {
		return nil, err
	}
	if err := runReferences(rep, w, sc, plainP50); err != nil {
		return nil, err
	}
	if w.durable {
		if err := tracedDurable(rep, in, m); err != nil {
			return nil, err
		}
	}
	if spansOut != "" {
		if err := tr.writeSpans(spansOut); err != nil {
			return nil, err
		}
	}
	return rep, nil
}
