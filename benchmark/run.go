package main

// The end-to-end pass: set-up, the measured closed loop, the read and
// reaction probes, the durability tail and the output checks, all through
// the public facade with default options — the numbers are what an
// embedder of the library gets. This file imports nothing of the program
// but package partdiff.

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"partdiff"
)

var epoch = time.Now()

// now is a monotonic nanosecond clock.
func now() int64 { return int64(time.Since(epoch)) }

// instance is one open database of a workload plus the harness state its
// order procedure feeds.
type instance struct {
	w   *workload
	sc  *script
	db  *partdiff.DB
	dir string

	fired       int64    // order() invocations
	firstAction int64    // clock of the first order() call since it was last zeroed
	keepSeq     bool     // record the firing sequence (oracle twins)
	seq         []string // "item/amount" per firing, in firing order
	replaying   bool     // inside OpenDir's recovery: in.db is not the database calling order
	tr          *tracer  // traced pass only

	next      int   // index of the next op to run; wraps around the script
	wantFired int64 // closed-form firings of the ops run so far
}

// order is the rule action of every workload.
func (in *instance) order(args []partdiff.Value) error {
	t := now()
	if in.firstAction == 0 {
		in.firstAction = t
	}
	in.fired++
	if in.keepSeq {
		in.seq = append(in.seq, args[0].String()+"/"+args[1].String())
	}
	span := int32(-1)
	if in.tr != nil {
		span = in.tr.openAction(t)
	}
	var err error
	// Recovery re-fires the rule and then reconciles the logged action
	// writes itself, so the replayed action must not write.
	if in.w.restock && !in.replaying {
		in.db.SetVar("o", args[0])
		_, err = in.db.Exec("set quantity(:o)=5000;")
	}
	if in.tr != nil {
		in.tr.closeAction(span, now())
	}
	return err
}

// setup opens a database, loads schema and population through Exec,
// activates the rule and runs the first warm ops of the script. With a
// dir the database is durable: OpenDir with fsync before every
// acknowledgement, the stated flush policy of every durable run.
func setup(w *workload, sc *script, dir string, warm int, opts ...partdiff.Option) (*instance, error) {
	in := &instance{w: w, sc: sc, dir: dir}
	if dir != "" {
		o := append([]partdiff.Option{
			partdiff.WithSyncPolicy(partdiff.SyncAlways),
			partdiff.WithProcedure("order", in.order),
		}, opts...)
		db, err := partdiff.OpenDir(dir, o...)
		if err != nil {
			return nil, fmt.Errorf("open %s: %w", dir, err)
		}
		in.db = db
	} else {
		in.db = partdiff.Open(opts...)
		if err := in.db.RegisterProcedure("order", in.order); err != nil {
			return nil, err
		}
	}
	if _, err := in.db.Exec(sc.schema); err != nil {
		return nil, fmt.Errorf("schema: %w", err)
	}
	for _, p := range sc.populate {
		if _, err := in.db.Exec(p); err != nil {
			return nil, fmt.Errorf("populate: %w", err)
		}
	}
	if _, err := in.db.Exec(sc.activate()); err != nil {
		return nil, fmt.Errorf("activate: %w", err)
	}
	for i := 0; i < warm; i++ {
		if err := in.step(); err != nil {
			return nil, fmt.Errorf("warm-up op %d: %w", i, err)
		}
	}
	return in, nil
}

// step runs the next op of the script as one Exec call.
func (in *instance) step() error {
	o := &in.sc.ops[in.next]
	_, err := in.db.Exec(o.text)
	in.advance()
	return err
}

func (in *instance) advance() {
	in.wantFired += int64(in.sc.ops[in.next].fires)
	in.next++
	if in.next == len(in.sc.ops) {
		in.next = 0
	}
}

// walTotal is the number of log bytes the database has written (0 on an
// in-memory database).
func (in *instance) walTotal() int64 {
	return in.db.Observability().Registry.CounterValue("partdiff_wal_bytes_total")
}

// close closes the database and removes its data directory. Closing
// twice is harmless.
func (in *instance) close() error {
	var err error
	if in.db != nil {
		err = in.db.Close()
		in.db = nil
	}
	if in.dir != "" {
		if rmErr := os.RemoveAll(in.dir); err == nil {
			err = rmErr
		}
		in.dir = ""
	}
	return err
}

// tmpRoot holds every file the benchmark writes; it sits in the working
// directory because a run may touch nothing outside its checkout.
const tmpRoot = ".bench_tmp"

var dirSeq atomic.Int64

// newDataDir creates a fresh data directory, or returns "" for an
// in-memory database.
func newDataDir(durable bool) (string, error) {
	if !durable {
		return "", nil
	}
	dir := filepath.Join(tmpRoot, fmt.Sprintf("db-%d-%d", os.Getpid(), dirSeq.Add(1)))
	return dir, os.MkdirAll(dir, 0o755)
}

// report is what one run of one workload produces.
type report struct {
	workload  string
	metrics   metricSet
	attempted int64
	failed    int64
	problems  []string // one line per failed check
	counts    map[string]float64
	// unresolved is set when tracing cost more than a tenth of the
	// untraced transaction: the span metrics are printed, marked.
	unresolved bool
}

// countOps enters the transactions and queries of a pass as attempted
// operations, the ones that returned an error or a wrong answer as failed.
func (r *report) countOps(txns, txnErrs int64, st *loopStats) {
	r.attempted = txns + st.probeTxns + int64(len(st.queryLat))
	r.failed = txnErrs + st.badReads
	if txnErrs > 0 {
		r.problems = append(r.problems, fmt.Sprintf("%d transactions returned an error", txnErrs))
	}
	if st.badReads > 0 {
		r.problems = append(r.problems, fmt.Sprintf("%d queries failed or returned a wrong value", st.badReads))
	}
}

func (r *report) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// limits bounds the measured loop: it stops after maxOps transactions or
// after seconds of wall time, whichever comes first (zero = unbounded).
type limits struct {
	maxOps  int
	seconds float64
}

// loopStats is the raw outcome of one measured closed loop.
type loopStats struct {
	lat       []int64 // per cycle (one transaction, two on delete_retract): Exec call → commit-ack return
	react     []int64 // Exec call → first action invocation, firing transactions only
	updates   int64
	wallNs    int64
	errs      int64
	probeTxns int64   // transactions of the reaction probe
	queryLat  []int64 // concurrent reader (mixed_rw) or read probe, back to back
	badReads  int64
	mem0      runtime.MemStats
	mem1      runtime.MemStats
}

// measure runs the closed loop: one client, next transaction only after
// the previous acknowledged. Nothing in the loop allocates on behalf of
// the harness; latencies go into preallocated slices.
func (in *instance) measure(lim limits, m *model, st *loopStats) {
	budget := int64(lim.seconds * 1e9)

	stopReader := in.startReader(st, m)
	runtime.GC()
	runtime.ReadMemStats(&st.mem0)
	start := now()
	t0 := start
	period := in.w.cycle()
	for n := 0; lim.maxOps == 0 || n < lim.maxOps; n += period {
		if budget > 0 && t0-start >= budget {
			break
		}
		for k := 0; k < period; k++ {
			call := t0
			if k > 0 {
				call = now()
			}
			o := &in.sc.ops[in.next]
			in.firstAction = 0
			if _, err := in.db.Exec(o.text); err != nil {
				st.errs++
			}
			if in.firstAction != 0 {
				st.react = append(st.react, in.firstAction-call)
			}
			st.updates += int64(o.updates)
			m.apply(o)
			in.advance()
		}
		t1 := now()
		st.lat = append(st.lat, t1-t0)
		t0 = t1
	}
	st.wallNs = t0 - start
	stopReader()
	runtime.ReadMemStats(&st.mem1)
}

// newLoopStats preallocates the sample slices so the measured loop does
// not allocate for the harness, and so they can be excluded from the
// live-heap reading.
func newLoopStats(w *workload, sc *script, lim limits) *loopStats {
	hint := lim.maxOps
	if hint == 0 {
		hint = 4 * len(sc.ops)
	}
	st := &loopStats{
		lat: make([]int64, 0, hint), react: make([]int64, 0, max(hint, reactProbes)),
		queryLat: make([]int64, 0, w.probe),
	}
	if w.reader {
		st.queryLat = make([]int64, 0, 1<<17)
	}
	return st
}

// read issues point queries on seeded-random objects back to back while
// more(n) holds, n being the number issued so far. It is mixed_rw's
// concurrent reader (until the writer finishes; the writer never changes
// what threshold depends on, so the model is constant for it) and every
// other workload's read probe on the state the measured loop left.
func (in *instance) read(st *loopStats, m *model, more func(n int) bool) {
	rng := rand.New(rand.NewSource(in.sc.seed + 1))
	t0 := now()
	for n := 0; more(n); n++ {
		in.readOne(st, m, rng.Intn(in.sc.items))
		t1 := now()
		st.queryLat = append(st.queryLat, t1-t0)
		t0 = t1
	}
}

// startReader starts mixed_rw's reader goroutine; the returned function
// stops it and waits for it. On the other workloads both do nothing.
func (in *instance) startReader(st *loopStats, m *model) (stop func()) {
	if !in.w.reader {
		return func() {}
	}
	var stopped atomic.Bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		in.read(st, m, func(int) bool { return !stopped.Load() })
	}()
	return func() {
		stopped.Store(true)
		<-done
	}
}

// readProbe issues w.probe queries.
func (in *instance) readProbe(st *loopStats, m *model) {
	in.read(st, m, func(n int) bool { return n < in.w.probe })
}

func (in *instance) readOne(st *loopStats, m *model, idx int) {
	stmt, want, ok := m.pointQuery(idx)
	r, err := in.db.Query(stmt)
	switch {
	case err != nil:
		st.badReads++
	case ok && (len(r.Tuples) != 1 || r.Tuples[0][0].AsInt() != want):
		st.badReads++
	case !ok && len(r.Tuples) != 0:
		st.badReads++
	}
}

// reactProbes is the number of firings the reaction probe provokes.
const reactProbes = 500

// reactProbe gives a workload whose script never fires the rule its
// detection latency: on the state the measured loop left, it drops one
// seeded-random item below its threshold — the rule fires once, and the
// action of these workloads does not write — and puts the model's value
// back in a second transaction.
func (in *instance) reactProbe(st *loopStats, m *model) {
	rng := rand.New(rand.NewSource(in.sc.seed + 2))
	// The probe is a tenth of a second; whether a collector cycle the read
	// probe set off overlaps it would decide its median.
	runtime.GC()
	for n := 0; n < reactProbes; n++ {
		idx := rng.Intn(in.sc.items)
		drop := fmt.Sprintf("set quantity(:i%d)=1;", idx)
		restore := fmt.Sprintf("set quantity(:i%d)=%d;", idx, m.val[fnQuantity][idx])
		in.firstAction = 0
		call := now()
		if _, err := in.db.Exec(drop); err != nil {
			st.errs++
		}
		if in.firstAction != 0 {
			st.react = append(st.react, in.firstAction-call)
		}
		if _, err := in.db.Exec(restore); err != nil {
			st.errs++
		}
		in.wantFired++
		st.probeTxns += 2
	}
}

// recoveries is the number of times the durability tail reopens its
// directory; recover_s is their median.
const recoveries = 3

// durabilityTail gives every workload its log size and its recovery
// time. A twin database on a data directory, set up like the measured
// one, commits the next tail transactions of the script with fsync before
// every acknowledgement, is closed and is reopened: the first time with
// the checks of checkRecovery, then for the clock alone. The transaction
// count is fixed, so neither metric follows the throughput of the
// measured loop.
func durabilityTail(rep *report, w *workload, sc *script, tail int) error {
	dir, err := newDataDir(true)
	if err != nil {
		return err
	}
	in, err := setup(w, sc, dir, sc.warm)
	if err != nil {
		return fmt.Errorf("durability tail: %w", err)
	}
	defer func() { in.close() }()
	m := newModel(sc, sc.warm)
	bytes0 := in.walTotal()
	for n := 0; n < tail; n++ {
		o := &sc.ops[in.next]
		if err := in.step(); err != nil {
			return fmt.Errorf("durability tail: %w", err)
		}
		m.apply(o)
	}
	rep.attempted += int64(tail)
	rep.metrics.put("wal_bytes_per_txn", float64(in.walTotal()-bytes0)/float64(tail))

	ns := make([]int64, 0, recoveries)
	first, err := checkRecovery(rep, in, m)
	if err != nil {
		return err
	}
	for ns = append(ns, first); len(ns) < recoveries; {
		t, err := in.reopen()
		if err != nil {
			return err
		}
		ns = append(ns, t)
	}
	rep.metrics.put("recover_s", median(ns)/1e9)
	rep.counts["tail_txns"] = float64(tail)
	return nil
}

// liveHeap is the heap in use after a forced collection.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// setups is the number of times a run sets up; setup_s is their median.
// One set-up is a single sample of a second or less and would make the
// metric useless as a gate.
const setups = 5

// runE2E is the end-to-end pass of one workload at scale times its
// nominal size (1 everywhere but in the tests).
func runE2E(w *workload, seed int64, scale float64, lim limits) (*report, error) {
	sc := w.generate(seed, scale)
	if lim.maxOps == 0 && lim.seconds == 0 {
		lim.maxOps = len(sc.ops) - sc.warm
	}
	rep := &report{workload: w.name, metrics: metricSet{}}
	m := newModel(sc, sc.warm)
	st := newLoopStats(w, sc, lim)
	// Script, model and sample slices are the harness's; everything the
	// heap gains from here on belongs to the database.
	base := liveHeap()

	// The last database built is the one measured.
	var in *instance
	setupNs := make([]int64, 0, setups)
	for s := 0; s < setups; s++ {
		if in != nil {
			if err := in.close(); err != nil {
				return nil, err
			}
		}
		dir, err := newDataDir(w.durable)
		if err != nil {
			return nil, err
		}
		runtime.GC() // every set-up starts from the same heap
		t := now()
		if in, err = setup(w, sc, dir, sc.warm); err != nil {
			return nil, err
		}
		setupNs = append(setupNs, now()-t)
	}
	defer func() { in.close() }()

	in.measure(lim, m, st)
	heap := liveHeap()
	if !w.reader {
		in.readProbe(st, m)
	}
	if sc.neverFires() {
		in.reactProbe(st, m)
	}

	txns := float64(len(st.lat) * w.cycle())
	rep.metrics.put("setup_s", median(setupNs)/1e9)
	rep.metrics.put("txn_p50_us", quantile(st.lat, 0.50)/1e3)
	rep.metrics.put("txn_p90_us", quantile(st.lat, 0.90)/1e3)
	rep.metrics.put("updates_per_s", float64(st.updates)/(float64(st.wallNs)/1e9))
	rep.metrics.put("allocs_per_txn", float64(st.mem1.Mallocs-st.mem0.Mallocs)/txns)
	rep.metrics.put("bytes_per_txn", float64(st.mem1.TotalAlloc-st.mem0.TotalAlloc)/txns)
	rep.metrics.put("live_heap_mb", (float64(heap)-float64(base))/(1<<20))
	rep.metrics.put("query_p50_us", quantile(st.queryLat, 0.50)/1e3)
	rep.metrics.put("queries_per_s", sliceRate(st.queryLat))
	rep.metrics.put("react_p50_us", quantile(st.react, 0.50)/1e3)
	rep.counts = map[string]float64{
		"txns": txns, "queries": float64(len(st.queryLat)), "reactions": float64(len(st.react)),
		"setups": setups, "wall_s": float64(st.wallNs) / 1e9,
	}

	rep.countOps(int64(txns), st.errs, st)
	if err := checkOutputs(rep, in, m); err != nil {
		return nil, err
	}
	if w.durable {
		// The workload's own close, reopen, compare. Its time follows the
		// number of transactions the loop got through, so it is a sample
		// count, not the metric.
		recoverNs, err := checkDurable(rep, in, m)
		if err != nil {
			return nil, err
		}
		rep.counts["measured_db_recover_s"] = float64(recoverNs) / 1e9
	}
	// The measured database has given everything; the tail's recoveries
	// should not share the heap with it.
	if err := in.close(); err != nil {
		return nil, err
	}
	if err := durabilityTail(rep, w, sc, scaled(w.tail, scale, 2)); err != nil {
		return nil, err
	}
	rep.metrics.put("error_rate", float64(rep.failed)/float64(rep.attempted))
	return rep, nil
}
