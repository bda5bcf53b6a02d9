package main

// Workload definitions: schemas, population and op-script generators.
//
// Everything here is the benchmark's own copy. It deliberately imports
// neither internal/bench nor cmd/bench: those are experiment harnesses
// that later work reshapes, and the benchmark's inputs must stay
// byte-identical across that. The program under test receives only the
// statements generated here; nothing below calls into it.

import (
	"fmt"
	"math/rand"
	"strings"
)

// inventorySchema is the paper's §3.1 schema and rule, verbatim.
const inventorySchema = `
create type item;
create type supplier;
create function quantity(item) -> integer;
create function max_stock(item) -> integer;
create function min_stock(item) -> integer;
create function consume_freq(item) -> integer;
create function supplies(supplier) -> item;
create function delivery_time(item i, supplier s) -> integer;
create function threshold(item i) -> integer
    as
    select consume_freq(i) * delivery_time(i, s) + min_stock(i)
    for each supplier s where supplies(s) = i;
create rule monitor_items() as
     when for each item i
     where quantity(i) < threshold(i)
     do order(i, max_stock(i) - quantity(i));
`

// witnessSchema is the deletion-path schema: tagged(x) is a shared view
// derived through exactly one of the witnesses, so retracting that
// witness retracts tagged for every item, and proving each retraction
// (§7.2) scans all witnesses fruitlessly.
const witnessSchema = `
create type item;
create type witness;
create function stock(item) -> integer;
create function alive(item) -> integer;
create function wit(witness) -> integer;
create shared function tagged(item x) -> integer
    as select v for each witness w, integer v
    where alive(x) = v and wit(w) < v;
create rule watch_tagged() as
    when for each item i
    where tagged(i) = 1 and stock(i) < 10
    do order(i, stock(i));
`

const (
	numWitnesses = 16 // witness rows per delete_retract database
	lowStock     = 4  // items whose stock satisfies the delete_retract rule
	cascadeBatch = 20 // items dropped below threshold per fire_cascade txn
	populateStep = 100
)

// Function ids of the harness's state model (see model.go).
const (
	fnQuantity = iota
	fnConsumeFreq
	fnDeliveryTime
	fnWit
	numFns
)

// write is one committed base-function value in the harness's model of
// the database: fn(idx) = val once the transaction is acknowledged.
type write struct {
	fn  uint8
	idx int32
	val int32
}

// op is one transaction of a workload script.
type op struct {
	// text is what the end-to-end pass hands to one Exec call: a single
	// autocommitted statement, or "begin; …; commit;".
	text string
	// lo:hi index script.writes — the transaction's net committed effect
	// on the model (for fire_cascade that is the restocked value, not the
	// transient low one).
	lo, hi int32
	// updates is the number of base-tuple updates the transaction
	// commits (user statements plus action statements).
	updates int32
	// fires is the closed-form number of order() invocations.
	fires int32
}

const (
	beginText  = "begin;\n"
	commitText = "commit;\n"
)

// body returns the statements of the transaction without the
// begin/commit wrapper; the traced pass issues those as separate facade
// calls. It shares text's memory.
func (o *op) body() string {
	if strings.HasPrefix(o.text, beginText) {
		return o.text[len(beginText) : len(o.text)-len(commitText)]
	}
	return o.text
}

// script is everything a workload feeds the program, generated from the
// seed before any clock starts.
type script struct {
	seed     int64
	schema   string
	populate []string // one Exec each: a transaction creating populateStep objects
	rule     string   // the rule that is activated once the population is loaded
	ops      []op
	writes   []write
	warm     int // ops[:warm] run during set-up and are not measured
	witness  bool
	items    int
	deriving int   // delete_retract: index of the sole deriving witness
	low      []int // delete_retract: items with stock below the rule's bound
}

// workload names one fixed workload. items and txns are the nominal
// sizes (about ten seconds of measured work on the 2-core reference
// box); the tests shrink both.
type workload struct {
	name  string
	why   string
	items int
	txns  int
	// oracleItems is the database size of the Naive oracle (checks.go):
	// one naively monitored transaction costs a full evaluation of the
	// condition, so the oracle replays its share of the script on fewer
	// items where the nominal size would take minutes.
	oracleItems int
	probe       int // point queries of the read probe, sized to about half a second
	// tail is the number of transactions the durability tail (run.go)
	// commits on its fsync-before-ack twin, sized to about half a second.
	tail    int
	durable bool
	reader  bool
	restock bool // the order procedure writes back through a re-entrant Exec
	// period is the number of consecutive transactions one latency sample
	// spans (0 means 1). delete_retract alternates a 12 ms retraction with
	// a 2.5 ms re-derivation; the median of single transactions would sit
	// in the empty gap between the two modes and jump with the parity of
	// the sample count, so its latency unit is the whole cycle.
	period int
	gen    func(w *workload, sc *script, rng *rand.Rand, txns int)
}

var workloads = []*workload{
	{
		name:  "fig6_small",
		why:   "one-update txns on a 10k-item DB, rule never fires: fixed per-commit overhead (txn, rules, propnet scheduling, obs, parse) dominates; any O(n) in the commit path shows",
		items: 10000, txns: 150000, oracleItems: 40, probe: 256, tail: 2000, gen: genFig6,
	},
	{
		name:  "fig7_massive",
		why:   "3000-update txns touching three influents of every item: eval, delta, storage and parse scale with the batch and fixed commit overhead vanishes",
		items: 1000, txns: 80, oracleItems: 1000, probe: 4096, tail: 4, gen: genFig7,
	},
	{
		name:  "delete_retract",
		why:   "alternately retracts and re-derives the sole witness of a shared view: minus differentials plus one fruitless derivability probe per derived tuple per delete",
		items: 400, txns: 1200, oracleItems: 400, probe: 8192, tail: 60, period: 2, gen: genDeleteRetract,
	},
	{
		name:  "fire_cascade",
		why:   "each txn drops 20 items below threshold; the rule fires for those 20 and the action restocks re-entrantly, forcing a second check round: rules and re-entrant exec dominate",
		items: 2000, txns: 3000, oracleItems: 200, probe: 4096, tail: 150, restock: true, gen: genFireCascade,
	},
	{
		name:  "durable_small",
		why:   "fig6_small on a data directory with fsync-before-ack: the write-ahead log does most of the work, then the directory is reopened and compared",
		items: 10000, txns: 40000, oracleItems: 40, probe: 256, tail: 2000, durable: true, gen: genFig6,
	},
	{
		name:  "mixed_rw",
		why:   "fig6_small writer beside a goroutine issuing point queries on MVCC snapshots: a write-path gain that costs readers, or the reverse, shows in one row",
		items: 10000, txns: 100000, oracleItems: 40, tail: 2000, reader: true, gen: genFig6,
	},
}

func (w *workload) cycle() int {
	if w.period > 1 {
		return w.period
	}
	return 1
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// scaled shrinks n by scale, keeping at least min and an even count so
// alternating scripts wrap around cleanly.
func scaled(n int, scale float64, min int) int {
	v := int(float64(n) * scale)
	if v < min {
		v = min
	}
	return v + v%2
}

// generate builds the workload's script at scale times its nominal size
// (1 everywhere but in the tests). The same seed and scale always give
// byte-identical statements.
func (w *workload) generate(seed int64, scale float64) *script {
	return w.script(seed, scaled(w.items, scale, 40), scaled(w.txns, scale, 8))
}

// script builds a script of txns transactions on items objects. Every
// generator draws per transaction, in order, so a shorter script of the
// same seed and item count is a prefix of the longer one.
func (w *workload) script(seed int64, items, txns int) *script {
	rng := rand.New(rand.NewSource(seed))
	sc := &script{seed: seed, items: items, rule: "monitor_items"}
	sc.warm = scaled(txns, 0.02, 2)
	w.gen(w, sc, rng, txns)
	return sc
}

// neverFires reports whether no transaction of the script fires the rule.
func (sc *script) neverFires() bool {
	for i := range sc.ops {
		if sc.ops[i].fires != 0 {
			return false
		}
	}
	return true
}

// activate and deactivate are the statements switching the script's rule
// on and off.
func (sc *script) activate() string   { return "activate " + sc.rule + "();" }
func (sc *script) deactivate() string { return "deactivate " + sc.rule + "();" }

func populateInventory(sc *script) {
	sc.schema = inventorySchema
	for lo := 0; lo < sc.items; lo += populateStep {
		hi := lo + populateStep
		if hi > sc.items {
			hi = sc.items
		}
		var b strings.Builder
		b.WriteString(beginText)
		names := func(prefix string) string {
			parts := make([]string, 0, hi-lo)
			for i := lo; i < hi; i++ {
				parts = append(parts, fmt.Sprintf(":%s%d", prefix, i))
			}
			return strings.Join(parts, ", ")
		}
		fmt.Fprintf(&b, "create item instances %s;\n", names("i"))
		fmt.Fprintf(&b, "create supplier instances %s;\n", names("s"))
		for i := lo; i < hi; i++ {
			fmt.Fprintf(&b, "set quantity(:i%d)=5000; set max_stock(:i%d)=5000; set min_stock(:i%d)=100; "+
				"set consume_freq(:i%d)=20; set supplies(:s%d)=:i%d; set delivery_time(:i%d,:s%d)=2;\n",
				i, i, i, i, i, i, i, i)
		}
		b.WriteString(commitText)
		sc.populate = append(sc.populate, b.String())
	}
}

// genFig6 is the paper's fig. 6 shape: one autocommitted quantity update
// per transaction on a seeded-random item, always far above the
// threshold of 140, so the rule is monitored and never fires.
func genFig6(w *workload, sc *script, rng *rand.Rand, txns int) {
	populateInventory(sc)
	sc.ops = make([]op, txns)
	sc.writes = make([]write, txns)
	for t := range sc.ops {
		item, v := rng.Intn(sc.items), 200+rng.Intn(4800)
		sc.writes[t] = write{fnQuantity, int32(item), int32(v)}
		sc.ops[t] = op{
			text: fmt.Sprintf("set quantity(:i%d)=%d;", item, v),
			lo:   int32(t), hi: int32(t + 1), updates: 1,
		}
	}
}

// genFig7 is the paper's fig. 7 shape: every transaction changes
// quantity, delivery_time and consume_freq of all items. The parity of
// the transaction index is folded into every value so each statement is
// a real update, also when the script wraps around.
func genFig7(w *workload, sc *script, rng *rand.Rand, txns int) {
	populateInventory(sc)
	sc.ops = make([]op, txns)
	for t := range sc.ops {
		par := t % 2
		lo := len(sc.writes)
		var b strings.Builder
		b.WriteString(beginText)
		for i := 0; i < sc.items; i++ {
			q := 4000 + 2*rng.Intn(500) + par
			fmt.Fprintf(&b, "set quantity(:i%d)=%d; set delivery_time(:i%d,:s%d)=%d; set consume_freq(:i%d)=%d;\n",
				i, q, i, i, 3-par, i, 21-par)
			sc.writes = append(sc.writes,
				write{fnQuantity, int32(i), int32(q)},
				write{fnDeliveryTime, int32(i), int32(3 - par)},
				write{fnConsumeFreq, int32(i), int32(21 - par)})
		}
		b.WriteString(commitText)
		sc.ops[t] = op{text: b.String(), lo: int32(lo), hi: int32(len(sc.writes)), updates: int32(3 * sc.items)}
	}
}

// genFireCascade drops cascadeBatch distinct seeded-random items below
// the threshold per transaction. The rule fires for exactly those; the
// harness's order procedure restocks each to 5000, so the second check
// round withdraws the condition and the next transaction starts clean.
func genFireCascade(w *workload, sc *script, rng *rand.Rand, txns int) {
	populateInventory(sc)
	sc.ops = make([]op, txns)
	for t := range sc.ops {
		lo := len(sc.writes)
		var b strings.Builder
		b.WriteString(beginText)
		for _, item := range rng.Perm(sc.items)[:cascadeBatch] {
			fmt.Fprintf(&b, "set quantity(:i%d)=%d;\n", item, 1+rng.Intn(100))
			sc.writes = append(sc.writes, write{fnQuantity, int32(item), 5000})
		}
		b.WriteString(commitText)
		sc.ops[t] = op{
			text: b.String(), lo: int32(lo), hi: int32(len(sc.writes)),
			updates: 2 * cascadeBatch, fires: cascadeBatch,
		}
	}
}

// genDeleteRetract alternates retracting and re-deriving the one witness
// that derives tagged(x): even transactions lift wit above every alive
// bound (all items lose tagged), odd ones put it back. lowStock items
// satisfy the rest of the rule's condition, so every re-derivation fires
// the rule for exactly those.
func genDeleteRetract(w *workload, sc *script, rng *rand.Rand, txns int) {
	sc.schema = witnessSchema
	sc.witness = true
	sc.rule = "watch_tagged"
	sc.deriving = rng.Intn(numWitnesses)
	sc.low = rng.Perm(sc.items)[:lowStock]
	isLow := map[int]bool{}
	for _, i := range sc.low {
		isLow[i] = true
	}
	for lo := 0; lo < sc.items; lo += populateStep {
		hi := lo + populateStep
		if hi > sc.items {
			hi = sc.items
		}
		var b strings.Builder
		b.WriteString(beginText)
		parts := make([]string, 0, hi-lo)
		for i := lo; i < hi; i++ {
			parts = append(parts, fmt.Sprintf(":i%d", i))
		}
		fmt.Fprintf(&b, "create item instances %s;\n", strings.Join(parts, ", "))
		for i := lo; i < hi; i++ {
			stock := 5000
			if isLow[i] {
				stock = 5
			}
			fmt.Fprintf(&b, "set stock(:i%d)=%d; set alive(:i%d)=1;\n", i, stock, i)
		}
		b.WriteString(commitText)
		sc.populate = append(sc.populate, b.String())
	}
	var b strings.Builder
	b.WriteString(beginText)
	parts := make([]string, numWitnesses)
	for j := range parts {
		parts[j] = fmt.Sprintf(":w%d", j)
	}
	fmt.Fprintf(&b, "create witness instances %s;\n", strings.Join(parts, ", "))
	for j := 0; j < numWitnesses; j++ {
		v := 5
		if j == sc.deriving {
			v = 0
		}
		fmt.Fprintf(&b, "set wit(:w%d)=%d;\n", j, v)
	}
	b.WriteString(commitText)
	sc.populate = append(sc.populate, b.String())

	sc.ops = make([]op, txns)
	sc.writes = make([]write, txns)
	for t := range sc.ops {
		v, fires := 1+rng.Intn(999), 0
		if t%2 == 1 {
			v, fires = 0, lowStock
		}
		sc.writes[t] = write{fnWit, int32(sc.deriving), int32(v)}
		sc.ops[t] = op{
			text: fmt.Sprintf("set wit(:w%d)=%d;", sc.deriving, v),
			lo:   int32(t), hi: int32(t + 1), updates: 1, fires: int32(fires),
		}
	}
}
