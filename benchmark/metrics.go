package main

// The metric catalogue: every name the benchmark prints, with its unit,
// direction and (for end-to-end metrics) regression bound. BENCHMARK.json
// at the repository root repeats the gated part of this table; the smoke
// test fails when the two disagree.

import (
	"math"
	"sort"
)

type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
	// only lists the workloads a per-layer metric is defined on, comma
	// separated ("" = all); elsewhere the report omits it.
	only string
	// ungated marks the one end-to-end metric BENCHMARK.json cannot list:
	// error_rate is zero on every run by design, BENCHMARK.json takes only
	// metrics that are never zero, and the driver reads failed and
	// attempted from the result object itself.
	ungated bool
	// span marks a per-layer metric read from the traced transactions'
	// span trees; it is reported as unresolved when tracing cost more
	// than a tenth of the untraced transaction.
	span bool
}

// endToEnd lists the 13 end-to-end metrics; every workload reports every
// one. Bounds were fixed from the A/A evidence in README.md.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "txn_p50_us", unit: "us", better: "lower", bound: 0.18},
	{name: "txn_p90_us", unit: "us", better: "lower", bound: 0.25},
	{name: "updates_per_s", unit: "1/s", better: "higher", bound: 0.20},
	{name: "allocs_per_txn", unit: "count", better: "lower", bound: 0.01},
	{name: "bytes_per_txn", unit: "B", better: "lower", bound: 0.08},
	{name: "live_heap_mb", unit: "MiB", better: "lower", bound: 0.05},
	{name: "query_p50_us", unit: "us", better: "lower", bound: 0.25},
	{name: "queries_per_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "react_p50_us", unit: "us", better: "lower", bound: 0.20},
	{name: "wal_bytes_per_txn", unit: "B", better: "lower", bound: 0.01},
	{name: "recover_s", unit: "s", better: "lower", bound: 0.25},
	{name: "error_rate", unit: "ratio", better: "lower", bound: 0, ungated: true},
}

// perLayer lists the traced pass's metrics, named <layer>.<name>. None
// has a bound. README.md says which end-to-end metric each should move.
var perLayer = []metricDef{
	// Commit-path spans: median self time per transaction.
	{name: "txn.begin_us", unit: "us", better: "lower", span: true},
	{name: "amosql.exec_us", unit: "us", better: "lower", span: true},
	{name: "rules.check_us", unit: "us", better: "lower", span: true},
	{name: "rules.action_us", unit: "us", better: "lower", span: true},
	{name: "rules.first_action_us", unit: "us", better: "lower", span: true},
	{name: "wal.persist_us", unit: "us", better: "lower", span: true},
	{name: "txn.end_us", unit: "us", better: "lower", span: true},
	{name: "txn.post_us", unit: "us", better: "lower", span: true},
	{name: "txn.unattributed_frac", unit: "ratio", better: "lower", span: true},
	// Layer rigs: unit costs on the captured inputs.
	{name: "amosql.parse_ns_per_stmt", unit: "ns", better: "lower"},
	{name: "storage.apply_ns_per_event", unit: "ns", better: "lower"},
	{name: "storage.pin_us", unit: "us", better: "lower"},
	{name: "delta.fold_ns_per_event", unit: "ns", better: "lower"},
	{name: "propnet.propagate_us_per_wave", unit: "us", better: "lower"},
	{name: "eval.scanned_per_wave", unit: "count", better: "lower"},
	{name: "eval.full_ns_per_scanned", unit: "ns", better: "lower"},
	{name: "eval.derivable_us", unit: "us", better: "lower"},
	{name: "diff.generate_us", unit: "us", better: "lower"},
	{name: "propnet.finalize_ms", unit: "ms", better: "lower"},
	{name: "rules.activate_ms", unit: "ms", better: "lower"},
	{name: "wal.checkpoint_ms", unit: "ms", better: "lower", only: "durable_small"},
	{name: "wal.recover_us_per_record", unit: "us", better: "lower", only: "durable_small"},
	// Counts per transaction, from the metrics registry.
	{name: "propnet.propagations_per_txn", unit: "count", better: "lower"},
	{name: "propnet.differentials_per_txn", unit: "count", better: "lower"},
	{name: "propnet.zero_effect_per_txn", unit: "count", better: "lower"},
	{name: "propnet.useful_exec_frac", unit: "ratio", better: "higher"},
	{name: "eval.tuples_scanned_per_txn", unit: "count", better: "lower"},
	{name: "eval.scanned_per_emitted", unit: "count", better: "lower"},
	{name: "delta.folds_per_txn", unit: "count", better: "lower"},
	{name: "delta.cancel_frac", unit: "ratio", better: "lower"},
	{name: "storage.index_probes_per_txn", unit: "count", better: "lower"},
	{name: "storage.tuple_reads_per_txn", unit: "count", better: "lower"},
	{name: "storage.snapshot_pins_per_query", unit: "count", better: "lower"},
	{name: "rules.check_rounds_per_txn", unit: "count", better: "lower"},
	{name: "rules.actions_per_txn", unit: "count", better: "lower"},
	{name: "maint.applied_per_txn", unit: "count", better: "lower"},
	{name: "maint.strategy_switches", unit: "count", better: "lower"},
	{name: "wal.fsyncs_per_txn", unit: "count", better: "lower"},
	{name: "txn.gate_wait_p50_us", unit: "us", better: "lower"},
	{name: "txn.conflicts", unit: "count", better: "lower"},
	// Reference configurations: ratios of median transaction latency.
	{name: "rules.naive_over_incr", unit: "ratio", better: "higher", only: "fig6_small,fig7_massive"},
	{name: "maint.counting_over_probe", unit: "ratio", better: "lower", only: "delete_retract"},
	{name: "obs.armed_over_default", unit: "ratio", better: "lower", only: "fig6_small,fig7_massive"},
	// Runtime.
	{name: "go.gc_cpu_frac", unit: "ratio", better: "lower"},
	{name: "go.gc_cycles", unit: "count", better: "lower"},
	{name: "go.heap_peak_mb", unit: "MiB", better: "lower"},
	{name: "txn.commit_p99_us", unit: "us", better: "lower"},
	// The tracing harness itself.
	{name: "bench.trace_overhead_frac", unit: "ratio", better: "lower"},
	{name: "bench.untraced_p50_us", unit: "us", better: "lower"},
	{name: "bench.traced_p50_us", unit: "us", better: "lower"},
}

// gated reports whether the driver's --trace 0 output carries the metric.
func (d *metricDef) gated() bool { return !d.ungated }

// metricSet maps metric name to measured value.
type metricSet map[string]float64

func (s metricSet) put(name string, v float64) { s[name] = v }

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; it sorts a copy. An empty sample gives 0.
func quantile(xs []int64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]int64(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return float64(s[lo]) + (pos-float64(lo))*float64(s[hi]-s[lo])
}

// sliceRate is the rate, per second, of operations issued back to back
// with the given latencies: the median over eight consecutive slices of
// the stream, so that one collector cycle or scheduler hiccup during a
// half-second probe does not decide the reading.
func sliceRate(lat []int64) float64 {
	const slices = 8
	if len(lat) < slices {
		return 0
	}
	rates := make([]float64, slices)
	for i := range rates {
		part := lat[i*len(lat)/slices : (i+1)*len(lat)/slices]
		var ns int64
		for _, l := range part {
			ns += l
		}
		rates[i] = float64(len(part)) / (float64(ns) / 1e9)
	}
	return medianF(rates)
}

func median(xs []int64) float64 { return quantile(xs, 0.5) }

func medianF(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}
