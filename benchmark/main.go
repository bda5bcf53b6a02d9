// Command benchmark is the repository's performance benchmark: six named
// workloads driven through the public partdiff facade, end-to-end
// metrics with fixed regression bounds, and a separate traced pass that
// attributes a transaction's cost to the layers it crosses.
//
//	go run ./benchmark -seed 1             all workloads, end-to-end metrics
//	go run ./benchmark -seed 1 -traced     plus the per-layer pass and spans files
//	go run ./benchmark -selfcheck          whole set twice, A/A differences against the bounds
//
// The driver form runs one workload in this process and prints one JSON
// object as the last line of standard output:
//
//	go run ./benchmark --workload fig6_small --seed 1 --seconds 10 --trace 0
//
// See README.md in this directory for what each workload and metric is.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
)

type options struct {
	workload  string
	seed      int64
	seconds   float64
	trace     int
	traced    bool
	selfcheck bool
	spansOut  string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run this one workload in-process and end with the result as one JSON line (driver form)")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the input generators; the same seed gives byte-identical scripts")
	flag.Float64Var(&o.seconds, "seconds", 0, "measure for this long, wrapping around the script; 0 runs the script's fixed transaction count once")
	flag.IntVar(&o.trace, "trace", 0, "with -workload: 0 prints the end-to-end metrics, 1 runs the traced pass and prints the per-layer metrics")
	flag.BoolVar(&o.traced, "traced", false, "all-workloads form: also run the traced pass of every workload")
	flag.BoolVar(&o.selfcheck, "selfcheck", false, "run the whole set twice on this binary and compare the two against the bounds")
	flag.StringVar(&o.spansOut, "spans-out", "", "traced pass: write every span as one JSON line to this file at exit")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	// Two threads of load from one process, whatever the box has: the
	// reference numbers were taken on two cores, and before Go 1.25 the
	// runtime ignores a container's CPU quota. This is the one place that
	// sets it; the child processes of the all-workloads forms pass here too.
	runtime.GOMAXPROCS(2)

	var err error
	switch {
	case o.workload != "":
		err = runOne(o)
	case o.selfcheck:
		err = runSelfcheck(o)
	default:
		err = runAll(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// wireMetric is one metric in the driver's result object.
type wireMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// wireResult is the driver's result object: exactly these keys.
type wireResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]wireMetric `json:"metrics"`
}

// runOne runs one workload in this process. It prints every metric it
// measured in readable form, then a "#full" line with all of them for
// the all-workloads form to parse, and last the driver's result object
// restricted to the metrics BENCHMARK.json lists for the pass.
func runOne(o options) error {
	w := findWorkload(o.workload)
	if w == nil {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	defer os.Remove(tmpRoot) // succeeds only when every run cleaned up after itself
	lim := limits{seconds: o.seconds}
	var rep *report
	var defs []metricDef
	var err error
	if o.trace == 0 {
		rep, err = runE2E(w, o.seed, 1, lim)
		defs = endToEnd
	} else {
		rep, err = runTraced(w, o.seed, 1, lim, o.spansOut)
		defs = perLayer
	}
	if err != nil {
		return err
	}
	title := "end-to-end, tracing off"
	if o.trace != 0 {
		title = "traced pass, per-layer"
	}
	printReport(rep, defs, title)

	full := wireResult{Correct: rep.failed == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]wireMetric{}}
	wire := full
	wire.Metrics = map[string]wireMetric{}
	for i := range defs {
		d := &defs[i]
		v, ok := rep.metrics[d.name]
		if ok {
			full.Metrics[d.name] = wireMetric{v, d.unit}
		}
		if o.trace == 0 && !d.gated() {
			continue
		}
		// The driver wants every listed metric from every workload; a
		// per-layer metric a workload has no work for reads 0 there.
		wire.Metrics[d.name] = wireMetric{v, d.unit}
	}
	if err := printJSON("#full ", full); err != nil {
		return err
	}
	if err := printJSON("", wire); err != nil {
		return err
	}
	if rep.failed != 0 {
		return fmt.Errorf("%s: %d of %d operations failed", w.name, rep.failed, rep.attempted)
	}
	return nil
}

func printJSON(prefix string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Printf("%s%s\n", prefix, b)
	return err
}

// printReport prints one workload's metrics by name and unit, in
// catalogue order, then its sample counts and any failed check.
func printReport(rep *report, defs []metricDef, title string) {
	fmt.Printf("workload %s (%s)\n", rep.workload, title)
	for i := range defs {
		d := &defs[i]
		v, ok := rep.metrics[d.name]
		if !ok {
			continue // defined on another workload only: omitted, not zero
		}
		note := ""
		if rep.unresolved && d.span {
			note = "  (unresolved: tracing overhead above 10%)"
		}
		fmt.Printf("  %-34s %16.4f %s%s\n", d.name, v, d.unit, note)
	}
	keys := make([]string, 0, len(rep.counts))
	for k := range rep.counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Printf("  samples:")
	for _, k := range keys {
		fmt.Printf(" %s=%g", k, rep.counts[k])
	}
	fmt.Printf("\n  checks: %d attempted, %d failed\n", rep.attempted, rep.failed)
	for _, p := range rep.problems {
		fmt.Printf("  FAILED: %s\n", p)
	}
}
