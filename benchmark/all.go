package main

// The all-workloads forms: every workload in a fresh child process of
// this same binary, so no workload inherits another's heap, and the A/A
// self-check built on top of that.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// outRoot receives the spans files of the all-workloads traced pass.
const outRoot = ".bench_out"

// printHeader prints the run header: everything needed to decide whether
// two reports are comparable.
func printHeader(o options) {
	fmt.Printf("partdiff benchmark: seed=%d seconds=%g\n", o.seed, o.seconds)
	fmt.Printf("  nproc=%d GOMAXPROCS=%d go=%s %s/%s\n", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	fmt.Printf("  cpu=%s\n", cpuModel())
	fmt.Printf("  commit=%s\n", commit())
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// child runs one workload pass in a fresh process and returns its full
// metric set. The child's readable report is passed through.
func child(o options, w *workload, trace int, quiet bool) (*wireResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{
		"-workload", w.name, "-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds), "-trace", fmt.Sprint(trace),
	}
	if trace == 1 {
		if err := os.MkdirAll(outRoot, 0o755); err != nil {
			return nil, err
		}
		args = append(args, "-spans-out", filepath.Join(outRoot, "spans-"+w.name+".jsonl"))
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	var out bytes.Buffer
	cmd.Stdout = &out
	runErr := cmd.Run()

	var full *wireResult
	sc := bufio.NewScanner(&out)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "#full "):
			full = &wireResult{}
			if err := json.Unmarshal([]byte(line[len("#full "):]), full); err != nil {
				return nil, fmt.Errorf("%s: bad result line: %w", w.name, err)
			}
		case strings.HasPrefix(line, "{"):
			// the driver's line; the all-workloads form prints tables only
		case !quiet:
			fmt.Println(line)
		}
	}
	if full == nil {
		return nil, fmt.Errorf("%s: child printed no result: %v", w.name, runErr)
	}
	return full, nil
}

// runAll runs every workload once (and its traced pass with -traced) and
// fails if any operation of any workload failed.
func runAll(o options) error {
	printHeader(o)
	failed := 0
	for _, w := range workloads {
		for trace := 0; trace <= 1; trace++ {
			if trace == 1 && !o.traced {
				continue
			}
			res, err := child(o, w, trace, false)
			if err != nil {
				return err
			}
			if !res.Correct {
				failed++
			}
		}
	}
	if o.traced {
		fmt.Printf("spans files are in %s/\n", outRoot)
	}
	if failed > 0 {
		return fmt.Errorf("%d workload passes had failed operations", failed)
	}
	return nil
}

// runSelfcheck runs the whole set twice on this binary and prints, per
// workload and end-to-end metric, both values, their relative difference
// and the bound. The difference is symmetric: neither run is the parent,
// so it fails when the two are further apart than the bound in either
// direction. Bounds that A/A runs cannot hold are not bounds.
func runSelfcheck(o options) error {
	printHeader(o)
	var runs [2]map[string]*wireResult
	for r := range runs {
		runs[r] = map[string]*wireResult{}
		for _, w := range workloads {
			res, err := child(o, w, 0, true)
			if err != nil {
				return err
			}
			if !res.Correct {
				return fmt.Errorf("%s: %d of %d operations failed", w.name, res.Failed, res.Attempted)
			}
			runs[r][w.name] = res
			fmt.Printf("run %d %s done\n", r+1, w.name)
		}
	}
	fmt.Printf("%-15s %-18s %14s %14s %9s %7s\n", "workload", "metric", "run 1", "run 2", "diff", "bound")
	over := 0
	for _, w := range workloads {
		for i := range endToEnd {
			d := &endToEnd[i]
			a, okA := runs[0][w.name].Metrics[d.name]
			b, okB := runs[1][w.name].Metrics[d.name]
			if !okA || !okB {
				continue
			}
			diff := relDiff(a.Value, b.Value)
			mark := ""
			if diff > d.bound {
				mark = "  OVER"
				over++
			}
			fmt.Printf("%-15s %-18s %14.4f %14.4f %8.2f%% %6.1f%%%s\n",
				w.name, d.name, a.Value, b.Value, 100*diff, 100*d.bound, mark)
		}
	}
	if over > 0 {
		return fmt.Errorf("%d end-to-end differences between two runs of the same binary exceed their bounds", over)
	}
	return nil
}

// relDiff is |a-b| relative to the smaller of the two magnitudes.
func relDiff(a, b float64) float64 {
	if a == b {
		return 0
	}
	den := math.Min(math.Abs(a), math.Abs(b))
	if den == 0 {
		return math.Inf(1)
	}
	return math.Abs(a-b) / den
}
