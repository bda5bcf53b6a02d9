package main

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
)

func findDef(defs []metricDef, name string) *metricDef {
	for i := range defs {
		if defs[i].name == name {
			return &defs[i]
		}
	}
	return nil
}

// Quick mode: every workload's end-to-end and traced pass at 1/100 size
// with all checks on, asserting that every metric the catalogue defines
// for the workload is present and finite.
func TestSmokeAllWorkloads(t *testing.T) {
	for _, w := range workloads {
		e2e, err := runE2E(w, 1, 0.01, limits{})
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		traced, err := runTraced(w, 1, 0.01, limits{}, "")
		if err != nil {
			t.Fatalf("%s traced: %v", w.name, err)
		}
		for _, pass := range []struct {
			rep  *report
			defs []metricDef
		}{{e2e, endToEnd}, {traced, perLayer}} {
			if pass.rep.failed != 0 {
				t.Errorf("%s: %d failed operations: %v", w.name, pass.rep.failed, pass.rep.problems)
			}
			for _, d := range pass.defs {
				v, ok := pass.rep.metrics[d.name]
				applies := d.only == "" || contains(strings.Split(d.only, ","), w.name)
				if ok != applies {
					t.Errorf("%s: metric %s present=%v, catalogue says defined=%v", w.name, d.name, ok, applies)
				}
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s: metric %s is %v", w.name, d.name, v)
				}
				if d.unit == "" || (d.better != "lower" && d.better != "higher") {
					t.Errorf("metric %s has no unit or direction", d.name)
				}
			}
			for name := range pass.rep.metrics {
				if findDef(pass.defs, name) == nil {
					t.Errorf("%s: metric %s is not in the catalogue", w.name, name)
				}
			}
		}
		if f := traced.metrics["txn.unattributed_frac"]; f > 0.15 {
			t.Errorf("%s: span tree leaves %.3f of the transaction unattributed", w.name, f)
		}
	}
	if _, err := os.Stat(tmpRoot); err == nil {
		if entries, _ := os.ReadDir(tmpRoot); len(entries) > 0 {
			t.Errorf("%s still holds %d entries after the runs", tmpRoot, len(entries))
		}
		os.Remove(tmpRoot)
	}
}

// BENCHMARK.json at the repository root is the driver's copy of the
// catalogue; the two must say the same thing.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name   string   `json:"name"`
		Why    string   `json:"why"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []entry  `json:"workloads"`
		EndToEnd   []entry  `json:"end_to_end"`
		PerLayer   []entry  `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the benchmark %q (or their reasons differ)", i, doc.Workloads[i].Name, w.name)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", w.name)
		}
	}
	var gated []metricDef
	for _, d := range endToEnd {
		if d.gated() {
			gated = append(gated, d)
		}
	}
	compare := func(kind string, got []entry, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the catalogue %d", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s, %s], the catalogue %s [%s, %s]",
					kind, i, g.Name, g.Unit, g.Better, d.name, d.unit, d.better)
			}
			if bounded && (g.Bound == nil || *g.Bound != d.bound) {
				t.Errorf("%s %s: bound differs from the catalogue's %g", kind, d.name, d.bound)
			}
			if !bounded && g.Bound != nil {
				t.Errorf("%s %s: per-layer metrics have no bound", kind, d.name)
			}
		}
	}
	compare("end_to_end", doc.EndToEnd, gated, true)
	compare("per_layer", doc.PerLayer, perLayer, false)
	if len(doc.Paths) != 1 || doc.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", doc.Paths)
	}
}
