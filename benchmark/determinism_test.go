package main

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"
)

// scriptHash covers every statement the program would receive.
func scriptHash(sc *script) string {
	h := sha256.New()
	h.Write([]byte(sc.schema))
	for _, p := range sc.populate {
		h.Write([]byte(p))
	}
	h.Write([]byte(sc.activate()))
	for i := range sc.ops {
		h.Write([]byte(sc.ops[i].text))
	}
	return hex.EncodeToString(h.Sum(nil))
}

func totalFires(sc *script) (n int64) {
	for i := range sc.ops {
		n += int64(sc.ops[i].fires)
	}
	return n
}

// The same seed gives byte-identical op scripts; another seed gives
// another script with the same closed-form firing totals.
func TestScriptsFollowTheSeed(t *testing.T) {
	for _, w := range workloads {
		a, b, c := w.generate(7, 0.05), w.generate(7, 0.05), w.generate(8, 0.05)
		if scriptHash(a) != scriptHash(b) {
			t.Errorf("%s: two generations from seed 7 differ", w.name)
		}
		if scriptHash(a) == scriptHash(c) {
			t.Errorf("%s: seeds 7 and 8 generate the same script", w.name)
		}
		if totalFires(a) != totalFires(c) {
			t.Errorf("%s: closed-form firings depend on the seed: %d vs %d", w.name, totalFires(a), totalFires(c))
		}
		for i := range a.ops {
			if body := a.ops[i].body(); !strings.Contains(a.ops[i].text, body) || strings.Contains(body, "commit;") {
				t.Fatalf("%s: op %d body is not the unwrapped text", w.name, i)
			}
		}
	}
}

// With one client the registry counts repeat exactly: two traced passes
// of the same script report identical count metrics, and two end-to-end
// durability tails the same log bytes per transaction.
func TestCountsRepeatExactly(t *testing.T) {
	counts := []string{
		"propnet.propagations_per_txn", "propnet.differentials_per_txn", "propnet.zero_effect_per_txn",
		"propnet.useful_exec_frac", "eval.tuples_scanned_per_txn", "eval.scanned_per_emitted",
		"delta.folds_per_txn", "delta.cancel_frac", "storage.index_probes_per_txn",
		"storage.tuple_reads_per_txn", "storage.snapshot_pins_per_query", "rules.check_rounds_per_txn",
		"rules.actions_per_txn", "maint.applied_per_txn", "maint.strategy_switches",
		"wal.fsyncs_per_txn", "txn.conflicts", "eval.scanned_per_wave",
	}
	for _, w := range workloads {
		if w.reader {
			continue // two goroutines: the reader's share of the counts varies
		}
		var runs [2]*report
		for r := range runs {
			rep, err := runTraced(w, 3, 0.01, limits{}, "")
			if err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
			if rep.failed != 0 {
				t.Fatalf("%s: failed checks: %v", w.name, rep.problems)
			}
			runs[r] = rep
		}
		for _, name := range counts {
			if a, b := runs[0].metrics[name], runs[1].metrics[name]; a != b {
				t.Errorf("%s: %s differs between two runs of seed 3: %v vs %v", w.name, name, a, b)
			}
		}
		var logBytes [2]float64
		for r := range logBytes {
			rep := &report{metrics: metricSet{}, counts: map[string]float64{}}
			if err := durabilityTail(rep, w, w.generate(3, 0.01), 20); err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
			logBytes[r] = rep.metrics["wal_bytes_per_txn"]
		}
		if logBytes[0] != logBytes[1] || logBytes[0] == 0 {
			t.Errorf("%s: wal_bytes_per_txn of two runs of seed 3: %v vs %v", w.name, logBytes[0], logBytes[1])
		}
	}
}
