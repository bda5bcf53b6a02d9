package eval

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"

	"partdiff/internal/objectlog"
)

// Stats is the observed-statistics table the adaptive join optimizer
// consults: exponentially weighted moving averages of
//
//   - per-predicate observed cardinalities of derived extents (learned
//     whenever a derived predicate is fully enumerated — an unbound
//     subquery call or an EvalPred), replacing stepCost's static
//     "derived subqueries cost 10000" guess, and
//   - per-literal observed scan volumes keyed by (predicate, Δ-kind,
//     bound-argument mask) — how many tuples matching this literal shape
//     actually cost last time — replacing the static index-selectivity
//     estimate.
//
// The table is workload history, not schema metadata: it starts empty,
// is fed by the evaluator as a side effect of normal evaluation, and
// converges within a few transactions (EWMA α=0.3, so an observation
// has ~97% weight after ten updates). It deliberately persists across
// propagation-network rebuilds — the rules manager passes the same
// table to every rebuilt network's evaluator.
//
// All methods are nil-safe (a nil *Stats records and reports nothing),
// so the evaluator needs no branches when adaptive statistics are off.
type Stats struct {
	mu    sync.RWMutex
	preds map[string]float64
	lits  map[litKey]float64
}

// litKey identifies a literal shape: which predicate, against which
// state (Δ+/Δ−/plain), with which argument positions bound at the time
// the literal ran. Positions ≥ 32 fold into the same mask bit — exact
// masks matter only for the small arities ObjectLog functions have.
type litKey struct {
	pred  string
	delta objectlog.DeltaKind
	mask  uint32
}

// ewmaAlpha is the smoothing factor: recent transactions dominate, but
// one anomalous propagation doesn't wipe the history.
const ewmaAlpha = 0.3

// NewStats returns an empty observed-statistics table.
func NewStats() *Stats {
	return &Stats{preds: map[string]float64{}, lits: map[litKey]float64{}}
}

func ewma(old, obs float64, seen bool) float64 {
	if !seen {
		return obs
	}
	return old + ewmaAlpha*(obs-old)
}

// RecordPred feeds one observed full-extent cardinality of a derived
// predicate.
func (s *Stats) RecordPred(pred string, card int) {
	if s == nil {
		return
	}
	s.mu.Lock()
	old, seen := s.preds[pred]
	s.preds[pred] = ewma(old, float64(card), seen)
	s.mu.Unlock()
}

// PredCard returns the observed cardinality of a derived predicate's
// extent, false if it has never been fully enumerated.
func (s *Stats) PredCard(pred string) (int, bool) {
	if s == nil {
		return 0, false
	}
	s.mu.RLock()
	v, ok := s.preds[pred]
	s.mu.RUnlock()
	return int(v + 0.5), ok
}

// RecordLiteral feeds one observed scan volume for a literal shape.
func (s *Stats) RecordLiteral(pred string, delta objectlog.DeltaKind, mask uint32, scanned int64) {
	if s == nil {
		return
	}
	k := litKey{pred: pred, delta: delta, mask: mask}
	s.mu.Lock()
	old, seen := s.lits[k]
	s.lits[k] = ewma(old, float64(scanned), seen)
	s.mu.Unlock()
}

// LitScanned returns the observed scan volume of a literal shape, false
// if that shape has never run.
func (s *Stats) LitScanned(pred string, delta objectlog.DeltaKind, mask uint32) (int, bool) {
	if s == nil {
		return 0, false
	}
	s.mu.RLock()
	v, ok := s.lits[litKey{pred: pred, delta: delta, mask: mask}]
	s.mu.RUnlock()
	return int(v + 0.5), ok
}

// Reset discards all observations.
func (s *Stats) Reset() {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.preds = map[string]float64{}
	s.lits = map[litKey]float64{}
	s.mu.Unlock()
}

// WriteTo renders the table sorted by key — a debugging surface for the
// shell and tests, not a stable report format.
func (s *Stats) WriteTo(w io.Writer) (int64, error) {
	if s == nil {
		n, err := io.WriteString(w, "adaptive statistics: off\n")
		return int64(n), err
	}
	s.mu.RLock()
	var b strings.Builder
	b.WriteString("observed predicate cardinalities:\n")
	var names []string
	for p := range s.preds {
		names = append(names, p)
	}
	sort.Strings(names)
	for _, p := range names {
		fmt.Fprintf(&b, "  %-24s %.1f\n", p, s.preds[p])
	}
	b.WriteString("observed literal scan volumes (pred Δ mask → tuples):\n")
	keys := make([]litKey, 0, len(s.lits))
	for k := range s.lits {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].pred != keys[j].pred {
			return keys[i].pred < keys[j].pred
		}
		if keys[i].delta != keys[j].delta {
			return keys[i].delta < keys[j].delta
		}
		return keys[i].mask < keys[j].mask
	})
	for _, k := range keys {
		fmt.Fprintf(&b, "  %-24s %-2s %#04x → %.1f\n", k.pred, k.delta, k.mask, s.lits[k])
	}
	s.mu.RUnlock()
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}
