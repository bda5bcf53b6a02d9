package maint

import "partdiff/internal/obs"

// Metrics is the maintenance subsystem's meter set. The zero value is a
// valid disabled meter set (nil meters are no-ops).
type Metrics struct {
	// Applied counts tuples whose derivation count changed in Apply.
	Applied *obs.Counter
	// Retractions counts counting-detected net deletions (support hit
	// zero) — each one is a delete that needed no recomputation.
	Retractions *obs.Counter
	// Reseeds counts full count-store rebuilds.
	Reseeds *obs.Counter
	// Rollbacks counts transaction aborts replayed through the undo
	// journal.
	Rollbacks *obs.Counter
	// Switches counts strategy switches.
	Switches *obs.Counter
	// CountedTuples is the number of distinct derived tuples currently
	// carrying a support count.
	CountedTuples *obs.Gauge
}

// NewMetrics registers the maintenance meters in r.
func NewMetrics(r *obs.Registry) *Metrics {
	return &Metrics{
		Applied:       r.Counter("partdiff_maint_applied_total", "Derived tuples whose derivation count changed."),
		Retractions:   r.Counter("partdiff_maint_retractions_total", "Counting-detected net deletions (support reached zero, no recompute)."),
		Reseeds:       r.Counter("partdiff_maint_reseeds_total", "Full derivation-count store rebuilds."),
		Rollbacks:     r.Counter("partdiff_maint_rollbacks_total", "Transaction aborts rolled back through the count undo journal."),
		Switches:      r.Counter("partdiff_maint_strategy_switches_total", "Views the hybrid chooser moved between differencing and recomputation."),
		CountedTuples: r.Gauge("partdiff_maint_counted_tuples", "Distinct derived tuples carrying a support count."),
	}
}
