package maint

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync/atomic"

	"partdiff/internal/obs"
)

// The cost model of the §8 decision. Both costs are predicted tuples
// scanned. Differentiating a wave costs Σ|Δ influent| × the scans per
// seed tuple the view's differentiated waves have shown; a view that has
// never been differentiated is (cost unknown, prediction zero), so the
// chooser never leaves differencing on a guess about differencing.
// Recomputing the view (old extent, new extent, delta.Diff) costs the
// scans its recomputations have shown — or, before the first, whatever
// the caller estimates from the extents of the view's influents.
const (
	// A switch needs the other strategy to be predicted hysteresisFactor
	// cheaper on hysteresisRuns consecutive weighed waves. The factor
	// covers what a scanned tuple hides (an old-state probe costs more than
	// a new-state one) and, under counting, the reseed a switch back costs;
	// it is 1.5 and not 2 because fully updating k of a view's relations
	// predicts differencing at k times a recomputation, and the paper's
	// fig. 7 — k = 3, measured 28 000 scanned tuples against 12 000, 8.7 ms
	// against 3.9 — must clear it with room to spare.
	hysteresisFactor = 1.5
	hysteresisRuns   = 2

	// DifferenceFloor is the predicted differencing cost, in scanned
	// tuples, below which a wave is always differentiated and the chooser
	// is neither consulted nor updated. At the ~0.1–0.4 µs a scanned tuple
	// costs, recomputation could save a wave this small some tens of
	// microseconds at most — and it would report "Δview (recomputed)" in
	// place of which base change came through which differential, in
	// explanations, rule_firing events, the debug trace and the profile.
	// Set from the run recorded in DESIGN.md ("Counting maintenance &
	// hybrid propagation"): the costliest of the 2 845 waves of the test
	// suite, the examples and the golden outputs predicts 59 scanned
	// tuples, the benchmark's one-update transactions 10; the floor is the
	// power of two with a factor of four over the first.
	DifferenceFloor = 256
)

// Chooser is one differenced view's decision state. The propagation
// network keeps a pointer to it on the view's node and is its only
// writer (Propagate runs under the session's writer gate); what reports
// read from other goroutines is atomic.
type Chooser struct {
	m    *Maintainer // journals switches; nil for a chooser nobody reports on
	view string

	// cur is the strategy in force for waves above the floor, plus one;
	// zero until the first such wave has been weighed.
	cur atomic.Uint32
	// Observed costs: tuples scanned per seed tuple on differentiated
	// waves, tuples scanned per recomputation.
	perSeed    ewma
	recompScan ewma

	// against counts the consecutive weighed waves that favoured the
	// strategy not in force.
	against int
}

// ewma is an exponentially weighted mean with one writer and any number
// of readers. Zero means nothing has been observed (a mean that decays
// to zero is a cost not worth remembering either).
type ewma struct{ bits atomic.Uint64 }

// ewmaAlpha matches eval.Stats: recent waves dominate without one
// anomalous wave wiping the history.
const ewmaAlpha = 0.3

func (e *ewma) load() float64 { return math.Float64frombits(e.bits.Load()) }

func (e *ewma) observe(x float64) {
	if old := e.load(); old != 0 {
		x = old + ewmaAlpha*(x-old)
	}
	e.bits.Store(math.Float64bits(x))
}

// strategy returns the strategy in force above the floor and whether
// any wave has been weighed yet.
func (c *Chooser) strategy() (Strategy, bool) {
	v := c.cur.Load()
	if v == 0 {
		return Incremental, false
	}
	return Strategy(v - 1), true
}

// Choose picks the strategy for one wave of the view. seed is the total
// Δ its influents hold; coldRecompute predicts the scan cost of
// recomputing the view and is called only above the floor, while no
// recomputation has been observed. A wave under DifferenceFloor returns
// Incremental after one multiplication and one compare, touching
// nothing; a switch — and only a switch — is journaled, metered and
// announced through the maintainer.
func (c *Chooser) Choose(seed int, coldRecompute func() int) Strategy {
	incr := float64(seed) * c.perSeed.load()
	if incr < DifferenceFloor {
		return Incremental
	}
	recomp := c.recompScan.load()
	if recomp == 0 {
		recomp = float64(coldRecompute())
	}
	cur, _ := c.strategy()
	want := cur
	switch {
	case recomp*hysteresisFactor < incr:
		want = Recompute
	case incr*hysteresisFactor < recomp:
		want = Incremental
	}
	if want == cur {
		c.against = 0
	} else if c.against++; c.against >= hysteresisRuns {
		cur, c.against = want, 0
		c.m.noteSwitch(c.view, cur, seed, incr, recomp)
	}
	c.cur.Store(uint32(cur) + 1)
	return cur
}

// ObserveIncremental feeds one differentiated wave's cost: scanned
// tuples over seed seed tuples.
func (c *Chooser) ObserveIncremental(seed int, scanned int64) {
	if seed > 0 {
		c.perSeed.observe(float64(scanned) / float64(seed))
	}
}

// ObserveRecompute feeds one recomputation's scan cost.
func (c *Chooser) ObserveRecompute(scanned int64) { c.recompScan.observe(float64(scanned)) }

// Chooser returns the view's decision state, creating it on first use.
// It outlives propagation-network rebuilds: a rebuilt network asks
// again and finds the costs its predecessor observed. A nil maintainer
// hands out a private chooser whose switches nobody hears of.
func (m *Maintainer) Chooser(view string) *Chooser {
	if m == nil {
		return &Chooser{view: view}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return &m.view(view).chooser
}

// ResetStrategies returns every view to "no wave weighed yet" — the
// chooser was switched off, and the scheduler differentiates everything
// until it is consulted again. Observed costs are kept, so a later
// re-enable starts warm.
func (m *Maintainer) ResetStrategies() {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, vs := range m.views {
		vs.chooser.cur.Store(0)
		vs.chooser.against = 0
	}
}

// noteSwitch journals, meters and announces one strategy switch.
func (m *Maintainer) noteSwitch(view string, to Strategy, seed int, incrCost, recompCost float64) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.switches++
	m.decisions = append(m.decisions, Decision{
		Seq: m.switches, View: view, Strategy: to,
		SeedTotal: seed, IncrCost: incrCost, RecompCost: recompCost,
	})
	if len(m.decisions) > decisionRing {
		m.decisions = m.decisions[len(m.decisions)-decisionRing:]
	}
	m.mu.Unlock()
	m.met.Switches.Inc()
	detail := fmt.Sprintf("%s: %s (incr≈%.0f recomp≈%.0f scanned, seed=%d)",
		view, to, incrCost, recompCost, seed)
	if m.bus != nil {
		m.bus.Publish(obs.Event{Type: obs.EventSystem, Op: "strategy_switch", Detail: detail})
	}
	m.rec.RecordChoice(view, to.String(), detail)
}

// Switches returns the number of strategy switches since creation.
func (m *Maintainer) Switches() uint64 {
	if m == nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.switches
}

// Decisions returns a copy of the journal of recent strategy switches,
// oldest first.
func (m *Maintainer) Decisions() []Decision {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]Decision(nil), m.decisions...)
}

// StrategyLabel names the view's maintenance strategy for the profiler
// report's strategy column: "recomp" (the chooser currently prefers
// recomputation above the floor), "count" (counting incremental),
// "incr" (the chooser weighed a wave and kept differencing), or "" for
// a view that has only ever run the default scheme.
func (m *Maintainer) StrategyLabel(view string) string {
	if m == nil {
		return ""
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	vs, ok := m.views[view]
	if !ok {
		return ""
	}
	cur, decided := vs.chooser.strategy()
	switch {
	case cur == Recompute:
		return "recomp"
	case m.counting && vs.seeded && !vs.dirty:
		return "count"
	case m.counting:
		return "count*" // counting view pending (re)seed
	case decided:
		return "incr"
	}
	return ""
}

// WriteReport renders the per-view maintenance state and the journal of
// strategy switches — the shell's \hybrid report. hybrid says whether
// the scheduler currently consults the choosers.
func (m *Maintainer) WriteReport(w io.Writer, hybrid bool) error {
	type row struct {
		name, strat, state      string
		counted                 int
		incrPerSeed, recompScan float64
	}
	m.mu.Lock()
	rows := make([]row, 0, len(m.views))
	for _, vs := range m.views {
		r := row{
			name: vs.name, counted: vs.counts.Len(), state: "seeded",
			incrPerSeed: vs.chooser.perSeed.load(), recompScan: vs.chooser.recompScan.load(),
		}
		cur, _ := vs.chooser.strategy()
		r.strat = cur.String()
		switch {
		case !m.counting:
			r.state = "-"
		case !vs.seeded:
			r.state = "unseeded"
		case vs.dirty:
			r.state = "dirty"
		}
		rows = append(rows, r)
	}
	decs := append([]Decision(nil), m.decisions...)
	switches, counting := m.switches, m.counting
	m.mu.Unlock()
	sort.Slice(rows, func(i, j int) bool { return rows[i].name < rows[j].name })

	if _, err := fmt.Fprintf(w, "maintenance: counting=%v hybrid=%v switches=%d\n",
		counting, hybrid, switches); err != nil {
		return err
	}
	if len(rows) == 0 {
		_, err := fmt.Fprintln(w, "  (no maintained views)")
		return err
	}
	fmt.Fprintf(w, "  %-28s %-8s %9s %8s %14s %14s\n",
		"view", "strategy", "counted", "state", "incr/seed", "recomp scan")
	for _, r := range rows {
		ips, rs := "-", "-"
		if r.incrPerSeed != 0 {
			ips = fmt.Sprintf("%.1f", r.incrPerSeed)
		}
		if r.recompScan != 0 {
			rs = fmt.Sprintf("%.0f", r.recompScan)
		}
		fmt.Fprintf(w, "  %-28s %-8s %9d %8s %14s %14s\n",
			r.name, r.strat, r.counted, r.state, ips, rs)
	}
	if len(decs) > 0 {
		fmt.Fprintf(w, "  strategy switches (last %d):\n", len(decs))
		for _, d := range decs {
			fmt.Fprintf(w, "    #%-5d %-28s %-7s seed=%-6d incr≈%-9.0f recomp≈%-9.0f\n",
				d.Seq, d.View, d.Strategy, d.SeedTotal, d.IncrCost, d.RecompCost)
		}
	}
	return nil
}
