package maint

import (
	"fmt"
	"io"
	"sort"

	"partdiff/internal/obs"
)

// Choose picks the propagation strategy for one view at the start of a
// wave. seedTotal is the total Δ size feeding the view's differentials
// this wave; extentEst is the evaluator's current estimate of the
// view's extent cardinality (cold-start proxy for recomputation cost).
//
// The costs compared are predicted tuples scanned: incremental ≈
// seedTotal × incrPerSeed (EWMA, default 16 cold), recompute ≈
// recompScan (EWMA) or extentEst × 4 cold. The first decision for a
// view is taken directly; after that a flip requires the alternative
// to win by HysteresisFactor for HysteresisRuns consecutive waves.
//
// With Hybrid disabled this always returns Incremental and records
// nothing.
func (m *Maintainer) Choose(view string, seedTotal, extentEst int) Strategy {
	if m == nil || !m.cfg.Hybrid {
		return Incremental
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	vs, ok := m.views[view]
	if !ok {
		vs = &viewState{name: view}
		m.views[view] = vs
	}

	incrCost := float64(seedTotal) * defaultIncrPerSeed
	if vs.incrSeen {
		incrCost = float64(seedTotal) * vs.incrPerSeed
	}
	recompCost := float64(extentEst) * recompFactor
	if vs.recompSeen {
		recompCost = vs.recompScan
	}

	want := vs.cur
	switch {
	case recompCost*m.cfg.HysteresisFactor < incrCost:
		want = Recompute
	case incrCost*m.cfg.HysteresisFactor < recompCost:
		want = Incremental
	}

	switched := false
	switch {
	case !vs.decided:
		// The first decision is taken directly — but every view starts
		// on the Incremental default (the strategy it uses with hybrid
		// off), so landing anywhere else is a real strategy change and
		// is journaled and metered as a switch.
		vs.decided = true
		vs.cur = want
		vs.pendingRuns = 0
		switched = want != Incremental
	case want == vs.cur:
		vs.pendingRuns = 0
	default:
		if vs.pending != want {
			vs.pending = want
			vs.pendingRuns = 0
		}
		vs.pendingRuns++
		if vs.pendingRuns >= m.cfg.HysteresisRuns {
			vs.cur = want
			vs.pendingRuns = 0
			switched = true
		}
	}

	m.decSeq++
	d := Decision{
		Seq: m.decSeq, View: view, Strategy: vs.cur, Switched: switched,
		SeedTotal: seedTotal, IncrCost: incrCost, RecompCost: recompCost,
	}
	m.decisions = append(m.decisions, d)
	if len(m.decisions) > decisionRing {
		m.decisions = m.decisions[len(m.decisions)-decisionRing:]
	}
	m.met.Decisions.With(vs.cur.String()).Inc()
	if switched {
		m.switches++
		m.met.Switches.Inc()
		detail := fmt.Sprintf("%s: %s (incr≈%.0f recomp≈%.0f scanned, seed=%d)",
			view, vs.cur, incrCost, recompCost, seedTotal)
		if m.bus != nil {
			m.bus.Publish(obs.Event{
				Type:   obs.EventSystem,
				Op:     "strategy_switch",
				Detail: detail,
			})
		}
		m.rec.RecordChoice(view, vs.cur.String(), detail)
	}
	return vs.cur
}

// ObserveIncremental feeds the chooser one incremental wave's observed
// cost: scanned tuples over seedTotal seed tuples for the view.
func (m *Maintainer) ObserveIncremental(view string, seedTotal, scanned int) {
	if m == nil || seedTotal <= 0 {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	vs, ok := m.views[view]
	if !ok {
		return
	}
	vs.incrPerSeed = ewma(vs.incrPerSeed, float64(scanned)/float64(seedTotal), vs.incrSeen)
	vs.incrSeen = true
}

// ObserveRecompute feeds the chooser one full recomputation's observed
// scan cost for the view.
func (m *Maintainer) ObserveRecompute(view string, scanned int) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	vs, ok := m.views[view]
	if !ok {
		return
	}
	vs.recompScan = ewma(vs.recompScan, float64(scanned), vs.recompSeen)
	vs.recompSeen = true
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

// Decisions returns a copy of the recent-decision journal, oldest
// first.
func (m *Maintainer) Decisions() []Decision {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Decision, len(m.decisions))
	copy(out, m.decisions)
	return out
}

// StrategyLabel names the view's maintenance strategy for the profiler
// report's strategy column: "count" (counting incremental), "incr"
// (plain incremental), "recomp" (chooser currently prefers
// recomputation), or "" for views the maintainer doesn't know.
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
	if vs.decided && vs.cur == Recompute {
		return "recomp"
	}
	if m.cfg.Counting && vs.seeded && !vs.dirty {
		return "count"
	}
	if m.cfg.Counting {
		return "count*" // counting view pending (re)seed
	}
	return "incr"
}

// WriteReport renders the chooser state and decision journal — the
// shell's \hybrid report.
func (m *Maintainer) WriteReport(w io.Writer) error {
	if m == nil {
		_, err := fmt.Fprintln(w, "hybrid maintenance: not enabled")
		return err
	}
	m.mu.Lock()
	views := make([]*viewState, 0, len(m.views))
	for _, vs := range m.views {
		views = append(views, vs)
	}
	sort.Slice(views, func(i, j int) bool { return views[i].name < views[j].name })
	type row struct {
		name, strat             string
		counted                 int
		seeded, dirty           bool
		incrPerSeed, recompScan float64
		incrSeen, recompSeen    bool
	}
	rows := make([]row, 0, len(views))
	for _, vs := range views {
		strat := Incremental
		if vs.decided {
			strat = vs.cur
		}
		rows = append(rows, row{
			name: vs.name, strat: strat.String(), counted: vs.counts.Len(),
			seeded: vs.seeded, dirty: vs.dirty,
			incrPerSeed: vs.incrPerSeed, recompScan: vs.recompScan,
			incrSeen: vs.incrSeen, recompSeen: vs.recompSeen,
		})
	}
	decs := make([]Decision, len(m.decisions))
	copy(decs, m.decisions)
	switches := m.switches
	counting, hybrid := m.cfg.Counting, m.cfg.Hybrid
	m.mu.Unlock()

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
		state := "seeded"
		switch {
		case !r.seeded:
			state = "unseeded"
		case r.dirty:
			state = "dirty"
		}
		ips, rs := "-", "-"
		if r.incrSeen {
			ips = fmt.Sprintf("%.1f", r.incrPerSeed)
		}
		if r.recompSeen {
			rs = fmt.Sprintf("%.0f", r.recompScan)
		}
		fmt.Fprintf(w, "  %-28s %-8s %9d %8s %14s %14s\n",
			r.name, r.strat, r.counted, state, ips, rs)
	}
	if len(decs) > 0 {
		fmt.Fprintf(w, "  recent decisions (last %d):\n", len(decs))
		for _, d := range decs {
			mark := " "
			if d.Switched {
				mark = "*"
			}
			fmt.Fprintf(w, "  %s #%-5d %-28s %-7s seed=%-6d incr≈%-9.0f recomp≈%-9.0f\n",
				mark, d.Seq, d.View, d.Strategy, d.SeedTotal, d.IncrCost, d.RecompCost)
		}
	}
	return nil
}
