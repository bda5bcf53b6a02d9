package main

// The harness's own model of the database state, and the output checks
// built on it. The model is advanced from the script alone (last write
// wins), so comparing it with what the program answers checks the
// program's outputs without trusting any part of the program.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"

	"partdiff"
)

// model is the expected value of every base function the scripts touch.
type model struct {
	sc  *script
	val [numFns][]int32
}

// newModel returns the model of the state set-up leaves: the population
// plus the first warm transactions.
func newModel(sc *script, warm int) *model {
	m := &model{sc: sc}
	fill := func(fn, n int, v int32) {
		m.val[fn] = make([]int32, n)
		for i := range m.val[fn] {
			m.val[fn][i] = v
		}
	}
	if sc.witness {
		fill(fnWit, numWitnesses, 5)
		m.val[fnWit][sc.deriving] = 0
	} else {
		fill(fnQuantity, sc.items, 5000)
		fill(fnConsumeFreq, sc.items, 20)
		fill(fnDeliveryTime, sc.items, 2)
	}
	for i := 0; i < warm; i++ {
		m.apply(&sc.ops[i])
	}
	return m
}

// apply advances the model by one committed transaction.
func (m *model) apply(o *op) {
	for _, w := range m.sc.writes[o.lo:o.hi] {
		m.val[w.fn][w.idx] = w.val
	}
}

// tagged reports whether the witness schema's shared view currently
// holds (for every item alike).
func (m *model) tagged() bool { return m.val[fnWit][m.sc.deriving] < 1 }

// stateQuery is one full-extent query with the rows the model expects,
// keyed by the object's interface-variable name.
type stateQuery struct {
	stmt   string
	prefix string // interface variable prefix of the first column's objects
	want   func(idx int) (int64, bool)
}

func (m *model) stateQueries() []stateQuery {
	if m.sc.witness {
		return []stateQuery{
			{"select w, wit(w) for each witness w;", "w", func(j int) (int64, bool) { return int64(m.val[fnWit][j]), true }},
			{"select i, tagged(i) for each item i;", "i", func(int) (int64, bool) { return 1, m.tagged() }},
		}
	}
	return []stateQuery{
		{"select i, quantity(i) for each item i;", "i", func(i int) (int64, bool) { return int64(m.val[fnQuantity][i]), true }},
		{"select i, consume_freq(i) for each item i;", "i", func(i int) (int64, bool) { return int64(m.val[fnConsumeFreq][i]), true }},
		{"select i, threshold(i) for each item i;", "i", func(i int) (int64, bool) {
			return int64(m.val[fnConsumeFreq][i])*int64(m.val[fnDeliveryTime][i]) + 100, true
		}},
	}
}

// pointQuery is the read every workload's reader issues: the derived
// function of one object. want is the single expected value; ok is
// false when the model expects no row.
func (m *model) pointQuery(idx int) (stmt string, want int64, ok bool) {
	if m.sc.witness {
		return fmt.Sprintf("select tagged(:i%d);", idx), 1, m.tagged()
	}
	return fmt.Sprintf("select threshold(:i%d);", idx),
		int64(m.val[fnConsumeFreq][idx])*int64(m.val[fnDeliveryTime][idx]) + 100, true
}

// objectIndex maps the rendering of each object bound to :<prefix>N
// back to N.
func objectIndex(db *partdiff.DB, prefix string, n int) (map[string]int, error) {
	idx := make(map[string]int, n)
	for i := 0; i < n; i++ {
		v, ok := db.Var(fmt.Sprintf("%s%d", prefix, i))
		if !ok {
			return nil, fmt.Errorf("interface variable :%s%d is not bound", prefix, i)
		}
		idx[v.String()] = i
	}
	return idx, nil
}

// checkState compares the program's answers to every state query with
// the model. It returns one message per disagreement class, nil when
// the state is exactly what the script should have produced.
func (m *model) checkState(db *partdiff.DB) []string {
	var bad []string
	index := map[string]map[string]int{}
	for _, q := range m.stateQueries() {
		n := m.sc.items
		if q.prefix == "w" {
			n = numWitnesses
		}
		if index[q.prefix] == nil {
			ix, err := objectIndex(db, q.prefix, n)
			if err != nil {
				return append(bad, err.Error())
			}
			index[q.prefix] = ix
		}
		r, err := db.Query(q.stmt)
		if err != nil {
			bad = append(bad, fmt.Sprintf("%s: %v", q.stmt, err))
			continue
		}
		seen, wrong := 0, 0
		for _, t := range r.Tuples {
			i, known := index[q.prefix][t[0].String()]
			want, ok := int64(0), false
			if known {
				want, ok = q.want(i)
			}
			if !ok || t[1].AsInt() != want {
				wrong++
			}
			seen++
		}
		expect := 0
		for i := 0; i < n; i++ {
			if _, ok := q.want(i); ok {
				expect++
			}
		}
		if wrong != 0 || seen != expect {
			bad = append(bad, fmt.Sprintf("%s: %d rows (%d expected), %d wrong", q.stmt, seen, expect, wrong))
		}
	}
	return bad
}

// digest is a SHA-256 over the sorted rows of every state query: two
// databases that executed the same script agree on it exactly.
func (m *model) digest(db *partdiff.DB) (string, error) {
	h := sha256.New()
	for _, q := range m.stateQueries() {
		r, err := db.Query(q.stmt)
		if err != nil {
			return "", fmt.Errorf("%s: %w", q.stmt, err)
		}
		rows := make([]string, len(r.Tuples))
		for i, t := range r.Tuples {
			parts := make([]string, len(t))
			for j, v := range t {
				parts[j] = v.String()
			}
			rows[i] = strings.Join(parts, ",")
		}
		sort.Strings(rows)
		fmt.Fprintf(h, "%s\n%s\n", q.stmt, strings.Join(rows, "\n"))
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
