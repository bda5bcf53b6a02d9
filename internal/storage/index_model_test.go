package storage_test

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"partdiff/internal/delta"
	"partdiff/internal/eval"
	"partdiff/internal/storage"
	"partdiff/internal/types"
)

// The lazy column indexes against a model that has none: every read is
// a scan of the model's rows under key equality. A script drives
// inserts, deletes and sets into a three-column stored function "f"
// (key column 0) and a type extent "x", and compares every Lookup and
// LookupCount, on every column, through the live relation, a RolledBack
// view of the state at a mark, and snapshots pinned at any point —
// before and after the column they probe was built.

// modelRel is a relation's rows as a plain list.
type modelRel []types.Tuple

func (m modelRel) find(t types.Tuple) int {
	for i, u := range m {
		if u.KeyEqual(t) {
			return i
		}
	}
	return -1
}

func (m modelRel) clone() modelRel { return append(modelRel(nil), m...) }

func (m modelRel) lookup(col int, v types.Value) []types.Tuple {
	var out []types.Tuple
	for _, t := range m {
		if t[col].KeyEqual(v) {
			out = append(out, t)
		}
	}
	return sortedTuples(out)
}

func sortedTuples(ts []types.Tuple) []types.Tuple {
	sort.Slice(ts, func(i, j int) bool { return ts[i].Compare(ts[j]) < 0 })
	return ts
}

// indexModel is the state a script runs against: the store under test
// and the model of each relation, now, at every pinned snapshot, and at
// the mark a RolledBack view rolls back to.
type indexModel struct {
	t     *testing.T
	st    *storage.Store
	now   map[string]modelRel
	snaps []pinned
	mark  map[string]modelRel
	since map[string]*delta.Set // events since the mark, per relation
	steps int
}

type pinned struct {
	view  *storage.SnapshotView
	state map[string]modelRel
}

var modelRels = []struct {
	name    string
	arity   int
	keyCols []int
}{{"f", 3, []int{0}}, {"x", 1, nil}}

func newIndexModel(t *testing.T) *indexModel {
	m := &indexModel{t: t, st: storage.NewStore(), now: map[string]modelRel{}}
	for _, r := range modelRels {
		if _, err := m.st.CreateRelation(r.name, r.arity, r.keyCols); err != nil {
			t.Fatal(err)
		}
	}
	m.st.Subscribe(func(e storage.Event) {
		d := m.since[e.Relation]
		if e.Kind == storage.InsertEvent {
			d.Insert(e.Tuple)
		} else {
			d.Delete(e.Tuple)
		}
	})
	m.setMark()
	return m
}

func (m *indexModel) copyState() map[string]modelRel {
	out := make(map[string]modelRel, len(m.now))
	for n, r := range m.now {
		out[n] = r.clone()
	}
	return out
}

func (m *indexModel) setMark() {
	m.mark = m.copyState()
	m.since = map[string]*delta.Set{}
	for _, r := range modelRels {
		m.since[r.name] = delta.New()
	}
}

func (m *indexModel) close() {
	for _, p := range m.snaps {
		p.view.Close()
	}
	m.snaps = nil
}

// value decodes one script byte into a column value: a small domain, so
// lookups hit, with Float(1) standing for Int(1) under key equality.
func value(b byte) types.Value {
	if b%5 == 4 {
		return types.Float(1)
	}
	return types.Int(int64(b % 5))
}

// collect runs one Lookup and returns what it yielded, sorted; a tuple
// yielded twice fails the test.
func (m *indexModel) collect(what string, lookup func(fn func(types.Tuple) bool)) []types.Tuple {
	var out []types.Tuple
	seen := types.NewSet()
	lookup(func(t types.Tuple) bool {
		if !seen.Add(t) {
			m.t.Fatalf("step %d: %s yields %s twice", m.steps, what, t)
		}
		out = append(out, t)
		return true
	})
	return sortedTuples(out)
}

func (m *indexModel) expect(what string, got, want []types.Tuple) {
	if fmt.Sprint(got) != fmt.Sprint(want) {
		m.t.Fatalf("step %d: %s = %v, model says %v", m.steps, what, got, want)
	}
}

func (m *indexModel) write(rel string, t types.Tuple, insert bool) {
	var changed bool
	var err error
	if insert {
		changed, err = m.st.Insert(rel, t)
	} else {
		changed, err = m.st.Delete(rel, t)
	}
	if err != nil {
		m.t.Fatal(err)
	}
	i := m.now[rel].find(t)
	if changed != (insert == (i < 0)) {
		m.t.Fatalf("step %d: %s %s reports changed %v, model disagrees", m.steps, rel, t, changed)
	}
	switch {
	case insert && i < 0:
		m.now[rel] = append(m.now[rel], t)
	case !insert && i >= 0:
		m.now[rel] = append(m.now[rel][:i], m.now[rel][i+1:]...)
	}
}

func (m *indexModel) set(key types.Value, a, b types.Value) {
	n, err := m.st.Set("f", []types.Value{key}, []types.Value{a, b})
	if err != nil {
		m.t.Fatal(err)
	}
	nt := types.Tuple{key, a, b}
	old := m.now["f"].lookup(0, key)
	if len(old) == 1 && old[0].KeyEqual(nt) {
		old = nil // a no-op Set retracts nothing
	}
	if n != len(old) {
		m.t.Fatalf("step %d: Set retracted %d, model says %d", m.steps, n, len(old))
	}
	keep := m.now["f"][:0]
	for _, t := range m.now["f"] {
		if !t[0].KeyEqual(key) {
			keep = append(keep, t)
		}
	}
	m.now["f"] = append(keep, nt)
}

// probe compares Lookup and LookupCount of (col, v) on rel through
// every view the model has.
func (m *indexModel) probe(rel string, col int, v types.Value, which byte) {
	r, _ := m.st.Relation(rel)
	want := m.now[rel].lookup(col, v)
	what := fmt.Sprintf("%s.Lookup(%d, %s)", rel, col, v)
	switch which % 4 {
	case 0: // live
		m.expect("live "+what, m.collect(what, func(fn func(types.Tuple) bool) { r.Lookup(col, v, fn) }), want)
		if n := r.LookupCount(col, v); n != len(want) {
			m.t.Fatalf("step %d: live %s count = %d, model says %d", m.steps, what, n, len(want))
		}
	case 1: // rolled back to the mark
		rb := eval.NewRolledBack(r, m.since[rel])
		m.expect("rolled-back "+what, m.collect(what, func(fn func(types.Tuple) bool) { rb.Lookup(col, v, fn) }), m.mark[rel].lookup(col, v))
	case 2: // every pinned snapshot
		for i, p := range m.snaps {
			src, _ := p.view.Source(rel)
			got := m.collect(what, func(fn func(types.Tuple) bool) { src.Lookup(col, v, fn) })
			m.expect(fmt.Sprintf("snapshot %d %s", i, what), got, p.state[rel].lookup(col, v))
		}
	case 3: // every pinned snapshot, nested in a scan of the same relation
		for i, p := range m.snaps {
			src, _ := p.view.Source(rel)
			ran := false
			var got []types.Tuple
			src.Each(func(types.Tuple) bool {
				ran = true
				got = m.collect(what, func(fn func(types.Tuple) bool) { src.Lookup(col, v, fn) })
				return false
			})
			if ran {
				m.expect(fmt.Sprintf("self-joined snapshot %d %s", i, what), got, p.state[rel].lookup(col, v))
			}
		}
	}
}

// run executes one script: each operation is three bytes, op and two
// operands.
func (m *indexModel) run(script []byte) {
	defer m.close()
	for len(script) >= 3 {
		op, a, b := script[0], script[1], script[2]
		script = script[3:]
		m.steps++
		rel := modelRels[int(a>>4)%len(modelRels)]
		switch op % 8 {
		case 0, 1:
			t := types.Tuple{value(a)}
			if rel.arity == 3 {
				t = types.Tuple{value(a), value(b), value(b >> 3)}
			}
			m.write(rel.name, t, op%8 == 0)
		case 2:
			m.set(value(a), value(b), value(b>>3))
		case 3, 4:
			m.probe(rel.name, int(b>>3)%rel.arity, value(b), a)
		case 5:
			if len(m.snaps) < 3 {
				m.snaps = append(m.snaps, pinned{m.st.PinSnapshot(), m.copyState()})
			}
		case 6:
			if len(m.snaps) > 0 {
				m.snaps[0].view.Close()
				m.snaps = m.snaps[1:]
			}
		case 7:
			m.setMark()
		}
	}
	if err := m.st.CheckInvariants(); err != nil {
		m.t.Fatalf("after %d steps: %v", m.steps, err)
	}
}

func TestLazyIndexMatchesModel(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		script := make([]byte, 3*400)
		rand.New(rand.NewSource(seed)).Read(script)
		t.Run(fmt.Sprint(seed), func(t *testing.T) { newIndexModel(t).run(script) })
	}
}

// Sets build only the key column; a snapshot pinned before a build
// answers through the new index, and a probe nested in a scan of the
// same relation builds too.
func TestLazyIndexBuildsProbedColumnsOnly(t *testing.T) {
	m := newIndexModel(t)
	for i := 0; i < 20; i++ {
		m.set(types.Int(int64(i)), value(byte(i)), value(byte(i+1)))
	}
	r, _ := m.st.Relation("f")
	if !storage.ColumnBuilt(r, 0) || storage.ColumnBuilt(r, 1) || storage.ColumnBuilt(r, 2) {
		t.Fatal("after Sets only the key column should be built")
	}
	m.snaps = append(m.snaps, pinned{m.st.PinSnapshot(), m.copyState()})
	m.set(types.Int(3), types.Int(9), types.Int(9))
	m.probe("f", 2, types.Int(9), 3) // self-joined: builds under the latch its view holds
	if !storage.ColumnBuilt(r, 2) {
		t.Fatal("a self-joined snapshot probe did not build its column")
	}
	m.probe("f", 1, types.Int(9), 1) // RolledBack over the live relation: builds
	if !storage.ColumnBuilt(r, 1) {
		t.Fatal("a live probe did not build its column")
	}
	m.close()
	if err := m.st.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	x, _ := m.st.Relation("x")
	if storage.ColumnBuilt(x, 0) {
		t.Fatal("a type extent has a column index")
	}
}

func FuzzLazyIndex(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 1, 2, 5, 0, 0, 2, 1, 9, 3, 2, 8, 4, 0, 16, 3, 3, 16})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 3*2000 {
			script = script[:3*2000]
		}
		newIndexModel(t).run(script)
	})
}

// Snapshot readers build column indexes while the writer commits sets
// to the same relations. Each trial starts from unbuilt value columns
// and races, under -race, a fresh view making the first probe of f's
// column, readers joining f→g and g→f (each holds one relation's latch
// while it probes the other, possibly unbuilt, column), and a self-join
// of g, which builds under the latch its view already holds. Writer
// round k sets item i to (i, i%5 + 10k); a reader pinned after round k
// knows the whole relation. A build that waited for a latch could hang
// here: the test fails on a deadline instead of waiting for ever.
func TestSnapshotBuildRacesWriter(t *testing.T) {
	const trials, items, rounds, queries = 12, 100, 15, 40
	for trial := 0; trial < trials; trial++ {
		done := make(chan []string)
		go func() { done <- raceBuildTrial(items, rounds, queries) }()
		select {
		case msgs := <-done:
			if len(msgs) > 0 {
				t.Fatalf("trial %d: %d failures, first: %s", trial, len(msgs), strings.Join(msgs[:min(len(msgs), 3)], "; "))
			}
		case <-time.After(2 * time.Minute):
			t.Fatalf("trial %d: readers and writer still running after 2 minutes: a latch cycle", trial)
		}
	}
}

// raceBuildTrial runs one trial of TestSnapshotBuildRacesWriter and
// returns what went wrong.
func raceBuildTrial(items, rounds, queries int) []string {
	var mu sync.Mutex
	var msgs []string
	report := func(format string, args ...any) {
		mu.Lock()
		msgs = append(msgs, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	st := storage.NewStore()
	for _, n := range []string{"f", "g"} {
		if _, err := st.CreateRelation(n, 2, []int{0}); err != nil {
			return []string{err.Error()}
		}
	}
	write := func(k int) {
		st.BeginTxnScope()
		for i := 0; i < items; i++ {
			for _, n := range []string{"f", "g"} {
				if _, err := st.Set(n, []types.Value{types.Int(int64(i))}, []types.Value{types.Int(int64(i%5 + 10*k))}); err != nil {
					report("%v", err)
				}
			}
		}
		st.EndTxnScope()
		st.AdvanceCommit([]string{"f", "g"})
	}
	write(0)
	base := st.CommitSeq()

	check := func(view *storage.SnapshotView, src storage.Source, what string, j int) {
		k := int(view.Seq() - base)
		v := types.Int(int64(j%5 + 10*k))
		n := 0
		src.Lookup(1, v, func(t types.Tuple) bool {
			if !t[1].KeyEqual(v) || t[0].I%5 != int64(j%5) {
				report("%s at round %d: Lookup(1, %s) yields %s", what, k, v, t)
			}
			n++
			return true
		})
		if n != items/5 {
			report("%s at round %d: Lookup(1, %s) yields %d rows, want %d", what, k, v, n, items/5)
		}
	}
	// join holds outer's read latch (inside its Each) while it probes
	// inner's column; outer == inner is a self-join.
	join := func(outer, inner string) func(int) {
		return func(q int) {
			view := st.PinSnapshot()
			o, _ := view.Source(outer)
			in, _ := view.Source(inner)
			o.Each(func(types.Tuple) bool {
				check(view, in, outer+"→"+inner, q)
				return false
			})
			view.Close()
		}
	}
	fresh := func(q int) {
		view := st.PinSnapshot()
		f, _ := view.Source("f")
		check(view, f, "fresh f", q)
		view.Close()
	}
	var wg sync.WaitGroup
	for _, run := range []func(int){fresh, join("f", "g"), join("g", "f"), join("g", "g")} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for q := 0; q < queries; q++ {
				run(q)
			}
		}()
	}
	for k := 1; k <= rounds; k++ {
		write(k)
	}
	wg.Wait()
	for _, n := range []string{"f", "g"} {
		if r, _ := st.Relation(n); !storage.ColumnBuilt(r, 1) {
			report("no reader built %s's column 1", n)
		}
	}
	if err := st.CheckInvariants(); err != nil {
		report("%v", err)
	}
	return msgs
}

// The schedule that would close a latch cycle if a first prober waited
// for the latch like a writer: reader B holds f's read latch (inside
// f.Each) and reader C holds g's; a fresh view A makes the first probe
// of f's unbuilt column while B holds f, and the writer sets a row of g
// while C holds g. Then B probes g and C probes f. A build under the
// read latch lets A and then C through, so C releases g, the writer
// commits and B finishes.
func TestOppositeJoinsWithFirstProbeDoNotDeadlock(t *testing.T) {
	st := storage.NewStore()
	for _, n := range []string{"f", "g"} {
		if _, err := st.CreateRelation(n, 2, []int{0}); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 50; i++ {
			if _, err := st.Set(n, []types.Value{types.Int(int64(i))}, []types.Value{types.Int(int64(i % 5))}); err != nil {
				t.Fatal(err)
			}
		}
	}
	const settle = 50 * time.Millisecond
	holding := make(chan struct{}, 2)
	probe := make(chan struct{})
	count := func(src storage.Source) int {
		n := 0
		src.Lookup(1, types.Int(3), func(types.Tuple) bool { n++; return true })
		return n
	}
	var wg sync.WaitGroup
	got := make([]int, 3)
	join := func(i int, outer, inner string) {
		defer wg.Done()
		view := st.PinSnapshot()
		defer view.Close()
		o, _ := view.Source(outer)
		in, _ := view.Source(inner)
		o.Each(func(types.Tuple) bool {
			holding <- struct{}{}
			<-probe
			got[i] = count(in)
			return false
		})
	}
	wg.Add(4)
	fresh := st.PinSnapshot() // A's view, pinned before the writer takes the store lock
	go join(0, "f", "g")      // B
	go join(1, "g", "f")      // C
	<-holding
	<-holding
	go func() { // A: first probe of f's column 1
		defer wg.Done()
		defer fresh.Close()
		f, _ := fresh.Source("f")
		got[2] = count(f)
	}()
	time.Sleep(settle)
	go func() { // the writer, on g
		defer wg.Done()
		if _, err := st.Set("g", []types.Value{types.Int(0)}, []types.Value{types.Int(4)}); err != nil {
			t.Error(err)
		}
	}()
	time.Sleep(settle)
	close(probe)
	finished := make(chan struct{})
	go func() { wg.Wait(); close(finished) }()
	select {
	case <-finished:
	case <-time.After(30 * time.Second):
		t.Fatal("readers and writer still running after 30 s: a latch cycle")
	}
	for i, n := range got {
		if n != 10 {
			t.Errorf("reader %d: Lookup(1, 3) yields %d rows, want 10", i, n)
		}
	}
	if err := st.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
