package types

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// weakHash squeezes the real hash into four values, so every table the
// model test builds is one long collision chain: probes wrap around the
// array, deletions shift whole runs backward, and growth re-files
// entries that all share a home slot. It needs no seam in the table —
// the hash-taking entry points accept whatever hash the caller files
// tuples under, as long as it is consistent and non-zero.
func weakHash(t Tuple) uint64 { return t.Hash()&3 + 1 }

// modelTuple decodes two script bytes into a tuple from a domain of a
// couple of thousand elements that is dense in key-equal pairs of
// distinct representation (Int/Float), awkward values, and mixed
// arities. (No NaN, and no pair that Compare ties but key equality
// separates: neither has a fixed place in the order Tuples() sorts by.
// key_test.go covers them.)
func modelTuple(a, b byte) Tuple {
	n := int64(b)
	switch a % 10 {
	case 0:
		return Tuple{Int(n)}
	case 1:
		return Tuple{Float(float64(n))} // key-equal to case 0
	case 2:
		return Tuple{Float(float64(n) / 2)}
	case 3:
		return Tuple{Str(string(rune('a' + b%26)))}
	case 4:
		return Tuple{Int(n), Str("x")}
	case 5:
		return Tuple{Obj(OID(b))}
	case 6:
		return Tuple{Nil(), Bool(b&1 == 0)}
	case 7:
		return Tuple{Int(n), Int(n >> 4), Float(0.5)}
	case 8:
		return [...]Tuple{
			{}, {Float(math.Copysign(0, -1))}, {Float(math.Inf(1))}, {Int(math.MinInt64)},
			{Float(two63)}, {Int(math.MaxInt64 - 1024)}, {Str("")}, {Nil()},
		}[b%8]
	default:
		return Tuple{Int(n << 32)}
	}
}

type modelEntry struct {
	t Tuple
	v int
}

// runMapModel interprets script as a sequence of operations applied in
// lockstep to a Map[int], a Set holding the same keys, and a
// map[string]modelEntry keyed by the AppendKey oracle, checking after
// every step that they agree.
func runMapModel(t *testing.T, script []byte, hash func(Tuple) uint64) {
	t.Helper()
	var m Map[int]
	var s Set
	ref := map[string]modelEntry{}
	next := func() byte {
		if len(script) == 0 {
			return 0
		}
		b := script[0]
		script = script[1:]
		return b
	}
	refSorted := func() []Tuple {
		out := make([]Tuple, 0, len(ref))
		for _, e := range ref {
			out = append(out, e.t)
		}
		sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
		return out
	}
	checkAll := func(where string) {
		t.Helper()
		seen := 0
		m.Each(func(h uint64, k Tuple, v *int) bool {
			seen++
			e, ok := ref[tkey(k)]
			if !ok || e.v != *v {
				t.Fatalf("%s: Each yields %s=%d, model has %v (present %v)", where, k, *v, e.v, ok)
			}
			if h != hash(k) {
				t.Fatalf("%s: Each yields stored hash %#x for %s, want %#x", where, h, k, hash(k))
			}
			return true
		})
		if seen != len(ref) {
			t.Fatalf("%s: Each visited %d entries, model has %d", where, seen, len(ref))
		}
		got, want := s.Tuples(), refSorted()
		if len(got) != len(want) {
			t.Fatalf("%s: Tuples() has %d, model %d", where, len(got), len(want))
		}
		for i := range got {
			if tkey(got[i]) != tkey(want[i]) {
				t.Fatalf("%s: Tuples()[%d] = %s, model's sorted order has %s", where, i, got[i], want[i])
			}
		}
	}
	step := 0
	for len(script) > 0 {
		step++
		op := next()
		k := modelTuple(next(), next())
		h, key := hash(k), tkey(k)
		e, present := ref[key]
		switch op % 16 {
		case 0, 1, 2, 3, 4: // insert or bump
			p, added := m.RefH(h, k)
			if added == present {
				t.Fatalf("step %d: RefH(%s) added=%v, model present=%v", step, k, added, present)
			}
			*p++
			if s.AddH(h, k) != added {
				t.Fatalf("step %d: AddH(%s) disagrees with RefH", step, k)
			}
			if !present {
				e.t = k
			}
			e.v++
			ref[key] = e
		case 5, 6, 7: // delete
			if got := m.DeleteH(h, k); got != present {
				t.Fatalf("step %d: DeleteH(%s)=%v, model present=%v", step, k, got, present)
			}
			if got := s.RemoveH(h, k); got != present {
				t.Fatalf("step %d: RemoveH(%s)=%v, model present=%v", step, k, got, present)
			}
			delete(ref, key)
		case 8, 9: // lookup
			p := m.FindH(h, k)
			if (p != nil) != present || (present && *p != e.v) {
				t.Fatalf("step %d: FindH(%s)=%v, model %d,%v", step, k, p, e.v, present)
			}
			if s.ContainsH(h, k) != present {
				t.Fatalf("step %d: ContainsH(%s) disagrees with model %v", step, k, present)
			}
		case 10: // full iteration
			checkAll("Each")
		case 11: // clone, toggle k in the copy, and carry on with the copy
			mc, sc := m.Clone(), s.Clone()
			if !sc.Equal(&s) || mc.Len() != m.Len() {
				t.Fatalf("step %d: clone differs from original", step)
			}
			if present {
				mc.DeleteH(h, k)
				sc.RemoveH(h, k)
				delete(ref, key)
			} else {
				*first(mc.RefH(h, k)) = 1
				sc.AddH(h, k)
				ref[key] = modelEntry{t: k, v: 1}
			}
			if s.ContainsH(h, k) != present || (m.FindH(h, k) != nil) != present || s.Len() != m.Len() {
				t.Fatalf("step %d: mutating a clone changed the original", step)
			}
			m, s = mc, *sc
		case 12: // AddAll / RemoveAll of a small side set
			var o Set
			for i := byte(0); i < 5; i++ {
				ot := modelTuple(op+i, byte(step)+i)
				o.AddH(hash(ot), ot)
			}
			if next()&1 == 0 {
				s.AddAll(&o)
				o.Each(func(ot Tuple) bool {
					p, added := m.RefH(hash(ot), ot)
					if added {
						*p = 1
						ref[tkey(ot)] = modelEntry{t: ot, v: 1}
					}
					return true
				})
			} else {
				s.RemoveAll(&o)
				o.Each(func(ot Tuple) bool {
					m.DeleteH(hash(ot), ot)
					delete(ref, tkey(ot))
					return true
				})
			}
		case 13: // Clear, rarely
			if next()%8 == 0 {
				m.Clear()
				s.Clear()
				ref = map[string]modelEntry{}
			}
		default: // DeleteIf: drop entries by a predicate on the key, bump the rest
			sel := next() % 3
			calls := 0
			m.DeleteIf(func(_ uint64, k Tuple, v *int) bool {
				calls++
				if uint8(len(tkey(k))+*v)%3 == sel {
					return true
				}
				*v++
				return false
			})
			if calls != len(ref) {
				t.Fatalf("step %d: DeleteIf called fn %d times for %d entries", step, calls, len(ref))
			}
			for key, e := range ref {
				if uint8(len(key)+e.v)%3 == sel {
					delete(ref, key)
					s.RemoveH(hash(e.t), e.t)
				} else {
					e.v++
					ref[key] = e
				}
			}
		}
		if m.Len() != len(ref) || s.Len() != len(ref) {
			t.Fatalf("step %d (op %d): Len map=%d set=%d, model=%d", step, op%16, m.Len(), s.Len(), len(ref))
		}
		if len(m.slots) != 0 && (len(m.slots)&(len(m.slots)-1) != 0 || m.n*4 > len(m.slots)*3) {
			t.Fatalf("step %d: %d entries in %d slots breaks the table's shape", step, m.n, len(m.slots))
		}
	}
	checkAll("final")
}

func TestMapMatchesModel(t *testing.T) {
	for _, tc := range []struct {
		name string
		hash func(Tuple) uint64
	}{
		{"real hash", Tuple.Hash},
		{"2-bit hash", weakHash},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(1); seed <= 40; seed++ {
				r := rand.New(rand.NewSource(seed))
				script := make([]byte, 3*(200+r.Intn(3000)))
				r.Read(script)
				runMapModel(t, script, tc.hash)
			}
		})
	}
}

// FuzzTupleMap feeds arbitrary operation scripts through the model,
// with the real hash and with the colliding one. Run it with
//
//	go test -fuzz=FuzzTupleMap -fuzztime=20s ./internal/types
func FuzzTupleMap(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 1, 0, 1, 1, 5, 0, 1, 8, 1, 1}) // Int(1), Float(1) dedup, delete, lookup
	r := rand.New(rand.NewSource(7))
	long := make([]byte, 900)
	r.Read(long)
	f.Add(long)
	f.Fuzz(func(t *testing.T, script []byte) {
		// Under the colliding hash every operation walks the whole
		// table; bound the script so an exec stays in milliseconds.
		if len(script) > 6000 {
			script = script[:6000]
		}
		runMapModel(t, script, Tuple.Hash)
		runMapModel(t, script, weakHash)
	})
}

// Backward-shift deletion across the array's wrap-around point, stated
// on its own because a bug here loses entries silently: fill a run that
// wraps, delete its head, and every survivor must still be found.
func TestMapDeleteAcrossWrapAround(t *testing.T) {
	for size := 2; size <= 6; size++ {
		var m Map[int]
		// Pre-grow to 8 slots, then file everything under the last two.
		for i := 0; i < 6; i++ {
			m.RefH(7, Tuple{Int(int64(100 + i))})
		}
		for i := 0; i < 6; i++ {
			m.DeleteH(7, Tuple{Int(int64(100 + i))})
		}
		if len(m.slots) != 8 || m.n != 0 {
			t.Fatalf("setup: %d entries in %d slots", m.n, len(m.slots))
		}
		for i := 0; i < size; i++ {
			*first(m.RefH(7-uint64(i&1), Tuple{Int(int64(i))})) = i
		}
		for del := 0; del < size; del++ {
			c := m.Clone()
			if !c.DeleteH(7-uint64(del&1), Tuple{Int(int64(del))}) {
				t.Fatalf("size %d: entry %d not found for deletion", size, del)
			}
			for i := 0; i < size; i++ {
				p := c.FindH(7-uint64(i&1), Tuple{Int(int64(i))})
				if (p != nil) != (i != del) || (p != nil && *p != i) {
					t.Fatalf("size %d, deleted %d: entry %d -> %v", size, del, i, p)
				}
			}
		}
	}
}

func first[V any](p *V, _ bool) *V { return p }

func TestMapClearKeepsSmallArrayAndDropsLargeOne(t *testing.T) {
	var s Set
	for i := 0; i < 10; i++ {
		s.Add(Tuple{Int(int64(i))})
	}
	small := len(s.m.slots)
	s.Clear()
	if len(s.m.slots) != small || s.Len() != 0 || s.Contains(Tuple{Int(1)}) {
		t.Errorf("Clear of a small set: %d slots (was %d), len %d", len(s.m.slots), small, s.Len())
	}
	for i := 0; i < 1000; i++ {
		s.Add(Tuple{Int(int64(i))})
	}
	s.Clear()
	if s.m.slots != nil || s.Len() != 0 {
		t.Errorf("Clear of a large set kept %d slots, len %d", len(s.m.slots), s.Len())
	}
}

// Allocation gates: membership tests and steady-size churn must not
// allocate at all — the point of hashing tuples in place.
func TestSetSteadyStateAllocations(t *testing.T) {
	var s Set
	tuples := make([]Tuple, 512)
	for i := range tuples {
		tuples[i] = Tuple{Obj(OID(i)), Int(int64(i) * 7), Str("payload")}
		s.Add(tuples[i])
	}
	probe := Tuple{Obj(17), Float(119), Str("payload")} // key-equal to tuples[17]
	absent := Tuple{Obj(17), Int(120), Str("payload")}
	if !s.Contains(probe) || s.Contains(absent) {
		t.Fatal("setup: probe/absent membership")
	}
	i := 0
	for name, fn := range map[string]func(){
		"Contains (hit and miss)": func() {
			if !s.Contains(probe) || s.Contains(absent) {
				t.Fatal("membership changed")
			}
		},
		"Remove then Add of the same tuple": func() {
			i = (i + 1) % len(tuples)
			if !s.Remove(tuples[i]) || !s.Add(tuples[i]) {
				t.Fatal("churn lost a tuple")
			}
		},
		"Each": func() {
			n := 0
			s.Each(func(Tuple) bool { n++; return true })
			if n != len(tuples) {
				t.Fatal("Each count")
			}
		},
	} {
		if got := testing.AllocsPerRun(200, fn); got != 0 {
			t.Errorf("%s: %v allocs/op, want 0", name, got)
		}
	}
}

var benchSink bool

func benchTuples(n int) []Tuple {
	out := make([]Tuple, n)
	for i := range out {
		out[i] = Tuple{Obj(OID(i)), Int(int64(i % 97))}
	}
	return out
}

func BenchmarkSetAdd(b *testing.B) {
	ts := benchTuples(1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var s Set
		for _, t := range ts {
			s.Add(t)
		}
	}
}

func BenchmarkSetContains(b *testing.B) {
	ts := benchTuples(1024)
	s := NewSet(ts...)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = s.Contains(ts[i&1023])
	}
}

func BenchmarkSetRemove(b *testing.B) {
	ts := benchTuples(1024)
	s := NewSet(ts...)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := ts[i&1023]
		benchSink = s.Remove(t)
		s.Add(t)
	}
}
