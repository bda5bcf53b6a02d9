package storage

// Column indexes, built on first probe.
//
// A relation indexes exactly the columns something probes: a column's
// index is built from the rows the first time Lookup, LookupCount or a
// Set's key match asks for it, and from then on every write maintains
// it. Columns nothing probes — the value columns of most stored
// functions — cost nothing. An arity-1 relation (a type extent) has no
// index at all: its row set answers Lookup(0, v) as a membership probe.
//
// An index is never dropped, so the set of built columns only grows
// (bounded by the arity) and a write checks at most arity pointers.
//
// Concurrency. A build only reads the rows, so it takes no latch of its
// own: it runs under whatever the prober already holds. Every write
// comes from the gate holder under the relation's exclusive latch, so
// the rows cannot change during a build that holds the read latch (a
// snapshot reader, which latches before it probes — in a self-join it
// holds it already) or that the gate holder runs itself (the live path,
// latch-free because it is the only writer). The finished index is
// published by a compare-and-swap on an atomic pointer, so a prober that
// loads it sees a complete index that only latched writers change; two
// readers building the same column at once both finish, and the one
// that publishes second drops its copy. No prober waits for a latch it
// would not have waited for anyway, so the latch's deadlock freedom
// (mvcc.go) is untouched.

import (
	"sort"

	"partdiff/internal/types"
)

// colIndex maps a column value — as the one-column tuple (v) — to the
// posting of the rows holding it. A key is a sub-slice of the first row
// filed under it (no copy, no allocation per new distinct value), so it
// can keep that row's backing array alive after the row is deleted — at
// most one dead row per distinct value, while other rows still share
// it; an entry is dropped when its posting drains.
type colIndex = types.Map[posting]

// posting is the rows of one column value. A single row — every
// key-column posting of a one-argument stored function — is held in the
// index slot itself with its hash; a second row moves them into set,
// which the posting keeps until it drains.
type posting struct {
	row types.Tuple // the only row, when set is nil
	h   uint64      // row's hash
	set *types.Set  // the rows, once a second one arrived
}

func (p *posting) len() int {
	if p.set != nil {
		return p.set.Len()
	}
	if p.row != nil {
		return 1
	}
	return 0
}

func (p *posting) add(h uint64, t types.Tuple) {
	switch {
	case p.set != nil:
		p.set.AddH(h, t)
	case p.row == nil:
		p.row, p.h = t, h
	default:
		p.set = &types.Set{}
		p.set.AddH(p.h, p.row)
		p.set.AddH(h, t)
		p.row, p.h = nil, 0
	}
}

// remove deletes t (hash h) and reports whether the posting is empty.
func (p *posting) remove(h uint64, t types.Tuple) (empty bool) {
	if p.set != nil {
		p.set.RemoveH(h, t)
		return p.set.Len() == 0
	}
	if p.h == h && p.row.KeyEqual(t) {
		p.row, p.h = nil, 0
	}
	return p.row == nil
}

func (p *posting) containsH(h uint64, t types.Tuple) bool {
	if p == nil {
		return false
	}
	if p.set != nil {
		return p.set.ContainsH(h, t)
	}
	return p.row != nil && p.h == h && p.row.KeyEqual(t)
}

// eachH calls fn for every row with its hash; it reports whether fn
// stopped the iteration.
func (p *posting) eachH(fn func(h uint64, t types.Tuple) bool) (stopped bool) {
	switch {
	case p.set != nil:
		p.set.EachH(func(h uint64, t types.Tuple) bool {
			stopped = !fn(h, t)
			return !stopped
		})
	case p.row != nil:
		stopped = !fn(p.h, p.row)
	}
	return stopped
}

// probe returns the posting of column value v — by value, valid until
// the relation is next written. An arity-1 relation answers from its
// rows: the posting is the stored row (v), if any. Any other relation
// builds the column's index first if no prober has (indexed). The probe
// key lives on the stack: a lookup allocates nothing. Caller holds the
// read latch or is the gate holder.
func (r *Relation) probe(col int, v types.Value) posting {
	key := [1]types.Value{v}
	if r.index == nil {
		h := types.Tuple(key[:]).Hash()
		if t, ok := r.rows.GetH(h, key[:]); ok {
			return posting{row: t, h: h}
		}
		return posting{}
	}
	if p := r.indexed(col).Find(key[:]); p != nil {
		return *p
	}
	return posting{}
}

// indexed returns column col's index, building and publishing it first
// if no prober has. Caller holds the read latch or is the gate holder,
// so no row changes during the build.
func (r *Relation) indexed(col int) *colIndex {
	if ix := r.index[col].Load(); ix != nil {
		return ix
	}
	ix := &colIndex{}
	r.rows.EachH(func(h uint64, t types.Tuple) bool {
		p, _ := ix.Ref(t[col : col+1 : col+1])
		p.add(h, t)
		return true
	})
	if r.index[col].CompareAndSwap(nil, ix) {
		return ix
	}
	return r.index[col].Load()
}

// indexAdd files t (hash h) under every built column. Caller holds the
// latch and has added t to rows.
func (r *Relation) indexAdd(h uint64, t types.Tuple) {
	for col := range r.index {
		if ix := r.index[col].Load(); ix != nil {
			p, _ := ix.Ref(t[col : col+1 : col+1])
			p.add(h, t)
		}
	}
}

// indexRemove unfiles t (hash h) from every built column. Caller holds
// the latch and has removed t from rows.
func (r *Relation) indexRemove(h uint64, t types.Tuple) {
	for col := range r.index {
		ix := r.index[col].Load()
		if ix == nil {
			continue
		}
		key := t[col : col+1]
		kh := key.Hash()
		if p := ix.FindH(kh, key); p != nil && p.remove(h, t) {
			ix.DeleteH(kh, key)
		}
	}
}

// keyMatches returns the tuples whose key columns equal key, using the
// index on the first key column. The common single match is returned
// in buf, so a caller that keeps the result on its stack allocates
// nothing.
func (r *Relation) keyMatches(key []types.Value, buf *[1]types.Tuple) []types.Tuple {
	if len(key) != len(r.keyCols) || len(key) == 0 {
		return nil
	}
	match := func(t types.Tuple) bool {
		for i, c := range r.keyCols {
			if !t[c].KeyEqual(key[i]) {
				return false
			}
		}
		return true
	}
	r.met.IndexProbes.Inc()
	p := r.probe(r.keyCols[0], key[0])
	r.met.Reads.Add(int64(p.len()))
	if p.set == nil { // at most one row, inline
		if p.row == nil || !match(p.row) {
			return nil
		}
		buf[0] = p.row
		return buf[:1]
	}
	var out []types.Tuple
	p.eachH(func(_ uint64, t types.Tuple) bool {
		if match(t) {
			out = append(out, t)
		}
		return true
	})
	if len(out) > 1 {
		sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	}
	return out
}
