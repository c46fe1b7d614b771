package netmodel

import (
	"net/netip"
	"slices"
)

// Expansion is a route-EC expansion (§3.1) in the form the global-RIB emitter
// applies it: the representative → members pairs of a partition, in class
// order. Expanding a table walks the pairs in order and hands each member of a
// pair the rows its representative holds at that pair's turn — its own, plus
// what earlier pairs handed it — with the prefix changed. A member listed twice
// in one pair receives them twice. A nil *Expansion expands nothing. The
// emitter (Receipts, Emission) and a fork's rebuild (Reexpand) apply this one
// rule; an Expansion is never written after NewExpansion, so concurrent forks
// share one.
type Expansion struct {
	pfx  []netip.Prefix         // every prefix of a pair, by id
	ids  map[netip.Prefix]int32 // each prefix's id
	rep  []int32                // per pair, its representative's id
	recv [][]int32              // per id, the pairs it is a member of, ascending, repeats kept
	to   [][]int32              // per id, the members of the pairs it represents, repeats kept
}

// NewExpansion numbers the pairs' prefixes: members[i] are the members of the
// pair whose representative is reps[i].
func NewExpansion(reps []netip.Prefix, members [][]netip.Prefix) *Expansion {
	// Room for every prefix at once: a fork that re-partitions its inputs
	// numbers an Expansion of its own, and growing by doubling costs it
	// about as much again.
	n := len(reps)
	for _, ms := range members {
		n += len(ms)
	}
	x := &Expansion{ids: make(map[netip.Prefix]int32, n), rep: make([]int32, len(reps)),
		pfx: make([]netip.Prefix, 0, n), recv: make([][]int32, 0, n), to: make([][]int32, 0, n)}
	id := func(p netip.Prefix) int32 {
		i, ok := x.ids[p]
		if !ok {
			i = int32(len(x.pfx))
			x.ids[p] = i
			x.pfx = append(x.pfx, p)
			x.recv = append(x.recv, nil)
			x.to = append(x.to, nil)
		}
		return i
	}
	for ci, rep := range reps {
		r := id(rep)
		x.rep[ci] = r
		for _, m := range members[ci] {
			i := id(m)
			x.recv[i] = append(x.recv[i], int32(ci))
			x.to[r] = append(x.to[r], i)
		}
	}
	return x
}

// id returns p's id, if some pair lists p.
func (x *Expansion) id(p netip.Prefix) (int32, bool) {
	if x == nil {
		return 0, false
	}
	i, ok := x.ids[p]
	return i, ok
}

// all is the turn after the last pair: a prefix's rows once every pair ran.
func (x *Expansion) all() int32 { return int32(len(x.rep)) }

// received returns how many rows prefix id receives in t's expansion before
// pair turn: per pair before turn that it is a member of, what its
// representative holds at that pair's turn, own rows and receipts alike.
func (x *Expansion) received(t *RIB, id, turn int32) int {
	n := 0
	for _, ci := range x.recv[id] {
		if ci >= turn {
			break
		}
		rep := x.rep[ci]
		n += len(t.rows(x.pfx[rep])) + x.received(t, rep, ci)
	}
	return n
}

// appendRows appends the rows prefix id holds in t's expansion as of pair
// turn — its own, then what received counts, in receipt order — each with
// its prefix set to as.
func (x *Expansion) appendRows(dst []Route, t *RIB, id, turn int32, as netip.Prefix) []Route {
	for _, r := range t.rows(x.pfx[id]) {
		r.Prefix = as
		dst = append(dst, r)
	}
	for _, ci := range x.recv[id] {
		if ci >= turn {
			break
		}
		dst = x.appendRows(dst, t, x.rep[ci], ci, as)
	}
	return dst
}

// Receipts calls fn once per member prefix the expansion of t hands rows, with
// every row it holds in that expansion, in receipt order: the rows the emitter
// writes for it (RIB.AppendSorted), before they are sorted. Each slice is
// fn's own; fn must not write t.
func (x *Expansion) Receipts(t *RIB, fn func(p netip.Prefix, rows []Route)) {
	for id, p := range x.pfx {
		if rows := x.expanded(t, int32(id)); rows != nil {
			fn(p, rows)
		}
	}
}

// expanded returns, in a slice of its own, every row prefix id holds in t's
// expansion, in receipt order; nil when no pair hands it rows (it is a member
// of none, or every representative it is a member of is empty in t).
func (x *Expansion) expanded(t *RIB, id int32) []Route {
	n := x.received(t, id, x.all())
	if n == 0 {
		return nil
	}
	p := x.pfx[id]
	return x.appendRows(make([]Route, 0, len(t.rows(p))+n), t, id, x.all(), p)
}

// Moved lists the prefixes whose expansion under x can differ from their
// expansion under base for the same table: those whose ordered receipts
// differ, a receipt being a pair's representative and how many pairs ahead of
// it had handed that representative rows. A prefix whose receipts agree can
// still receive different rows, but only when a representative it receives
// from has moved or changed itself, and Reexpand follows every prefix it
// rebuilds to the members of the pairs it represents.
func (x *Expansion) Moved(base *Expansion) []netip.Prefix {
	var moved []netip.Prefix
	for id, p := range x.pfx {
		var was []int32
		if b, ok := base.ids[p]; ok {
			was = base.recv[b]
		}
		if !slices.EqualFunc(x.recv[id], was, func(c, b int32) bool {
			return x.pfx[x.rep[c]] == base.pfx[base.rep[b]] && x.before(c) == base.before(b)
		}) {
			moved = append(moved, p)
		}
	}
	for id, p := range base.pfx {
		if _, ok := x.ids[p]; !ok && len(base.recv[id]) > 0 {
			moved = append(moved, p)
		}
	}
	return moved
}

// before returns how many pairs ahead of pair ci hand its representative rows.
func (x *Expansion) before(ci int32) int {
	n, _ := slices.BinarySearch(x.recv[x.rep[ci]], ci)
	return n
}

// Reexpansion is the working set of Reexpand calls made one after another,
// such as a fork's over its tables: it is cleared, not reallocated, from one
// call to the next. The zero value is ready to use.
type Reexpansion struct {
	seen    map[netip.Prefix]bool
	reached []netip.Prefix
}

// Reexpand brings exp — a clone of the expansion, under some partition base,
// of a table that differs from table at the changed prefixes only — up to
// date: afterwards exp holds x's expansion of table, with only the prefixes
// the change reaches rebuilt. moved is x.Moved(base), nil when base is x. It
// returns the rebuilt prefixes (distinct, unordered): the changed ones, the
// moved ones that hold rows in either expansion (no other moved prefix can
// differ, short of reaching it below) and, transitively, the members of every
// pair a reached prefix represents. A prefix outside that set receives, in
// order, from the same representatives as under base, none of them reached,
// so it holds what it held. Each reached prefix is rebuilt from table alone by
// the emitter's walk (appendRows). Rows table holds outside changed are
// installed with Replace: they may be shared with concurrent readers. w is
// the working set, which a nil w allocates for this call alone. A nil x
// rebuilds the changed prefixes alone.
func (x *Expansion) Reexpand(w *Reexpansion, exp, table *RIB, changed map[netip.Prefix]bool, moved []netip.Prefix) []netip.Prefix {
	if w == nil {
		w = new(Reexpansion)
	}
	if w.seen == nil {
		w.seen = make(map[netip.Prefix]bool, 2*len(changed))
	}
	seen, reached := w.seen, w.reached[:0]
	reach := func(p netip.Prefix) {
		if !seen[p] {
			seen[p] = true
			reached = append(reached, p)
		}
	}
	for p := range changed {
		reach(p)
	}
	for _, p := range moved {
		if id, ok := x.id(p); len(exp.rows(p)) > 0 || ok && x.received(table, id, x.all()) > 0 {
			reach(p)
		}
	}
	for i := 0; i < len(reached); i++ {
		if id, ok := x.id(reached[i]); ok {
			for _, m := range x.to[id] {
				reach(x.pfx[m])
			}
		}
	}
	exp.Grow(len(reached))
	for _, p := range reached {
		var rows []Route
		if id, ok := x.id(p); ok {
			rows = x.expanded(table, id)
		}
		switch {
		case rows != nil:
			exp.ReplaceOwned(p, rows)
		case changed[p]:
			exp.ReplaceOwned(p, table.rows(p)) // decided by this fork
		default:
			exp.Replace(p, table.rows(p)) // table's own slice, maybe the base state's
		}
	}
	out := slices.Clone(reached)
	clear(seen)
	w.reached = reached[:0]
	return out
}

// Emission is one run's global-RIB emission: every prefix its tables hold,
// expansion included, sorted once for all of them, and the expansion each
// table is emitted under.
type Emission struct {
	x   *Expansion
	pfx []netip.Prefix
	// rank is each prefix's index in pfx; xid, per index, its Expansion id
	// when it is a member of some pair, and -1 otherwise; members, ascending,
	// the indexes with an id.
	rank    map[netip.Prefix]int32
	xid     []int32
	members []int32
}

// NewEmission sorts the prefixes that tables and x's members hold.
func NewEmission(tables []*RIB, x *Expansion) *Emission {
	// Tables mostly hold the same prefixes: the largest, plus the members,
	// is room for them all as a rule.
	hint := 0
	for _, t := range tables {
		hint = max(hint, t.byPrefix.Bound())
	}
	if x != nil {
		hint += len(x.pfx)
	}
	em := &Emission{x: x, pfx: make([]netip.Prefix, 0, hint), rank: make(map[netip.Prefix]int32, hint)}
	// Until the sort, rank holds each prefix's Expansion id, or -1.
	if x != nil {
		for id, p := range x.pfx {
			if len(x.recv[id]) > 0 {
				em.rank[p] = int32(id)
				em.pfx = append(em.pfx, p)
			}
		}
	}
	em.members = make([]int32, 0, len(em.pfx))
	for _, t := range tables {
		t.each(func(p netip.Prefix, _ []Route) {
			if _, ok := em.rank[p]; !ok {
				em.rank[p] = -1
				em.pfx = append(em.pfx, p)
			}
		})
	}
	slices.SortFunc(em.pfx, comparePrefix)
	em.xid = make([]int32, len(em.pfx))
	for i, p := range em.pfx {
		if em.xid[i] = em.rank[p]; em.xid[i] >= 0 {
			em.members = append(em.members, int32(i))
		}
		em.rank[p] = int32(i)
	}
	return em
}

// Len returns the number of rows t.AppendSorted(dst, em) appends: t's own,
// plus what the expansion hands its members.
func (em *Emission) Len(t *RIB) int {
	n := 0
	t.each(func(_ netip.Prefix, rs []Route) { n += len(rs) })
	for _, r := range em.members {
		n += em.x.received(t, em.xid[r], em.x.all())
	}
	return n
}
