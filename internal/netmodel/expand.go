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
// in one pair receives them twice. A nil *Expansion expands nothing.
type Expansion struct {
	pfx  []netip.Prefix // every prefix of a pair, by id
	rep  []int32        // per pair, its representative's id
	recv [][]int32      // per id, the pairs it is a member of, ascending, repeats kept
}

// NewExpansion numbers the pairs' prefixes: members[i] are the members of the
// pair whose representative is reps[i].
func NewExpansion(reps []netip.Prefix, members [][]netip.Prefix) *Expansion {
	x := &Expansion{rep: make([]int32, len(reps))}
	ids := make(map[netip.Prefix]int32)
	id := func(p netip.Prefix) int32 {
		i, ok := ids[p]
		if !ok {
			i = int32(len(x.pfx))
			ids[p] = i
			x.pfx = append(x.pfx, p)
			x.recv = append(x.recv, nil)
		}
		return i
	}
	for ci, rep := range reps {
		x.rep[ci] = id(rep)
		for _, m := range members[ci] {
			i := id(m)
			x.recv[i] = append(x.recv[i], int32(ci))
		}
	}
	return x
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
		if len(x.recv[id]) == 0 {
			continue
		}
		n := x.received(t, int32(id), x.all())
		if n == 0 {
			continue // every representative it is a member of is empty here
		}
		fn(p, x.appendRows(make([]Route, 0, len(t.rows(p))+n), t, int32(id), x.all(), p))
	}
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
