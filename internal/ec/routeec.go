// Package ec implements Hoyan's equivalence-class (EC) techniques (§3.1):
//
//   - Route ECs: input routes are equivalent when they are injected at the
//     same router/VRF, their prefixes match identically against every prefix
//     set in the network and trigger the same aggregates, and all their BGP
//     attributes agree. A prefix the network originates itself is a class of
//     its own. One representative per EC is simulated; RIB rows are then
//     replicated to the member prefixes (~4× reduction on the WAN).
//
//   - Flow ECs: flows are equivalent when their longest-prefix matches on
//     all RIBs agree — computed via address-space atoms — and they are
//     indistinguishable to every ACL/PBR rule (~100× reduction).
package ec

import (
	"fmt"
	"net/netip"
	"slices"
	"strings"
	"sync"

	"hoyan/internal/config"
	"hoyan/internal/netmodel"
	"hoyan/internal/par"
	"hoyan/internal/vsb"
)

// RouteClass is one route equivalence class; Routes[0] is the simulated
// representative.
type RouteClass struct {
	Routes []netmodel.Route
}

// Rep returns the representative input route.
func (c *RouteClass) Rep() netmodel.Route { return c.Routes[0] }

// RouteECs is the partition of input routes into equivalence classes.
type RouteECs struct {
	Classes []RouteClass
	// Inputs is the total number of input routes partitioned.
	Inputs int

	// Memoized expansion in deterministic (class-order) form: the global RIB
	// expands every table by it, so the rep→members walk is computed once and
	// reused. exp numbers it for the emitter, on the first Expansion call (a
	// fork's partition only reexpands, and never pays for it).
	expOnce    sync.Once
	expReps    []netip.Prefix
	expMembers [][]netip.Prefix
	numOnce    sync.Once
	exp        *netmodel.Expansion
	// classesOfRep / classesOfMember list, ascending, the pairs (indexes into
	// expReps) a prefix represents / is a member of, for Reexpand and Moved. A
	// member listed twice in one pair is listed twice there: ExpandRIB hands
	// it the representative's rows twice.
	classOnce       sync.Once
	classesOfRep    map[netip.Prefix][]int32
	classesOfMember map[netip.Prefix][]int32
}

// Reduction returns the input-count reduction factor (inputs / classes).
func (e *RouteECs) Reduction() float64 {
	if len(e.Classes) == 0 {
		return 1
	}
	return float64(e.Inputs) / float64(len(e.Classes))
}

// Representatives returns one input route per class.
func (e *RouteECs) Representatives() []netmodel.Route {
	out := make([]netmodel.Route, len(e.Classes))
	for i := range e.Classes {
		out[i] = e.Classes[i].Rep()
	}
	return out
}

// ComputeRouteECs partitions the input routes per the §3.1 criteria.
// Signature computation — the prefix-list sweep dominating the cost — fans
// out over Options-style parallelism (0 = GOMAXPROCS, 1 = sequential) into
// per-input slots; classes are then grouped sequentially in input order, so
// the partition is identical at any parallelism.
func ComputeRouteECs(net *config.Network, profiles vsb.Profiles, inputs []netmodel.Route, parallelism int) *RouteECs {
	if profiles == nil {
		profiles = vsb.Defaults()
	}
	// Gather every prefix list in the network once, with its device's VSB
	// profile (the match result can be vendor-dependent for family-mismatch
	// cases).
	type listRef struct {
		dev  string
		name string
	}
	var lists []listRef
	var aggs []netip.Prefix
	for _, dev := range net.DeviceNames() {
		d := net.Devices[dev]
		for _, name := range sortedListNames(d) {
			lists = append(lists, listRef{dev: dev, name: name})
		}
		for _, a := range d.Aggregates {
			aggs = append(aggs, a.Prefix)
		}
	}
	local := localPrefixes(net)

	// The prefix-list sweep — the dominating cost — depends only on the
	// route's prefix, and many inputs share a prefix. Number the unique
	// prefixes in first-sight order and compute the match-bit row once per
	// unique prefix; the per-input signature then just splices the memoized
	// row in.
	var uniq []netip.Prefix
	pid := make(map[netip.Prefix]int)
	inputPID := make([]int, len(inputs))
	for i := range inputs {
		id, ok := pid[inputs[i].Prefix]
		if !ok {
			id = len(uniq)
			pid[inputs[i].Prefix] = id
			uniq = append(uniq, inputs[i].Prefix)
		}
		inputPID[i] = id
	}
	rows := par.Map(parallelism, len(uniq), func(pi int) string {
		p := uniq[pi]
		row := make([]byte, 0, len(lists)+len(aggs)+1)
		// (2) same matching results across all prefix sets and aggregates.
		for _, lr := range lists {
			d := net.Devices[lr.dev]
			if d.PrefixLists[lr.name].Match(p, profiles.For(d.Vendor)) {
				row = append(row, '1')
			} else {
				row = append(row, '0')
			}
		}
		row = append(row, '|')
		for _, a := range aggs {
			if a.Bits() < p.Bits() && a.Contains(p.Addr()) {
				row = append(row, '1')
			} else {
				row = append(row, '0')
			}
		}
		// (4) a prefix the network originates itself is simulated together
		// with its local routes, whose rows are no representative's to hand
		// on, nor a member's to receive: its signature is its own.
		if local[p.Masked()] {
			row = p.AppendTo(append(row, '|'))
		}
		return string(row)
	})

	sigs := par.Map(parallelism, len(inputs), func(i int) string {
		r := &inputs[i]
		a := r.Attr()
		var b strings.Builder
		b.Grow(len(rows[inputPID[i]]) + 64)
		// (1) same injection router and VRF.
		b.WriteString(r.Device)
		b.WriteByte('|')
		b.WriteString(r.VRF)
		b.WriteByte('|')
		b.WriteString(rows[inputPID[i]])
		// (3) same values for all BGP attributes.
		fmt.Fprintf(&b, "|%s|%d|%d|%d|%s|%s|%s",
			r.NextHop, a.LocalPref, a.MED, a.Weight, a.Communities, a.ASPath, a.Origin)
		return b.String()
	})

	bySig := make(map[string]int)
	out := &RouteECs{Inputs: len(inputs)}
	for i, r := range inputs {
		sig := sigs[i]
		idx, ok := bySig[sig]
		if !ok {
			idx = len(out.Classes)
			bySig[sig] = idx
			out.Classes = append(out.Classes, RouteClass{})
		}
		out.Classes[idx].Routes = append(out.Classes[idx].Routes, r)
	}
	return out
}

// expansion returns the memoized rep→members pairs in class order. Distinct
// classes can share a representative prefix (same prefix, different
// attributes), so reps may repeat.
func (e *RouteECs) expansion() ([]netip.Prefix, [][]netip.Prefix) {
	e.expOnce.Do(func() {
		for i := range e.Classes {
			c := &e.Classes[i]
			rep := c.Rep().Prefix
			var ms []netip.Prefix
			for _, r := range c.Routes[1:] {
				if r.Prefix != rep {
					ms = append(ms, r.Prefix)
				}
			}
			if len(ms) > 0 {
				e.expReps = append(e.expReps, rep)
				e.expMembers = append(e.expMembers, ms)
			}
		}
	})
	return e.expReps, e.expMembers
}

// Expansion returns the partition's expansion as the global-RIB emitter
// applies it (netmodel.Expansion); nil for a nil partition (route ECs off).
func (e *RouteECs) Expansion() *netmodel.Expansion {
	if e == nil {
		return nil
	}
	e.numOnce.Do(func() { e.exp = netmodel.NewExpansion(e.expansion()) })
	return e.exp
}

// indexClasses builds classesOfRep / classesOfMember on the first Reexpand or
// Moved call (a one-shot audit never pays for them).
func (e *RouteECs) indexClasses() {
	reps, members := e.expansion()
	e.classesOfRep = make(map[netip.Prefix][]int32)
	e.classesOfMember = make(map[netip.Prefix][]int32)
	for i, rep := range reps {
		e.classesOfRep[rep] = append(e.classesOfRep[rep], int32(i))
		for _, m := range members[i] {
			e.classesOfMember[m] = append(e.classesOfMember[m], int32(i))
		}
	}
}

// receipt is what ExpandRIB hands a member in pair ci: the representative's
// rows as of that turn, i.e. its own plus what its member entries before ci
// gave it.
func (e *RouteECs) receipt(ci int32) (rep netip.Prefix, before int) {
	rep = e.expReps[ci]
	before, _ = slices.BinarySearch(e.classesOfMember[rep], ci)
	return rep, before
}

// Moved lists the prefixes whose expansion under e can differ from their
// expansion under base for the same table: those whose ordered receipts
// differ. A prefix whose receipts agree can still receive different rows, but
// only when a representative it receives from has moved or changed itself, and
// Reexpand follows every prefix it rebuilds to the members it represents.
func (e *RouteECs) Moved(base *RouteECs) []netip.Prefix {
	e.classOnce.Do(e.indexClasses)
	base.classOnce.Do(base.indexClasses)
	var moved []netip.Prefix
	for m, cs := range e.classesOfMember {
		bs := base.classesOfMember[m]
		if !slices.EqualFunc(cs, bs, func(c, b int32) bool {
			cr, cn := e.receipt(c)
			br, bn := base.receipt(b)
			return cr == br && cn == bn
		}) {
			moved = append(moved, m)
		}
	}
	for m := range base.classesOfMember {
		if _, ok := e.classesOfMember[m]; !ok {
			moved = append(moved, m)
		}
	}
	return moved
}

// ExpandRIB replicates the representative prefixes' rows onto the member
// prefixes of their classes in place, realizing the EC speedup: simulate one
// route per EC, then clone results. Each member gets the rows the global-RIB
// emitter writes for it (netmodel.Expansion.Receipts), as one slice the RIB
// adopts in place of copying (ReplaceOwned), so a table expanded here emits
// what the emitter writes for it unexpanded. The table grows once, to room for
// every member it gives rows.
func (e *RouteECs) ExpandRIB(rib *netmodel.RIB) {
	var ms []netip.Prefix
	var rows [][]netmodel.Route
	e.Expansion().Receipts(rib, func(p netip.Prefix, rs []netmodel.Route) {
		ms, rows = append(ms, p), append(rows, rs)
	})
	rib.Grow(len(ms))
	for i, m := range ms {
		rib.ReplaceOwned(m, rows[i])
	}
}

// Reexpansion is the working set of Reexpand calls made one after another,
// such as a fork's over its tables: it is cleared, not reallocated, from one
// call to the next. The zero value is ready to use.
type Reexpansion struct {
	rows    map[netip.Prefix][]netmodel.Route
	reached []netip.Prefix
	replay  []int32
}

// Reexpand brings exp — a clone of the expansion, under some partition base,
// of a table that differs from table at the changed prefixes only — up to
// date: afterwards exp holds what e.ExpandRIB(table) would, with only the
// prefixes the change reaches rebuilt. moved is e.Moved(base), nil when base is
// e. It returns the rebuilt prefixes (distinct, unordered): the changed ones,
// the moved ones exp holds rows for at the prefix or at one of its
// representatives under e (no other moved prefix can hold rows in either
// expansion, short of reaching it below) and, transitively, the members of
// every class a reached prefix represents. Rows table holds outside changed
// are installed with Replace: they may be shared with concurrent readers. x
// is the working set, which a nil x allocates for this call alone.
//
// ExpandRIB walks the classes in order and hands a member whatever rows its
// representative holds at that point: its own plus what earlier classes gave
// it, when it is itself a member. So the reached prefixes start over from
// their rows in table and the walk is replayed, in order, over the classes
// they are members of. A representative outside the reached set must then
// hold in exp its rows as of its class's turn: true of one that is never a
// member under either partition, and made true of any other by reaching it.
func (e *RouteECs) Reexpand(x *Reexpansion, exp, table *netmodel.RIB, changed map[netip.Prefix]bool, moved []netip.Prefix) []netip.Prefix {
	reps, members := e.expansion()
	e.classOnce.Do(e.indexClasses)
	if x == nil {
		x = new(Reexpansion)
	}
	if x.rows == nil {
		x.rows = make(map[netip.Prefix][]netmodel.Route, 2*len(changed))
	}
	rows, reached, replay := x.rows, x.reached[:0], x.replay[:0]
	reach := func(p netip.Prefix) {
		if _, ok := rows[p]; !ok {
			rows[p] = table.Routes(p)
			reached = append(reached, p)
		}
	}
	for p := range changed {
		reach(p)
	}
	for _, p := range moved {
		if len(exp.Routes(p)) > 0 || slices.ContainsFunc(e.classesOfMember[p], func(ci int32) bool { return len(exp.Routes(reps[ci])) > 0 }) {
			reach(p)
		}
	}
	for i := 0; i < len(reached); i++ {
		for _, ci := range e.classesOfRep[reached[i]] {
			for _, m := range members[ci] {
				reach(m)
			}
		}
		for _, ci := range e.classesOfMember[reached[i]] {
			replay = append(replay, ci)
			if len(e.classesOfMember[reps[ci]]) > 0 {
				reach(reps[ci])
			}
		}
	}
	slices.Sort(replay)
	for _, ci := range slices.Compact(replay) {
		from, ok := rows[reps[ci]]
		if !ok {
			from = exp.Routes(reps[ci])
		}
		if len(from) == 0 {
			continue
		}
		for _, m := range members[ci] {
			existing, ok := rows[m]
			if !ok {
				continue
			}
			merged := make([]netmodel.Route, 0, len(existing)+len(from))
			merged = append(merged, existing...)
			for _, r := range from {
				r.Prefix = m
				merged = append(merged, r)
			}
			rows[m] = merged
		}
	}
	exp.Grow(len(reached))
	for _, p := range reached {
		if r, own := rows[p], table.Routes(p); !changed[p] && len(r) > 0 && len(r) == len(own) {
			exp.Replace(p, r) // never merged (a merge only grows): table's own slice, maybe the base state's
		} else {
			exp.ReplaceOwned(p, r) // decided by this fork, or merged above
		}
	}
	out := slices.Clone(reached)
	clear(rows)
	x.reached, x.replay = reached[:0], replay[:0]
	return out
}

// localPrefixes is every prefix some device can originate itself: its network
// statements, statics, aggregates, interface subnets and host routes, and
// loopback. That covers whatever BGP can originate locally, redistribution
// included.
func localPrefixes(net *config.Network) map[netip.Prefix]bool {
	out := make(map[netip.Prefix]bool)
	add := func(ps ...netip.Prefix) {
		for _, p := range ps {
			out[p.Masked()] = true
		}
	}
	host := func(a netip.Addr) netip.Prefix { return netip.PrefixFrom(a, a.BitLen()) }
	for _, d := range net.Devices {
		add(d.Networks...)
		for _, st := range d.Statics {
			add(st.Prefix)
		}
		for _, a := range d.Aggregates {
			add(a.Prefix)
		}
		for _, i := range d.Interfaces {
			if i.Addr.IsValid() {
				add(i.Addr, host(i.Addr.Addr()))
			}
		}
		if d.Loopback.IsValid() {
			add(host(d.Loopback))
		}
	}
	return out
}

func sortedListNames(d *config.Device) []string {
	out := make([]string, 0, len(d.PrefixLists))
	for name := range d.PrefixLists {
		out = append(out, name)
	}
	slices.Sort(out)
	return out
}
