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

	// The partition's expansion, numbered on the first Expansion call: the
	// global RIB expands every table by it, and forks read it concurrently.
	expOnce sync.Once
	exp     *netmodel.Expansion
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

// Expansion returns the partition's expansion as the global-RIB emitter
// applies it (netmodel.Expansion): one pair per class with a member prefix
// other than its representative's, in class order; nil for a nil partition
// (route ECs off). Distinct classes can share a representative prefix (same
// prefix, different attributes), so representatives may repeat.
func (e *RouteECs) Expansion() *netmodel.Expansion {
	if e == nil {
		return nil
	}
	e.expOnce.Do(func() {
		var reps []netip.Prefix
		var members [][]netip.Prefix
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
				reps, members = append(reps, rep), append(members, ms)
			}
		}
		e.exp = netmodel.NewExpansion(reps, members)
	})
	return e.exp
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
