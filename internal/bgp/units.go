package bgp

import (
	"cmp"
	"net/netip"
	"slices"

	"hoyan/internal/config"
	"hoyan/internal/netmodel"
	"hoyan/internal/par"
)

// This file founds the parallel cold fixpoint on prefix independence, the
// fact behind the paper's per-prefix route subtasks (§3): a decision for
// (table, prefix) reads that prefix's candidates only, its advertisements
// and VRF leaks carry the same prefix, and next hops resolve through the IGP,
// never through another BGP route. The one coupling between prefixes is
// aggregation — an aggregate's activation and AS path are computed from the
// more-specific routes of its table (aggregate.go contributors), refreshed
// whenever one of them is decided (dense.go updateAggregatesInto), and a
// summary-only aggregate suppresses their advertisement (decision.go
// suppressedByAggregate). So the originated prefixes fall into independence
// groups: everything covered by one outermost configured aggregate prefix is
// a group (nested aggregates lie inside their outermost one), every other
// prefix is a group of its own. Groups are packed into work units, each unit
// runs the unchanged sequential fixpoint to convergence in a sim of its own,
// and the units' table records — disjoint by prefix — are unioned.
//
// The result is byte-identical to one sequential fixpoint over all prefixes:
// that loop visits a table's dirty prefixes in an order of the prefixes alone
// and keeps every group's relative order, each round's messages for a prefix
// depend only on its group's state, so each group passes through the same
// states round by round whichever other groups share its sim.

// Grouping is the independence grouping of a network's prefixes, held as its
// roots: the configured aggregate prefixes not covered by another configured
// aggregate, over all devices and VRFs (a leaked or advertised route keeps its
// prefix, so a prefix is grouped alike everywhere). The cold fixpoint packs its
// work units by it, and the fleet (dsim) cuts its route subtasks along it.
type Grouping struct {
	roots map[netip.Prefix]bool
	bits  []int // distinct lengths in roots, ascending
}

// Groups returns net's independence grouping.
func Groups(net *config.Network) Grouping {
	var all []netip.Prefix
	for _, d := range net.Devices {
		for _, a := range d.Aggregates {
			all = append(all, a.Prefix.Masked())
		}
	}
	slices.SortFunc(all, func(a, b netip.Prefix) int { return a.Bits() - b.Bits() })
	g := Grouping{roots: make(map[netip.Prefix]bool)}
	for _, a := range all {
		if g.Of(a) != a || g.roots[a] {
			continue // nested in, or a repeat of, an earlier root
		}
		g.roots[a] = true
		if len(g.bits) == 0 || g.bits[len(g.bits)-1] != a.Bits() {
			g.bits = append(g.bits, a.Bits())
		}
	}
	return g
}

// Of returns the independence group of p: the root aggregate prefix that
// covers or equals it, else p itself.
func (g Grouping) Of(p netip.Prefix) netip.Prefix {
	for _, b := range g.bits {
		if b > p.Bits() {
			break
		}
		if root, err := p.Addr().Prefix(b); err == nil && g.roots[root] {
			return root
		}
	}
	return p
}

// splitUnits distributes the originated candidates of s over at most one
// sibling sim per worker, whole groups at a time, largest group first onto
// the least loaded unit (a group weighs its seeded (table, prefix) pairs). It
// returns nil when there is nothing to run concurrently: one worker, or fewer
// than two groups.
func (s *sim) splitUnits(workers int) []*sim {
	if workers < 2 {
		return nil
	}
	groups := Groups(s.net)
	weight := make(map[netip.Prefix]int)
	for _, t := range s.tables {
		t.locals.All(func(p netip.Prefix, _ []cand) { weight[groups.Of(p)]++ })
	}
	if len(weight) < 2 {
		return nil
	}
	order := make([]netip.Prefix, 0, len(weight))
	for g := range weight {
		order = append(order, g)
	}
	slices.SortFunc(order, func(a, b netip.Prefix) int {
		return cmp.Or(weight[b]-weight[a], a.Addr().Compare(b.Addr()), a.Bits()-b.Bits())
	})
	units := make([]*sim, min(len(order), workers))
	load := make([]int, len(units))
	unitOf := make(map[netip.Prefix]*sim, len(order))
	for _, g := range order {
		least := 0
		for i := range load {
			if load[i] < load[least] {
				least = i
			}
		}
		if units[least] == nil {
			units[least] = s.sibling()
		}
		load[least] += weight[g]
		unitOf[g] = units[least]
	}
	for k, t := range s.tables {
		t.locals.All(func(p netip.Prefix, cs []cand) { unitOf[groups.Of(p)].localsOf(k).Set(p, cs) })
	}
	// A unit carries its groups' prefixes. An aggregate whose group
	// originates nothing never activates, so no unit carries it.
	for p := range s.carried {
		if u := unitOf[groups.Of(p)]; u != nil {
			if u.carried == nil {
				u.carried = make(map[netip.Prefix]bool)
			}
			u.carried[p] = true
		}
	}
	return units
}

// runUnits converges every unit concurrently, bounded by the run's
// Parallelism, and unions their results.
func runUnits(units []*sim) *Result {
	parallelism := units[0].opts.Parallelism
	results := par.Map(parallelism, len(units), func(i int) *Result {
		for k := range units[i].tables {
			units[i].markTable(k)
		}
		return units[i].runDense()
	})
	res := &Result{Converged: true, parallelism: parallelism, Par: ParStats{Stripes: len(units)}}
	ribs := make([]map[tableKey]*netmodel.RIB, len(units))
	for i, r := range results {
		ribs[i] = r.ribs
		res.Rounds = max(res.Rounds, r.Rounds)
		res.Messages += r.Messages
		res.Converged = res.Converged && r.Converged
		res.Par.ParallelRounds += r.Rounds
		res.Par.SumStripePairs += units[i].decided
		res.Par.MaxStripePairs = max(res.Par.MaxStripePairs, units[i].decided)
	}
	res.ribs = unionTables(parallelism, ribs, netmodel.UnionRIBs)
	return res
}

// mergeUnits unions the captured units of a multi-unit run into one State a
// warm restart cannot tell from a single sim's.
func (st *State) mergeUnits() {
	if st.units == nil {
		return
	}
	tables := make([]map[tableKey]*table, len(st.units))
	for i, u := range st.units {
		tables[i] = u.tables
	}
	st.tables = unionTables(st.opts.Parallelism, tables, unionRecords)
	carried := make([]map[netip.Prefix]bool, len(st.units))
	for i, u := range st.units {
		carried[i] = u.carried
	}
	st.carried = unionMaps(carried)
	st.units = nil
}

// unionRecords unions one table's records across units into a frozen record,
// field by field.
func unionRecords(parts []*table) *table {
	if len(parts) == 1 {
		return parts[0] // captured, so already frozen
	}
	var (
		adjIn   []*netmodel.Layer[netip.Prefix, map[string][]cand]
		locals  []*netmodel.Layer[netip.Prefix, []cand]
		ribs    []*netmodel.RIB
		lastAdv []*netmodel.Layer[netip.Prefix, string]
		aggOn   []*netmodel.Layer[netip.Prefix, bool]
	)
	for _, t := range parts {
		adjIn, locals, lastAdv, aggOn = append(adjIn, &t.adjIn), append(locals, &t.locals), append(lastAdv, &t.lastAdv), append(aggOn, &t.aggOn)
		if t.rib != nil {
			ribs = append(ribs, t.rib)
		}
	}
	t := &table{adjIn: unionLayers(adjIn), locals: unionLayers(locals), lastAdv: unionLayers(lastAdv), aggOn: unionLayers(aggOn), shared: true}
	if len(ribs) > 0 {
		t.rib = netmodel.UnionRIBs(ribs)
	}
	return t
}

// unionLayers unions plain layers over disjoint key sets into one, sized once
// for all their entries.
func unionLayers[V any](parts []*netmodel.Layer[netip.Prefix, V]) (out netmodel.Layer[netip.Prefix, V]) {
	n := 0
	for _, l := range parts {
		n += l.OwnLen()
	}
	out.Grow(n)
	for _, l := range parts {
		l.All(out.Set)
	}
	return out
}

// unionTables unions per-table values across units: a table present in
// several units gets union of its values, computed concurrently per table.
func unionTables[V any](parallelism int, units []map[tableKey]V, union func([]V) V) map[tableKey]V {
	parts := make(map[tableKey][]V)
	for _, m := range units {
		for k, v := range m {
			parts[k] = append(parts[k], v)
		}
	}
	keys := make([]tableKey, 0, len(parts))
	for k := range parts {
		keys = append(keys, k)
	}
	vals := par.Map(parallelism, len(keys), func(i int) V { return union(parts[keys[i]]) })
	out := make(map[tableKey]V, len(keys))
	for i, k := range keys {
		out[k] = vals[i]
	}
	return out
}

// unionMaps unions maps over disjoint key sets; nil when every part is.
func unionMaps[K comparable, V any](parts []map[K]V) map[K]V {
	n, none := 0, true
	for _, m := range parts {
		n += len(m)
		none = none && m == nil
	}
	if none {
		return nil
	}
	out := make(map[K]V, n)
	for _, m := range parts {
		for k, v := range m {
			out[k] = v
		}
	}
	return out
}
