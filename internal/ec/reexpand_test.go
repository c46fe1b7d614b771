package ec

import (
	"fmt"
	"math/rand"
	"net/netip"
	"runtime"
	"slices"
	"testing"

	"hoyan/internal/netmodel"
)

// clone returns a plain table sharing t's rows.
func clone(t *netmodel.RIB) *netmodel.RIB { return netmodel.UnionRIBs([]*netmodel.RIB{t}) }

// sameTables reports whether two tables hold the same prefixes with Identical
// rows in the same stored order.
func sameTables(a, b *netmodel.RIB) bool {
	if !slices.Equal(a.Prefixes(), b.Prefixes()) {
		return false
	}
	for _, p := range a.Prefixes() {
		if !slices.EqualFunc(a.Routes(p), b.Routes(p), netmodel.Route.Identical) {
			return false
		}
	}
	return true
}

// TestReexpandMatchesExpandRIB: patching a clone of a table's expansion at the
// changed prefixes must give what expanding the changed table whole gives,
// while the base expansion stays untouched and every prefix outside the
// returned set keeps the base's row slice. The classes are random over a small
// prefix universe, so representatives shared by several classes, members of
// several classes, repeated members, members with rows of their own, and
// representatives that are themselves members of earlier or later classes
// (where ExpandRIB's class order decides what a member receives) all occur.
func TestReexpandMatchesExpandRIB(t *testing.T) {
	rnd := rand.New(rand.NewSource(16))
	universe := make([]netip.Prefix, 12)
	for i := range universe {
		universe[i] = netip.MustParsePrefix(fmt.Sprintf("10.%d.0.0/16", i))
	}
	serial := uint32(0)
	randRows := func(p netip.Prefix) []netmodel.Route {
		rows := make([]netmodel.Route, rnd.Intn(3))
		for i := range rows {
			serial++
			rows[i] = netmodel.Route{Prefix: p, Protocol: netmodel.ProtoBGP, Attrs: &netmodel.Attrs{MED: serial},
				NextHop: netip.AddrFrom4([4]byte{192, 0, 2, byte(rnd.Intn(4))})}
		}
		return rows
	}
	chained := 0
	for trial := 0; trial < 300; trial++ {
		ecs := &RouteECs{}
		for c := 1 + rnd.Intn(5); c > 0; c-- {
			var class RouteClass
			for m := 1 + rnd.Intn(4); m > 0; m-- {
				class.Routes = append(class.Routes, netmodel.Route{Prefix: universe[rnd.Intn(len(universe))]})
			}
			ecs.Classes = append(ecs.Classes, class)
		}
		chained += chains(ecs.Classes)
		table := netmodel.NewRIB("R1", netmodel.DefaultVRF)
		for _, p := range universe {
			table.Replace(p, randRows(p))
		}
		base := clone(table)
		ecs.ExpandRIB(base)
		baseRef := clone(table)
		ecs.ExpandRIB(baseRef)

		fork := clone(table)
		changed := make(map[netip.Prefix]bool)
		for n := 1 + rnd.Intn(3); n > 0; n-- {
			p := universe[rnd.Intn(len(universe))]
			if rows := randRows(p); !slices.EqualFunc(rows, table.Routes(p), netmodel.Route.Identical) {
				fork.Replace(p, rows)
				changed[p] = true
			}
		}
		want := clone(fork)
		ecs.ExpandRIB(want)

		got := clone(base)
		reached := ecs.Expansion().Reexpand(nil, got, fork, changed, nil)
		if !sameTables(got, want) {
			t.Fatalf("trial %d: Reexpand of %v differs from ExpandRIB of the changed table\n classes %v", trial, changed, ecs.Classes)
		}
		if !sameTables(base, baseRef) {
			t.Fatalf("trial %d: Reexpand modified the base expansion", trial)
		}
		for p := range changed {
			if !slices.Contains(reached, p) {
				t.Fatalf("trial %d: changed prefix %s not among the rebuilt ones %v", trial, p, reached)
			}
		}
		for _, p := range universe {
			if slices.Contains(reached, p) {
				continue
			}
			if a, b := got.Routes(p), base.Routes(p); len(a) != len(b) || (len(a) > 0 && &a[0] != &b[0]) {
				t.Fatalf("trial %d: prefix %s is outside the rebuilt set %v but does not share the base's rows", trial, p, reached)
			}
		}

		// Route ECs off: a nil expansion rebuilds the changed prefixes alone,
		// and every other prefix keeps the unexpanded table's row slice.
		got = clone(table)
		reached = (*netmodel.Expansion)(nil).Reexpand(nil, got, fork, changed, nil)
		if !sameTables(got, fork) {
			t.Fatalf("trial %d: a nil expansion's Reexpand of %v differs from the changed table", trial, changed)
		}
		if len(reached) != len(changed) {
			t.Fatalf("trial %d: a nil expansion rebuilt %v for the changed %v", trial, reached, changed)
		}
		for _, p := range universe {
			if changed[p] {
				continue
			}
			if a, b := got.Routes(p), table.Routes(p); len(a) != len(b) || (len(a) > 0 && &a[0] != &b[0]) {
				t.Fatalf("trial %d: a nil expansion left %s unchanged but not sharing the table's rows", trial, p)
			}
		}
	}
	if chained == 0 {
		t.Fatal("no trial had a representative that is also a member; chained receipts went untested")
	}
}

// chains counts the classes whose representative hands rows (the class has a
// member of another prefix) and is itself such a member of some class: there
// the order of the classes decides what a member receives.
func chains(classes []RouteClass) int {
	n := 0
	for _, c := range classes {
		rep := c.Rep().Prefix
		if !slices.ContainsFunc(c.Routes[1:], func(r netmodel.Route) bool { return r.Prefix != rep }) {
			continue
		}
		if slices.ContainsFunc(classes, func(o RouteClass) bool {
			return o.Rep().Prefix != rep && slices.ContainsFunc(o.Routes[1:], func(r netmodel.Route) bool { return r.Prefix == rep })
		}) {
			n++
		}
	}
	return n
}

// FuzzReexpandAcrossPartitions: an input delta changes the partition as well
// as the table. From a seed it draws, over a prefix universe small enough that
// classes share representatives, repeat members and give members rows of their
// own, a table and a partition P0 whose members are half the time another
// class's representative (chains); a partition P1 that drops, adds, repeats
// and reorders routes and classes of P0 (or starts from nothing); and a table
// that differs from the first at a few prefixes. Reexpand under P1, seeded with those prefixes
// and P1.Moved(P0), must turn a clone of P0's expansion of the first table into
// exactly P1's expansion of the second, leaving P0's expansion as it was.
func FuzzReexpandAcrossPartitions(f *testing.F) {
	for seed := int64(0); seed < 256; seed++ {
		f.Add(seed)
	}
	universe := make([]netip.Prefix, 10)
	for i := range universe {
		universe[i] = netip.MustParsePrefix(fmt.Sprintf("10.%d.0.0/16", i))
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rnd := rand.New(rand.NewSource(seed))
		route := func() netmodel.Route { return netmodel.Route{Prefix: universe[rnd.Intn(len(universe))]} }
		// Representatives first, so members can chain to them.
		p0 := make([]RouteClass, 1+rnd.Intn(6))
		for i := range p0 {
			p0[i].Routes = []netmodel.Route{route()}
		}
		for i := range p0 {
			for m := rnd.Intn(4); m > 0; m-- {
				r := route()
				if rnd.Intn(2) == 0 {
					r = p0[rnd.Intn(len(p0))].Routes[0]
				}
				p0[i].Routes = append(p0[i].Routes, r)
			}
		}
		p1 := make([]RouteClass, 0, len(p0)+1)
		for _, c := range p0 {
			p1 = append(p1, RouteClass{Routes: slices.Clone(c.Routes)})
		}
		if rnd.Intn(8) == 0 {
			p1 = p1[:0]
		}
		for n := 1 + rnd.Intn(2); n > 0; n-- {
			if len(p1) == 0 {
				p1 = append(p1, RouteClass{Routes: []netmodel.Route{route()}})
				continue
			}
			c := &p1[rnd.Intn(len(p1))]
			switch rnd.Intn(7) {
			case 0: // drop a route (the representative, if it is the first)
				i := rnd.Intn(len(c.Routes))
				c.Routes = slices.Delete(c.Routes, i, i+1)
			case 1: // a new member, maybe a prefix the class already lists
				c.Routes = append(c.Routes, route())
			case 2: // re-add a member
				c.Routes = append(c.Routes, c.Routes[rnd.Intn(len(c.Routes))])
			case 3: // a new class
				p1 = append(p1, RouteClass{Routes: []netmodel.Route{route(), route()}})
			case 4, 5, 6: // move a class (its first input moved past another's)
				i, j := rnd.Intn(len(p1)), rnd.Intn(len(p1))
				moved := p1[i]
				p1 = slices.Insert(slices.Delete(p1, i, i+1), j, moved)
			}
			p1 = slices.DeleteFunc(p1, func(c RouteClass) bool { return len(c.Routes) == 0 })
		}
		e0, e1 := &RouteECs{Classes: p0}, &RouteECs{Classes: p1}

		serial := uint32(0)
		randRows := func(p netip.Prefix) []netmodel.Route {
			rows := make([]netmodel.Route, rnd.Intn(3))
			for i := range rows {
				serial++
				rows[i] = netmodel.Route{Prefix: p, Protocol: netmodel.ProtoBGP, Attrs: &netmodel.Attrs{MED: serial}}
			}
			return rows
		}
		table := netmodel.NewRIB("R1", netmodel.DefaultVRF)
		for _, p := range universe {
			table.Replace(p, randRows(p))
		}
		fork := clone(table)
		changed := make(map[netip.Prefix]bool)
		for n := rnd.Intn(3); n > 0; n-- {
			p := universe[rnd.Intn(len(universe))]
			fork.Replace(p, randRows(p))
			changed[p] = true
		}
		base := clone(table)
		e0.ExpandRIB(base)
		baseRef := clone(table)
		e0.ExpandRIB(baseRef)
		want := clone(fork)
		e1.ExpandRIB(want)

		got := base.Overlay()
		moved := e1.Expansion().Moved(e0.Expansion())
		e1.Expansion().Reexpand(nil, got, fork, changed, moved)
		if !sameTables(got, want) {
			t.Fatalf("Reexpand across partitions differs from ExpandRIB\n P0 %v\n P1 %v\n changed %v, moved %v", p0, p1, changed, moved)
		}
		if !sameTables(base, baseRef) {
			t.Fatal("Reexpand modified the base expansion")
		}
	})
}

// TestReexpandAllocs pins what Reexpand allocates per reached prefix once its
// working set is warm: the overlay's own map, sized once for the reached
// prefixes, and the returned slice. A working set made again per call, or an
// overlay map grown by doubling, costs about as much again.
func TestReexpandAllocs(t *testing.T) {
	const n = 4096
	table := netmodel.NewRIBSized("A", netmodel.DefaultVRF, n)
	changed := make(map[netip.Prefix]bool, n)
	for i := 0; i < n; i++ {
		p := netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i >> 8), byte(i), 0}), 24)
		table.ReplaceOwned(p, []netmodel.Route{{Prefix: p, Protocol: netmodel.ProtoBGP, RouteType: netmodel.RouteBest}})
		changed[p] = true
	}
	base := clone(table)
	ecs := &RouteECs{}
	var x netmodel.Reexpansion
	ecs.Expansion().Reexpand(&x, base.Overlay(), table, changed, nil)
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		ecs.Expansion().Reexpand(&x, base.Overlay(), table, changed, nil)
	}
	runtime.ReadMemStats(&after)
	perPrefix := float64(after.TotalAlloc-before.TotalAlloc) / runs / n
	t.Logf("%.0f B per reached prefix", perPrefix)
	if perPrefix > 200 {
		t.Errorf("Reexpand allocates %.0f B per reached prefix, want <= 200", perPrefix)
	}
}
