package ec

import (
	"fmt"
	"math/rand"
	"net/netip"
	"slices"
	"testing"

	"hoyan/internal/netmodel"
)

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
			rows[i] = netmodel.Route{Prefix: p, Protocol: netmodel.ProtoBGP, MED: serial,
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
		ecs.classOnce.Do(ecs.indexClasses)
		for _, rep := range ecs.expReps {
			if len(ecs.classesOfMember[rep]) > 0 {
				chained++
			}
		}
		table := netmodel.NewRIB("R1", netmodel.DefaultVRF)
		for _, p := range universe {
			table.Replace(p, randRows(p))
		}
		base := table.ShallowClone()
		ecs.ExpandRIB(base)
		baseRef := table.ShallowClone()
		ecs.ExpandRIB(baseRef)

		fork := table.ShallowClone()
		changed := make(map[netip.Prefix]bool)
		for n := 1 + rnd.Intn(3); n > 0; n-- {
			p := universe[rnd.Intn(len(universe))]
			if rows := randRows(p); !slices.EqualFunc(rows, table.Routes(p), netmodel.Route.Identical) {
				fork.Replace(p, rows)
				changed[p] = true
			}
		}
		want := fork.ShallowClone()
		ecs.ExpandRIB(want)

		got := base.ShallowClone()
		reached := ecs.Reexpand(got, fork, changed)
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
	}
	if chained == 0 {
		t.Fatal("no trial had a representative that is also a member; the ordered replay went untested")
	}
}
