package ec_test

import (
	"fmt"
	"math/rand"
	"net/netip"
	"slices"
	"testing"

	"hoyan/internal/bgp"
	"hoyan/internal/config"
	"hoyan/internal/ec"
	"hoyan/internal/gen"
	"hoyan/internal/isis"
	"hoyan/internal/netmodel"
	"hoyan/internal/scenario"
)

// expandInPlace is route-EC expansion as a walk over the classes in order:
// each member of a class with more than one prefix gets its existing rows
// followed by the representative's rows as they stand at that class's turn,
// prefix changed. It is the reference the emitter's expansion is held to.
// It returns how many classes handed rows on from a representative that had
// itself received some from an earlier class (a chained representative).
func expandInPlace(ecs *ec.RouteECs, rib *netmodel.RIB) (chained int) {
	received := make(map[netip.Prefix]bool)
	for _, c := range ecs.Classes {
		rep := c.Rep().Prefix
		rows := rib.Routes(rep)
		if len(rows) == 0 {
			continue
		}
		handed := false
		for _, m := range c.Routes[1:] {
			if m.Prefix == rep {
				continue
			}
			merged := slices.Clone(rib.Routes(m.Prefix))
			for _, r := range rows {
				r.Prefix = m.Prefix
				merged = append(merged, r)
			}
			rib.ReplaceOwned(m.Prefix, merged)
			received[m.Prefix], handed = true, true
		}
		if handed && received[rep] {
			chained++
		}
	}
	return chained
}

// emitFixture is one network and input set the pin simulates.
type emitFixture struct {
	name   string
	net    *config.Network
	inputs []netmodel.Route
}

func emitFixtures() []emitFixture {
	var out []emitFixture
	for k := 1; k <= 4; k++ {
		g := gen.Generate(gen.WAN(k))
		out = append(out,
			emitFixture{fmt.Sprintf("WAN(%d)", k), g.Net, g.Inputs},
			emitFixture{fmt.Sprintf("WAN(%d) with duplicate inputs", k), g.Net, gen.WithDuplicateInputs(g.Inputs)})
	}
	for _, sc := range []*scenario.Scenario{scenario.Fig10a(), scenario.Fig10b()} {
		out = append(out, emitFixture{sc.Name, sc.Net, sc.Inputs})
		if updated, err := sc.Plan.Apply(sc.Net); err == nil {
			out = append(out, emitFixture{sc.Name + " updated", updated, sc.Inputs})
		}
	}
	return out
}

// TestEmitterMatchesExpandInPlace pins the global-RIB emitter, table by
// table, to expansion in place followed by a canonical emission of the
// expanded table: on WAN(1–4) with and without duplicate inputs and on the
// Figure 10 case studies before and after their plans, at parallelism 1 and 0,
// the rows ExpandedGlobalRIB emits for a table are positionally those of the
// reference. ExpandRIB, which installs the emitter's rows, must leave every
// table holding the reference's rows in the reference's stored order. Some
// fixture must chain a representative, so receipt order is exercised.
func TestEmitterMatchesExpandInPlace(t *testing.T) {
	chained := 0
	for _, fx := range emitFixtures() {
		ecs := ec.ComputeRouteECs(fx.net, nil, fx.inputs, 1)
		igp := isis.Compute(fx.net.Topo, isis.Options{})
		for _, p := range []int{1, 0} {
			res := bgp.Simulate(fx.net, igp, ecs.Representatives(), bgp.Options{Parallelism: p})
			got := res.ExpandedGlobalRIB(ecs.Expansion()).Rows()
			var want []netmodel.Route
			for _, tb := range res.Tables() {
				ref := netmodel.UnionRIBs([]*netmodel.RIB{res.RIB(tb.Device, tb.VRF)})
				n := expandInPlace(ecs, ref)
				if p == 1 {
					chained += n
				}
				wantTable := ref.AppendSorted(nil, netmodel.NewEmission([]*netmodel.RIB{ref}, nil))
				if len(got) < len(want)+len(wantTable) || !slices.EqualFunc(got[len(want):len(want)+len(wantTable)], wantTable, netmodel.Route.Identical) {
					t.Fatalf("%s, parallelism %d: %s/%s: the emitter's rows differ from expansion in place", fx.name, p, tb.Device, tb.VRF)
				}
				want = append(want, wantTable...)

				inPlace := netmodel.UnionRIBs([]*netmodel.RIB{res.RIB(tb.Device, tb.VRF)})
				ecs.ExpandRIB(inPlace)
				if !slices.Equal(inPlace.Prefixes(), ref.Prefixes()) {
					t.Fatalf("%s, parallelism %d: %s/%s: ExpandRIB holds prefixes %v, expansion in place %v", fx.name, p, tb.Device, tb.VRF, inPlace.Prefixes(), ref.Prefixes())
				}
				for _, pfx := range ref.Prefixes() {
					if !slices.EqualFunc(inPlace.Routes(pfx), ref.Routes(pfx), netmodel.Route.Identical) {
						t.Fatalf("%s, parallelism %d: %s/%s %s: ExpandRIB stored %v, expansion in place %v", fx.name, p, tb.Device, tb.VRF, pfx, inPlace.Routes(pfx), ref.Routes(pfx))
					}
				}
			}
			if len(got) != len(want) {
				t.Fatalf("%s, parallelism %d: the emitter wrote %d rows, expansion in place %d", fx.name, p, len(got), len(want))
			}
		}
	}
	if chained == 0 {
		t.Fatal("no fixture chained a representative; receipt order went untested")
	}
	t.Logf("%d chained hand-ons", chained)
}

// TestEmitterMatchesExpandInPlaceRandom holds the emitter and ExpandRIB to
// expansion in place on random classes over a small prefix universe, where
// representatives shared by several classes, repeated members, members with
// rows of their own, and representatives that are members of earlier or later
// classes all occur, with best and candidate rows mixed.
func TestEmitterMatchesExpandInPlaceRandom(t *testing.T) {
	rnd := rand.New(rand.NewSource(47))
	universe := make([]netip.Prefix, 10)
	for i := range universe {
		universe[i] = netip.MustParsePrefix(fmt.Sprintf("10.%d.0.0/16", i))
	}
	serial := uint32(0)
	chained := 0
	for trial := 0; trial < 500; trial++ {
		ecs := &ec.RouteECs{}
		for c := 1 + rnd.Intn(6); c > 0; c-- {
			var class ec.RouteClass
			for m := 1 + rnd.Intn(4); m > 0; m-- {
				class.Routes = append(class.Routes, netmodel.Route{Prefix: universe[rnd.Intn(len(universe))]})
			}
			ecs.Classes = append(ecs.Classes, class)
		}
		table := netmodel.NewRIB("R1", netmodel.DefaultVRF)
		for _, p := range universe {
			rows := make([]netmodel.Route, rnd.Intn(3))
			for i := range rows {
				serial++
				rows[i] = netmodel.Route{Prefix: p, Protocol: netmodel.ProtoBGP, Attrs: &netmodel.Attrs{MED: serial % 5},
					NextHop: netip.AddrFrom4([4]byte{192, 0, 2, byte(rnd.Intn(4))}), RouteType: netmodel.RouteType(rnd.Intn(2))}
			}
			table.ReplaceOwned(p, rows)
		}
		ref := netmodel.UnionRIBs([]*netmodel.RIB{table})
		chained += expandInPlace(ecs, ref)
		want := ref.AppendSorted(nil, netmodel.NewEmission([]*netmodel.RIB{ref}, nil))
		if got := table.AppendSorted(nil, netmodel.NewEmission([]*netmodel.RIB{table}, ecs.Expansion())); !slices.EqualFunc(got, want, netmodel.Route.Identical) {
			t.Fatalf("trial %d: the emitter wrote %v, expansion in place %v\n classes %v", trial, got, want, ecs.Classes)
		}
		ecs.ExpandRIB(table)
		for _, p := range universe {
			if !slices.EqualFunc(table.Routes(p), ref.Routes(p), netmodel.Route.Identical) {
				t.Fatalf("trial %d: %s: ExpandRIB stored %v, expansion in place %v\n classes %v", trial, p, table.Routes(p), ref.Routes(p), ecs.Classes)
			}
		}
	}
	if chained == 0 {
		t.Fatal("no trial chained a representative")
	}
}
