package ec_test

import (
	"slices"
	"testing"

	"hoyan/internal/bgp"
	"hoyan/internal/ec"
	"hoyan/internal/gen"
	"hoyan/internal/isis"
	"hoyan/internal/netmodel"
)

// TestExpandSharesAttrs: route-EC expansion hands a member its
// representative's rows by copying each row's attribute pointer, so on WAN(2)
// every row a member receives holds the very set of the representative row
// it copies.
func TestExpandSharesAttrs(t *testing.T) {
	g := gen.Generate(gen.WAN(2))
	ecs := ec.ComputeRouteECs(g.Net, nil, g.Inputs, 1)
	res := bgp.Simulate(g.Net, isis.Compute(g.Net.Topo, isis.Options{}), ecs.Representatives(), bgp.Options{})
	shared := 0
	for _, tb := range res.Tables() {
		rib := res.RIB(tb.Device, tb.VRF)
		// The representatives' rows before expansion, by class.
		repRows := make([][]netmodel.Route, len(ecs.Classes))
		for i := range ecs.Classes {
			repRows[i] = slices.Clone(rib.Routes(ecs.Classes[i].Rep().Prefix))
		}
		ecs.ExpandRIB(rib)
		for i, c := range ecs.Classes {
			for _, m := range c.Routes[1:] {
				if m.Prefix == c.Rep().Prefix {
					continue
				}
				got := rib.Routes(m.Prefix)
				for _, r := range repRows[i] {
					if !slices.ContainsFunc(got, func(mr netmodel.Route) bool {
						return mr.Attrs == r.Attrs && mr.NextHop == r.NextHop && mr.Peer == r.Peer
					}) {
						t.Fatalf("%s/%s: member %s has no row holding representative %s's set: %v", tb.Device, tb.VRF, m.Prefix, r.Prefix, r)
					}
					if r.Attrs != nil {
						shared++
					}
				}
			}
		}
	}
	if shared == 0 {
		t.Fatal("no member row received a non-zero attribute set")
	}
	t.Logf("%d member rows share their representative row's set", shared)
}
