package traffic_test

import (
	"fmt"
	"testing"

	"hoyan/internal/bgp"
	"hoyan/internal/gen"
	"hoyan/internal/isis"
	"hoyan/internal/scenario"
	"hoyan/internal/traffic"
)

// TestOneWalkMatchesReference holds the one memoized walk per flow to the
// two-walk reference forwarder (traffic.CheckOneWalk) on WAN(1-4), the
// Figure 10(a)/(b) case studies and the hand-built unit topologies.
func TestOneWalkMatchesReference(t *testing.T) {
	cases := traffic.UnitCases(t)
	for k := 1; k <= 4; k++ {
		out := gen.Generate(gen.WAN(k))
		igp := isis.Compute(out.Net.Topo, isis.Options{})
		ribs := bgp.Simulate(out.Net, igp, out.Inputs, bgp.Options{})
		cases = append(cases, traffic.Case{Name: fmt.Sprintf("wan%d", k), Net: out.Net, IGP: igp, RIBs: ribs, Flows: out.Flows})
	}
	for _, sc := range []*scenario.Scenario{scenario.Fig10a(), scenario.Fig10b()} {
		igp := isis.Compute(sc.Net.Topo, isis.Options{})
		ribs := bgp.Simulate(sc.Net, igp, sc.Inputs, bgp.Options{})
		cases = append(cases, traffic.Case{Name: sc.Name, Net: sc.Net, IGP: igp, RIBs: ribs, Flows: sc.Flows})
	}
	for _, c := range cases {
		if len(c.Flows) == 0 {
			t.Fatalf("%s: no flows", c.Name)
		}
		traffic.CheckOneWalk(t, c)
	}
}
