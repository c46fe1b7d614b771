package traffic

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"hoyan/internal/bgp"
	"hoyan/internal/gen"
	"hoyan/internal/isis"
	"hoyan/internal/netmodel"
)

// sameResult fails unless got's paths equal want's and every link carries
// bit-for-bit the same load.
func sameResult(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if !reflect.DeepEqual(got.Paths, want.Paths) {
		t.Fatalf("%s: paths differ from Simulate's", label)
	}
	if len(got.Load) != len(want.Load) {
		t.Fatalf("%s: %d loaded links, Simulate %d", label, len(got.Load), len(want.Load))
	}
	for id, w := range want.Load {
		if g, ok := got.Load[id]; !ok || math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("%s: load on %s is %v, Simulate %v", label, id, g, w)
		}
	}
}

// TestEntryPointsAgree pins the one forwarding loop behind Simulate,
// SimulateTraced and Resimulate on a WAN with ECMP: at parallelism 1 and 0,
// the traced run and a re-simulation — with nothing changed (every flow
// reused) and with the first flow's ingress changed (its flows walked again)
// — give Simulate's paths and loads bit for bit.
func TestEntryPointsAgree(t *testing.T) {
	out := gen.Generate(gen.WAN(1))
	igp := isis.Compute(out.Net.Topo, isis.Options{})
	ribs := bgp.Simulate(out.Net, igp, out.Inputs, bgp.Options{})
	flows := out.Flows
	for _, p := range []int{1, 0} {
		fw := NewForwarder(out.Net, igp, ribs, Options{Parallelism: p})
		want := fw.Simulate(flows)
		traced, traces := fw.SimulateTraced(flows)
		sameResult(t, "SimulateTraced", traced, want)
		ecmp := false
		for i, tr := range traces {
			for _, c := range tr.contribs {
				ecmp = ecmp || c.volume < flows[i].Volume
			}
		}
		if !ecmp {
			t.Fatal("no flow split across equal-cost branches")
		}

		res, _, reused := fw.Resimulate(flows, traced, traces, nil, nil, nil)
		sameResult(t, "Resimulate, nothing changed", res, want)
		if reused != len(flows) {
			t.Errorf("nothing changed: %d of %d flows reused", reused, len(flows))
		}
		changed := map[string]bool{flows[0].Ingress: true}
		res, _, reused = fw.Resimulate(flows, traced, traces, changed, nil, nil)
		sameResult(t, "Resimulate, one device changed", res, want)
		if reused == 0 || reused == len(flows) {
			t.Errorf("%s changed: %d of %d flows reused, want some but not all", flows[0].Ingress, reused, len(flows))
		}
	}
}

// TestNewForwarderRejectsForeignIGP: an IGP result computed on another
// topology — here a clone's, taken before the network gained a link — names
// devices and links by another index, so NewForwarder must refuse it.
func TestNewForwarderRejectsForeignIGP(t *testing.T) {
	out := gen.Generate(gen.WAN(1))
	igp := isis.Compute(out.Net.Clone().Topo, isis.Options{})
	names := out.Net.DeviceNames()
	out.Net.Topo.AddLink(netmodel.Link{A: names[0], B: names[1], AIface: "extra", BIface: "extra", CostAB: 10, CostBA: 10})
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "another topology") {
			t.Fatalf("NewForwarder over a foreign IGP result: recovered %v, want a panic naming the topology mismatch", r)
		}
	}()
	NewForwarder(out.Net, igp, nil, Options{})
}
