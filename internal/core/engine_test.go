package core

import (
	"bytes"
	"net/netip"
	"testing"

	"hoyan/internal/ec"
	"hoyan/internal/gen"
	"hoyan/internal/netmodel"
	"hoyan/internal/vsb"
)

func TestEndToEndRouteSimulation(t *testing.T) {
	out := gen.Generate(gen.WAN(1))
	e := NewEngine(out.Net, Options{})
	res := e.RouteSimulation(out.Inputs)
	if !res.BGP.Converged {
		t.Fatalf("did not converge (rounds=%d)", res.BGP.Rounds)
	}
	if res.BGP.Rounds > 20 {
		t.Errorf("rounds = %d; paper's WAN converges within 20", res.BGP.Rounds)
	}

	// A DC prefix from region 0 must be present on routers of other regions.
	dcPrefix := netip.MustParsePrefix("10.0.0.0/24")
	found := 0
	for _, tab := range res.BGP.Tables() {
		if len(res.BGP.RIB(tab.Device, tab.VRF).Best(dcPrefix)) > 0 {
			found++
		}
	}
	if found < len(out.Net.Devices)/2 {
		t.Errorf("dc prefix visible on %d tables only (devices=%d)", found, len(out.Net.Devices))
	}

	// The route-EC technique must be active and reduce inputs.
	if res.ECStats == nil || res.ECStats.Reduction() <= 1.0 {
		t.Errorf("route EC reduction = %+v", res.ECStats)
	}
}

func TestECOnOffEquivalence(t *testing.T) {
	// The EC optimization must not change the simulated global RIB.
	out := gen.Generate(gen.WAN(1))
	with := NewEngine(out.Net, Options{}).RouteSimulation(out.Inputs)
	without := NewEngine(out.Net, Options{DisableRouteECs: true}).RouteSimulation(out.Inputs)
	gw, gwo := with.GlobalRIB(), without.GlobalRIB()
	if !gw.Equal(gwo) {
		onlyA, onlyB := gw.Diff(gwo)
		max := 5
		for i, r := range onlyA {
			if i >= max {
				break
			}
			t.Logf("only with ECs: %v", r)
		}
		for i, r := range onlyB {
			if i >= max {
				break
			}
			t.Logf("only without ECs: %v", r)
		}
		t.Fatalf("EC on/off differ: %d vs %d rows (diff %d/%d)", gw.Len(), gwo.Len(), len(onlyA), len(onlyB))
	}
}

// TestECOnOffEquivalenceLocalPrefix: an input prefix the network also
// originates, here by a network statement on core-0-0, is simulated together
// with its local route, so it shares no class — neither as the representative
// of 10.0.0.0/24's class nor as the member 10.0.5.0/24. The ECs-on RIB equals
// the ECs-off one and is a stable state.
func TestECOnOffEquivalenceLocalPrefix(t *testing.T) {
	for _, tc := range []struct {
		prefix string
		rep    bool
	}{{"10.0.0.0/24", true}, {"10.0.5.0/24", false}} {
		t.Run(tc.prefix, func(t *testing.T) {
			out := gen.Generate(gen.WAN(2))
			p := netip.MustParsePrefix(tc.prefix)
			classed := false
			for _, c := range ec.ComputeRouteECs(out.Net, nil, out.Inputs, 1).Classes {
				for i, r := range c.Routes {
					classed = classed || r.Prefix == p && len(c.Routes) > 1 && (i == 0) == tc.rep
				}
			}
			if !classed {
				t.Fatalf("fixture: %s is not a class %s", p, map[bool]string{true: "representative", false: "member"}[tc.rep])
			}
			core0 := out.Net.Devices["core-0-0"]
			core0.Networks = append(core0.Networks, p)
			on := NewEngine(out.Net, Options{})
			with := on.RouteSimulation(out.Inputs).GlobalRIB()
			without := NewEngine(out.Net, Options{DisableRouteECs: true}).RouteSimulation(out.Inputs).GlobalRIB()
			if !with.Equal(without) {
				onlyWith, onlyWithout := with.Diff(without)
				t.Errorf("%d rows only with ECs, %d only without", len(onlyWith), len(onlyWithout))
			}
			checkRIB(t, "route ECs on", on, out.Net, out.Inputs, with)
		})
	}
}

func TestEndToEndTrafficSimulation(t *testing.T) {
	out := gen.Generate(gen.WAN(1))
	e := NewEngine(out.Net, Options{})
	res := e.Run(out.Inputs, out.Flows)
	if res.Traffic == nil {
		t.Fatal("no traffic result")
	}
	if res.Traffic.ECStats == nil || len(res.Traffic.ECStats.Classes) > res.Traffic.ECStats.Inputs {
		t.Errorf("flow EC stats: %+v", res.Traffic.ECStats)
	}
	// Some volume must land on some link.
	var total float64
	for _, v := range res.Traffic.Traffic.Load {
		total += v
	}
	if total <= 0 {
		t.Error("no load simulated")
	}
	// Flow-EC on/off must agree on link loads (within float tolerance).
	woEng := NewEngine(out.Net, Options{DisableFlowECs: true})
	wo := woEng.TrafficSimulation(res.Routes, res.Routes.GlobalRIB().Rows(), out.Flows)
	for id, v := range wo.Traffic.Load {
		got := res.Traffic.Traffic.Load[id]
		if diff := got - v; diff > 1e-6 || diff < -1e-6 {
			t.Errorf("load[%s] EC=%v noEC=%v", id, got, v)
		}
	}
}

func TestVSBMutationChangesGlobalRIB(t *testing.T) {
	// At least the core routing VSBs must be observable on the generated
	// WAN — that observability is what Table 5's campaign relies on.
	out := gen.Generate(gen.WAN(1))
	truth := NewEngine(out.Net, Options{}).RouteSimulation(out.Inputs).GlobalRIB()
	observable := 0
	tested := []vsb.Mutation{
		vsb.MutDefaultPreference, vsb.MutMissingPolicy, vsb.MutDefaultPolicy,
	}
	for _, m := range tested {
		profs := vsb.Defaults()
		profs["alpha"] = m.Apply(profs["alpha"])
		profs["beta"] = m.Apply(profs["beta"])
		got := NewEngine(out.Net, Options{Profiles: profs}).RouteSimulation(out.Inputs).GlobalRIB()
		if !truth.Equal(got) {
			observable++
		}
	}
	if observable == 0 {
		t.Error("no tested VSB mutation was observable")
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	out := gen.Generate(gen.WAN(1))
	snap := TakeSnapshot(out.Net)
	var buf bytes.Buffer
	if err := snap.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	snap2, err := DecodeSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	net2, err := snap2.RestoreParallel(1)
	if err != nil {
		t.Fatal(err)
	}
	// The restored model must simulate identically.
	g1 := NewEngine(out.Net, Options{}).RouteSimulation(out.Inputs).GlobalRIB()
	g2 := NewEngine(net2, Options{}).RouteSimulation(out.Inputs).GlobalRIB()
	if !g1.Equal(g2) {
		a, b := g1.Diff(g2)
		for i := 0; i < len(a) && i < 5; i++ {
			t.Logf("orig: %v", a[i])
		}
		for i := 0; i < len(b) && i < 5; i++ {
			t.Logf("restored: %v", b[i])
		}
		t.Fatalf("restored snapshot simulates differently: %d vs %d rows", g1.Len(), g2.Len())
	}
}

func TestRouteAndFlowWireFormats(t *testing.T) {
	out := gen.Generate(gen.WAN(1))
	var buf bytes.Buffer
	if err := EncodeRoutes(&buf, out.Inputs); err != nil {
		t.Fatal(err)
	}
	rs, err := DecodeRoutes(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != len(out.Inputs) {
		t.Fatalf("routes: %d != %d", len(rs), len(out.Inputs))
	}
	for i := range rs {
		if !rs[i].AttrsEqual(out.Inputs[i]) {
			t.Fatalf("route %d changed: %v vs %v", i, rs[i], out.Inputs[i])
		}
	}
	buf.Reset()
	if err := EncodeFlows(&buf, out.Flows); err != nil {
		t.Fatal(err)
	}
	fs, err := DecodeFlows(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != len(out.Flows) || fs[0] != out.Flows[0] {
		t.Fatal("flows changed in transit")
	}
}

func TestSimulationDeterminismAtScale(t *testing.T) {
	out := gen.Generate(gen.WAN(2))
	g1 := NewEngine(out.Net, Options{}).RouteSimulation(out.Inputs).GlobalRIB()
	g2 := NewEngine(out.Net, Options{}).RouteSimulation(out.Inputs).GlobalRIB()
	if !g1.Equal(g2) {
		t.Error("route simulation nondeterministic")
	}
}

var _ = netmodel.DefaultVRF
