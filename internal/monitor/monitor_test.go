package monitor

import (
	"net/netip"
	"testing"

	"hoyan/internal/netmodel"
)

func row(dev, prefix string, rt netmodel.RouteType, weight uint32) netmodel.Route {
	return netmodel.Route{
		Device: dev, VRF: netmodel.DefaultVRF,
		Prefix:   netip.MustParsePrefix(prefix),
		NextHop:  netip.MustParseAddr("1.1.1.1"),
		Protocol: netmodel.ProtoBGP, RouteType: rt, Attrs: &netmodel.Attrs{Weight: weight},
	}
}

func ecmpRow(dev, prefix, nh string) netmodel.Route {
	r := row(dev, prefix, netmodel.RouteBest, 0)
	r.NextHop = netip.MustParseAddr(nh)
	return r
}

func TestRouteMonitorProjection(t *testing.T) {
	truth := netmodel.NewGlobalRIB([]netmodel.Route{
		ecmpRow("A", "10.0.0.0/24", "1.1.1.1"),
		ecmpRow("A", "10.0.0.0/24", "2.2.2.2"), // ECMP sibling
		row("A", "20.0.0.0/24", netmodel.RouteCandidate, 0),
		func() netmodel.Route { r := row("B", "10.0.0.0/24", netmodel.RouteBest, 32768); return r }(),
	})
	m := &RouteMonitor{}
	got := m.Collect(truth)
	// Candidates invisible; only one best per (device, vrf, prefix); weight
	// zeroed.
	if got.Len() != 2 {
		t.Fatalf("rows = %d, want 2: %v", got.Len(), got.Rows())
	}
	for _, r := range got.Rows() {
		if r.Attr().Weight != 0 {
			t.Error("weight must not propagate")
		}
		if r.RouteType != netmodel.RouteBest {
			t.Error("only best routes visible")
		}
	}
}

// TestProjectionSharesZeroedAttrs: rows that held one attribute set project
// onto one weight-zeroed set, made once, and the truth's set keeps its
// weight.
func TestProjectionSharesZeroedAttrs(t *testing.T) {
	shared := &netmodel.Attrs{Weight: 32768, LocalPref: 200}
	var rows []netmodel.Route
	for _, dev := range []string{"A", "B", "C"} {
		r := row(dev, "10.0.0.0/24", netmodel.RouteBest, 0)
		r.Attrs = shared
		rows = append(rows, r)
	}
	got := (&RouteMonitor{}).Project(netmodel.NewGlobalRIB(rows)).Rows()
	if len(got) != 3 {
		t.Fatalf("rows = %d, want 3", len(got))
	}
	for _, r := range got {
		if r.Attrs != got[0].Attrs {
			t.Errorf("%s: its own attribute set, want the one shared zeroed set", r.Device)
		}
		if a := r.Attr(); a.Weight != 0 || a.LocalPref != 200 {
			t.Errorf("%s: projected attributes %+v, want weight 0 and local preference 200", r.Device, a)
		}
	}
	if shared.Weight != 32768 {
		t.Errorf("the truth's attribute set lost its weight: %d", shared.Weight)
	}
}

func TestRouteMonitorBMP(t *testing.T) {
	truth := netmodel.NewGlobalRIB([]netmodel.Route{
		ecmpRow("A", "10.0.0.0/24", "1.1.1.1"),
		ecmpRow("A", "10.0.0.0/24", "2.2.2.2"),
	})
	m := &RouteMonitor{BMPDevices: map[string]bool{"A": true}}
	if got := m.Collect(truth); got.Len() != 2 {
		t.Errorf("BMP device must expose ECMP siblings, got %d rows", got.Len())
	}
}

func TestRouteMonitorAgentFailure(t *testing.T) {
	truth := netmodel.NewGlobalRIB([]netmodel.Route{
		ecmpRow("A", "10.0.0.0/24", "1.1.1.1"),
		ecmpRow("B", "10.0.0.0/24", "1.1.1.1"),
	})
	m := &RouteMonitor{Faults: Faults{FailedRouteAgents: []string{"A"}}}
	got := m.Collect(truth)
	if got.Len() != 1 || got.Rows()[0].Device != "B" {
		t.Errorf("failed agent must drop A's routes: %v", got.Rows())
	}
}

func TestLiveShow(t *testing.T) {
	truth := netmodel.NewGlobalRIB([]netmodel.Route{
		ecmpRow("A", "10.0.0.0/24", "1.1.1.1"),
		ecmpRow("A", "10.0.0.0/24", "2.2.2.2"),
		ecmpRow("A", "20.0.0.0/24", "1.1.1.1"),
	})
	got := LiveShow(truth, []string{"10.0.0.0/24"})
	if len(got) != 2 {
		t.Errorf("live show must return full rows for selected prefixes, got %d", len(got))
	}
}

func TestTrafficMonitorFaults(t *testing.T) {
	id1 := netmodel.LinkID{A: "A", B: "B", AIface: "x", BIface: "y"}
	id2 := netmodel.LinkID{A: "B", B: "C", AIface: "x", BIface: "y"}
	truth := netmodel.LinkLoad{id1: 100, id2: 200}

	clean := (&TrafficMonitor{}).CollectLoads(truth)
	if clean[id1] != 100 || clean[id2] != 200 {
		t.Errorf("clean collection: %v", clean)
	}

	scaled := (&TrafficMonitor{Faults: Faults{FlowVolumeScale: 2}}).CollectLoads(truth)
	if scaled[id1] != 200 {
		t.Errorf("volume bug: %v", scaled)
	}

	hidden := (&TrafficMonitor{Faults: Faults{HiddenLinks: []netmodel.LinkID{id1}}}).CollectLoads(truth)
	if _, ok := hidden[id1]; ok {
		t.Error("hidden link must not be reported")
	}

	noisy := (&TrafficMonitor{Faults: Faults{LoadNoise: 0.1, NoiseSeed: 1}}).CollectLoads(truth)
	if noisy[id1] == 100 && noisy[id2] == 200 {
		t.Error("noise had no effect")
	}
	again := (&TrafficMonitor{Faults: Faults{LoadNoise: 0.1, NoiseSeed: 1}}).CollectLoads(truth)
	if noisy[id1] != again[id1] {
		t.Error("noise must be deterministic per seed")
	}
}
