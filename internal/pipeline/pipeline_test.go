package pipeline

import (
	"net/netip"
	"slices"
	"strings"
	"testing"

	"hoyan/internal/change"
	"hoyan/internal/config"
	"hoyan/internal/core"
	"hoyan/internal/gen"
	"hoyan/internal/intent"
	"hoyan/internal/netmodel"
)

func TestBaseSnapshotCached(t *testing.T) {
	out := gen.Generate(gen.WAN(1))
	sys := New(out.Net, out.Inputs, out.Flows, core.Options{})
	s1 := sys.BaseSnapshot()
	s2 := sys.BaseSnapshot()
	if s1 != s2 {
		t.Error("base snapshot must be computed once (pre-processing)")
	}
	if s1.RIB.Len() == 0 || len(s1.Paths) == 0 {
		t.Error("base snapshot incomplete")
	}
	if len(s1.Bandwidth) != len(out.Net.Topo.Links()) {
		t.Error("bandwidth map incomplete")
	}
}

func TestVerifyNewPrefixBothModes(t *testing.T) {
	out := gen.Generate(gen.WAN(1))
	p := netip.MustParsePrefix("10.99.0.0/24")
	plan := &change.Plan{
		ID: "t", Type: change.NewPrefix,
		NewInputs: []netmodel.Route{{
			Device: "dc-0-0", VRF: "global", Prefix: p,
			NextHop: out.Net.Devices["dc-0-0"].Loopback,
		}},
	}
	intents := []intent.Intent{intent.ReachIntent{Prefix: p, Devices: []string{"rr-1-0"}, Want: true}}

	central := New(out.Net, out.Inputs, out.Flows, core.Options{})
	got, err := central.Verify(plan, intents)
	if err != nil {
		t.Fatal(err)
	}
	if !got.OK {
		t.Fatalf("centralized verify failed: %+v", got.Reports)
	}

	dist := New(out.Net, out.Inputs, out.Flows, core.Options{})
	dist.Workers = 2
	dist.RouteSubtasks = 6
	dist.TrafficSubtasks = 6
	got2, err := dist.Verify(plan, intents)
	if err != nil {
		t.Fatal(err)
	}
	if !got2.OK {
		t.Fatalf("distributed verify failed: %+v", got2.Reports)
	}
}

func TestVerifyApplyErrorPropagates(t *testing.T) {
	out := gen.Generate(gen.WAN(1))
	sys := New(out.Net, out.Inputs, nil, core.Options{})
	plan := &change.Plan{ID: "t", Commands: map[string]string{"nope": "isis enable\n"}}
	if _, err := sys.Verify(plan, nil); err == nil {
		t.Error("apply error must propagate")
	}
}

func TestAudit(t *testing.T) {
	out := gen.Generate(gen.WAN(1))
	sys := New(out.Net, out.Inputs, out.Flows, core.Options{})
	reports, ok := sys.Audit([]intent.Intent{
		intent.RouteIntent{Spec: "PRE = POST"}, // trivially true: base vs base
		intent.LoadIntent{MaxUtilization: 0.99},
	})
	if !ok || len(reports) != 2 {
		t.Errorf("audit: ok=%v reports=%+v", ok, reports)
	}
}

// TestSimulateDistributedMatchesCentralized pins that a distributed run
// produces the same RIB and traffic snapshot as the centralized path, and
// that its run report lists the fleet stages in execution order with the
// merged fleet metrics and trace.
func TestSimulateDistributedMatchesCentralized(t *testing.T) {
	out := gen.Generate(gen.WAN(1))

	central, err := New(out.Net, out.Inputs, out.Flows, core.Options{}).Simulate("central")
	if err != nil {
		t.Fatal(err)
	}

	dist := New(out.Net, out.Inputs, out.Flows, core.Options{})
	dist.Workers = 3
	dist.RouteSubtasks = 6
	dist.TrafficSubtasks = 6
	dist.Telemetry = true
	dsnap, err := dist.Simulate("dist")
	if err != nil {
		t.Fatal(err)
	}

	if !central.RIB.Equal(dsnap.RIB) {
		a, b := central.RIB.Diff(dsnap.RIB)
		t.Fatalf("distributed RIB != centralized RIB (diff %d/%d)", len(a), len(b))
	}
	for id, want := range central.Load {
		if d := dsnap.Load[id] - want; d > 1e-3 || d < -1e-3 {
			t.Errorf("load[%s]: distributed %v, centralized %v", id, dsnap.Load[id], want)
		}
	}

	rep := dist.LastRunReport()
	var stages []string
	for _, st := range rep.Stages {
		stages = append(stages, st.Name)
	}
	want := []string{"upload_snapshot", "route_enqueue", "route_wait", "route_collect",
		"traffic_enqueue", "traffic_wait", "traffic_collect"}
	if !slices.Equal(stages, want) {
		t.Errorf("stages %v, want %v", stages, want)
	}
	if rep.TaskID != "dist" || len(rep.Metrics) == 0 || len(rep.Spans) == 0 {
		t.Errorf("run report incomplete: task %q, %d metric series, %d spans",
			rep.TaskID, len(rep.Metrics), len(rep.Spans))
	}
}

// TestTEMetricHonoredOnEverySurface builds a network from configuration text
// carrying one `isis te-cost` line, as `hoyan -configs` does, and requires
// the IGP cost, the first hops and the flow path to follow the TE metric
// with default options: centralized and on a two-worker fleet.
func TestTEMetricHonoredOnEverySurface(t *testing.T) {
	// A reaches D via B (10+10) on plain costs; the TE metric on A's end of
	// A-B (100) moves it via C (15+10).
	b := gen.NewBuilder(netip.MustParsePrefix("172.30.0.0/16"))
	for i, name := range []string{"A", "B", "C", "D"} {
		b.Device(name, "alpha", 65000, netip.AddrFrom4([4]byte{10, 255, 0, byte(i + 1)}))
	}
	b.Link("A", "B", 10, 1e9)
	b.Link("A", "C", 15, 1e9)
	b.Link("B", "D", 10, 1e9)
	b.Link("C", "D", 10, 1e9)
	for _, name := range []string{"A", "B", "C"} {
		b.IBGP(name, "D")
	}
	b.Net.Devices["A"].Interfaces["to-B"].TECost = 100
	b.Net.Devices["D"].Interfaces["ext"] = &config.Interface{Name: "ext", Addr: netip.MustParsePrefix("198.51.100.1/24")}
	texts := map[string]string{}
	teLines := 0
	for name, d := range b.Net.Devices {
		texts[name] = config.Serialize(d)
		teLines += strings.Count(texts[name], "isis te-cost")
	}
	if teLines != 1 {
		t.Fatalf("%d te-cost lines in the configurations, want 1", teLines)
	}
	net, err := config.BuildNetworkOpts(texts, nil, config.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	dst := netip.MustParsePrefix("10.9.0.0/24")
	inputs := []netmodel.Route{{
		Device: "D", VRF: netmodel.DefaultVRF, Prefix: dst, Protocol: netmodel.ProtoBGP,
		NextHop: netip.MustParseAddr("198.51.100.2"), Attrs: &netmodel.Attrs{ASPath: netmodel.ASPath{Seq: []netmodel.ASN{65100}}}, Source: "D",
	}}
	flows := []netmodel.Flow{{Ingress: "A", Src: netip.MustParseAddr("192.0.2.9"), Dst: netip.MustParseAddr("10.9.0.5"),
		SrcPort: 1000, DstPort: 443, Proto: netmodel.ProtoTCP, Volume: 1e6}}

	eng := core.NewEngine(net, core.Options{})
	if c, _ := eng.IGP().Cost("A", "D"); c != 25 {
		t.Errorf("IGP cost A->D = %d, want 25 (TE metric on A-B)", c)
	}
	if fhs := eng.IGP().FirstHops("A", "D"); len(fhs) != 1 || fhs[0].Device != "C" {
		t.Errorf("first hops A->D = %v, want only C", fhs)
	}
	central := intent.SnapshotOf(eng.Run(inputs, flows))

	sys := New(net, inputs, flows, core.Options{})
	sys.Workers = 2
	fleet, err := sys.Simulate("te")
	if err != nil {
		t.Fatal(err)
	}
	for label, snap := range map[string]*intent.Snapshot{"centralized": central, "fleet": fleet} {
		var costs []uint32
		for _, r := range snap.RIB.Block("A") {
			if r.Prefix == dst {
				costs = append(costs, r.IGPCost)
			}
		}
		if !slices.Equal(costs, []uint32{25}) {
			t.Errorf("%s: A's IGP costs to %s = %v, want [25]", label, dst, costs)
		}
		if len(snap.Paths) != 1 || !slices.Equal(snap.Paths[0].Path.Devices(), []string{"A", "C", "D"}) {
			t.Errorf("%s: flow paths %v, want A C D", label, snap.Paths)
		}
	}
}
