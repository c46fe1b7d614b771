package pipeline

import (
	"net/netip"
	"slices"
	"testing"

	"hoyan/internal/change"
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
