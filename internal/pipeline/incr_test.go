package pipeline

import (
	"fmt"
	"reflect"
	"testing"

	"hoyan/internal/change"
	"hoyan/internal/config"
	"hoyan/internal/core"
	"hoyan/internal/gen"
	"hoyan/internal/intent"
	"hoyan/internal/netmodel"
	"hoyan/internal/scenario"
)

// linkFailurePlan is a pure-delta what-if plan: one link goes down.
func linkFailurePlan(id netmodel.LinkID) *change.Plan {
	return &change.Plan{
		ID:          fmt.Sprintf("whatif-link-%s-down", id),
		Type:        change.TopologyAdjust,
		Description: fmt.Sprintf("what-if: link %s fails", id),
		SetLinks:    []change.LinkUpDown{{ID: id, Up: false}},
	}
}

// linkFailureSweep returns one single-link-failure plan per up link.
func linkFailureSweep(net *config.Network) []*change.Plan {
	var plans []*change.Plan
	for _, l := range net.Topo.Links() {
		if l.Up {
			plans = append(plans, linkFailurePlan(l.ID()))
		}
	}
	return plans
}

// forkStats forks plan's delta from sys's base as Verify does and returns the
// work the fork avoided.
func forkStats(t *testing.T, sys *System, plan *change.Plan) core.ForkStats {
	t.Helper()
	d, err := plan.Delta(sys.Base)
	if err != nil {
		t.Fatalf("%s: %v", plan.ID, err)
	}
	sys.BaseSnapshot()
	_, stats, err := sys.baseEng.WhatIf(nil, d, 0)
	if err != nil {
		t.Fatalf("%s: the plan did not fork: %v", plan.ID, err)
	}
	return stats
}

// coldOutcome is Verify's reference: a cold engine on Plan.Apply's network
// and inputs, checked against the verified outcome's base snapshot. It returns
// the updated snapshot and the intents' reports and verdict over it.
func coldOutcome(t *testing.T, net *config.Network, inputs []netmodel.Route, flows []netmodel.Flow, plan *change.Plan, intents []intent.Intent, got *Outcome) (*intent.Snapshot, []intent.Report, bool) {
	t.Helper()
	updated, err := plan.Apply(net)
	if err != nil {
		t.Fatalf("%s: Verify accepted the plan, Apply did not: %v", plan.ID, err)
	}
	cold := intent.SnapshotOf(core.NewEngine(updated, core.Options{}).Run(plan.ApplyInputs(inputs), flows))
	reports, ok := intent.Verify(&intent.Context{Base: *got.BaseSnap, Updated: *cold}, intents)
	return cold, reports, ok
}

// verifyMatchesCold runs one scenario's plan through Verify and asserts the
// outcome agrees with a cold run of the applied plan on everything an
// operator sees: verdict, reports, and the updated snapshot. Every plan
// verifies as a warm fork, add-links and add-routers included, so this holds
// the fork to an independent reference.
func verifyMatchesCold(t *testing.T, sc *scenario.Scenario) {
	t.Helper()
	sys := New(sc.Net, sc.Inputs, sc.Flows, core.Options{})
	got, err := sys.Verify(sc.Plan, sc.Intents)
	if err != nil {
		if !sc.WantApplyError {
			t.Fatalf("%s: unexpected apply error %v", sc.Name, err)
		}
		return
	}
	forkStats(t, sys, sc.Plan)
	cold, coldReports, coldOK := coldOutcome(t, sc.Net, sc.Inputs, sc.Flows, sc.Plan, sc.Intents, got)
	if !got.UpdateSnap.RIB.Equal(cold.RIB) {
		t.Fatalf("%s: updated RIB differs from a cold run of the applied plan", sc.Name)
	}
	if !reflect.DeepEqual(got.UpdateSnap.Paths, cold.Paths) {
		t.Fatalf("%s: updated paths differ from a cold run of the applied plan", sc.Name)
	}
	if !reflect.DeepEqual(got.UpdateSnap.Load, cold.Load) {
		t.Fatalf("%s: updated loads differ from a cold run of the applied plan", sc.Name)
	}
	if coldOK != got.OK || !reflect.DeepEqual(coldReports, got.Reports) {
		t.Fatalf("%s: verdict %v, cold run of the applied plan %v\nreports: %+v\ncold reports: %+v",
			sc.Name, got.OK, coldOK, got.Reports, coldReports)
	}
	if got.OK != sc.WantOK {
		t.Errorf("%s: verdict %v, scenario expects %v", sc.Name, got.OK, sc.WantOK)
	}
}

// TestVerifyIncrementalMatchesFullOnCatalog runs every Table 2 change type
// and every Table 6 scenario through Verify and holds each outcome to a cold
// run of the applied plan, byte for byte.
func TestVerifyIncrementalMatchesFullOnCatalog(t *testing.T) {
	for _, sc := range scenario.Table2Catalog() {
		t.Run(string(sc.Type), func(t *testing.T) { verifyMatchesCold(t, sc) })
	}
	for _, rs := range scenario.Table6Catalog() {
		t.Run(rs.Name, func(t *testing.T) { verifyMatchesCold(t, rs.Scenario) })
	}
}

func TestVerifyIncrementalMatchesFullOnCaseStudies(t *testing.T) {
	for _, sc := range []*scenario.Scenario{scenario.Fig10a(), scenario.Fig10b()} {
		t.Run(sc.Name, func(t *testing.T) { verifyMatchesCold(t, sc) })
	}
}

// TestVerifyPureDeltaTakesForkPath asserts the routing decision itself: every
// plan verifies as an incremental fork (its delta forks the base) — a
// toggles-only plan, and every Table 2, Table 6 and Figure 10 plan that
// applies.
func TestVerifyPureDeltaTakesForkPath(t *testing.T) {
	out := gen.Generate(gen.WAN(1))
	sys := New(out.Net, out.Inputs, out.Flows, core.Options{})

	plan := linkFailurePlan(out.Net.Topo.Links()[0].ID())
	if _, err := sys.Verify(plan, nil); err != nil {
		t.Fatal(err)
	}
	stats := forkStats(t, sys, plan)
	if stats.Full {
		t.Error("link-down fork fell back to full simulation")
	}
	if stats.SPFReused == 0 {
		t.Error("fork reused no SPF sources")
	}

	if d, err := plan.Delta(out.Net); err != nil || len(d.LinksDown) != 1 {
		t.Errorf("linkFailurePlan must convert to a one-link delta, got %+v err=%v", d, err)
	}

	scs := append([]*scenario.Scenario{scenario.Fig10a(), scenario.Fig10b()}, scenario.Table2Catalog()...)
	for _, rs := range scenario.Table6Catalog() {
		scs = append(scs, rs.Scenario)
	}
	for _, sc := range scs {
		sys := New(sc.Net, sc.Inputs, sc.Flows, core.Options{})
		if _, err := sys.Verify(sc.Plan, sc.Intents); err != nil {
			if sc.WantApplyError {
				continue
			}
			t.Fatalf("%s: %v", sc.Name, err)
		}
		if forkStats(t, sys, sc.Plan).Full {
			t.Fatalf("%s: the plan must fork, not fall back to full simulation", sc.Name)
		}
	}
}

// TestVerifyISISCostEdit: a plan that sets the isis cost on both ends of one
// WAN(2) link changes the topology, and forks like any other plan. Its
// updated state equals a cold run of the network edited by hand (both
// interfaces' costs set, the topology derived again), and differs from the
// base: the cost is live.
func TestVerifyISISCostEdit(t *testing.T) {
	out := gen.Generate(gen.WAN(2))
	l := out.Net.Topo.FindLink("core-0-0", "core-0-1")
	plan := &change.Plan{ID: "isis-cost", Type: change.TopologyAdjust, Commands: map[string]string{
		l.A: fmt.Sprintf("interface %s\n isis cost 500\n", l.AIface),
		l.B: fmt.Sprintf("interface %s\n isis cost 500\n", l.BIface),
	}}
	sys := New(out.Net, out.Inputs, out.Flows, core.Options{})
	got, err := sys.Verify(plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats := forkStats(t, sys, plan); stats.SPFReused != 0 {
		t.Fatalf("an isis cost plan: %d SPF sources reused; want a fork with SPF in full", stats.SPFReused)
	}

	hand := out.Net.Clone()
	hand.Devices[l.A].Interfaces[l.AIface].ISISCost = 500
	hand.Devices[l.B].Interfaces[l.BIface].ISISCost = 500
	hand.Topo = hand.Topology()
	if c := hand.Topo.Link(l.ID()); c.CostAB != 500 || c.CostBA != 500 {
		t.Fatalf("hand-edited link costs %d/%d", c.CostAB, c.CostBA)
	}
	cold := intent.SnapshotOf(core.NewEngine(hand, core.Options{}).Run(out.Inputs, out.Flows))
	if !got.UpdateSnap.RIB.Equal(cold.RIB) || !reflect.DeepEqual(got.UpdateSnap.Paths, cold.Paths) || !reflect.DeepEqual(got.UpdateSnap.Load, cold.Load) {
		t.Fatal("updated state differs from a cold run of the hand-edited network")
	}
	if got.UpdateSnap.RIB.Equal(got.BaseSnap.RIB) && reflect.DeepEqual(got.UpdateSnap.Paths, got.BaseSnap.Paths) {
		t.Fatal("the isis cost edit changed neither the RIB nor a path")
	}
}

// TestVerifyBandwidthEdit: a plan that halves one busy link's bandwidth on
// both ends is checked against the forked topology's bandwidths. A load
// intent reports exactly what it reports on a cold run of the applied plan,
// and the updated snapshot carries the new bandwidth.
func TestVerifyBandwidthEdit(t *testing.T) {
	out := gen.Generate(gen.WAN(1))
	sys := New(out.Net, out.Inputs, out.Flows, core.Options{})
	var busy netmodel.LinkID
	for id, load := range sys.BaseSnapshot().Load {
		if load > sys.BaseSnapshot().Load[busy] || load == sys.BaseSnapshot().Load[busy] && id.String() < busy.String() {
			busy = id
		}
	}
	l := out.Net.Topo.Link(busy)
	bw := sys.BaseSnapshot().Load[busy] / 2
	plan := &change.Plan{ID: "bandwidth", Type: change.TopologyAdjust, Commands: map[string]string{
		l.A: fmt.Sprintf("interface %s\n bandwidth %g\n", l.AIface, bw),
		l.B: fmt.Sprintf("interface %s\n bandwidth %g\n", l.BIface, bw),
	}}
	intents := []intent.Intent{intent.LoadIntent{MaxUtilization: 0.95}}
	got, err := sys.Verify(plan, intents)
	if err != nil {
		t.Fatal(err)
	}
	if got.UpdateSnap.Bandwidth[busy] != bw {
		t.Fatalf("updated bandwidth of %s: %g, want %g", busy, got.UpdateSnap.Bandwidth[busy], bw)
	}
	_, reports, ok := coldOutcome(t, out.Net, out.Inputs, out.Flows, plan, intents, got)
	if got.OK || got.OK != ok || !reflect.DeepEqual(got.Reports, reports) {
		t.Fatalf("verdict %v, cold run %v\nreports: %+v\ncold reports: %+v", got.OK, ok, got.Reports, reports)
	}
}

// TestVerifyLinkFailureSweepIncremental sweeps a handful of single-link
// failures through one pipeline's warm forks and checks load intents and
// loads against a cold run of each applied plan.
func TestVerifyLinkFailureSweepIncremental(t *testing.T) {
	out := gen.Generate(gen.WAN(1))
	intents := []intent.Intent{intent.LoadIntent{MaxUtilization: 1.0}}
	inc := New(out.Net, out.Inputs, out.Flows, core.Options{})
	plans := linkFailureSweep(out.Net)
	step := len(plans)/6 + 1
	for i := 0; i < len(plans); i += step {
		got, err := inc.Verify(plans[i], intents)
		if err != nil {
			t.Fatal(err)
		}
		cold, reports, ok := coldOutcome(t, out.Net, out.Inputs, out.Flows, plans[i], intents, got)
		if got.OK != ok || !reflect.DeepEqual(got.Reports, reports) {
			t.Fatalf("%s: sweep outcome mismatch", plans[i].ID)
		}
		if !reflect.DeepEqual(got.UpdateSnap.Load, cold.Load) {
			t.Fatalf("%s: sweep loads differ", plans[i].ID)
		}
	}
}

// TestVerifyFleetMatchesCentralizedOnCaseStudies verifies every case study —
// Figure 10, the Table 2 catalog and the Table 6 campaign — centralized and
// on a two-worker fleet. The workers re-parse the uploaded configurations,
// so a model the configuration text cannot carry shows up here as a
// different verdict. With route ECs off, the fleet's updated RIB must also
// equal the centralized one row for row (with ECs on, Figure 10(b)'s
// expansion hands some prefixes a representative's rows twice, and the
// fleet's collection dedupes them).
func TestVerifyFleetMatchesCentralizedOnCaseStudies(t *testing.T) {
	scs := append([]*scenario.Scenario{scenario.Fig10a(), scenario.Fig10b()}, scenario.Table2Catalog()...)
	for _, rs := range scenario.Table6Catalog() {
		scs = append(scs, rs.Scenario)
	}
	for _, sc := range scs {
		t.Run(sc.Name, func(t *testing.T) {
			for _, opts := range []core.Options{{}, {DisableRouteECs: true}} {
				fleet := New(sc.Net, sc.Inputs, sc.Flows, opts)
				fleet.Workers, fleet.RouteSubtasks, fleet.TrafficSubtasks = 2, 4, 4
				want, errC := New(sc.Net, sc.Inputs, sc.Flows, opts).Verify(sc.Plan, sc.Intents)
				got, errF := fleet.Verify(sc.Plan, sc.Intents)
				if (errC == nil) != (errF == nil) {
					t.Fatalf("error mismatch: centralized %v, fleet %v", errC, errF)
				}
				if errC != nil {
					return
				}
				if got.OK != want.OK || !reflect.DeepEqual(got.Reports, want.Reports) {
					t.Fatalf("route ECs off %v: fleet verdict %v, centralized %v\nfleet reports: %+v\ncentralized reports: %+v",
						opts.DisableRouteECs, got.OK, want.OK, got.Reports, want.Reports)
				}
				if opts.DisableRouteECs && !got.UpdateSnap.RIB.Equal(want.UpdateSnap.RIB) {
					onlyFleet, onlyCentral := got.UpdateSnap.RIB.Diff(want.UpdateSnap.RIB)
					t.Fatalf("route ECs off: updated RIB: %d rows only on the fleet, %d only centralized", len(onlyFleet), len(onlyCentral))
				}
			}
		})
	}
}
