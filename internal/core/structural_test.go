package core_test

import (
	"context"
	"fmt"
	"net/netip"
	"reflect"
	"slices"
	"testing"

	"hoyan/internal/bgp"
	"hoyan/internal/change"
	"hoyan/internal/config"
	"hoyan/internal/core"
	"hoyan/internal/gen"
	"hoyan/internal/isis"
	"hoyan/internal/netmodel"
	"hoyan/internal/scenario"
)

// moved is the subnet the "add a link" and "change an address" plans use.
var moved = netip.MustParsePrefix("172.31.2.1/30")

// readdressable gives border-0-1 two static routes whose next hops change
// owner under the plans: core-0-0's address toward core-0-1, which "change an
// address" takes away, and the address "add a link" gives core-1-0. Nothing
// else about border-0-1's tables changes, so only Delta.Readdressed can tell
// the warm restart to decide them again.
func readdressable(t *testing.T, out *gen.Output) *gen.Output {
	l := out.Net.Topo.FindLink("core-0-0", "core-0-1")
	for i, nh := range []netip.Addr{l.AAddr, moved.Addr().Next()} {
		if err := config.ApplyCommands(out.Net.Devices["border-0-1"], fmt.Sprintf("ip route 198.51.%d.0/24 %s\n", 100+i, nh)); err != nil {
			t.Fatal(err)
		}
	}
	// border-0-0 steers to dc-0-0's address on its first uplink (dc-0-0 is
	// that link's B end) instead of a loopback: "dc uplink readdressed" takes
	// the endpoint's owner away.
	out.Net.Devices["border-0-0"].SRPolicies[0].Endpoint = out.Net.Topo.LinksOf("dc-0-0")[0].BAddr
	return out
}

// withTECost gives core-0-1's end of its link to core-1-1 a TE metric, so
// TE-driven SPF runs under every plan and option set.
func withTECost(t *testing.T, out *gen.Output) *gen.Output {
	if err := config.ApplyCommands(out.Net.Devices["core-0-1"], "interface to-core-1-1\n isis te-cost 250\n"); err != nil {
		t.Fatal(err)
	}
	out.Net.Topo = out.Net.Topology()
	return out
}

// downEnd returns a clone of net in which core-0-1 is down and core-0-0
// routes a prefix via core-0-1's address on their link, which is also
// core-0-1's loopback: the static resolves over that link alone, with no IGP
// distance, and its next hop keeps its owner whether the link is there or
// not.
func downEnd(t *testing.T, net *config.Network) *config.Network {
	net = net.Clone()
	l := net.Topo.FindLink("core-0-0", "core-0-1")
	net.Devices["core-0-1"].Loopback = l.BAddr
	d := net.Devices["core-0-0"]
	d.Statics = append(d.Statics, config.StaticRoute{Prefix: netip.MustParsePrefix("198.51.102.0/24"), NextHop: l.BAddr})
	net.Topo = net.Topology()
	if _, err := (core.Delta{NodesDown: []string{"core-0-1"}}).Apply(net); err != nil {
		t.Fatal(err)
	}
	return net
}

// structuralPlan is a plan under its name.
type structuralPlan struct {
	name string
	plan *change.Plan
}

// structuralPlans returns one plan per kind of edit that changes what the
// topology derives from out's configurations.
func structuralPlans(out *gen.Output) []structuralPlan {
	var addRouter *change.Plan
	for _, sc := range scenario.Table2Catalog() {
		if sc.Type == change.AddRouters {
			addRouter = sc.Plan
		}
	}
	l := out.Net.Topo.FindLink("core-0-0", "core-0-1")
	dcUp := out.Net.Topo.LinksOf("dc-0-0")[0]
	iface := func(dev, name, cmds string) map[string]string {
		return map[string]string{dev: fmt.Sprintf("interface %s\n%s", name, cmds)}
	}
	return []structuralPlan{
		{"change an address", &change.Plan{Commands: iface(l.A, l.AIface, " ip address "+moved.String()+"\n")}},
		{"add a router", addRouter},
		{"remove a router", &change.Plan{RemoveNodes: []string{"dc-1-0"}}},
		{"add a link", &change.Plan{AddLinks: []netmodel.Link{{
			A: "core-0-0", B: "core-1-0", AIface: "new-a", BIface: "new-b",
			ANet: moved.Masked(), BNet: moved.Masked(), AAddr: moved.Addr(), BAddr: moved.Addr().Next(),
			CostAB: 3, CostBA: 40, Bandwidth: 1e9,
		}}}},
		{"remove a link", &change.Plan{RemoveLinks: []netmodel.LinkID{l.ID()}}},
		{"isis cost on one end", &change.Plan{Commands: iface(l.A, l.AIface, " isis cost 95\n")}},
		{"te-cost", &change.Plan{Commands: iface(l.B, l.BIface, " isis te-cost 300\n")}},
		{"bandwidth only", &change.Plan{Commands: iface(l.A, l.AIface, " bandwidth 1e+06\n")}},
		{"move a loopback", &change.Plan{Commands: map[string]string{"core-1-0": "loopback 100.64.77.1\n"}}},
		{"cost and the link up", &change.Plan{Commands: iface(l.A, l.AIface, " isis cost 95\n"), SetLinks: []change.LinkUpDown{{ID: l.ID(), Up: true}}}},
		{"link removed and added back", &change.Plan{RemoveLinks: []netmodel.LinkID{l.ID()}, AddLinks: []netmodel.Link{*l}}},
		{"dc uplink readdressed", &change.Plan{Commands: iface("dc-0-0", dcUp.BIface, " ip address 172.31.3.1/30\n")}},
		{"third end cuts a link", &change.Plan{Commands: map[string]string{"core-1-0": fmt.Sprintf("interface extra\n ip address %s/%d\n isis cost 10\n", l.ANet.Addr(), l.ANet.Bits())}}},
		{"router removed and link cut", &change.Plan{RemoveNodes: []string{"dc-1-0"}, RemoveLinks: []netmodel.LinkID{l.ID()}}},
	}
}

// TestForkStructuralIdentity: every kind of edit that changes the derived
// topology — a router added or removed, a link added or removed, an isis
// cost on one end, a te-cost, a bandwidth alone, a moved loopback, a changed
// interface address, a third IS-IS end cutting a link between two untouched
// devices, and plans on a base with links down — forks, on WAN(1) and WAN(2)
// with a te-cost on one link, and the fork equals a cold run of
// Plan.Apply's network in RIB rows, paths and loads: with route ECs on and
// off, at parallelism 1 and 0. With ECs off the fork's RIB is also a stable
// state (bgp.Check).
func TestForkStructuralIdentity(t *testing.T) {
	for _, k := range []int{1, 2} {
		for _, down := range []string{"nothing", "core-0-0's links", "core-0-1"} {
			out := withTECost(t, readdressable(t, gen.Generate(gen.WAN(k))))
			base := out.Net
			plans := structuralPlans(out)
			switch down {
			case "core-0-0's links":
				// Every link of core-0-0 is down in this base, the cost plans'
				// among them; those a plan leaves stay down.
				base = out.Net.Clone()
				for _, l := range base.Topo.LinksOf("core-0-0") {
					if _, err := (core.Delta{LinksDown: []netmodel.LinkID{l.ID()}}).Apply(base); err != nil {
						t.Fatal(err)
					}
				}
			case "core-0-1":
				// A third end cutting the link under downEnd's static moves
				// no IGP distance and not the next hop's owner: only the cut
				// link, a changed link to the warm restart, re-decides it.
				base = downEnd(t, out.Net)
				plans = slices.DeleteFunc(plans, func(c structuralPlan) bool { return c.name != "third end cuts a link" })
			}
			for _, opts := range []core.Options{
				{Parallelism: 1}, {},
				{Parallelism: 1, DisableRouteECs: true, DisableFlowECs: true}, {DisableRouteECs: true, DisableFlowECs: true},
			} {
				eng := core.NewEngine(base, opts)
				eng.BaseRun(out.Inputs, out.Flows)
				for _, c := range plans {
					label := fmt.Sprintf("WAN(%d) base with %s down %+v: %s", k, down, opts, c.name)
					checkStructural(t, eng, base, out, c.plan, opts, label)
				}
			}
		}
	}
}

// checkStructural forks plan off eng and holds the fork to a cold run of the
// applied plan.
func checkStructural(t *testing.T, eng *core.Engine, base *config.Network, out *gen.Output, plan *change.Plan, opts core.Options, label string) {
	t.Helper()
	d, err := plan.Delta(base)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	got, stats, err := eng.WhatIf(context.Background(), d, opts.Parallelism)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	updated, err := plan.Apply(base)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	for _, l := range base.Topo.Links() {
		if u := updated.Topo.Link(l.ID()); !l.Up && u != nil && u.Up && len(plan.SetLinks) == 0 {
			t.Fatalf("%s: link %s was down and survives, yet Apply brought it up", label, l.ID())
		}
	}
	if changed := !reflect.DeepEqual(updated.Topo.Links(), base.Topo.Links()) || len(updated.Devices) != len(base.Devices); changed != (stats.SPFReused == 0) {
		t.Fatalf("%s: topology changed %v, yet %d SPF sources were reused", label, changed, stats.SPFReused)
	}
	inputs := plan.ApplyInputs(out.Inputs)
	want := core.NewEngine(updated, opts).Run(inputs, out.Flows)
	if g, w := got.Routes.GlobalRIB(), want.Routes.GlobalRIB(); !g.Equal(w) {
		onlyFork, onlyCold := g.Diff(w)
		t.Fatalf("%s: %d rows only in the fork, %d only in the cold run", label, len(onlyFork), len(onlyCold))
	}
	if !reflect.DeepEqual(got.Traffic.Traffic.Paths, want.Traffic.Traffic.Paths) || !reflect.DeepEqual(got.Traffic.Traffic.Load, want.Traffic.Traffic.Load) {
		t.Fatalf("%s: paths or loads differ from the cold run", label)
	}
	if !reflect.DeepEqual(got.Bandwidth, want.Bandwidth) {
		t.Fatalf("%s: bandwidths differ from the cold run", label)
	}
	if opts.DisableRouteECs {
		igp := isis.Compute(updated.Topo, isis.Options{})
		if err := bgp.Check(updated, igp, inputs, got.Routes.GlobalRIB(), bgp.Options{}); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
	}
}
