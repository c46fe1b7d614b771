package diagnosis

import (
	"slices"
	"strings"
	"testing"

	"hoyan/internal/config"
	"hoyan/internal/core"
	"hoyan/internal/gen"
	"hoyan/internal/monitor"
	"hoyan/internal/netmodel"
	"hoyan/internal/policy"
	"hoyan/internal/vsb"
)

func TestAccurateModelProducesCleanReport(t *testing.T) {
	out := gen.Generate(gen.WAN(1))
	rep := NewFramework(out.Net, out.Inputs, out.Flows).Run()
	if !rep.Accurate {
		t.Fatalf("faithful model must be accurate:\n%s", rep.Summary())
	}
}

func TestMonitoringProjectionHidesLocalAttributes(t *testing.T) {
	// Weight and ECMP siblings are invisible through session-based
	// collection, so a weight-only model flaw is NOT caught by monitoring
	// alone — but IS caught by the live-show path (§5.1's hybrid approach).
	p := BuildProbe()
	flawed := vsb.Defaults()
	flawed["alpha"] = vsb.MutRedistWeight.Apply(flawed["alpha"])
	flawed["beta"] = vsb.MutRedistWeight.Apply(flawed["beta"])

	noShow := NewFramework(p.Net, p.Inputs, p.Flows)
	noShow.ModelOpts = core.Options{Profiles: flawed}
	withShow := *noShow
	withShow.HighPriorityPrefixes = []string{"192.0.2.0/24"}
	rep := noShow.Run()
	weightDiffSeen := false
	for _, d := range rep.RouteDiffs {
		if d.Via == "monitoring" && d.Route.Attr().Weight != 0 {
			weightDiffSeen = true
		}
	}
	if weightDiffSeen {
		t.Error("monitoring projection must zero weights")
	}

	rep2 := withShow.Run()
	found := false
	for _, d := range rep2.RouteDiffs {
		if d.Via == "live-show" {
			found = true
		}
	}
	if !found {
		t.Errorf("live-show must expose the weight flaw:\n%s", rep2.Summary())
	}
}

func TestVSBCampaignDetectsEveryVSB(t *testing.T) {
	p := BuildProbe()
	results := VSBCampaign(p)
	if len(results) != len(vsb.AllMutations) {
		t.Fatalf("results = %d", len(results))
	}
	for _, r := range results {
		if !r.Detected {
			t.Errorf("VSB %s not detectable on the probe network", r.Mutation)
		}
	}
}

func TestFig9RootCauseWorkflow(t *testing.T) {
	// The §5.2 case study: the model does not know that vendor alpha zeroes
	// the IGP cost for SR-tunnelled destinations, so it simulates ECMP-free
	// forwarding differently from the live network, under-reporting one
	// link's load; the workflow localizes the divergence at H2.
	p := BuildProbe()
	flawed := vsb.Defaults()
	flawed["alpha"] = vsb.MutSRIGPCost.Apply(flawed["alpha"])
	f := NewFramework(p.Net, p.Inputs, p.Flows)
	f.ModelOpts, f.LoadTolerance = core.Options{Profiles: flawed}, 0.01
	rep := f.Run()
	if len(rep.LoadDiffs) == 0 {
		t.Fatalf("expected load diffs:\n%s", rep.Summary())
	}
	// Pick the flagged link and run the workflow.
	analysis, err := rep.AnalyzeLink(rep.LoadDiffs[0].Link)
	if err != nil {
		t.Fatal(err)
	}
	if analysis.DivergedAt != "H2" {
		t.Errorf("diverged at %q, want H2\n%s", analysis.DivergedAt, analysis.Summary())
	}
	// The expert-facing rows show the tell-tale difference: the real RIB
	// prefers the SR path (ViaSR, IGP cost 0), the simulated one does not.
	var truthSR, modelSR bool
	for _, r := range analysis.TruthRows {
		if r.ViaSR && r.IGPCost == 0 {
			truthSR = true
		}
	}
	for _, r := range analysis.ModelRows {
		if r.ViaSR && r.IGPCost == 0 {
			modelSR = true
		}
	}
	if !truthSR || modelSR {
		t.Errorf("RIB rows must expose the SR cost VSB (truthSR=%v modelSR=%v)\n%s",
			truthSR, modelSR, analysis.Summary())
	}
	if !strings.Contains(analysis.Summary(), "diverges at H2") {
		t.Error("summary must name the diverging device")
	}
}

func TestTable4CampaignAllIssuesDetected(t *testing.T) {
	if testing.Short() {
		t.Skip("issue campaign is slow")
	}
	c := NewCampaign(gen.Generate(gen.WAN(1)), BuildProbe())
	issues := Table4Issues()
	if len(issues) != 26 {
		t.Fatalf("issues = %d, want 26", len(issues))
	}
	for _, is := range issues {
		t.Run(string(is.Class)+"/"+is.Name, func(t *testing.T) {
			if c.Run(is).Accurate {
				t.Errorf("injected issue not detected")
			}
		})
	}
	// The class distribution reproduces Table 4's ordering.
	shares := ClassShares(issues)
	order := OrderedClasses()
	for i := 1; i < len(order)-1; i++ { // exclude trailing "others"
		if shares[order[i-1]] < shares[order[i]] {
			t.Errorf("share(%s)=%.1f%% < share(%s)=%.1f%%: order broken",
				order[i-1], shares[order[i-1]], order[i], shares[order[i]])
		}
	}
}

func TestMonitorFaultsAreVisibleAsDiffs(t *testing.T) {
	// A failed route agent makes the monitor miss routes, which shows up as
	// "extra" simulated routes — the §5.1 "uncovered a list of issues in
	// our monitoring systems" direction.
	out := gen.Generate(gen.WAN(1))
	f := NewFramework(out.Net, out.Inputs, out.Flows)
	f.RouteMon = &monitor.RouteMonitor{Faults: monitor.Faults{FailedRouteAgents: []string{"rr-0-0"}}}
	rep := f.Run()
	if rep.Accurate {
		t.Fatal("agent failure must surface")
	}
	for _, d := range rep.RouteDiffs {
		if d.Route.Device != "rr-0-0" {
			t.Fatalf("unexpected diff beyond the failed agent: %v", d)
		}
		if d.Kind != "extra" {
			t.Fatalf("diff kind = %s, want extra (simulated but not collected)", d.Kind)
		}
	}
}

func TestBMPRestoresECMPVisibility(t *testing.T) {
	// With BMP deployed, ECMP siblings are visible; a model flaw breaking
	// multipath is then caught by monitoring directly.
	p := BuildProbe()
	flawed := vsb.Defaults()
	flawed["alpha"] = vsb.MutSRIGPCost.Apply(flawed["alpha"])
	bmp := map[string]bool{}
	for name := range p.Net.Devices {
		bmp[name] = true
	}
	f := NewFramework(p.Net, p.Inputs, p.Flows)
	f.ModelOpts, f.RouteMon = core.Options{Profiles: flawed}, &monitor.RouteMonitor{BMPDevices: bmp}
	rep := f.Run()
	found := false
	for _, d := range rep.RouteDiffs {
		if d.Route.Device == "H2" {
			found = true
		}
	}
	if !found {
		t.Errorf("BMP collection must expose H2's divergent selection:\n%s", rep.Summary())
	}
}

func TestFlawedRegexRewritesTheModel(t *testing.T) {
	// The §5.3 bug as a model edit: the rewritten entry is a substring
	// search for the regex's literal characters, so it matches AS 1234
	// where the configured regex only matches AS 123.
	net := config.NewNetwork()
	net.Devices["r1"] = config.NewDevice("r1", "alpha")
	net.Devices["r1"].ASPathLists["AP"] = &policy.ASPathList{Name: "AP", Entries: []policy.ASPathEntry{{Permit: true, Regex: `(^|.* )123( .*|$)`}}}
	d := flawASPathRegexes(net, nil)
	if rewritten := d.Configs["r1"].ASPathLists["AP"]; !rewritten.Match("65001 1234 65002") {
		t.Errorf("rewritten list %q must match 65001 1234 65002", rewritten.Entries[0].Regex)
	}
	if net.Devices["r1"].ASPathLists["AP"].Match("65001 1234 65002") {
		t.Error("the configured regex must not match 65001 1234 65002, nor be rewritten")
	}
}

func TestRootCauseForwardsOverTheModelNetwork(t *testing.T) {
	// With ACLs unmodelled, the model's copy of the network has no ACL
	// bindings: the simulated flow passes M5 toward E5 while the live
	// network stops it at M5's ingress ACL.
	probe := BuildProbe()
	var acls Issue
	for _, is := range Table4Issues() {
		if is.Name == "ACLs unmodeled" {
			acls = is
		}
	}
	rep := (&Campaign{Probe: NewFramework(probe.Net, probe.Inputs, probe.Flows)}).Run(acls)
	link := probe.Net.Topo.FindLink("M5", "E5").ID()
	a, err := rep.AnalyzeLink(link)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Contains(a.ModelPath.Devices(), "E5") {
		t.Errorf("simulated path %s must pass M5's ACL to E5", a.ModelPath)
	}
	if devs := a.TruthPath.Devices(); a.TruthPath.Exit != netmodel.ExitACLDenied || devs[len(devs)-1] != "M5" {
		t.Errorf("real path %s must stop at M5's ACL", a.TruthPath)
	}
	if a.DivergedAt != "M5" {
		t.Errorf("diverged at %q, want M5\n%s", a.DivergedAt, a.Summary())
	}
}
