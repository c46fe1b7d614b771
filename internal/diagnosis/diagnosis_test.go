package diagnosis

import (
	"strings"
	"testing"

	"hoyan/internal/core"
	"hoyan/internal/gen"
	"hoyan/internal/monitor"
	"hoyan/internal/vsb"
)

func TestAccurateModelProducesCleanReport(t *testing.T) {
	out := gen.Generate(gen.WAN(1))
	f := &Framework{Net: out.Net, Inputs: out.Inputs, Flows: out.Flows}
	rep := f.Run()
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

	noShow := &Framework{Net: p.Net, Inputs: p.Inputs, Flows: p.Flows,
		ModelOpts: core.Options{Profiles: flawed}}
	rep := noShow.Run()
	weightDiffSeen := false
	for _, d := range rep.RouteDiffs {
		if d.Via == "monitoring" && d.Route.Weight != 0 {
			weightDiffSeen = true
		}
	}
	if weightDiffSeen {
		t.Error("monitoring projection must zero weights")
	}

	withShow := &Framework{Net: p.Net, Inputs: p.Inputs, Flows: p.Flows,
		ModelOpts:            core.Options{Profiles: flawed},
		HighPriorityPrefixes: []string{"192.0.2.0/24"}}
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
	f := &Framework{
		Net: p.Net, Inputs: p.Inputs, Flows: p.Flows,
		ModelOpts:     core.Options{Profiles: flawed},
		LoadTolerance: 0.01,
	}
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
	out := gen.Generate(gen.WAN(1))
	probe := BuildProbe()
	issues := Table4Issues()
	if len(issues) != 26 {
		t.Fatalf("issues = %d, want 26", len(issues))
	}
	for _, is := range issues {
		is := is
		t.Run(string(is.Class)+"/"+is.Name, func(t *testing.T) {
			f := &Framework{
				Net: out.Net, Inputs: out.Inputs, Flows: out.Flows,
				HighPriorityPrefixes: []string{"10.0.0.0/24", "20.0.0.0/24"},
				LoadTolerance:        0.002,
			}
			if is.UseProbe {
				f.Net, f.Inputs, f.Flows = probe.Net, probe.Inputs, probe.Flows
				f.HighPriorityPrefixes = nil
			}
			f.RouteMon = &monitor.RouteMonitor{}
			f.TrafficMon = &monitor.TrafficMonitor{}
			is.Apply(f)
			rep := f.Run()
			if rep.Accurate {
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
	f := &Framework{
		Net: out.Net, Inputs: out.Inputs, Flows: out.Flows,
		RouteMon: &monitor.RouteMonitor{Faults: monitor.Faults{FailedRouteAgents: []string{"rr-0-0"}}},
	}
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
	f := &Framework{
		Net: p.Net, Inputs: p.Inputs, Flows: p.Flows,
		ModelOpts: core.Options{Profiles: flawed},
		RouteMon:  &monitor.RouteMonitor{BMPDevices: bmp},
	}
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
