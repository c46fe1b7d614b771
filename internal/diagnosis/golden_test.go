package diagnosis

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"hoyan/internal/core"
	"hoyan/internal/gen"
	"hoyan/internal/monitor"
	"hoyan/internal/vsb"
)

// runIssue runs the daily validation with one Table 4 issue injected, on
// WAN(1) or, for the issues that need its shapes, on the probe.
func runIssue(is Issue, wan *gen.Output, probe *Probe) *Report {
	f := &Framework{
		Net: wan.Net, Inputs: wan.Inputs, Flows: wan.Flows,
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
	return f.Run()
}

// TestAccuracyCampaignGolden pins the whole accuracy campaign: every Table 4
// issue's outcome and diff counts, every Table 5 row, and the Fig. 9
// root-cause text. A change to how a model flaw is injected must leave every
// byte of it unchanged.
func TestAccuracyCampaignGolden(t *testing.T) {
	var b strings.Builder
	wan := gen.Generate(gen.WAN(1))
	probe := BuildProbe()

	b.WriteString("table 4\n")
	for _, is := range Table4Issues() {
		rep := runIssue(is, wan, probe)
		fmt.Fprintf(&b, "%s | %s | accurate=%v routes=%d loads=%d\n",
			is.Class, is.Name, rep.Accurate, len(rep.RouteDiffs), len(rep.LoadDiffs))
	}

	b.WriteString("table 5\n")
	for _, r := range VSBCampaign(probe) {
		fmt.Fprintf(&b, "%s | detected=%v routes=%d loads=%d\n", r.Mutation, r.Detected, r.RouteDiffs, r.LoadDiffs)
	}

	b.WriteString("fig 9\n")
	flawed := vsb.Defaults()
	flawed["alpha"] = vsb.MutSRIGPCost.Apply(flawed["alpha"])
	f := &Framework{Net: probe.Net, Inputs: probe.Inputs, Flows: probe.Flows,
		ModelOpts: core.Options{Profiles: flawed}, LoadTolerance: 0.01}
	rep := f.Run()
	if len(rep.LoadDiffs) == 0 {
		t.Fatalf("expected load diffs:\n%s", rep.Summary())
	}
	analysis, err := rep.AnalyzeLink(rep.LoadDiffs[0].Link)
	if err != nil {
		t.Fatal(err)
	}
	b.WriteString(analysis.Summary())

	want, err := os.ReadFile("testdata/accuracy.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("accuracy campaign moved:\n--- got\n%s--- want\n%s", got, want)
	}
}
