package diagnosis

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"hoyan/internal/core"
	"hoyan/internal/gen"
	"hoyan/internal/vsb"
)

// TestAccuracyCampaignGolden pins the whole accuracy campaign: every Table 4
// issue's outcome and diff counts, every Table 5 row, and the Fig. 9
// root-cause text. A change to how a model flaw is injected must leave every
// byte of it unchanged.
func TestAccuracyCampaignGolden(t *testing.T) {
	var b strings.Builder
	probe := BuildProbe()
	c := NewCampaign(gen.Generate(gen.WAN(1)), probe)

	b.WriteString("table 4\n")
	for _, is := range Table4Issues() {
		rep := c.Run(is)
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
	f := NewFramework(probe.Net, probe.Inputs, probe.Flows)
	f.ModelOpts, f.LoadTolerance = core.Options{Profiles: flawed}, 0.01
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

// Summary renders the accuracy report.
func (r *Report) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "accuracy report: %d route diffs, %d load diffs\n", len(r.RouteDiffs), len(r.LoadDiffs))
	for i, d := range r.RouteDiffs {
		if i >= 10 {
			fmt.Fprintf(&b, "  ... %d more route diffs\n", len(r.RouteDiffs)-i)
			break
		}
		fmt.Fprintf(&b, "  [%s via %s] %s\n", d.Kind, d.Via, d.Route)
	}
	for _, d := range r.LoadDiffs {
		fmt.Fprintf(&b, "  [load] %s: simulated %.0f vs monitored %.0f (bw %.0f)\n",
			d.Link, d.Simulated, d.Monitored, d.Bandwidth)
	}
	return b.String()
}
