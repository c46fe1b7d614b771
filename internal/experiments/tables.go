package experiments

import (
	"fmt"
	"io"

	"hoyan/internal/core"
	"hoyan/internal/diagnosis"
	"hoyan/internal/gen"
	"hoyan/internal/pipeline"
	"hoyan/internal/scenario"
	"hoyan/internal/vsb"
)

// ---------------------------------------------------------------- Table 2

// Table2Row is one change-type coverage row.
type Table2Row struct {
	Type         string
	NeedsRouteIn bool
	Intents      int
	Verified     bool
}

// Table2 drives one correct change per Table 2 change type end-to-end.
func Table2() []Table2Row {
	var rows []Table2Row
	for _, sc := range scenario.Table2Catalog() {
		sys := pipeline.New(sc.Net, sc.Inputs, sc.Flows, core.Options{})
		out, err := sys.Verify(sc.Plan, sc.Intents)
		rows = append(rows, Table2Row{
			Type:         string(sc.Type),
			NeedsRouteIn: sc.Type.NeedsRouteIntent(),
			Intents:      len(sc.Intents),
			Verified:     err == nil && out.OK,
		})
	}
	return rows
}

// PrintTable2 renders the coverage table.
func PrintTable2(w io.Writer, rows []Table2Row) {
	fmt.Fprintln(w, "Table 2: the 12 change types, each verified end-to-end")
	fmt.Fprintf(w, "%-22s %12s %8s %9s\n", "change type", "route-intent", "intents", "verified")
	for _, r := range rows {
		star := ""
		if r.NeedsRouteIn {
			star = "*"
		}
		fmt.Fprintf(w, "%-22s %12s %8d %9v\n", r.Type, star, r.Intents, r.Verified)
	}
}

// PrintTable3 renders the qualitative capability matrix, asserted by the
// integration suite.
func PrintTable3(w io.Writer) {
	fmt.Fprintln(w, "Table 3: Hoyan's key evolution")
	fmt.Fprintf(w, "%-18s %-28s %-40s\n", "", "Original", "New (this repo)")
	fmt.Fprintf(w, "%-18s %-28s %-40s\n", "Simulation", "single server; parallel",
		"distributed (internal/dsim, mq/objstore/taskdb)")
	fmt.Fprintf(w, "%-18s %-28s %-40s\n", "Intents", "reachability",
		"+route (RCL) / path / traffic load intents")
	fmt.Fprintf(w, "%-18s %-28s %-40s\n", "Accuracy support", "BGP, IS-IS",
		"+SR, PBR (internal/diagnosis campaigns)")
}

// ---------------------------------------------------------------- Table 4

// Table4Row is one issue-class row.
type Table4Row struct {
	Class    string
	Share    float64
	Injected int
	Detected int
}

// Table4 runs the issue-injection campaign and tallies detection per class.
func Table4(s Scale) []Table4Row {
	c := diagnosis.NewCampaign(genWAN(s), diagnosis.BuildProbe())
	issues := diagnosis.Table4Issues()
	type agg struct{ injected, detected int }
	byClass := map[diagnosis.IssueClass]*agg{}
	for _, is := range issues {
		a := byClass[is.Class]
		if a == nil {
			a = &agg{}
			byClass[is.Class] = a
		}
		a.injected++
		if !c.Run(is).Accurate {
			a.detected++
		}
	}
	shares := diagnosis.ClassShares(issues)
	var rows []Table4Row
	for _, c := range diagnosis.OrderedClasses() {
		a := byClass[c]
		if a == nil {
			continue
		}
		rows = append(rows, Table4Row{Class: string(c), Share: shares[c], Injected: a.injected, Detected: a.detected})
	}
	return rows
}

// PrintTable4 renders the issue-class table.
func PrintTable4(w io.Writer, rows []Table4Row) {
	fmt.Fprintln(w, "Table 4: injected accuracy issues by class (share mirrors the paper)")
	fmt.Fprintf(w, "%-32s %7s %9s %9s\n", "issue class", "share", "injected", "detected")
	for _, r := range rows {
		fmt.Fprintf(w, "%-32s %6.1f%% %9d %9d\n", r.Class, r.Share, r.Injected, r.Detected)
	}
}

// ---------------------------------------------------------------- Table 5

// Table5Row is one VSB row.
type Table5Row struct {
	VSB         string
	Description string
	Detected    bool
	RouteDiffs  int
	LoadDiffs   int
}

// Table5 runs the VSB differential-testing campaign over the probe network.
func Table5() []Table5Row {
	var rows []Table5Row
	for _, r := range diagnosis.VSBCampaign(diagnosis.BuildProbe()) {
		rows = append(rows, Table5Row{
			VSB:         string(r.Mutation),
			Description: r.Mutation.Description(),
			Detected:    r.Detected,
			RouteDiffs:  r.RouteDiffs,
			LoadDiffs:   r.LoadDiffs,
		})
	}
	return rows
}

// PrintTable5 renders the VSB table.
func PrintTable5(w io.Writer, rows []Table5Row) {
	fmt.Fprintln(w, "Table 5: vendor-specific behaviours, detected via differential testing")
	fmt.Fprintf(w, "%-28s %9s %6s %6s\n", "VSB", "detected", "routes", "loads")
	for _, r := range rows {
		fmt.Fprintf(w, "%-28s %9v %6d %6d\n", r.VSB, r.Detected, r.RouteDiffs, r.LoadDiffs)
	}
}

// ---------------------------------------------------------------- Table 6

// Table6Row is one root-cause row.
type Table6Row struct {
	Cause    string
	Share    float64
	Detected int
	Total    int
}

// Table6 runs the risky-change campaign and tallies detection per root
// cause.
func Table6() []Table6Row {
	cat := scenario.Table6Catalog()
	type agg struct{ detected, total int }
	byCause := map[scenario.RootCause]*agg{}
	order := []scenario.RootCause{
		scenario.CauseIncorrectCommands, scenario.CauseDesignFlaw,
		scenario.CauseExistingMisconfig, scenario.CauseTopologyIssue, scenario.CauseOther,
	}
	for _, rs := range cat {
		a := byCause[rs.Cause]
		if a == nil {
			a = &agg{}
			byCause[rs.Cause] = a
		}
		a.total++
		sys := pipeline.New(rs.Net, rs.Inputs, rs.Flows, core.Options{})
		out, err := sys.Verify(rs.Plan, rs.Intents)
		if rs.WantApplyError {
			if err != nil {
				a.detected++
			}
			continue
		}
		if err == nil && !out.OK {
			a.detected++
		}
	}
	var rows []Table6Row
	for _, c := range order {
		a := byCause[c]
		if a == nil {
			continue
		}
		rows = append(rows, Table6Row{
			Cause: string(c), Share: 100 * float64(a.total) / float64(len(cat)),
			Detected: a.detected, Total: a.total,
		})
	}
	return rows
}

// PrintTable6 renders the root-cause table.
func PrintTable6(w io.Writer, rows []Table6Row) {
	fmt.Fprintln(w, "Table 6: change risks detected by root cause")
	fmt.Fprintf(w, "%-28s %7s %9s\n", "root cause", "share", "detected")
	for _, r := range rows {
		fmt.Fprintf(w, "%-28s %6.1f%% %5d/%-3d\n", r.Cause, r.Share, r.Detected, r.Total)
	}
}

// ---------------------------------------------------------------- Figure 9

// Fig9 reruns the SR IGP-cost root-cause case study and returns the
// analysis summary text.
func Fig9() (string, error) {
	p := diagnosis.BuildProbe()
	flawed := vsb.Defaults()
	flawed["alpha"] = vsb.MutSRIGPCost.Apply(flawed["alpha"])
	f := diagnosis.NewFramework(p.Net, p.Inputs, p.Flows)
	f.ModelOpts, f.LoadTolerance = core.Options{Profiles: flawed}, 0.01
	rep := f.Run()
	if len(rep.LoadDiffs) == 0 {
		return "", fmt.Errorf("fig9: no load diffs found")
	}
	analysis, err := rep.AnalyzeLink(rep.LoadDiffs[0].Link)
	if err != nil {
		return "", err
	}
	return "Figure 9 case study (SR IGP-cost VSB):\n" + analysis.Summary(), nil
}

func genWAN(s Scale) *gen.Output { return gen.Generate(gen.WAN(s.WANK)) }
