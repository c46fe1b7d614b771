package experiments

import (
	"fmt"
	"io"

	"hoyan/internal/core"
	"hoyan/internal/pipeline"
	"hoyan/internal/telemetry"
)

// ReportResult is one instrumented distributed run over the generated WAN:
// the pipeline's per-stage breakdown plus the fleet-wide telemetry gathered
// from it.
type ReportResult struct {
	Devices int
	Routes  int
	Flows   int
	RIBRows int
	Workers int
	Report  pipeline.RunReport
}

// Report runs one distributed route + traffic simulation with telemetry on
// (the ops view of a production verification run) and returns the full
// observability record. It uses the largest worker count of the scale's
// Figure 5 sweep.
func Report(s Scale) (*ReportResult, error) {
	workers := 4
	for _, n := range s.Workers {
		if n > workers {
			workers = n
		}
	}
	g := genWAN(s)
	sys := pipeline.New(g.Net, g.Inputs, g.Flows, core.Options{})
	sys.Workers = workers
	sys.RouteSubtasks = s.RouteSubtasks
	sys.TrafficSubtasks = s.TrafficSubtasks
	sys.Telemetry = true
	snap, err := sys.Simulate("report")
	if err != nil {
		return nil, err
	}
	return &ReportResult{
		Devices: len(g.Net.Devices),
		Routes:  len(g.Inputs),
		Flows:   len(g.Flows),
		RIBRows: snap.RIB.Len(),
		Workers: workers,
		Report:  sys.LastRunReport(),
	}, nil
}

// PrintReport renders the per-stage breakdown and a telemetry summary.
func PrintReport(w io.Writer, r *ReportResult) {
	fmt.Fprintln(w, "Run report: one instrumented distributed verification run")
	fmt.Fprintf(w, "%d devices, %d input routes, %d flows, %d workers -> %d RIB rows\n",
		r.Devices, r.Routes, r.Flows, r.Workers, r.RIBRows)
	r.Report.WriteBreakdown(w)
	// Work units of the cold BGP fixpoints. Zero counters mean every run was
	// one sequential fixpoint (single-core host, Parallelism 1, or a single
	// independence group); the imbalance histogram only prints once at least
	// one run split into units.
	for _, m := range r.Report.Metrics {
		switch m.Name {
		case "bgp_parallel_rounds_total", "bgp_stripes_total":
			fmt.Fprintf(w, "  %s: %g\n", m.Name, m.Value)
		case "bgp_stripe_imbalance_ratio":
			if m.Count > 0 {
				fmt.Fprintf(w, "  %s: mean %.2f over %d run(s)\n", m.Name, m.Sum/float64(m.Count), m.Count)
			}
		}
	}
	fmt.Fprintf(w, "  telemetry: %d metric series, %d trace spans across %s\n",
		len(r.Report.Metrics), len(r.Report.Spans), traceSummary(r.Report.Spans))
}

// traceSummary counts the distinct trace IDs and actors in a span set.
func traceSummary(spans []telemetry.SpanRecord) string {
	traces := map[string]bool{}
	actors := map[string]bool{}
	for _, sp := range spans {
		traces[sp.TraceID] = true
		actors[sp.Actor] = true
	}
	return fmt.Sprintf("%d trace(s) / %d actor(s)", len(traces), len(actors))
}
