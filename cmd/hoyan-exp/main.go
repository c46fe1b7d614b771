// Command hoyan-exp regenerates the paper's evaluation tables and figures.
//
// Usage:
//
//	hoyan-exp [-scale N] [-trace FILE] [experiment...]
//
// Experiments: table1 fig1 table2 table3 fig5a fig5b fig5c fig5d fig8
// table4 table5 table6 fig9 ecstats incr report all (default: all).
//
// The report experiment runs one telemetry-instrumented distributed
// verification and prints the pipeline's per-stage breakdown; -trace
// additionally writes its end-to-end trace as Chrome trace_event JSON
// (load in chrome://tracing or https://ui.perfetto.dev).
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"hoyan/internal/experiments"
	"hoyan/internal/telemetry"
)

func main() {
	scaleK := flag.Int("scale", 0, "WAN scale multiplier (0 = default experiment scale)")
	traceOut := flag.String("trace", "", "write the report experiment's Chrome trace_event JSON here")
	flag.Parse()

	s := experiments.DefaultScale()
	if *scaleK > 0 {
		s.WANK = *scaleK
		s.DCNK = *scaleK
	}

	names := flag.Args()
	if len(names) == 0 {
		names = []string{"all"}
	}
	want := map[string]bool{}
	for _, n := range names {
		want[n] = true
	}
	all := want["all"]
	run := func(name string, f func()) {
		if !all && !want[name] {
			return
		}
		start := time.Now()
		f()
		fmt.Printf("  [%s completed in %s]\n\n", name, time.Since(start).Round(time.Millisecond))
	}

	out := os.Stdout

	run("table1", func() { experiments.PrintTable1(out, experiments.Table1()) })
	run("fig1", func() { experiments.PrintFig1(out, experiments.Fig1(s)) })
	run("table2", func() { experiments.PrintTable2(out, experiments.Table2()) })
	run("table3", func() { experiments.PrintTable3(out) })

	var fig5a *experiments.Fig5aResult
	need5a := all || want["fig5a"] || want["fig5c"]
	if need5a {
		fig5a = experiments.Fig5a(s)
	}
	run("fig5a", func() { experiments.PrintFig5a(out, fig5a) })
	run("fig5c", func() { experiments.PrintFig5c(out, fig5a.Durations) })

	var fig5b *experiments.Fig5bResult
	need5b := all || want["fig5b"] || want["fig5d"]
	if need5b {
		fig5b = experiments.Fig5b(s)
	}
	run("fig5b", func() { experiments.PrintFig5b(out, fig5b) })
	run("fig5d", func() { experiments.PrintFig5d(out, fig5b) })

	run("fig8", func() { experiments.PrintFig8(out, experiments.Fig8(s)) })
	run("table4", func() { experiments.PrintTable4(out, experiments.Table4(s)) })
	run("table5", func() { experiments.PrintTable5(out, experiments.Table5()) })
	run("table6", func() { experiments.PrintTable6(out, experiments.Table6()) })
	run("fig9", func() {
		summary, err := experiments.Fig9()
		if err != nil {
			fmt.Fprintln(os.Stderr, "fig9:", err)
			os.Exit(1)
		}
		fmt.Fprintln(out, summary)
	})
	run("ecstats", func() { experiments.PrintECStats(out, experiments.ECStats(s)) })
	run("incr", func() { experiments.PrintIncr(out, experiments.Incr(experiments.QuickScale())) })
	run("report", func() {
		rep, err := experiments.Report(s)
		if err != nil {
			fmt.Fprintln(os.Stderr, "report:", err)
			os.Exit(1)
		}
		experiments.PrintReport(out, rep)
		if *traceOut != "" {
			f, err := os.Create(*traceOut)
			if err != nil {
				fmt.Fprintln(os.Stderr, "report:", err)
				os.Exit(1)
			}
			if err := telemetry.WriteChromeTrace(f, rep.Report.Spans); err != nil {
				fmt.Fprintln(os.Stderr, "report:", err)
				os.Exit(1)
			}
			f.Close()
			fmt.Printf("wrote %s (%d spans)\n", *traceOut, len(rep.Report.Spans))
		}
	})
}
