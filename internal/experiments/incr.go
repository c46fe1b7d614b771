package experiments

import (
	"fmt"
	"io"
	"time"

	"hoyan/internal/core"
	"hoyan/internal/gen"
	"hoyan/internal/intent"
	"hoyan/internal/kfail"
	"hoyan/internal/netmodel"
	"hoyan/internal/telemetry"
)

// IncrResult measures the incremental what-if engine on a single-link-failure
// sweep: wall time and throughput warm-started vs from-scratch, plus the
// work-avoidance counters the sweep exported.
type IncrResult struct {
	Scenarios   int
	Incremental time.Duration
	FromScratch time.Duration

	SPFReused      int64
	BGPTablesDirty int64
	WarmRounds     int64
	FlowsReused    int64
}

// Speedup is the from-scratch / incremental wall-time ratio.
func (r *IncrResult) Speedup() float64 {
	if r.Incremental == 0 {
		return 0
	}
	return float64(r.FromScratch) / float64(r.Incremental)
}

// Throughput returns scenarios per second for a duration.
func (r *IncrResult) Throughput(d time.Duration) float64 {
	if d == 0 {
		return 0
	}
	return float64(r.Scenarios) / d.Seconds()
}

// Incr times the k=1 link-failure sweep over a generated WAN twice: as
// kfail.Check's warm forks of one base run, and from scratch — a fresh engine
// per scenario on a clone of the network with that scenario's link down, with
// no base run and no intent check. The results agree (the kfail tests pin
// that); this experiment measures the throughput gap.
func Incr(s Scale) *IncrResult {
	g := gen.Generate(gen.WAN(s.WANK))
	intents := []intent.Intent{intent.LoadIntent{MaxUtilization: 1.0}}
	reg := telemetry.NewRegistry()
	sim := core.Options{Parallelism: 1}

	opts := kfail.Options{K: 1, MaxScenarios: 30, Registry: reg, Parallelism: 1, Sim: sim}
	start := time.Now()
	res, err := kfail.Check(g.Net, g.Inputs, g.Flows, intents, opts)
	if err != nil {
		panic(err)
	}
	incDur := time.Since(start)

	// The sweep's scenarios: every link in topology order, one at a time.
	start = time.Now()
	for _, l := range g.Net.Topo.Links()[:res.Scenarios] {
		net := g.Net.Clone()
		if _, err := (core.Delta{LinksDown: []netmodel.LinkID{l.ID()}}).Apply(net); err != nil {
			panic(err)
		}
		core.NewEngine(net, sim).Run(g.Inputs, g.Flows)
	}
	refDur := time.Since(start)

	return &IncrResult{
		Scenarios:      res.Scenarios,
		Incremental:    incDur,
		FromScratch:    refDur,
		SPFReused:      reg.Counter("incr_spf_sources_reused", "").Value(),
		BGPTablesDirty: reg.Counter("incr_bgp_tables_dirty", "").Value(),
		WarmRounds:     reg.Counter("incr_warm_rounds", "").Value(),
		FlowsReused:    reg.Counter("incr_flows_reused", "").Value(),
	}
}

// PrintIncr renders the incremental what-if measurements.
func PrintIncr(w io.Writer, r *IncrResult) {
	fmt.Fprintln(w, "Incremental what-if engine (k=1 link-failure sweep)")
	fmt.Fprintf(w, "  %d scenarios: incremental %s (%.1f/s) vs from-scratch %s (%.1f/s) — %.1fx\n",
		r.Scenarios,
		r.Incremental.Round(time.Millisecond), r.Throughput(r.Incremental),
		r.FromScratch.Round(time.Millisecond), r.Throughput(r.FromScratch), r.Speedup())
	fmt.Fprintf(w, "  work avoided: %d SPF sources reused, %d BGP tables dirtied, %d warm rounds, %d flows reused\n",
		r.SPFReused, r.BGPTablesDirty, r.WarmRounds, r.FlowsReused)
}
