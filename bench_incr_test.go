// Incremental what-if engine benchmarks: a warm-started k=1 link-failure
// sweep versus from-scratch re-simulation of every scenario, on a generated
// WAN. `make bench-incr` runs these and writes the measured throughput gap
// and work-avoidance counters to BENCH_incremental.json;
// TestIncrementalSpeedup pins the work the warm path avoids. Timing the two
// paths against each other is the repo benchmark's job (`bash
// benchmark/run.sh --workload kfail_sweep`).
package hoyan

import (
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"hoyan/internal/core"
	"hoyan/internal/gen"
	"hoyan/internal/intent"
	"hoyan/internal/kfail"
	"hoyan/internal/telemetry"
)

// incrFixture is the sweep under measurement: every single-link failure of
// the gen.WAN(1) topology (capped), checked against a load intent so the
// full route + traffic pipeline runs per scenario. Parallelism is pinned to
// 1 on both axes so the ratio isolates the warm-start effect.
type incrFixture struct {
	g       *gen.Output
	intents []intent.Intent
	opts    kfail.Options
}

func incrFixtures(tb testing.TB) *incrFixture {
	g := gen.Generate(gen.WAN(1))
	if len(g.Flows) == 0 {
		tb.Fatal("fixture produced no flows")
	}
	return &incrFixture{
		g:       g,
		intents: []intent.Intent{intent.LoadIntent{MaxUtilization: 1.0}},
		opts:    kfail.Options{K: 1, MaxScenarios: 30, Parallelism: 1, Sim: core.Options{Parallelism: 1}},
	}
}

func (f *incrFixture) sweep(tb testing.TB, incremental bool, reg *telemetry.Registry) *kfail.Result {
	opts := f.opts
	opts.Sim.DisableIncremental = !incremental
	opts.Registry = reg
	res, err := kfail.Check(f.g.Net, f.g.Inputs, f.g.Flows, f.intents, opts)
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

// BenchmarkKFailIncremental times the k=1 sweep with warm-started forks —
// touched-source SPF, warm BGP fixpoint, trace-invalidated forwarding.
func BenchmarkKFailIncremental(b *testing.B) {
	f := incrFixtures(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.sweep(b, true, nil)
	}
}

// BenchmarkKFailFromScratch times the same sweep with DisableIncremental —
// every scenario re-simulated from zero (the sequential reference path the
// identity tests compare against).
func BenchmarkKFailFromScratch(b *testing.B) {
	f := incrFixtures(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.sweep(b, false, nil)
	}
}

// incrBenchReport is the BENCH_incremental.json schema (`make bench-incr`).
type incrBenchReport struct {
	Scenarios     int     `json:"scenarios"`
	IncrementalNs int64   `json:"incremental_ns"`
	FromScratchNs int64   `json:"from_scratch_ns"`
	Speedup       float64 `json:"speedup"`

	SPFSourcesReused int64 `json:"spf_sources_reused"`
	BGPTablesDirty   int64 `json:"bgp_tables_dirty"`
	WarmRounds       int64 `json:"warm_rounds"`
	FlowsReused      int64 `json:"flows_reused"`
	FullFallbacks    int64 `json:"full_fallbacks"`
}

// TestIncrementalSpeedup pins the incremental engine on the work its
// warm-started k=1 failure sweep avoids, against what from-scratch
// re-simulation of the same scenarios does: SPF sources reused, BGP tables
// left clean, fixpoint rounds not run, flows not re-forwarded, no fallback.
// The counts repeat exactly on every host. The throughput ratio is still
// measured (paired per trial, like TestWireCompactness) and reported, but no
// floor is asserted on it: its reference is the cold path, so every cold-path
// optimization lowered it with the warm path unchanged. With INCR_BENCH_JSON
// set the numbers are also written to that path (`make bench-incr` produces
// BENCH_incremental.json).
func TestIncrementalSpeedup(t *testing.T) {
	f := incrFixtures(t)

	// One instrumented warm-up sweep collects the work-avoidance counters
	// and primes caches for both paths.
	reg := telemetry.NewRegistry()
	res := f.sweep(t, true, reg)

	const trials = 4
	incNs, refNs := measurePair(trials, 1,
		func() { f.sweep(t, true, nil) },
		func() { f.sweep(t, false, nil) })

	rep := incrBenchReport{
		Scenarios:        res.Scenarios,
		IncrementalNs:    incNs,
		FromScratchNs:    refNs,
		Speedup:          float64(refNs) / float64(incNs),
		SPFSourcesReused: reg.Counter("incr_spf_sources_reused", "").Value(),
		BGPTablesDirty:   reg.Counter("incr_bgp_tables_dirty", "").Value(),
		WarmRounds:       reg.Counter("incr_warm_rounds", "").Value(),
		FlowsReused:      reg.Counter("incr_flows_reused", "").Value(),
		FullFallbacks:    reg.Counter("incr_full_fallbacks_total", "").Value(),
	}

	t.Logf("%d scenarios: incremental %dms vs from-scratch %dms (%.2fx)",
		rep.Scenarios, rep.IncrementalNs/1e6, rep.FromScratchNs/1e6, rep.Speedup)
	t.Logf("work avoided: %d SPF sources reused, %d BGP tables dirtied, %d warm rounds, %d flows reused, %d full fallbacks",
		rep.SPFSourcesReused, rep.BGPTablesDirty, rep.WarmRounds, rep.FlowsReused, rep.FullFallbacks)

	// Per scenario, from scratch: one SPF per device, every table decided,
	// the base run's rounds, every representative flow forwarded.
	base := core.NewEngine(f.g.Net, f.opts.Sim).Run(f.g.Inputs, f.g.Flows)
	n := int64(rep.Scenarios)
	sources := n * int64(len(f.g.Net.Devices))
	tables := n * int64(len(base.Routes.BGP.Tables()))
	rounds := n * int64(base.Routes.BGP.Rounds)
	flows := n * int64(len(base.Traffic.ECStats.Representatives()))
	if rep.FullFallbacks != 0 {
		t.Errorf("%d scenarios fell back to from-scratch simulation, want 0 (pure link-down deltas)", rep.FullFallbacks)
	}
	if 4*rep.SPFSourcesReused < sources {
		t.Errorf("%d of %d SPF sources reused, want at least a quarter", rep.SPFSourcesReused, sources)
	}
	if 4*rep.BGPTablesDirty > tables {
		t.Errorf("%d of %d BGP tables seeded dirty, want at most a quarter", rep.BGPTablesDirty, tables)
	}
	if 4*rep.WarmRounds > rounds {
		t.Errorf("%d warm fixpoint rounds against %d from scratch, want at most a quarter", rep.WarmRounds, rounds)
	}
	if 2*rep.FlowsReused < flows {
		t.Errorf("%d of %d flows reused, want at least half", rep.FlowsReused, flows)
	}

	if path := os.Getenv("INCR_BENCH_JSON"); path != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		fmt.Printf("wrote %s\n", path)
	}
}
