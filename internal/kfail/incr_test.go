package kfail

import (
	"fmt"
	"net/netip"
	"reflect"
	"testing"

	"hoyan/internal/core"
	"hoyan/internal/gen"
	"hoyan/internal/intent"
	"hoyan/internal/netmodel"
	"hoyan/internal/telemetry"
)

// wanCheckInputs builds a check over every link of the generated WAN with a
// property that some double failures violate, so result comparisons exercise
// both outcomes.
func wanCheckInputs() (*gen.Output, []intent.Intent) {
	out := gen.Generate(gen.WAN(1))
	reach := intent.ReachIntent{
		Prefix:  netip.MustParsePrefix("10.0.0.0/24"),
		Devices: []string{"rr-1-0"},
		Want:    true,
	}
	return out, []intent.Intent{reach}
}

func sameResult(t *testing.T, label string, a, b *Result) {
	t.Helper()
	if a.Scenarios != b.Scenarios {
		t.Fatalf("%s: scenario counts differ: %d vs %d", label, a.Scenarios, b.Scenarios)
	}
	if !reflect.DeepEqual(a.Violations, b.Violations) {
		t.Fatalf("%s: violations differ:\n%+v\nvs\n%+v", label, a.Violations, b.Violations)
	}
}

// coldCheck is Check without forks, the reference its sweeps are held to: the
// same enumeration, each scenario a fresh engine's cold run on a clone with
// the scenario's elements down, verified against a cold base run.
func coldCheck(t *testing.T, out *gen.Output, intents []intent.Intent, elems []Element, k int) *Result {
	t.Helper()
	combos, _ := enumerateCombos(len(elems), k, 0)
	base := intent.SnapshotOf(core.NewEngine(out.Net, core.Options{}).Run(out.Inputs, out.Flows))
	res := &Result{Scenarios: len(combos)}
	for _, combo := range combos {
		var d core.Delta
		failed := make([]Element, len(combo))
		for j, idx := range combo {
			failed[j] = elems[idx]
			if el := elems[idx]; el.Node != "" {
				d.NodesDown = append(d.NodesDown, el.Node)
			} else {
				d.LinksDown = append(d.LinksDown, el.Link)
			}
		}
		net := out.Net.Clone()
		if _, err := d.Apply(net); err != nil {
			t.Fatal(err)
		}
		updated := intent.SnapshotOf(core.NewEngine(net, core.Options{}).Run(out.Inputs, out.Flows))
		if reports, ok := intent.Verify(&intent.Context{Base: *base, Updated: *updated}, intents); !ok {
			res.Violations = append(res.Violations, Violation{Failed: failed, Reports: reports})
		}
	}
	return res
}

// TestIncrementalMatchesFromScratch pins the correctness bar: the sweep's
// warm forks must return the violations of a cold run per scenario over a K=2
// sweep that mixes link and node failures — also when the scenarios fork,
// concurrently, off a base engine that converged as 2 or 8 work units and
// merges its warm-restart state on the first fork.
func TestIncrementalMatchesFromScratch(t *testing.T) {
	out, intents := wanCheckInputs()
	elems := []Element{{Node: "dc-0-0"}}
	for _, l := range out.Net.Topo.LinksOf("dc-0-0") {
		elems = append(elems, Element{Link: l.ID()})
	}
	for _, l := range out.Net.Topo.LinksOf("rr-1-0") {
		elems = append(elems, Element{Link: l.ID()})
	}
	inc, err := Check(out.Net, out.Inputs, out.Flows, intents, Options{K: 2, Elements: elems})
	if err != nil {
		t.Fatal(err)
	}
	ref := coldCheck(t, out, intents, elems, 2)
	sameResult(t, "incremental vs from-scratch", inc, ref)
	if inc.OK() {
		t.Error("sweep should find at least one violation (double uplink cut)")
	}
	for _, p := range []int{2, 8} {
		eng := core.NewEngine(out.Net, core.Options{Parallelism: p})
		eng.BaseRun(out.Inputs, out.Flows)
		warm, err := Check(out.Net, out.Inputs, out.Flows, intents, Options{K: 2, Elements: elems, Engine: eng, Parallelism: 4})
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, fmt.Sprintf("forks off a %d-unit base vs from-scratch", p), warm, ref)
	}
}

// TestParallelMatchesSequential pins determinism: scenario-level parallelism
// must not change the result or the violation order.
func TestParallelMatchesSequential(t *testing.T) {
	out, intents := wanCheckInputs()
	opts := Options{K: 2, MaxScenarios: 60, Parallelism: 1}
	seq, err := Check(out.Net, out.Inputs, out.Flows, intents, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Parallelism = 4
	parRes, err := Check(out.Net, out.Inputs, out.Flows, intents, opts)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "parallel vs sequential", seq, parRes)
}

// TestEnumerateCombosEarlyExit is the MaxScenarios regression test: hitting
// the cap must unwind the DFS outright, doing work proportional to the cap
// rather than walking all C(n, k) combinations.
func TestEnumerateCombosEarlyExit(t *testing.T) {
	combos, visited := enumerateCombos(200, 3, 10)
	if len(combos) != 10 {
		t.Fatalf("combos = %d, want 10", len(combos))
	}
	// C(200,1)+C(200,2)+C(200,3) is ~1.3M; a pre-order DFS that stops cold
	// visits barely more nodes than it emits.
	if visited > 2*10+3 {
		t.Errorf("visited %d enumeration nodes for a cap of 10 — early exit broken", visited)
	}
	// Uncapped enumeration still yields the full count.
	combos, _ = enumerateCombos(6, 2, 0)
	if want := 6 + 15; len(combos) != want { // C(6,1)+C(6,2)
		t.Errorf("uncapped combos = %d, want %d", len(combos), want)
	}
}

// TestWorkAvoidanceCounters asserts the telemetry a k-failure sweep exports:
// exact scenario counts and non-trivial reuse on the incremental path.
func TestWorkAvoidanceCounters(t *testing.T) {
	out, intents := wanCheckInputs()
	reg := telemetry.NewRegistry()
	tr := telemetry.NewTracer("kfail-test")
	res, err := Check(out.Net, out.Inputs, out.Flows, intents,
		Options{K: 1, MaxScenarios: 8, Registry: reg, Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("kfail_scenarios_total", "").Value(); got != int64(res.Scenarios) {
		t.Errorf("kfail_scenarios_total = %d, want %d", got, res.Scenarios)
	}
	if got := reg.Counter("incr_spf_sources_reused", "").Value(); got == 0 {
		t.Error("incr_spf_sources_reused stayed 0 across a sweep of single link failures")
	}
	if got := reg.Counter("incr_warm_rounds", "").Value(); got == 0 {
		t.Error("incr_warm_rounds stayed 0 — warm restarts should still run rounds")
	}
	if spans := tr.Spans(); len(spans) != res.Scenarios {
		t.Errorf("spans = %d, want one per scenario (%d)", len(spans), res.Scenarios)
	}
}

// TestSweepWorkAvoided pins the incremental engine on the work its
// warm-started k=1 failure sweep avoids, against what from-scratch
// re-simulation of the same scenarios does: SPF sources reused, BGP tables
// left clean, fixpoint rounds not run, flows not re-forwarded.
// A load intent makes the full route + traffic pipeline run per scenario, and
// parallelism is pinned to 1 on both axes, so the counts repeat exactly on
// every host. Timing the two paths against each other is the repo
// benchmark's job (`bash benchmark/run.sh --workload kfail_sweep`).
func TestSweepWorkAvoided(t *testing.T) {
	g := gen.Generate(gen.WAN(1))
	if len(g.Flows) == 0 {
		t.Fatal("fixture produced no flows")
	}
	sim := core.Options{Parallelism: 1}
	reg := telemetry.NewRegistry()
	res, err := Check(g.Net, g.Inputs, g.Flows, []intent.Intent{intent.LoadIntent{MaxUtilization: 1.0}},
		Options{K: 1, MaxScenarios: 30, Parallelism: 1, Sim: sim, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	count := func(name string) int64 { return reg.Counter(name, "").Value() }
	spfReused, tablesDirty := count("incr_spf_sources_reused"), count("incr_bgp_tables_dirty")
	warmRounds, flowsReused := count("incr_warm_rounds"), count("incr_flows_reused")
	t.Logf("%d scenarios: %d SPF sources reused, %d BGP tables dirtied, %d warm rounds, %d flows reused",
		res.Scenarios, spfReused, tablesDirty, warmRounds, flowsReused)

	// Per scenario, from scratch: one SPF per device, every table decided,
	// the base run's rounds, every representative flow forwarded.
	base := core.NewEngine(g.Net, sim).Run(g.Inputs, g.Flows)
	n := int64(res.Scenarios)
	sources := n * int64(len(g.Net.Devices))
	tables := n * int64(len(base.Routes.BGP.Tables()))
	rounds := n * int64(base.Routes.BGP.Rounds)
	flows := n * int64(len(base.Traffic.ECStats.Representatives()))
	if 4*spfReused < sources {
		t.Errorf("%d of %d SPF sources reused, want at least a quarter", spfReused, sources)
	}
	if 4*tablesDirty > tables {
		t.Errorf("%d of %d BGP tables seeded dirty, want at most a quarter", tablesDirty, tables)
	}
	if 4*warmRounds > rounds {
		t.Errorf("%d warm fixpoint rounds against %d from scratch, want at most a quarter", warmRounds, rounds)
	}
	if 2*flowsReused < flows {
		t.Errorf("%d of %d flows reused, want at least half", flowsReused, flows)
	}
}

var _ = netmodel.DefaultVRF
