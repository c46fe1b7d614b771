// Package kfail implements Hoyan's k-failure verification (§6.2): checking
// that a property still holds when no more than k routers/links have failed.
// Scenarios are enumerated exhaustively over a candidate element set (with a
// hard cap suited to the repository's scales) and simulated as incremental
// forks of the base run: each scenario toggles the failed elements on a
// reusable topology, warm-starts SPF/BGP/forwarding from the converged base
// state, and reverts the toggles — instead of cloning the network and
// recomputing from zero per combination.
package kfail

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"hoyan/internal/config"
	"hoyan/internal/core"
	"hoyan/internal/intent"
	"hoyan/internal/netmodel"
	"hoyan/internal/par"
	"hoyan/internal/shard"
	"hoyan/internal/telemetry"
)

// Element is one failable component.
type Element struct {
	Link netmodel.LinkID // zero value when Node is set
	Node string
}

func (e Element) String() string {
	if e.Node != "" {
		return "node:" + e.Node
	}
	return "link:" + e.Link.String()
}

// Options configures a check.
type Options struct {
	// K is the maximum number of simultaneous failures.
	K int
	// Elements are the candidate failures; empty means every link of the
	// topology.
	Elements []Element
	// MaxScenarios bounds the enumeration (0 = unlimited).
	MaxScenarios int
	// Sim holds the engine options for the simulations. Set
	// Sim.DisableIncremental to re-simulate every scenario from scratch (the
	// reference path; results are byte-identical).
	Sim core.Options
	// Parallelism fans scenarios over a worker pool (par conventions: 0 =
	// GOMAXPROCS, 1 = sequential). Each worker gets its own cloned topology;
	// per-scenario engine parallelism is forced to 1 so the machine is not
	// oversubscribed. Violation order is deterministic at any setting.
	Parallelism int
	// EngineParallelism caps the cores each scenario simulation may use when
	// the sweep itself is sequential (Parallelism 1) — SPF, ECs, forwarding,
	// and the cold fixpoint's work units of a from-scratch scenario; a warm
	// fork's fixpoint is sequential anyway. serve sets it to the tenant's
	// query budget so one kfail sweep cannot occupy the machine. 0 keeps the
	// engine's own setting; with scenario workers > 1 it is ignored —
	// per-scenario simulation is always sequential then, including warm
	// forks off Options.Engine. Results are byte-identical regardless.
	EngineParallelism int
	// Shards, when > 1, routes contained scenarios through the sharded
	// verifier (internal/shard): a delta whose effects provably stay inside
	// its touched shards re-runs only those shards boundary-sealed,
	// warm-started from the base contract state. Uncontained scenarios fall
	// back to the incremental fork. Results are byte-identical either way.
	Shards int
	// Registry receives work-avoidance counters (kfail_scenarios_total,
	// incr_spf_sources_reused, incr_bgp_tables_dirty, incr_warm_rounds,
	// incr_flows_reused, incr_rib_rows_changed, incr_rib_rows_rebuilt). Nil
	// disables metrics at zero cost.
	Registry *telemetry.Registry
	// Tracer records one span per scenario. Nil disables tracing.
	Tracer *telemetry.Tracer

	// Ctx, when non-nil, cancels the check: pending scenarios are skipped,
	// in-flight ones bail out of the engine hot loops, and Check returns
	// ctx's error instead of a (partial, misleading) result.
	Ctx context.Context
	// Progress, when non-nil, is called after each completed scenario with
	// the running completion count and the total. It may be called from any
	// worker goroutine, so it must be safe for concurrent use.
	Progress func(done, total int)
	// Engine, when non-nil, supplies an engine whose BaseRun over exactly
	// these net/inputs/flows already completed; Check forks scenarios off it
	// instead of building and converging its own (the warm path a
	// long-running service takes). The sequential path toggles net in place,
	// so callers sharing the base network across queries must pass a private
	// clone.
	Engine *core.Engine
}

// Violation is one failure scenario under which an intent fails.
type Violation struct {
	Failed  []Element
	Reports []intent.Report
}

// Result summarizes a k-failure check.
type Result struct {
	Scenarios  int
	Violations []Violation
}

// OK reports whether the property held under every enumerated scenario.
func (r *Result) OK() bool { return len(r.Violations) == 0 }

// Check verifies the intents under every failure combination of at most
// Options.K elements. The intents' PRE state is the failure-free snapshot.
func Check(net *config.Network, inputs []netmodel.Route, flows []netmodel.Flow, intents []intent.Intent, o Options) (*Result, error) {
	if o.K < 1 {
		return nil, fmt.Errorf("kfail: K must be >= 1")
	}
	elements := o.Elements
	if len(elements) == 0 {
		for _, l := range net.Topo.Links() {
			elements = append(elements, Element{Link: l.ID()})
		}
	}
	combos, _ := enumerateCombos(len(elements), o.K, o.MaxScenarios)

	workers := par.Workers(o.Parallelism)
	innerOpts := o.Sim
	forkPar := o.EngineParallelism
	if workers > 1 {
		// One engine per scenario worker: keep the inner simulation
		// sequential so scenario-level parallelism owns the cores. forkPar
		// caps warm forks off a caller-supplied Engine the same way — its
		// BaseRun ran at full parallelism, but this sweep's forks must not.
		innerOpts.Parallelism = 1
		forkPar = 1
	} else if forkPar != 0 {
		innerOpts.Parallelism = forkPar
	}

	scenarios := o.Registry.Counter("kfail_scenarios_total", "k-failure scenarios simulated")
	spfReused := o.Registry.Counter("incr_spf_sources_reused", "SPF sources reused from the base run across incremental forks")
	bgpDirty := o.Registry.Counter("incr_bgp_tables_dirty", "BGP tables seeded dirty across warm-started fixpoints")
	warmRounds := o.Registry.Counter("incr_warm_rounds", "fixpoint rounds run by warm-started BGP re-simulations")
	flowsReused := o.Registry.Counter("incr_flows_reused", "flows whose base path and load were reused across incremental forks")
	ribChanged := o.Registry.Counter("incr_rib_rows_changed", "RIB rows at the (table, prefix) pairs incremental forks rebuilt")
	ribRebuilt := o.Registry.Counter("incr_rib_rows_rebuilt", "RIB rows incremental forks wrote: rebuilt table rows plus re-emitted device blocks")
	fullFallbacks := o.Registry.Counter("incr_full_fallbacks_total", "scenario forks that fell back to from-scratch simulation")

	eng := o.Engine
	var baseRes *core.Result
	if eng != nil {
		if baseRes = eng.BaseResult(); baseRes == nil {
			return nil, fmt.Errorf("kfail: Options.Engine has no completed BaseRun")
		}
	} else {
		eng = core.NewEngine(net, innerOpts)
		var err error
		if baseRes, err = eng.BaseRunCtx(o.Ctx, inputs, flows); err != nil {
			return nil, err
		}
	}

	var sharded *shard.Engine
	shardScenarios := o.Registry.Counter("kfail_shard_scenarios_total", "scenarios verified through the sharded path")
	if o.Shards > 1 {
		sharded = shard.New(net, inputs, shard.Options{
			Shards:   o.Shards,
			Sim:      innerOpts,
			Registry: o.Registry,
		})
		if _, err := sharded.Base(); err != nil {
			return nil, err
		}
	}

	// Bandwidths never change under up/down toggles: share one map across
	// every snapshot.
	bw := make(map[netmodel.LinkID]float64, len(net.Topo.Links()))
	for _, l := range net.Topo.Links() {
		bw[l.ID()] = l.Bandwidth
	}
	base := snapshotFrom(baseRes, bw)

	// scratch topologies: the sequential path toggles the caller's network
	// in place (reverting after each scenario); parallel workers draw cloned
	// networks from a pool. Engine.Fork reads the passed network for all new
	// state and only ever reads the shared base capture, so concurrent forks
	// off one engine are safe.
	pool := sync.Pool{New: func() any { return net.Clone() }}

	type outcome struct {
		reports []intent.Report
		ok      bool
	}
	outcomes := make([]outcome, len(combos))
	var done atomic.Int64

	evalScenario := func(scratch *config.Network, combo []int, slot int) {
		if o.Ctx != nil && o.Ctx.Err() != nil {
			return
		}
		var delta core.Delta
		var revertLinks []netmodel.LinkID
		var revertNodes []string
		for _, idx := range combo {
			el := elements[idx]
			if el.Node != "" {
				if n := scratch.Topo.Node(el.Node); n != nil && n.Up {
					scratch.Topo.SetNodeUp(el.Node, false)
					delta.NodesDown = append(delta.NodesDown, el.Node)
					revertNodes = append(revertNodes, el.Node)
				}
			} else {
				if l := scratch.Topo.Link(el.Link); l != nil && l.Up {
					scratch.Topo.SetLinkUp(el.Link, false)
					delta.LinksDown = append(delta.LinksDown, el.Link)
					revertLinks = append(revertLinks, el.Link)
				}
			}
		}

		span := o.Tracer.StartRoot("kfail.scenario")
		span.SetTag("failed", elementNames(elements, combo))
		var snap *intent.Snapshot
		if sharded != nil {
			if sres, err := sharded.WhatIf(scratch, delta); err == nil {
				shardScenarios.Inc()
				span.SetTag("mode", "shard")
				span.SetTag("shard_rounds", fmt.Sprintf("%d", sres.Rounds))
				rows := sres.RIB.Rows()
				snap = &intent.Snapshot{RIB: sres.RIB, Bandwidth: bw}
				if len(flows) > 0 {
					tr := sres.Eng.TrafficSimulation(netmodel.NewRIBSet(rows), rows, flows)
					snap.Paths = tr.Traffic.Paths
					snap.Load = tr.Traffic.Load
				}
			}
		}
		if snap == nil {
			res, stats, err := eng.ForkCtxN(o.Ctx, scratch, delta, forkPar)
			if err != nil {
				// Cancelled mid-fork: revert the toggles so the scratch network
				// stays reusable, and leave the slot's zero outcome — Check
				// returns ctx's error below, never the partial result.
				span.End()
				for _, id := range revertLinks {
					scratch.Topo.SetLinkUp(id, true)
				}
				for _, n := range revertNodes {
					scratch.Topo.SetNodeUp(n, true)
				}
				return
			}
			if stats.Full {
				fullFallbacks.Inc()
				span.SetTag("mode", "full")
			} else {
				span.SetTag("mode", "incremental")
				span.SetTag("bgp_tables_dirty", fmt.Sprintf("%d/%d", stats.BGPTablesDirty, stats.BGPTablesTotal))
				span.SetTag("rib_rows_changed", fmt.Sprintf("%d", stats.RIBRowsChanged))
				span.SetTag("rib_rows_rebuilt", fmt.Sprintf("%d", stats.RIBRowsRebuilt))
			}
			spfReused.Add(int64(stats.SPFReused))
			bgpDirty.Add(int64(stats.BGPTablesDirty))
			warmRounds.Add(int64(stats.BGPRounds))
			flowsReused.Add(int64(stats.FlowsReused))
			ribChanged.Add(int64(stats.RIBRowsChanged))
			ribRebuilt.Add(int64(stats.RIBRowsRebuilt))
			snap = snapshotFrom(res, bw)
		}
		span.End()

		for _, id := range revertLinks {
			scratch.Topo.SetLinkUp(id, true)
		}
		for _, n := range revertNodes {
			scratch.Topo.SetNodeUp(n, true)
		}

		scenarios.Inc()
		ctx := &intent.Context{Base: *base, Updated: *snap}
		reports, ok := intent.Verify(ctx, intents)
		outcomes[slot] = outcome{reports: reports, ok: ok}
		if o.Progress != nil {
			o.Progress(int(done.Add(1)), len(combos))
		}
	}

	if workers <= 1 {
		for i, combo := range combos {
			evalScenario(net, combo, i)
		}
	} else {
		par.ForEach(o.Parallelism, len(combos), func(i int) {
			scratch := pool.Get().(*config.Network)
			evalScenario(scratch, combos[i], i)
			pool.Put(scratch)
		})
	}

	if o.Ctx != nil && o.Ctx.Err() != nil {
		// A zero-valued outcome reads as a violation; never surface the
		// partial sweep.
		return nil, o.Ctx.Err()
	}

	res := &Result{Scenarios: len(combos)}
	for i, combo := range combos {
		if outcomes[i].ok {
			continue
		}
		failed := make([]Element, len(combo))
		for j, idx := range combo {
			failed[j] = elements[idx]
		}
		res.Violations = append(res.Violations, Violation{Failed: failed, Reports: outcomes[i].reports})
	}
	return res, nil
}

// enumerateCombos lists, in DFS pre-order, every combination of 1..k indices
// out of n, stopping the recursion outright once max combos are collected
// (max 0 = unlimited). visited counts loop expansions — the early-exit
// regression test asserts it stays proportional to max, not to C(n, k).
func enumerateCombos(n, k, max int) (combos [][]int, visited int) {
	var combo []int
	var rec func(start, remaining int) bool
	rec = func(start, remaining int) bool {
		if len(combo) > 0 {
			if max > 0 && len(combos) >= max {
				return false
			}
			combos = append(combos, append([]int(nil), combo...))
		}
		if remaining == 0 {
			return true
		}
		for i := start; i < n; i++ {
			visited++
			combo = append(combo, i)
			cont := rec(i+1, remaining-1)
			combo = combo[:len(combo)-1]
			if !cont {
				return false
			}
		}
		return true
	}
	rec(0, k)
	return combos, visited
}

func elementNames(elements []Element, combo []int) string {
	names := make([]string, len(combo))
	for i, idx := range combo {
		names[i] = elements[idx].String()
	}
	return strings.Join(names, ",")
}

func snapshotFrom(r *core.Result, bw map[netmodel.LinkID]float64) *intent.Snapshot {
	snap := &intent.Snapshot{RIBFn: r.Routes.GlobalRIB, Bandwidth: bw}
	if r.Traffic != nil {
		snap.Paths = r.Traffic.Traffic.Paths
		snap.Load = r.Traffic.Traffic.Load
	}
	return snap
}
