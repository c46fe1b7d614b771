// Package kfail implements Hoyan's k-failure verification (§6.2): checking
// that a property still holds when no more than k routers/links have failed.
// Scenarios are enumerated exhaustively over a candidate element set (with a
// hard cap suited to the repository's scales) and simulated as incremental
// forks of the base run: each scenario is a core.Delta the engine applies to
// its own scratch network, warm-starting SPF/BGP/forwarding from the
// converged base state — instead of cloning the network and recomputing from
// zero per combination.
package kfail

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"

	"hoyan/internal/config"
	"hoyan/internal/core"
	"hoyan/internal/intent"
	"hoyan/internal/netmodel"
	"hoyan/internal/par"
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
	// Sim holds the engine options for the base run every scenario forks
	// off. Sim.Parallelism bounds the cores of each scenario simulation while
	// the sweep is sequential, also for warm forks off Options.Engine (0 keeps
	// that engine's own setting); serve sets it to the tenant's query budget
	// so one sweep cannot occupy the machine.
	Sim core.Options
	// Parallelism fans scenarios over a worker pool (par conventions: 0 =
	// GOMAXPROCS, 1 = sequential). With more than one scenario worker every
	// scenario simulation is sequential, so scenario-level parallelism owns
	// the cores. Violation order is deterministic at any setting.
	Parallelism int
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
	// long-running service takes).
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
// net is only read. An element the topology does not have is an error naming
// it; one that is already down is a legal no-op.
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

	innerOpts := o.Sim
	if par.Workers(o.Parallelism) > 1 {
		// Scenario-level parallelism owns the cores: every scenario simulation
		// is sequential, warm forks off a caller-supplied Engine included —
		// its BaseRun ran at full parallelism, but this sweep's forks must not.
		innerOpts.Parallelism = 1
	}

	scenarios := o.Registry.Counter("kfail_scenarios_total", "k-failure scenarios simulated")
	spfReused := o.Registry.Counter("incr_spf_sources_reused", "SPF sources reused from the base run across incremental forks")
	bgpDirty := o.Registry.Counter("incr_bgp_tables_dirty", "BGP tables seeded dirty across warm-started fixpoints")
	warmRounds := o.Registry.Counter("incr_warm_rounds", "fixpoint rounds run by warm-started BGP re-simulations")
	flowsReused := o.Registry.Counter("incr_flows_reused", "flows whose base path and load were reused across incremental forks")
	ribChanged := o.Registry.Counter("incr_rib_rows_changed", "RIB rows at the (table, prefix) pairs incremental forks rebuilt")
	ribRebuilt := o.Registry.Counter("incr_rib_rows_rebuilt", "RIB rows incremental forks wrote: rebuilt table rows plus re-emitted device blocks")

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

	base := intent.SnapshotOf(baseRes)

	type outcome struct {
		reports []intent.Report
		ok      bool
		err     error
	}
	outcomes := make([]outcome, len(combos))
	var done atomic.Int64

	// Engine.WhatIf only ever reads the shared base capture and lends each
	// call its own scratch network, so concurrent scenarios are safe.
	par.ForEach(o.Parallelism, len(combos), func(slot int) {
		if o.Ctx != nil && o.Ctx.Err() != nil {
			return
		}
		combo := combos[slot]
		var delta core.Delta
		for _, idx := range combo {
			if el := elements[idx]; el.Node != "" {
				delta.NodesDown = append(delta.NodesDown, el.Node)
			} else {
				delta.LinksDown = append(delta.LinksDown, el.Link)
			}
		}

		span := o.Tracer.StartRoot("kfail.scenario")
		span.SetTag("failed", elementNames(elements, combo))
		res, stats, err := eng.WhatIf(o.Ctx, delta, innerOpts.Parallelism)
		if err != nil {
			// Cancelled mid-fork, or an element the topology does not have:
			// Check returns an error below, never the partial result.
			span.End()
			outcomes[slot].err = fmt.Errorf("kfail: scenario {%s}: %w", elementNames(elements, combo), err)
			return
		}
		span.SetTag("bgp_tables_dirty", fmt.Sprintf("%d/%d", stats.BGPTablesDirty, stats.BGPTablesTotal))
		span.SetTag("rib_rows_changed", fmt.Sprintf("%d", stats.RIBRowsChanged))
		span.SetTag("rib_rows_rebuilt", fmt.Sprintf("%d", stats.RIBRowsRebuilt))
		spfReused.Add(int64(stats.SPFReused))
		bgpDirty.Add(int64(stats.BGPTablesDirty))
		warmRounds.Add(int64(stats.BGPRounds))
		flowsReused.Add(int64(stats.FlowsReused))
		ribChanged.Add(int64(stats.RIBRowsChanged))
		ribRebuilt.Add(int64(stats.RIBRowsRebuilt))
		span.End()

		scenarios.Inc()
		ctx := &intent.Context{Base: *base, Updated: *intent.SnapshotOf(res)}
		reports, ok := intent.Verify(ctx, intents)
		outcomes[slot] = outcome{reports: reports, ok: ok}
		if o.Progress != nil {
			o.Progress(int(done.Add(1)), len(combos))
		}
	})

	if o.Ctx != nil && o.Ctx.Err() != nil {
		// A zero-valued outcome reads as a violation; never surface the
		// partial sweep.
		return nil, o.Ctx.Err()
	}
	for i := range outcomes {
		if outcomes[i].err != nil {
			return nil, outcomes[i].err
		}
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
