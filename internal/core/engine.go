// Package core is Hoyan's simulation engine: it orchestrates the IGP, BGP,
// equivalence-class, and traffic-forwarding subsystems into the two
// simulation services of Figure 2 — route simulation (input routes → RIBs)
// and traffic simulation (input flows → paths + link loads) — in the
// original centralized fashion. The distributed framework (internal/dsim)
// runs this same engine on input subsets inside each worker.
package core

import (
	"context"
	"net/netip"
	"sync"

	"hoyan/internal/bgp"
	"hoyan/internal/config"
	"hoyan/internal/ec"
	"hoyan/internal/isis"
	"hoyan/internal/netmodel"
	"hoyan/internal/traffic"
	"hoyan/internal/vsb"
)

// Options configures the engine; the zero value uses faithful vendor
// profiles with both EC techniques enabled.
type Options struct {
	Profiles vsb.Profiles

	// DisableRouteECs / DisableFlowECs switch off the §3.1 equivalence-class
	// reductions (the EC-off ablation).
	DisableRouteECs bool
	DisableFlowECs  bool

	// Parallelism bounds the worker pools behind the engine's data-parallel
	// hot paths — per-source SPF, the work units of the cold BGP fixpoint
	// (a warm restart is one sequential fixpoint), the
	// global-RIB table fill, per-flow forwarding, EC classification, and
	// config parsing when restoring snapshots. 0 (the default) uses
	// runtime.GOMAXPROCS(0) workers; 1 forces the sequential reference path;
	// results are byte-identical at every setting.
	Parallelism int
}

// Engine runs simulations over one network snapshot.
type Engine struct {
	net  *config.Network
	igp  *isis.Result
	opts Options

	// base holds the state captured by BaseRun for incremental Fork runs.
	base *baseCapture

	// scratch pools clones of net for WhatIf: each call borrows one, applies
	// its delta, forks, and returns the clone with every flip undone.
	scratch sync.Pool
}

// NewEngine prepares an engine: it computes the IGP SPF once (the paper's
// pre-processing phase does the same for the base model).
func NewEngine(net *config.Network, opts Options) *Engine {
	if opts.Profiles == nil {
		opts.Profiles = vsb.Defaults()
	}
	e := &Engine{
		net:  net,
		igp:  isis.Compute(net.Topo, isis.Options{Parallelism: opts.Parallelism}),
		opts: opts,
	}
	e.scratch.New = func() any { return net.Clone() }
	return e
}

// ctxErr returns the context's error, tolerating a nil context (the
// no-cancellation convention every non-Ctx entry point uses).
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// Network returns the engine's network snapshot.
func (e *Engine) Network() *config.Network { return e.net }

// IGP returns the engine's SPF result.
func (e *Engine) IGP() *isis.Result { return e.igp }

// Profiles returns the engine's vendor profiles (defaults applied).
func (e *Engine) Profiles() vsb.Profiles { return e.opts.Profiles }

// RouteResult is the outcome of route simulation.
type RouteResult struct {
	BGP *bgp.Result
	// ECStats reports the route-EC reduction applied (nil with ECs off).
	ECStats *ec.RouteECs

	// cold marks a result of Engine.routeSimulation: BGP holds the tables as
	// simulated, before route-EC expansion, the global RIB their expansion by
	// ECStats, and RIB serves views of its rows. Any other result's BGP
	// tables are the ones it reads.
	cold bool

	// global is the flattened global RIB, which the engine sets before it
	// returns the result (a fork's is a view of the base's). A result built
	// outside the engine emits its BGP tables as they are, on the first call
	// to GlobalRIB.
	globalOnce sync.Once
	global     *netmodel.GlobalRIB

	// views is a cold result's tables: the global RIB's rows cut per table,
	// each table's prefix map built on the first lookup of it.
	viewsOnce sync.Once
	views     *netmodel.RIBSet
}

// RIB implements traffic.RIBSource. A cold result's tables are views of its
// global RIB's rows (netmodel.RIBSet), built on first use; concurrent callers
// share them.
func (r *RouteResult) RIB(device, vrf string) *netmodel.RIB {
	if !r.cold {
		return r.BGP.RIB(device, vrf)
	}
	r.viewsOnce.Do(func() { r.views = netmodel.NewRIBSetFromSorted(r.global.Rows()) })
	return r.views.RIB(device, vrf)
}

// GlobalRIB returns the flattened global RIB. An engine result holds it
// already; a result built outside the engine emits it on the first call, and
// later calls, concurrent ones included, return the same value.
func (r *RouteResult) GlobalRIB() *netmodel.GlobalRIB {
	r.globalOnce.Do(func() {
		if r.global == nil {
			r.global = r.BGP.GlobalRIB()
		}
	})
	return r.global
}

// RouteSimulation simulates the propagation of the input routes and returns
// the RIBs of all routers. With route ECs enabled, one representative per EC
// is simulated and results are expanded to the members.
func (e *Engine) RouteSimulation(inputs []netmodel.Route) *RouteResult {
	res, _ := e.routeSimulation(nil, inputs, nil)
	return res
}

// bgpOptions is the engine's options as the BGP fixpoint takes them.
func (e *Engine) bgpOptions(ctx context.Context) bgp.Options {
	return bgp.Options{
		Profiles:    e.opts.Profiles,
		Parallelism: e.opts.Parallelism,
		Ctx:         ctx,
	}
}

// routeSimulation is the route stage: the fixpoint over the representatives,
// then the global RIB, which expands the tables to the EC members as it emits
// them (no table is expanded; the result's tables are views of its rows).
// With a capture it also saves what a warm restart needs: the
// representatives and the converged BGP state.
func (e *Engine) routeSimulation(ctx context.Context, inputs []netmodel.Route, bc *baseCapture) (*RouteResult, error) {
	reps := inputs
	var ecs *ec.RouteECs
	if !e.opts.DisableRouteECs {
		ecs = ec.ComputeRouteECs(e.net, e.opts.Profiles, inputs, e.opts.Parallelism)
		reps = ecs.Representatives()
	}
	var res *bgp.Result
	var state *bgp.State
	if bc != nil {
		res, state = bgp.SimulateWithState(e.net, e.igp, reps, e.bgpOptions(ctx))
	} else {
		res = bgp.Simulate(e.net, e.igp, reps, e.bgpOptions(ctx))
	}
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	if bc != nil {
		bc.reps, bc.bgpState = reps, state
	}
	return &RouteResult{BGP: res, ECStats: ecs, cold: true, global: res.ExpandedGlobalRIB(ecs.Expansion())}, nil
}

// TrafficResult is the outcome of traffic simulation.
type TrafficResult struct {
	Traffic *traffic.Result
	// ECStats reports the flow-EC reduction applied (nil with ECs off).
	ECStats *ec.FlowECs
}

// TrafficSimulation forwards the input flows over the given RIBs and
// computes link loads. With flow ECs enabled, one representative per class
// carries the class's total volume.
func (e *Engine) TrafficSimulation(ribs traffic.RIBSource, routeRows []netmodel.Route, flows []netmodel.Flow) *TrafficResult {
	res, _ := e.trafficSimulation(nil, ribs, routeRows, flows, nil)
	return res
}

// trafficSimulation is the traffic stage. A capture also gets the forwarded
// representatives and their traces, so forks re-forward only the flows a
// delta can reach.
func (e *Engine) trafficSimulation(ctx context.Context, ribs traffic.RIBSource, routeRows []netmodel.Route, flows []netmodel.Flow, bc *baseCapture) (*TrafficResult, error) {
	fw := e.forwarder(ctx, e.net, e.igp, ribs, e.opts.Parallelism)
	reps := flows
	var ecs *ec.FlowECs
	if !e.opts.DisableFlowECs {
		ecs = ec.ComputeFlowECs(e.net, ec.RIBPrefixes(routeRows), flows, e.opts.Parallelism)
		reps = ecs.Representatives()
	}
	var res *traffic.Result
	if bc != nil {
		res, bc.traces = fw.SimulateTraced(reps)
	} else {
		res = fw.Simulate(reps)
	}
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	if bc != nil {
		bc.repFlows = reps
	}
	return &TrafficResult{Traffic: res, ECStats: ecs}, nil
}

// Result is the outcome of a full simulation run.
type Result struct {
	Routes  *RouteResult
	Traffic *TrafficResult
	// Bandwidth is the capacity of every link of the topology simulated
	// (Topology.Bandwidths); a fork on the base's topology shares the base's.
	Bandwidth map[netmodel.LinkID]float64
}

// Run executes route simulation followed by traffic simulation — the
// centralized pipeline of Figure 2.
func (e *Engine) Run(inputs []netmodel.Route, flows []netmodel.Flow) *Result {
	res, _ := e.run(nil, inputs, flows, nil)
	return res
}

// run is the one pipeline behind Run and BaseRun: route stage (global RIB
// included), traffic stage. bc, when non-nil, is filled by the stages with
// what forks warm-start from and then holds the result; the result is the
// same either way.
func (e *Engine) run(ctx context.Context, inputs []netmodel.Route, flows []netmodel.Flow, bc *baseCapture) (*Result, error) {
	routes, err := e.routeSimulation(ctx, inputs, bc)
	if err != nil {
		return nil, err
	}
	var tr *TrafficResult
	if len(flows) > 0 {
		if bc != nil {
			bc.basePrefixCount = make(map[netip.Prefix]int)
			eachTablePrefix(routes.GlobalRIB().Rows(), func(p netip.Prefix) { bc.basePrefixCount[p]++ })
		}
		tr, err = e.trafficSimulation(ctx, routes, routes.GlobalRIB().Rows(), flows, bc)
		if err != nil {
			return nil, err
		}
	}
	res := &Result{Routes: routes, Traffic: tr, Bandwidth: e.net.Topo.Bandwidths()}
	if bc != nil {
		bc.res = res
	}
	return res, nil
}

// eachTablePrefix calls fn once per (device, VRF, prefix) run of rows, which
// are in canonical order: once per table holding the prefix.
func eachTablePrefix(rows []netmodel.Route, fn func(p netip.Prefix)) {
	for i := range rows {
		if i == 0 || rows[i].Prefix != rows[i-1].Prefix || rows[i].VRF != rows[i-1].VRF || rows[i].Device != rows[i-1].Device {
			fn(rows[i].Prefix)
		}
	}
}
