// Package core is Hoyan's simulation engine: it orchestrates the IGP, BGP,
// equivalence-class, and traffic-forwarding subsystems into the two
// simulation services of Figure 2 — route simulation (input routes → RIBs)
// and traffic simulation (input flows → paths + link loads) — in the
// original centralized fashion. The distributed framework (internal/dsim)
// runs this same engine on input subsets inside each worker.
package core

import (
	"context"

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

	// UseRouteECs / UseFlowECs toggle the §3.1 equivalence-class reductions
	// (the EC-off ablation).
	DisableRouteECs bool
	DisableFlowECs  bool

	// UseTEMetric enables IS-IS TE metrics in SPF.
	UseTEMetric bool

	// Fault-injection knobs for the accuracy campaign.
	FlawedASPathRegex bool
	IgnoreACLs        bool
	IgnorePBR         bool

	// MaxRounds bounds the BGP fixpoint.
	MaxRounds int

	// DisableIncremental forces Engine.Fork to re-simulate every scenario
	// from scratch instead of warm-starting from the base run — the
	// sequential reference path for the incremental what-if engine.
	// Results are byte-identical either way.
	DisableIncremental bool

	// Parallelism bounds the worker pools behind the engine's data-parallel
	// hot paths — per-source SPF, the work units of the cold BGP fixpoint
	// (warm restarts and sealed runs are one sequential fixpoint), the
	// global-RIB table fill, per-flow forwarding, EC classification, and
	// config parsing when restoring snapshots. 0 (the default) uses
	// runtime.GOMAXPROCS(0) workers; 1 forces the sequential reference path;
	// results are byte-identical at every setting.
	Parallelism int

	// DisableIndex switches every subsystem to its original string-keyed
	// implementation (isis/bgp/traffic Legacy plus per-call RIB expansion)
	// instead of the dense-ID indexed hot paths. Results are byte-identical
	// either way; the legacy mode is the reference that TestCoreSpeedup and
	// the equivalence suite compare against.
	DisableIndex bool
}

// Engine runs simulations over one network snapshot.
type Engine struct {
	net  *config.Network
	igp  *isis.Result
	opts Options

	// interner holds the dense ID tables of the indexed mode (nil under
	// DisableIndex): every device and link is interned at engine construction
	// and input-route prefixes are interned per route simulation, so its
	// stats describe the ID-table footprint of the run.
	interner *netmodel.Interner

	// base holds the state captured by BaseRun for incremental Fork runs.
	base *baseCapture
}

// NewEngine prepares an engine: it computes the IGP SPF once (the paper's
// pre-processing phase does the same for the base model).
func NewEngine(net *config.Network, opts Options) *Engine {
	return newEngineCtx(nil, net, opts)
}

// newEngineCtx is NewEngine with a cancellation context threaded into the
// initial SPF; a cancelled construction leaves an engine whose results must
// be discarded.
func newEngineCtx(ctx context.Context, net *config.Network, opts Options) *Engine {
	if opts.Profiles == nil {
		opts.Profiles = vsb.Defaults()
	}
	e := &Engine{
		net: net,
		igp: isis.Compute(net.Topo, isis.Options{
			UseTEMetric: opts.UseTEMetric,
			Parallelism: opts.Parallelism,
			Legacy:      opts.DisableIndex,
			Ctx:         ctx,
		}),
		opts: opts,
	}
	if !opts.DisableIndex {
		e.interner = netmodel.NewInterner()
		e.interner.InternTopology(net.Topo)
	}
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

// InternStats reports the interning tables' sizes (devices, links, prefixes,
// approximate ID-table bytes), or nil when the index is disabled.
func (e *Engine) InternStats() *netmodel.InternStats {
	if e.interner == nil {
		return nil
	}
	st := e.interner.Stats()
	return &st
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

	// global memoizes the flattened global RIB. globalFn, when set, builds it
	// on first use (forks install a view of the base global RIB there, so
	// scenarios whose intents never read the global RIB build no blocks).
	global   *netmodel.GlobalRIB
	globalFn func() *netmodel.GlobalRIB
}

// RIB implements traffic.RIBSource.
func (r *RouteResult) RIB(device, vrf string) *netmodel.RIB { return r.BGP.RIB(device, vrf) }

// GlobalRIB returns the flattened global RIB. The first call materializes it
// (after any RIB expansion); later calls return the same value.
func (r *RouteResult) GlobalRIB() *netmodel.GlobalRIB {
	if r.global == nil {
		if r.globalFn != nil {
			r.global = r.globalFn()
		} else {
			r.global = r.BGP.GlobalRIB()
		}
	}
	return r.global
}

// RouteSimulation simulates the propagation of the input routes and returns
// the RIBs of all routers. With route ECs enabled, one representative per EC
// is simulated and results are expanded to the members.
func (e *Engine) RouteSimulation(inputs []netmodel.Route) *RouteResult {
	res, _ := e.routeSimulation(nil, inputs)
	return res
}

// RouteSimulationCtx is RouteSimulation with cancellation: the BGP fixpoint
// polls ctx between rounds and the call returns ctx's error (with a nil
// result) once it is done. A nil ctx behaves exactly like RouteSimulation.
func (e *Engine) RouteSimulationCtx(ctx context.Context, inputs []netmodel.Route) (*RouteResult, error) {
	return e.routeSimulation(ctx, inputs)
}

func (e *Engine) routeSimulation(ctx context.Context, inputs []netmodel.Route) (*RouteResult, error) {
	bgpOpts := bgp.Options{
		Profiles:          e.opts.Profiles,
		MaxRounds:         e.opts.MaxRounds,
		FlawedASPathRegex: e.opts.FlawedASPathRegex,
		UseTEMetric:       e.opts.UseTEMetric,
		Legacy:            e.opts.DisableIndex,
		Parallelism:       e.opts.Parallelism,
		Ctx:               ctx,
	}
	if e.interner != nil {
		for i := range inputs {
			e.interner.InternPrefix(inputs[i].Prefix)
		}
	}
	if e.opts.DisableRouteECs {
		res := bgp.Simulate(e.net, e.igp, inputs, bgpOpts)
		if err := ctxErr(ctx); err != nil {
			return nil, err
		}
		return &RouteResult{BGP: res}, nil
	}
	ecs := ec.ComputeRouteECs(e.net, e.opts.Profiles, inputs, e.opts.Parallelism)
	res := bgp.Simulate(e.net, e.igp, ecs.Representatives(), bgpOpts)
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	for _, t := range res.Tables() {
		if e.opts.DisableIndex {
			ecs.ExpandRIBLegacy(res.RIB(t.Device, t.VRF))
		} else {
			ecs.ExpandRIB(res.RIB(t.Device, t.VRF))
		}
	}
	return &RouteResult{BGP: res, ECStats: ecs}, nil
}

// RouteSimulationSealed runs the boundary-sealed BGP fixpoint of one shard
// (bgp.Seal): only devices inside the seal originate and decide, the inbound
// boundary contract is replayed as frozen external inputs, and the result
// carries the shard's outbound contract in BGP.BoundaryOut. Route ECs are
// never applied here — the sharded verifier splits representatives per shard
// up front and expands members centrally at stitch time, so per-shard runs
// always work on the rows they were given.
func (e *Engine) RouteSimulationSealed(inputs []netmodel.Route, seal *bgp.Seal) *RouteResult {
	bgpOpts := bgp.Options{
		Profiles:          e.opts.Profiles,
		MaxRounds:         e.opts.MaxRounds,
		FlawedASPathRegex: e.opts.FlawedASPathRegex,
		UseTEMetric:       e.opts.UseTEMetric,
		Parallelism:       e.opts.Parallelism,
		Seal:              seal,
	}
	if e.interner != nil {
		for i := range inputs {
			e.interner.InternPrefix(inputs[i].Prefix)
		}
	}
	return &RouteResult{BGP: bgp.Simulate(e.net, e.igp, inputs, bgpOpts)}
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
	res, _ := e.trafficSimulation(nil, ribs, routeRows, flows)
	return res
}

func (e *Engine) trafficSimulation(ctx context.Context, ribs traffic.RIBSource, routeRows []netmodel.Route, flows []netmodel.Flow) (*TrafficResult, error) {
	fw := e.forwarderCtx(ctx, e.net, e.igp, ribs)
	if e.opts.DisableFlowECs {
		res := fw.Simulate(flows)
		if err := ctxErr(ctx); err != nil {
			return nil, err
		}
		return &TrafficResult{Traffic: res}, nil
	}
	ecs := ec.ComputeFlowECs(e.net, ec.RIBPrefixes(routeRows), flows, e.opts.Parallelism)
	res := fw.Simulate(ecs.Representatives())
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	return &TrafficResult{Traffic: res, ECStats: ecs}, nil
}

// Result is the outcome of a full simulation run.
type Result struct {
	Routes  *RouteResult
	Traffic *TrafficResult
}

// Run executes route simulation followed by traffic simulation — the
// centralized pipeline of Figure 2.
func (e *Engine) Run(inputs []netmodel.Route, flows []netmodel.Flow) *Result {
	res, _ := e.runCtx(nil, inputs, flows)
	return res
}

// RunCtx is Run with cancellation: it returns ctx's error (with a nil
// result) as soon as a stage observes the cancelled context, without
// finishing the remaining stages.
func (e *Engine) RunCtx(ctx context.Context, inputs []netmodel.Route, flows []netmodel.Flow) (*Result, error) {
	return e.runCtx(ctx, inputs, flows)
}

func (e *Engine) runCtx(ctx context.Context, inputs []netmodel.Route, flows []netmodel.Flow) (*Result, error) {
	routes, err := e.routeSimulation(ctx, inputs)
	if err != nil {
		return nil, err
	}
	var tr *TrafficResult
	if len(flows) > 0 {
		tr, err = e.trafficSimulation(ctx, routes, routes.GlobalRIB().Rows(), flows)
		if err != nil {
			return nil, err
		}
	}
	return &Result{Routes: routes, Traffic: tr}, nil
}
