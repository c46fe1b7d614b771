package core

import (
	"context"
	"net/netip"
	"slices"
	"sort"

	"hoyan/internal/bgp"
	"hoyan/internal/config"
	"hoyan/internal/ec"
	"hoyan/internal/isis"
	"hoyan/internal/netmodel"
	"hoyan/internal/traffic"
)

// Delta describes a what-if scenario relative to the engine's base snapshot:
// link and node up/down flips plus input-route changes. Configuration changes
// are out of scope — callers with config deltas build a fresh engine.
type Delta struct {
	LinksDown []netmodel.LinkID
	LinksUp   []netmodel.LinkID
	NodesDown []string
	NodesUp   []string

	// AddInputs / DropInputs adjust the input route set (DropInputs matches
	// by route key, exactly like change.Plan.ApplyInputs).
	AddInputs  []netmodel.Route
	DropInputs []netmodel.Route
}

func (d Delta) inputsChanged() bool {
	return len(d.AddInputs) > 0 || len(d.DropInputs) > 0
}

// links returns every link whose Up state the delta flips.
func (d Delta) links() []netmodel.LinkID {
	out := make([]netmodel.LinkID, 0, len(d.LinksDown)+len(d.LinksUp))
	out = append(out, d.LinksDown...)
	out = append(out, d.LinksUp...)
	return out
}

// ForkStats reports how much work an incremental Fork avoided.
type ForkStats struct {
	// Full is set when the fork fell back to a from-scratch simulation
	// (DisableIncremental, no BaseRun capture, or nodes coming up).
	Full bool

	SPFSources int // up sources in the scenario topology
	SPFReused  int // sources whose base SPF result was reused

	BGPTablesTotal int // tables in the base converged state
	BGPTablesDirty int // tables seeded dirty in the warm restart
	BGPRounds      int // fixpoint rounds the warm restart ran

	FlowsTotal  int // representative flows forwarded
	FlowsReused int // flows whose base path/load was reused

	// A topology-only fork's RIB work in rows (zero on the other paths, which
	// rebuild every table). Changed: the rows its expanded tables hold at the
	// (table, prefix) pairs it rebuilt, the only ones that can differ from
	// base. Rebuilt: the rows it writes — each changed row into its table and
	// into its device's global-RIB block, plus the base rows that block copies
	// around them (the block is written on the first GlobalRIB read).
	RIBRowsChanged int
	RIBRowsRebuilt int
}

// baseCapture is everything BaseRun saves so Fork can warm-start: the inputs
// and flows, the EC partitions, the converged BGP state (pre-expansion), the
// base global-RIB prefix set, and the traced traffic result.
type baseCapture struct {
	inputs []netmodel.Route
	flows  []netmodel.Flow

	routeECs *ec.RouteECs     // nil with route ECs off
	reps     []netmodel.Route // what BGP actually simulated

	bgpState *bgp.State

	// routes is the base run's result: its expanded tables are shared into
	// forks verbatim for unchanged devices, and its global RIB lends its
	// device blocks to fork global RIBs.
	routes *RouteResult

	// basePrefixCount maps each prefix of the base global RIB to the number
	// of (device, vrf) tables holding it, so forks can decide whether their
	// distinct-prefix set matches the base from per-table diffs alone.
	basePrefixCount map[netip.Prefix]int
	flowECs         *ec.FlowECs     // nil with flow ECs off
	repFlows        []netmodel.Flow // what the forwarder actually simulated
	traffic         *traffic.Result
	traces          []traffic.Trace
}

// BaseRun executes the full pipeline like Run and captures the converged
// state so subsequent Fork calls can re-simulate incrementally. The returned
// result is byte-identical to Run's.
func (e *Engine) BaseRun(inputs []netmodel.Route, flows []netmodel.Flow) *Result {
	res, _ := e.baseRun(nil, inputs, flows)
	return res
}

// BaseRunCtx is BaseRun with cancellation. On a cancelled context it returns
// ctx's error and leaves the engine without a base capture (Fork still
// panics), so a partial run can never seed warm restarts.
func (e *Engine) BaseRunCtx(ctx context.Context, inputs []netmodel.Route, flows []netmodel.Flow) (*Result, error) {
	return e.baseRun(ctx, inputs, flows)
}

func (e *Engine) baseRun(ctx context.Context, inputs []netmodel.Route, flows []netmodel.Flow) (*Result, error) {
	bc := &baseCapture{inputs: inputs, flows: flows}
	e.base = bc
	if e.opts.DisableIncremental {
		res, err := e.runCtx(ctx, inputs, flows)
		if err != nil {
			e.base = nil
			return nil, err
		}
		bc.routes = res.Routes
		if res.Traffic != nil {
			bc.traffic = res.Traffic.Traffic
			bc.flowECs = res.Traffic.ECStats
		}
		return res, nil
	}

	bgpOpts := bgp.Options{
		Profiles:          e.opts.Profiles,
		MaxRounds:         e.opts.MaxRounds,
		FlawedASPathRegex: e.opts.FlawedASPathRegex,
		UseTEMetric:       e.opts.UseTEMetric,
		Legacy:            e.opts.DisableIndex,
		Parallelism:       e.opts.Parallelism,
		Ctx:               ctx,
	}
	reps := inputs
	if !e.opts.DisableRouteECs {
		bc.routeECs = ec.ComputeRouteECs(e.net, e.opts.Profiles, inputs, e.opts.Parallelism)
		reps = bc.routeECs.Representatives()
	}
	bc.reps = reps
	bres, st := bgp.SimulateWithState(e.net, e.igp, reps, bgpOpts)
	if err := ctxErr(ctx); err != nil {
		e.base = nil
		return nil, err
	}
	bc.bgpState = st
	if bc.routeECs != nil {
		for _, t := range bres.Tables() {
			e.expandRIB(bc.routeECs, bres.RIB(t.Device, t.VRF))
		}
	}
	routes := &RouteResult{BGP: bres, ECStats: bc.routeECs}
	bc.routes = routes
	// Materialize the global RIB now: forks (possibly concurrent) reference
	// its blocks.
	routes.GlobalRIB()

	var tr *TrafficResult
	if len(flows) > 0 {
		bc.basePrefixCount = make(map[netip.Prefix]int)
		for _, t := range bres.Tables() {
			for _, p := range bres.RIB(t.Device, t.VRF).Prefixes() {
				bc.basePrefixCount[p]++
			}
		}
		repFlows := flows
		if !e.opts.DisableFlowECs {
			bc.flowECs = ec.ComputeFlowECs(e.net, ec.RIBPrefixes(routes.GlobalRIB().Rows()), flows, e.opts.Parallelism)
			repFlows = bc.flowECs.Representatives()
		}
		bc.repFlows = repFlows
		fw := e.forwarderCtx(ctx, e.net, e.igp, routes)
		trr, traces := fw.SimulateTraced(repFlows)
		if err := ctxErr(ctx); err != nil {
			e.base = nil
			return nil, err
		}
		bc.traffic, bc.traces = trr, traces
		tr = &TrafficResult{Traffic: trr, ECStats: bc.flowECs}
	}
	return &Result{Routes: routes, Traffic: tr}, nil
}

// HasBase reports whether a completed BaseRun capture is available.
func (e *Engine) HasBase() bool { return e.base != nil }

// BaseResult reassembles the result of the last completed BaseRun from the
// capture (nil before any BaseRun). Long-lived services hold the engine and
// re-read the base through this instead of re-running it.
func (e *Engine) BaseResult() *Result {
	if e.base == nil || e.base.routes == nil {
		return nil
	}
	res := &Result{Routes: e.base.routes}
	if e.base.traffic != nil {
		res.Traffic = &TrafficResult{Traffic: e.base.traffic, ECStats: e.base.flowECs}
	}
	return res
}

// Fork simulates a what-if scenario derived from the base run. net must be
// the engine's network already mutated to reflect d (toggled links/nodes) —
// it may be the engine's own network temporarily toggled, or a clone.
//
// With incrementality enabled (and BaseRun called first), the fork recomputes
// SPF only for touched sources, warm-starts the BGP fixpoint from the base
// converged state, and re-forwards only the flows whose traced devices
// changed. The result is byte-identical to building a fresh engine on net and
// running it on the delta-adjusted inputs — Options.DisableIncremental takes
// exactly that reference path.
func (e *Engine) Fork(net *config.Network, d Delta) (*Result, ForkStats) {
	res, stats, _ := e.forkCtx(nil, net, d, 0)
	return res, stats
}

// ForkCtx is Fork with cancellation: every stage (SPF recompute, warm BGP
// fixpoint, flow re-forwarding) polls ctx and the call returns ctx's error
// (with a nil result) as soon as cancellation is observed, so a
// deadline-exceeded what-if query stops burning CPU promptly. The base
// capture is never mutated by an abandoned fork.
func (e *Engine) ForkCtx(ctx context.Context, net *config.Network, d Delta) (*Result, ForkStats, error) {
	return e.forkCtx(ctx, net, d, 0)
}

// ForkCtxN is ForkCtx with a per-fork parallelism cap: every parallel stage
// of this fork (SPF recompute, EC recomputation, global-RIB fill, flow
// re-forwarding, and the from-scratch fallback; the warm BGP fixpoint is
// sequential) runs with at most parallelism workers instead of the
// engine-wide setting. Zero or negative
// keeps the engine's own Options.Parallelism. serve uses this to cap each
// tenant query at a fraction of the machine while the base engine keeps its
// full fan-out. Results are byte-identical at every setting.
func (e *Engine) ForkCtxN(ctx context.Context, net *config.Network, d Delta, parallelism int) (*Result, ForkStats, error) {
	return e.forkCtx(ctx, net, d, parallelism)
}

func (e *Engine) forkCtx(ctx context.Context, net *config.Network, d Delta, parallelism int) (*Result, ForkStats, error) {
	if e.base == nil {
		panic("core: Engine.Fork requires a prior BaseRun")
	}
	if parallelism <= 0 {
		parallelism = e.opts.Parallelism
	}
	var stats ForkStats
	inputs := applyInputDelta(e.base.inputs, d)
	flows := e.base.flows

	// Nodes coming up invalidate every per-source SPF bound and (transitively)
	// most BGP state; it is not a hot path, so take the reference route.
	if e.opts.DisableIncremental || e.base.bgpState == nil || len(d.NodesUp) > 0 {
		stats.Full = true
		opts := e.opts
		opts.Parallelism = parallelism
		res, err := newEngineCtx(ctx, net, opts).runCtx(ctx, inputs, flows)
		if err != nil {
			return nil, stats, err
		}
		return res, stats, nil
	}

	igp, touched, spfStats := isis.Recompute(net.Topo, e.igp, isis.Delta{
		Links:     d.links(),
		NodesDown: d.NodesDown,
		NodesUp:   d.NodesUp,
	}, isis.Options{UseTEMetric: e.opts.UseTEMetric, Parallelism: parallelism, Legacy: e.opts.DisableIndex, Ctx: ctx})
	stats.SPFSources = spfStats.Sources
	stats.SPFReused = spfStats.Reused
	if err := ctxErr(ctx); err != nil {
		return nil, stats, err
	}

	// Per-destination IGP diffs for each recomputed source: distance changes
	// drive BGP re-decisions, first-hop changes drive flow invalidation. Most
	// touched sources change only a handful of destinations, so both consumers
	// get far smaller dirty sets than "everything at a touched source".
	distChanged := make(map[string]map[string]bool)
	hopsChanged := make(map[string]map[string]bool)
	for src, t := range touched {
		if !t {
			continue
		}
		dc, hc := isis.Diff(e.igp, igp, src)
		if len(dc) > 0 {
			distChanged[src] = dc
		}
		if len(hc) > 0 {
			hopsChanged[src] = hc
		}
	}

	// The route-EC partition depends only on configurations and inputs, so it
	// survives any pure topology delta.
	reps := e.base.reps
	routeECs := e.base.routeECs
	if d.inputsChanged() {
		if e.opts.DisableRouteECs {
			reps = inputs
		} else {
			routeECs = ec.ComputeRouteECs(net, e.opts.Profiles, inputs, parallelism)
			reps = routeECs.Representatives()
		}
	}

	bres, rstats := e.base.bgpState.ResimulateCtx(ctx, net, igp, reps, bgp.Delta{
		DistChanged:  distChanged,
		ChangedLinks: d.links(),
		NodesDown:    d.NodesDown,
	})
	stats.BGPTablesTotal = rstats.TablesTotal
	stats.BGPTablesDirty = rstats.TablesDirty
	stats.BGPRounds = rstats.Rounds
	if err := ctxErr(ctx); err != nil {
		return nil, stats, err
	}
	routes := &RouteResult{BGP: bres, ECStats: routeECs}
	// ribDiff narrows flow invalidation from "visited a changed device" to
	// "a changed prefix at a visited device covers the flow's destination".
	// countDelta tracks per-prefix table-count changes so the flow-EC
	// partition check below needs no materialized global RIB — the global RIB
	// itself is built lazily, only for intents that actually read it.
	var ribDiff map[string][]netip.Prefix
	var countDelta map[netip.Prefix]int
	if !d.inputsChanged() {
		ribDiff, countDelta = e.patchTables(bres, rstats, routeECs, routes, d, &stats)
	} else {
		// The warm restart carries the engine-wide parallelism; the fork's cap
		// bounds its global-RIB fill.
		routes.globalFn = func() *netmodel.GlobalRIB { return bres.GlobalRIBN(parallelism) }
		for _, t := range bres.Tables() {
			if routeECs == nil {
				break // tables stay as simulated
			}
			rt := bres.RIB(t.Device, t.VRF)
			if len(rstats.ChangedPrefixes[t]) == 0 {
				// A table the restart never wrote may alias the captured base
				// state (copy-on-write); clone before expanding in place.
				rt = rt.ShallowClone()
				bres.SetRIB(t.Device, t.VRF, rt)
			}
			e.expandRIB(routeECs, rt)
		}
	}

	var tr *TrafficResult
	if len(flows) > 0 {
		// The flow-EC partition is a function of configurations, flows, and
		// the distinct-prefix set of the global RIB; reuse it when that set is
		// unchanged (and with it, the traced base forwarding).
		var samePartition bool
		if countDelta != nil {
			samePartition = partitionUnchanged(e.base.basePrefixCount, countDelta)
		} else {
			samePartition = prefixSetMatchesCount(prefixSet(routes.GlobalRIB().Rows()), e.base.basePrefixCount)
		}
		flowECs := e.base.flowECs
		repFlows := e.base.repFlows
		if !samePartition && !e.opts.DisableFlowECs {
			// Block by block: a shared fork's RIB is a view, never flattened here.
			flowECs = ec.ComputeFlowECs(net, ec.RIBPrefixes(routes.GlobalRIB().Blocks()...), flows, parallelism)
			repFlows = flowECs.Representatives()
		}
		fw := e.forwarderCtxN(ctx, net, igp, routes, parallelism)
		var trr *traffic.Result
		if samePartition && e.base.traffic != nil {
			// With a per-prefix RIB diff available, a changed BGP table alone
			// no longer condemns every flow through its device; only the
			// structural delta (flipped links, downed nodes) does.
			var changed map[string]bool
			if ribDiff != nil {
				changed = structuralDeviceSet(d)
			} else {
				changed = changedDeviceSet(rstats.ChangedDevices, d)
			}
			var reused int
			trr, _, reused = fw.Resimulate(repFlows, e.base.traffic, e.base.traces, changed, hopsChanged, ribDiff)
			stats.FlowsReused = reused
		} else {
			trr = fw.Simulate(repFlows)
		}
		stats.FlowsTotal = len(repFlows)
		tr = &TrafficResult{Traffic: trr, ECStats: flowECs}
	}
	if err := ctxErr(ctx); err != nil {
		return nil, stats, err
	}
	return &Result{Routes: routes, Traffic: tr}, stats, nil
}

// patchTables finishes a topology-only fork's tables at (table, prefix)
// granularity. The EC partition is the base run's, so a table's expansion
// differs from the base's only where the warm restart installed different
// rows (rstats.ChangedPrefixes) and at those representatives' members. A table
// without such prefixes is the base's expanded table itself; any other is a
// ShallowClone of it with those prefixes rebuilt (ec.Reexpand) and the base
// table's LPM index carried forward, patched at them. From the rebuilt
// prefixes alone it derives the per-device prefixes whose rows forward
// differently and the per-prefix change in the number of tables holding it.
func (e *Engine) patchTables(bres *bgp.Result, rstats *bgp.ResimStats, routeECs *ec.RouteECs, routes *RouteResult, d Delta, stats *ForkStats) (ribDiff map[string][]netip.Prefix, countDelta map[netip.Prefix]int) {
	base := e.base.routes
	ribDiff = make(map[string][]netip.Prefix, len(rstats.ChangedDevices))
	countDelta = make(map[netip.Prefix]int)
	rebuilt := make(map[bgp.Table][]netip.Prefix, len(rstats.ChangedPrefixes))
	blockOf := "" // the device whose block RIBRowsRebuilt already counts
	for _, t := range bres.Tables() {
		baseRIB := base.BGP.RIB(t.Device, t.VRF)
		changed := rstats.ChangedPrefixes[t]
		if len(changed) == 0 {
			bres.SetRIB(t.Device, t.VRF, baseRIB)
			continue
		}
		forked, rt := bres.RIB(t.Device, t.VRF), baseRIB.ShallowClone()
		var pfx []netip.Prefix
		if routeECs != nil {
			pfx = routeECs.Reexpand(rt, forked, changed)
		} else {
			for p := range changed {
				rt.ReplaceOwned(p, forked.Routes(p))
				pfx = append(pfx, p)
			}
		}
		rt.PatchLPM(baseRIB, pfx)
		bres.SetRIB(t.Device, t.VRF, rt)
		rebuilt[t] = pfx
		if t.Device != blockOf {
			blockOf = t.Device
			stats.RIBRowsRebuilt += len(base.GlobalRIB().Block(t.Device))
		}
		for _, p := range pfx {
			was, is := baseRIB.Routes(p), rt.Routes(p)
			stats.RIBRowsChanged += len(is)
			// Once into the table; the block holds the base block's rows, at p these.
			stats.RIBRowsRebuilt += len(is) + len(is) - len(was)
			if len(was) == 0 && len(is) > 0 {
				countDelta[p]++
			} else if len(was) > 0 && len(is) == 0 {
				countDelta[p]--
			}
			if !traffic.SameForwarding(was, is) {
				ribDiff[t.Device] = append(ribDiff[t.Device], p)
			}
		}
	}
	// Purged devices' tables are gone from the fork result entirely, so the
	// loop above never sees them; retire their prefixes here.
	if len(d.NodesDown) > 0 {
		for _, t := range base.BGP.Tables() {
			if !slices.Contains(d.NodesDown, t.Device) {
				continue
			}
			for _, p := range base.BGP.RIB(t.Device, t.VRF).Prefixes() {
				countDelta[p]--
			}
		}
	}
	blockRows := stats.RIBRowsRebuilt - stats.RIBRowsChanged
	routes.globalFn = func() *netmodel.GlobalRIB {
		return e.mergedGlobalRIB(bres, rstats.ChangedDevices, rebuilt, blockRows)
	}
	return ribDiff, countDelta
}

// mergedGlobalRIB builds a topology-only fork's global RIB as a view of the
// base's: a device the restart left alone keeps the base's block, a purged
// one (no table) drops out, and a changed one's block is the base block
// re-emitted with the rebuilt prefixes' rows spliced in — one pass, no lookup
// or sort for unchanged prefixes. That reproduces a full re-sort, the
// canonical order being device, VRF, prefix. rows sizes the new blocks.
func (e *Engine) mergedGlobalRIB(bres *bgp.Result, changed map[string]bool, rebuilt map[bgp.Table][]netip.Prefix, rows int) *netmodel.GlobalRIB {
	base := e.base.routes.GlobalRIB()
	fresh := make([]netmodel.Route, 0, rows)
	var block []netmodel.Route // what is left of the current device's base block
	dev := ""
	for _, t := range bres.Tables() {
		if !changed[t.Device] {
			continue
		}
		if t.Device != dev {
			dev, block = t.Device, base.Block(t.Device)
		}
		// The table's run of the base block; tables come in VRF order.
		lo := sort.Search(len(block), func(i int) bool { return block[i].VRF >= t.VRF })
		hi := lo + sort.Search(len(block)-lo, func(i int) bool { return block[lo+i].VRF != t.VRF })
		run := block[lo:hi]
		block = block[hi:]
		if pfx, ok := rebuilt[t]; ok {
			fresh = bres.RIB(t.Device, t.VRF).AppendSpliced(fresh, run, pfx)
		} else {
			fresh = append(fresh, run...)
		}
	}
	return base.ReplaceDevices(changed, fresh)
}

// forwarderCtx builds a traffic forwarder over an arbitrary snapshot/IGP
// pair, threading the cancellation context into its per-flow loops.
func (e *Engine) forwarderCtx(ctx context.Context, net *config.Network, igp *isis.Result, ribs traffic.RIBSource) *traffic.Forwarder {
	return e.forwarderCtxN(ctx, net, igp, ribs, e.opts.Parallelism)
}

// forwarderCtxN is forwarderCtx with an explicit parallelism bound (forks
// capped below the engine-wide setting).
func (e *Engine) forwarderCtxN(ctx context.Context, net *config.Network, igp *isis.Result, ribs traffic.RIBSource, parallelism int) *traffic.Forwarder {
	return traffic.NewForwarder(net, igp, ribs, traffic.Options{
		Profiles:    e.opts.Profiles,
		IgnoreACLs:  e.opts.IgnoreACLs,
		IgnorePBR:   e.opts.IgnorePBR,
		Parallelism: parallelism,
		Legacy:      e.opts.DisableIndex,
		Ctx:         ctx,
	})
}

// expandRIB applies the route-EC expansion through the engine's index mode.
func (e *Engine) expandRIB(ecs *ec.RouteECs, rib *netmodel.RIB) {
	if e.opts.DisableIndex {
		ecs.ExpandRIBLegacy(rib)
	} else {
		ecs.ExpandRIB(rib)
	}
}

// changedDeviceSet is the set of devices whose forwarding-relevant state
// differs from base in ways a flow trace's device set captures: changed BGP
// tables and the endpoints of every flipped element. Changed IGP first hops
// are matched per (device, target) against the trace's recorded IGP queries
// instead — see traffic.Trace.Touches.
func changedDeviceSet(bgpChanged map[string]bool, d Delta) map[string]bool {
	out := structuralDeviceSet(d)
	for dev := range bgpChanged {
		out[dev] = true
	}
	return out
}

// structuralDeviceSet is the devices whose adjacency or existence the delta
// touches: endpoints of flipped links plus flipped nodes. Forwarding consults
// their link state and local delivery directly, outside RIB and IGP lookups.
func structuralDeviceSet(d Delta) map[string]bool {
	out := make(map[string]bool, 2*len(d.LinksDown)+2*len(d.LinksUp))
	for _, id := range d.links() {
		out[id.A] = true
		out[id.B] = true
	}
	for _, n := range d.NodesDown {
		out[n] = true
	}
	for _, n := range d.NodesUp {
		out[n] = true
	}
	return out
}

// applyInputDelta mirrors change.Plan.ApplyInputs: drops by route key, then
// appends.
func applyInputDelta(inputs []netmodel.Route, d Delta) []netmodel.Route {
	if !d.inputsChanged() {
		return inputs
	}
	drop := make(map[netmodel.RouteKey]bool, len(d.DropInputs))
	for _, r := range d.DropInputs {
		drop[r.Key()] = true
	}
	var out []netmodel.Route
	for _, r := range inputs {
		if !drop[r.Key()] {
			out = append(out, r)
		}
	}
	return append(out, d.AddInputs...)
}

func prefixSet(rows []netmodel.Route) map[netip.Prefix]bool {
	out := make(map[netip.Prefix]bool)
	for _, r := range rows {
		out[r.Prefix] = true
	}
	return out
}

// partitionUnchanged reports whether applying the per-prefix table-count
// delta to the base counts leaves the distinct-prefix set unchanged (no
// prefix's count crosses zero in either direction).
func partitionUnchanged(baseCount, delta map[netip.Prefix]int) bool {
	for p, dlt := range delta {
		if dlt == 0 {
			continue
		}
		n := baseCount[p]
		if (n+dlt > 0) != (n > 0) {
			return false
		}
	}
	return true
}

func prefixSetMatchesCount(set map[netip.Prefix]bool, count map[netip.Prefix]int) bool {
	if len(set) != len(count) {
		return false
	}
	for p := range set {
		if count[p] == 0 {
			return false
		}
	}
	return true
}
