package core

import (
	"context"
	"fmt"
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
// link and node up/down flips, replaced, added and removed device
// configurations, and input-route changes.
type Delta struct {
	LinksDown []netmodel.LinkID
	LinksUp   []netmodel.LinkID
	NodesDown []string
	NodesUp   []string

	// Configs replaces the named devices' configurations (a change plan,
	// change.Plan.Delta): a name the network does not have adds a device, a
	// nil entry removes one. Each restarts inside the warm restart: it is
	// purged like a downed device and re-originates like one coming up.
	Configs map[string]*config.Device

	// AddInputs / DropInputs adjust the input route set (DropInputs matches
	// by route key, exactly like change.Plan.ApplyInputs).
	AddInputs  []netmodel.Route
	DropInputs []netmodel.Route

	// topo, in an undo, is the topology to restore.
	topo *netmodel.Topology
}

func (d Delta) inputsChanged() bool {
	return len(d.AddInputs) > 0 || len(d.DropInputs) > 0
}

// links returns every link whose Up state the delta flips.
func (d Delta) links() []netmodel.LinkID {
	return slices.Concat(d.LinksDown, d.LinksUp)
}

// purged is every device the warm restart purges: the downed, reconfigured,
// added and removed ones.
func (d Delta) purged() []string {
	out := slices.Clone(d.NodesDown)
	for name := range d.Configs {
		out = append(out, name)
	}
	return out
}

// Apply makes net agree with d and returns the undo. It changes only the
// elements not already in their target state (a configuration is, when net
// holds that very *config.Device), so applying d to a network that already
// reflects it changes nothing, and undo restores exactly what this call
// changed. Configurations go first: when one changes what the topology
// derives (config.ChangesTopology, or a device added or removed), net.Topo is
// derived again, every down flag of a node or link that survives carried
// over, and the undo restores the old *Topology. The toggles then apply to the
// topology net has: one naming a link or device it does not have is an
// error, and net is left as it was.
func (d Delta) Apply(net *config.Network) (undo func(), err error) {
	_, back, err := d.flip(net)
	if err != nil {
		return nil, err
	}
	return func() { back.flip(net) }, nil
}

// flip is Apply returning what it changed — the sub-delta of d's topology and
// configuration elements that were not yet in their target state — and the
// delta that changes it back.
func (d Delta) flip(net *config.Network) (flipped, back Delta, err error) {
	rederive := false
	for name, dev := range d.Configs {
		was := net.Devices[name]
		if was == dev {
			continue
		}
		if flipped.Configs == nil {
			flipped.Configs, back.Configs = make(map[string]*config.Device), make(map[string]*config.Device)
		}
		flipped.Configs[name], back.Configs[name] = dev, was
		rederive = rederive || was == nil || dev == nil || config.ChangesTopology(was, dev)
		if dev == nil {
			delete(net.Devices, name)
		} else {
			net.Devices[name] = dev
		}
	}
	switch {
	case d.topo != nil:
		net.Topo = d.topo
	case rederive:
		back.topo, net.Topo = net.Topo, net.Topology()
		for _, n := range back.topo.Nodes() {
			net.Topo.SetNodeUp(n.Name, n.Up)
		}
		for _, l := range back.topo.Links() {
			net.Topo.SetLinkUp(l.ID(), l.Up)
		}
	}
	for _, id := range d.links() {
		if net.Topo.Link(id) == nil {
			back.flip(net)
			return Delta{}, Delta{}, fmt.Errorf("core: delta names link %s, which the network does not have", id)
		}
	}
	for _, name := range slices.Concat(d.NodesDown, d.NodesUp) {
		if net.Topo.Node(name) == nil {
			back.flip(net)
			return Delta{}, Delta{}, fmt.Errorf("core: delta names device %q, which the network does not have", name)
		}
	}
	links := func(ids []netmodel.LinkID, up bool) (flipped []netmodel.LinkID) {
		for _, id := range ids {
			if net.Topo.Link(id).Up != up {
				net.Topo.SetLinkUp(id, up)
				flipped = append(flipped, id)
			}
		}
		return flipped
	}
	nodes := func(names []string, up bool) (flipped []string) {
		for _, name := range names {
			if net.Topo.Node(name).Up != up {
				net.Topo.SetNodeUp(name, up)
				flipped = append(flipped, name)
			}
		}
		return flipped
	}
	flipped.LinksDown, flipped.LinksUp = links(d.LinksDown, false), links(d.LinksUp, true)
	flipped.NodesDown, flipped.NodesUp = nodes(d.NodesDown, false), nodes(d.NodesUp, true)
	if back.topo == nil { // restoring the old topology restores its flags
		back.LinksDown, back.LinksUp, back.NodesDown, back.NodesUp = flipped.LinksUp, flipped.LinksDown, flipped.NodesUp, flipped.NodesDown
	}
	return flipped, back, nil
}

// ApplyInputs is the input route set under d: DropInputs removed by route
// key, then AddInputs appended. Without input changes it is inputs itself.
func (d Delta) ApplyInputs(inputs []netmodel.Route) []netmodel.Route {
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

// ForkStats reports how much work an incremental Fork avoided.
type ForkStats struct {
	// Full is always false: every fork is a warm restart of the base run.
	// It stays for readers that still report it.
	Full bool

	SPFSources int // up sources in the scenario topology
	SPFReused  int // sources whose base SPF result was reused

	BGPTablesTotal int // tables in the base converged state
	BGPTablesDirty int // tables seeded dirty in the warm restart
	BGPRounds      int // fixpoint rounds the warm restart ran

	FlowsTotal  int // representative flows forwarded
	FlowsReused int // flows whose base path/load was reused

	// The fork's RIB work in rows. Changed: the rows its expanded tables hold
	// at the (table, prefix) pairs it rebuilt, the only ones that can differ
	// from base. Rebuilt: the rows it writes — each changed row into its table
	// and into its device's global-RIB block, plus the base rows that block
	// copies around them (the block is written on the first read of that
	// device's block, if any: Rebuilt counts what a full read of the view
	// writes).
	RIBRowsChanged int
	RIBRowsRebuilt int
}

// baseCapture is everything BaseRun saves so Fork can warm-start: the inputs
// and flows, what BGP and the forwarder simulated, the converged BGP state
// (its tables as simulated, before route-EC expansion), the base global-RIB
// prefix counts, the base traces, and the base result.
type baseCapture struct {
	inputs []netmodel.Route
	flows  []netmodel.Flow

	reps     []netmodel.Route // what BGP actually simulated
	bgpState *bgp.State

	// basePrefixCount maps each prefix of the base global RIB to the number
	// of (device, vrf) tables holding it, so forks can decide whether their
	// distinct-prefix set matches the base, and derive it, from per-table
	// diffs alone.
	basePrefixCount map[netip.Prefix]int
	repFlows        []netmodel.Flow // what the forwarder actually simulated
	traces          []traffic.Trace

	// res is the base run's result: its tables, views of its global RIB's
	// rows, are shared into forks verbatim where unchanged, its global RIB
	// lends its device blocks to fork global RIBs, and its EC partitions and
	// traffic are what forks re-partition and re-forward against.
	res *Result
}

// BaseRun executes the full pipeline like Run and captures the converged
// state so subsequent Fork calls can re-simulate incrementally. The returned
// result is byte-identical to Run's.
func (e *Engine) BaseRun(inputs []netmodel.Route, flows []netmodel.Flow) *Result {
	res, _ := e.BaseRunCtx(nil, inputs, flows)
	return res
}

// BaseRunCtx is BaseRun with cancellation. On a cancelled context it returns
// ctx's error and leaves the engine without a base capture (Fork still
// panics), so a partial run can never seed warm restarts.
func (e *Engine) BaseRunCtx(ctx context.Context, inputs []netmodel.Route, flows []netmodel.Flow) (*Result, error) {
	e.base = nil
	bc := &baseCapture{inputs: inputs, flows: flows}
	res, err := e.run(ctx, inputs, flows, bc)
	if err != nil {
		return nil, err
	}
	e.base = bc
	return res, nil
}

// BaseResult is the result of the last completed BaseRun (nil before any
// BaseRun). Long-lived services hold the engine and re-read the base through
// this instead of re-running it.
func (e *Engine) BaseResult() *Result {
	if e.base == nil {
		return nil
	}
	return e.base.res
}

// WhatIf simulates the base run's network under d. The engine applies d to a
// scratch clone of its own network (Delta.Apply), forks, and undoes the flips
// before returning, so callers hold no network and concurrent calls are safe.
// Elements already in their target state on the base network are no-ops; a
// link or device the network does not have is an error. parallelism is
// ForkCtxN's, and so is everything else.
func (e *Engine) WhatIf(ctx context.Context, d Delta, parallelism int) (*Result, ForkStats, error) {
	scratch := e.scratch.Get().(*config.Network)
	defer e.scratch.Put(scratch)
	// The fork is given what flipped, not d: an element already in its target
	// state on the base network is no part of the scenario.
	scenario, back, err := d.flip(scratch)
	if err != nil {
		return nil, ForkStats{}, err
	}
	defer back.flip(scratch)
	scenario.AddInputs, scenario.DropInputs = d.AddInputs, d.DropInputs
	return e.fork(ctx, scratch, scenario, parallelism)
}

// Fork simulates a what-if scenario derived from the base run on a network
// the caller supplies: the engine's own or a clone of it, which may already
// reflect d — Delta.Apply flips what does not yet and flips it back before
// returning. It panics where ForkCtxN returns an error. Callers without a
// network of their own use WhatIf.
//
// The fork recomputes SPF only for touched sources, warm-starts the BGP
// fixpoint from the base converged state, and re-forwards only the flows the
// delta reaches: a representative flow that its base class also had, with the
// same volume, keeps its base path and loads unless its trace visited a
// flipped, downed or reconfigured device, made an IGP first-hop query whose
// answer changed, or read a RIB prefix the fork changed, added or retired
// that covers its destination. The result is byte-identical to building a
// fresh engine on net and running it on the delta-adjusted inputs.
func (e *Engine) Fork(net *config.Network, d Delta) (*Result, ForkStats) {
	res, stats, err := e.ForkCtxN(nil, net, d, 0)
	if err != nil {
		panic(err)
	}
	return res, stats
}

// ForkCtxN is Fork with cancellation and a per-fork parallelism cap. Every
// stage (SPF recompute, warm BGP fixpoint, flow re-forwarding) polls ctx and
// the call returns ctx's error (with a nil result) as soon as cancellation is
// observed, so a deadline-exceeded what-if query stops burning CPU promptly;
// the base capture is never mutated by an abandoned fork. Every parallel
// stage of this fork (SPF recompute, EC recomputation, flow re-forwarding;
// the warm BGP fixpoint is sequential) runs with at most parallelism workers
// instead of the engine-wide setting. Zero or negative keeps the engine's own
// Options.Parallelism. serve uses this to cap each tenant query at a fraction
// of the machine while the base engine keeps its full fan-out. Results are
// byte-identical at every setting.
func (e *Engine) ForkCtxN(ctx context.Context, net *config.Network, d Delta, parallelism int) (*Result, ForkStats, error) {
	undo, err := d.Apply(net)
	if err != nil {
		return nil, ForkStats{}, err
	}
	defer undo()
	return e.fork(ctx, net, d, parallelism)
}

// fork runs d on net, which reflects it. Base traces name devices and links
// by the base's topology index, so it reuses them only while net's index is
// the base's (configurations that derive the base's topology, with every
// address owned as before); on any other it forwards every flow.
func (e *Engine) fork(ctx context.Context, net *config.Network, d Delta, parallelism int) (*Result, ForkStats, error) {
	if e.base == nil {
		panic("core: Engine.Fork requires a prior BaseRun")
	}
	if parallelism <= 0 {
		parallelism = e.opts.Parallelism
	}
	var stats ForkStats
	inputs := d.ApplyInputs(e.base.inputs)
	flows := e.base.flows

	// A configuration may have derived another topology: SPF then runs in
	// full, the IGP is diffed by device name, and every link added, removed
	// or changed is a changed link to the warm restart.
	links, spfBase, diff, bandwidth := d.links(), e.igp, isis.Diff, e.base.res.Bandwidth
	var readdressed map[string]bool
	sameIndex := true // the fork's index names the base's devices, links and address owners
	if len(d.Configs) > 0 {
		changed, moved, same := e.igp.EdgeIndex().Changes(net.Topo.Index())
		if !same {
			links, spfBase, diff, bandwidth = slices.Concat(links, changed), nil, isis.DiffByName, net.Topo.Bandwidths()
		}
		readdressed = moved
		sameIndex = same && len(moved) == 0
	}
	igp, touched, spfStats := isis.Recompute(net.Topo, spfBase, isis.Delta{
		Links:     links,
		NodesDown: d.NodesDown,
		NodesUp:   d.NodesUp,
	}, isis.Options{Parallelism: parallelism, Ctx: ctx})
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
		dc, hc := diff(e.igp, igp, src)
		if len(dc) > 0 {
			distChanged[src] = dc
		}
		if len(hc) > 0 {
			hopsChanged[src] = hc
		}
	}

	// The route-EC partition depends only on configurations (prefix lists,
	// aggregates) and inputs, so it survives any pure topology delta. An input
	// or configuration delta re-partitions the inputs, and the prefixes whose
	// expansion that can change (moved) are rebuilt along with the changed ones.
	reps := e.base.reps
	baseECs := e.base.res.Routes.ECStats
	routeECs := baseECs
	var moved []netip.Prefix
	if d.inputsChanged() || len(d.Configs) > 0 {
		if e.opts.DisableRouteECs {
			reps = inputs
		} else {
			routeECs = ec.ComputeRouteECs(net, e.opts.Profiles, inputs, parallelism)
			reps = routeECs.Representatives()
			moved = routeECs.Expansion().Moved(baseECs.Expansion())
		}
	}

	bres, rstats := e.base.bgpState.ResimulateCtx(ctx, net, igp, reps, bgp.Delta{
		DistChanged:  distChanged,
		ChangedLinks: links,
		Purged:       d.purged(),
		Readdressed:  readdressed,
	})
	stats.BGPTablesTotal = rstats.TablesTotal
	stats.BGPTablesDirty = rstats.TablesDirty
	stats.BGPRounds = bres.Rounds
	if err := ctxErr(ctx); err != nil {
		return nil, stats, err
	}
	routes := &RouteResult{BGP: bres, ECStats: routeECs}
	// ribDiff narrows flow invalidation from "visited a changed device" to
	// "a changed prefix at a visited device covers the flow's destination".
	// countDelta tracks per-prefix table-count changes so the flow-EC
	// partition check below reads no global RIB row: the fork's global RIB
	// writes a changed device's block only when it is read.
	ribDiff, countDelta := e.patchTables(bres, rstats, routeECs.Expansion(), moved, routes, d, &stats)

	var tr *TrafficResult
	if len(flows) > 0 {
		// The flow-EC partition is a function of configurations (ACLs, PBR),
		// flows, and the distinct-prefix set of the global RIB. When those are
		// unchanged so are the classes, and each is its base class. Otherwise
		// each new class is mapped to the base class with its representative
		// and volume, if any (FlowECs.Kept): that class forwards as it did.
		base := e.base.res.Traffic
		flowECs, repFlows := base.ECStats, e.base.repFlows
		var baseOf []int32
		if !e.opts.DisableFlowECs && (len(d.Configs) > 0 || !partitionUnchanged(e.base.basePrefixCount, countDelta)) {
			flowECs = ec.ComputeFlowECs(net, forkPrefixes(e.base.basePrefixCount, countDelta), flows, parallelism)
			repFlows = flowECs.Representatives()
			baseOf = flowECs.Kept(base.ECStats)
		}
		// With a per-prefix RIB diff, a changed BGP table alone does not
		// condemn every flow through its device; only the structural delta
		// (flipped links, downed and reconfigured nodes) does. A prefix the
		// fork adds or retires is a changed prefix at every device that holds
		// it.
		traces := e.base.traces
		if !sameIndex {
			// On another index the base traces' IDs name other devices and
			// links; with an address owned anew, a walk can change where no
			// trace shows it (a next hop or an SR endpoint resolving
			// elsewhere). Without traces, Resimulate walks every flow.
			traces = nil
		}
		fw := e.forwarder(ctx, net, igp, routes, parallelism)
		trr, reused := fw.Resimulate(repFlows, baseOf, base.Traffic, traces, structuralDeviceSet(d), hopsChanged, ribDiff)
		stats.FlowsTotal, stats.FlowsReused = len(repFlows), reused
		tr = &TrafficResult{Traffic: trr, ECStats: flowECs}
	}
	if err := ctxErr(ctx); err != nil {
		return nil, stats, err
	}
	return &Result{Routes: routes, Traffic: tr, Bandwidth: bandwidth}, stats, nil
}

// patchTables finishes a fork's tables at (table, prefix) granularity. A
// table's expansion differs from the base's only where the warm restart
// installed different rows (rstats.ChangedPrefixes), at the prefixes an input
// delta's new EC partition moves (moved), and at the members those
// prefixes represent. A table without such prefixes is the base's table
// itself (a view of its global RIB's rows, RouteResult.RIB); any other is an
// Overlay of it holding only those prefixes, rebuilt by x, the fork's
// expansion (netmodel.Expansion.Reexpand; nil with route ECs off, which
// rebuilds the changed prefixes alone). From the rebuilt prefixes alone it
// derives the per-device prefixes whose rows forward differently, the
// per-prefix change in the number of tables holding it, and the row count of
// every changed device's global-RIB block. A reconfigured device's base
// tables count as empty: its tables and its block are rebuilt from the fork's
// alone, and its base prefixes retired like a downed device's.
func (e *Engine) patchTables(bres *bgp.Result, rstats *bgp.ResimStats, x *netmodel.Expansion, moved []netip.Prefix, routes *RouteResult, d Delta, stats *ForkStats) (ribDiff map[string][]netip.Prefix, countDelta map[netip.Prefix]int) {
	base := e.base.res.Routes
	ribDiff = make(map[string][]netip.Prefix)
	countDelta = make(map[netip.Prefix]int)
	rebuilt := make(map[bgp.Table][]netip.Prefix, len(rstats.ChangedPrefixes))
	var rx netmodel.Reexpansion
	// blockRows: each changed device's block row count; purged ones start at 0.
	purged := d.purged()
	slices.Sort(purged)
	purged = slices.Compact(purged)
	blockRows := make(map[string]int, len(purged))
	for _, dev := range purged {
		blockRows[dev] = 0
	}
	blockOf := "" // the device whose base block blockRows already counts
	for _, t := range bres.Tables() {
		baseRIB := base.RIB(t.Device, t.VRF)
		if d.Configs[t.Device] != nil {
			baseRIB = netmodel.NewRIB(t.Device, t.VRF)
		}
		changed := rstats.ChangedPrefixes[t]
		if len(changed)+len(moved) == 0 {
			bres.SetRIB(t.Device, t.VRF, baseRIB)
			continue
		}
		forked, rt := bres.RIB(t.Device, t.VRF), baseRIB.Overlay()
		pfx := x.Reexpand(&rx, rt, forked, changed, moved)
		if len(pfx) == 0 { // moved prefixes, none of them in this table
			bres.SetRIB(t.Device, t.VRF, baseRIB)
			continue
		}
		bres.SetRIB(t.Device, t.VRF, rt)
		rebuilt[t] = pfx
		if t.Device != blockOf {
			blockOf = t.Device
			n := len(e.baseBlock(t.Device, d))
			blockRows[t.Device] += n
			stats.RIBRowsRebuilt += n
		}
		for _, p := range pfx {
			was, is := baseRIB.Routes(p), rt.Routes(p)
			stats.RIBRowsChanged += len(is)
			// Once into the table; the block holds the base block's rows, at p these.
			stats.RIBRowsRebuilt += len(is) + len(is) - len(was)
			blockRows[t.Device] += len(is) - len(was)
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
	// The loop above counted a purged device's base tables as empty (a downed
	// one has none in the fork result); retire their prefixes here.
	for _, dev := range purged {
		eachTablePrefix(base.GlobalRIB().Block(dev), func(p netip.Prefix) { countDelta[p]-- })
	}
	routes.global = e.mergedGlobalRIB(bres, blockRows, rebuilt, d)
	return ribDiff, countDelta
}

// mergedGlobalRIB builds a fork's global RIB as a view of the base's: a device
// the fork left alone keeps the base's block, a purged one (count 0) drops
// out, and a changed one's block is emitted on the first read of it as the
// base block (none, for a device new to the fork or reconfigured by d) with
// the rebuilt prefixes' rows spliced in —
// one pass, no lookup or sort for unchanged prefixes. That reproduces a full
// re-sort, the canonical order being device, VRF, prefix. rows holds each
// changed device's block row count; the emitter reads only the fork's
// finished tables and the base, which stay unchanged.
func (e *Engine) mergedGlobalRIB(bres *bgp.Result, rows map[string]int, rebuilt map[bgp.Table][]netip.Prefix, d Delta) *netmodel.GlobalRIB {
	tables := bres.Tables()
	return e.base.res.Routes.GlobalRIB().ReplaceDevices(rows, func(dev string, dst []netmodel.Route) []netmodel.Route {
		block := e.baseBlock(dev, d) // what is left of the device's base block
		// The device's tables come in VRF order, as do the runs of its block.
		i := sort.Search(len(tables), func(i int) bool { return tables[i].Device >= dev })
		for ; i < len(tables) && tables[i].Device == dev; i++ {
			t := tables[i]
			lo := sort.Search(len(block), func(i int) bool { return block[i].VRF >= t.VRF })
			hi := lo + sort.Search(len(block)-lo, func(i int) bool { return block[lo+i].VRF != t.VRF })
			run := block[lo:hi]
			block = block[hi:]
			if pfx, ok := rebuilt[t]; ok {
				dst = bres.RIB(t.Device, t.VRF).AppendSpliced(dst, run, pfx)
			} else {
				dst = append(dst, run...)
			}
		}
		return dst
	})
}

// baseBlock is dev's block of the base global RIB as a fork under d patches
// it: none for a device d reconfigures.
func (e *Engine) baseBlock(dev string, d Delta) []netmodel.Route {
	if d.Configs[dev] != nil {
		return nil
	}
	return e.base.res.Routes.GlobalRIB().Block(dev)
}

// forwarder builds a traffic forwarder over an arbitrary snapshot/IGP pair,
// threading the cancellation context into its per-flow loops.
func (e *Engine) forwarder(ctx context.Context, net *config.Network, igp *isis.Result, ribs traffic.RIBSource, parallelism int) *traffic.Forwarder {
	return traffic.NewForwarder(net, igp, ribs, traffic.Options{
		Profiles:    e.opts.Profiles,
		Parallelism: parallelism,
		Ctx:         ctx,
	})
}

// structuralDeviceSet is the devices whose adjacency, existence or
// configuration the delta touches: endpoints of flipped links plus flipped and
// reconfigured nodes. Forwarding consults their link state, local delivery,
// ACLs and PBR directly, outside RIB and IGP lookups;
// changed IGP first hops are matched per (device, target) against the trace's
// recorded IGP queries instead — see traffic.Trace.
func structuralDeviceSet(d Delta) map[string]bool {
	out := make(map[string]bool, 2*len(d.LinksDown)+2*len(d.LinksUp))
	for _, id := range d.links() {
		out[id.A] = true
		out[id.B] = true
	}
	for _, n := range slices.Concat(d.NodesUp, d.purged()) {
		out[n] = true
	}
	return out
}

// forkPrefixes is a fork's distinct-prefix set from the base's per-prefix
// table counts and the fork's delta to them: every prefix whose count ends
// above zero. Its order is the map's; the flow-EC partition does not depend
// on it.
func forkPrefixes(baseCount, delta map[netip.Prefix]int) []netip.Prefix {
	out := make([]netip.Prefix, 0, len(baseCount))
	for p, n := range baseCount {
		if n+delta[p] > 0 {
			out = append(out, p)
		}
	}
	for p, dlt := range delta {
		if baseCount[p] == 0 && dlt > 0 {
			out = append(out, p)
		}
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
