// Package traffic simulates packet forwarding: given the simulated RIBs, it
// computes the forwarding path of every input flow and aggregates per-link
// traffic loads (the Jingubang/Yu capability folded into Hoyan, §3.1).
//
// Forwarding at each hop honors PBR steering, ingress/egress ACLs, longest
// prefix match over best routes, recursive next-hop resolution through the
// IGP, SR tunnels with explicit segment lists, and ECMP. Flow volume is
// split evenly across equal-cost branches for load computation; a
// deterministic 5-tuple hash picks the representative path.
package traffic

import (
	"context"
	"net/netip"
	"slices"

	"hoyan/internal/config"
	"hoyan/internal/isis"
	"hoyan/internal/netmodel"
	"hoyan/internal/par"
	"hoyan/internal/vsb"
)

// RIBSource supplies routing tables per (device, vrf). The engine's
// *core.RouteResult (a run's or a fork's tables) and the *netmodel.RIBSet a
// fleet's traffic subtask cuts from the RIB files it loads implement it.
type RIBSource interface {
	RIB(device, vrf string) *netmodel.RIB
}

// Options tunes the forwarding simulation.
type Options struct {
	// Profiles supplies vendor behaviours (unused VSBs are harmless here).
	Profiles vsb.Profiles
	// Parallelism bounds the worker pool forwarding flows in Simulate
	// (par conventions: 0 = GOMAXPROCS, 1 = sequential). Every per-flow walk
	// is read-only over the snapshot, IGP, and RIBs.
	Parallelism int

	// Ctx, when non-nil, is polled before each per-flow walk; once it is done
	// the remaining flows are skipped and the (incomplete) result must be
	// discarded by the caller.
	Ctx context.Context
}

// ctxDone reports whether opts carries a cancelled context.
func (o Options) ctxDone() bool {
	return o.Ctx != nil && o.Ctx.Err() != nil
}

// maxHops bounds a path's length before the walk declares a loop.
const maxHops = 64

// maxVisits caps the states one flow's ECMP fan-out dequeues, against
// pathological loops; a flow that reaches it with states still queued is
// counted in Result.Capped.
const maxVisits = 4 * maxHops

// Forwarder computes flow paths over a network snapshot and its RIBs.
type Forwarder struct {
	net  *config.Network
	igp  *isis.Result
	ribs RIBSource
	opts Options

	// idx is the dense-ID topology index the IGP result was computed
	// against, so recursive resolution walks first-hop edge positions.
	idx *netmodel.TopoIndex

	// owned holds each device's locally terminated addresses (loopbacks and
	// interface addresses), replacing the per-hop interface scan of ownsAddr.
	owned map[string]map[netip.Addr]bool
	// pbr holds each device's PBR policy names bound to any interface,
	// sorted and unique: the policies that apply at the injection point.
	pbr map[string][]string
}

// NewForwarder builds a forwarder over the given snapshot. It panics when igp
// was computed on a topology other than net's: its dense IDs would name other
// devices and links.
func NewForwarder(net *config.Network, igp *isis.Result, ribs RIBSource, opts Options) *Forwarder {
	if opts.Profiles == nil {
		opts.Profiles = vsb.Defaults()
	}
	f := &Forwarder{net: net, igp: igp, ribs: ribs, opts: opts, idx: net.Topo.Index()}
	if igp == nil || igp.EdgeIndex() != f.idx {
		panic("traffic: the IGP result was computed on another topology than the network's")
	}
	f.owned = make(map[string]map[netip.Addr]bool, len(net.Devices))
	f.pbr = make(map[string][]string)
	for name, d := range net.Devices {
		set := make(map[netip.Addr]bool, len(d.Interfaces)+2)
		if d.Loopback.IsValid() {
			set[d.Loopback] = true
		}
		var pbr []string
		for _, i := range d.Interfaces {
			if i.Addr.IsValid() {
				set[i.Addr.Addr()] = true
			}
			if i.PBR != "" {
				pbr = append(pbr, i.PBR)
			}
		}
		f.owned[name] = set
		if len(pbr) > 0 {
			slices.Sort(pbr)
			f.pbr[name] = slices.Compact(pbr)
		}
	}
	return f
}

// Result of a traffic simulation.
type Result struct {
	// Paths holds the representative (hash-chosen) path per flow, in input
	// order.
	Paths []netmodel.FlowPath
	// Load is the per-link traffic volume with ECMP even-splitting.
	Load netmodel.LinkLoad
	// Capped counts the flows whose ECMP fan-out reached its visit cap (256
	// dequeued states) with states still queued: Load leaves out the volume
	// those states carried.
	Capped int
}

// Simulate forwards every flow and aggregates link loads.
func (f *Forwarder) Simulate(flows []netmodel.Flow) *Result {
	res, _, _ := f.forward(flows, false, nil, nil, nil)
	return res
}

// forward is the one forwarding loop behind Simulate, SimulateTraced and
// Resimulate. Flow i keeps base.Paths[k] and baseTraces[k]'s shares when
// k = reuse(i) is not negative and is walked otherwise (every flow is walked
// when reuse is nil); a traced walk records the flow's devices and IGP
// queries, an untraced one records neither and traces is nil. Walked flows
// fan out over Options.Parallelism workers, each filling only its flow's
// slots with a walker of its own, and the link shares are summed
// sequentially in flow order afterwards, so the floating-point additions
// happen in exactly the sequential path's order and the result is
// byte-identical at any parallelism and whatever subset was walked.
func (f *Forwarder) forward(flows []netmodel.Flow, traced bool, reuse func(i int) int, base *Result, baseTraces []Trace) (res *Result, traces []Trace, reused int) {
	if len(flows) == 0 {
		return &Result{Load: make(netmodel.LinkLoad)}, nil, 0
	}
	paths := make([]netmodel.FlowPath, len(flows))
	outs := make([]Trace, len(flows))
	var redo []int
	for i := range flows {
		k := -1
		if reuse != nil {
			k = reuse(i)
		}
		if k < 0 {
			redo = append(redo, i)
			continue
		}
		paths[i], outs[i] = base.Paths[k], baseTraces[k]
		reused++
	}
	// At most Workers walkers are ever out at once: par.ForEach runs no more
	// goroutines, and each holds one walker per flow.
	free := make(chan *walker, par.Workers(f.opts.Parallelism))
	par.ForEach(f.opts.Parallelism, len(redo), func(j int) {
		if f.opts.ctxDone() {
			return
		}
		var w *walker
		select {
		case w = <-free:
		default:
			w = f.newWalker()
		}
		i := redo[j]
		w.start(flows[i], traced)
		paths[i] = netmodel.FlowPath{Flow: flows[i], Path: w.path()}
		outs[i].contribs, outs[i].capped = w.fanOut()
		if traced {
			w.finishTrace(&outs[i])
		}
		free <- w
	})
	// Accumulate into a flat per-LinkIdx array: each link's additions happen
	// in flow order, as in a sequential merge.
	acc := make([]float64, f.idx.NumLinks())
	touched := make([]bool, f.idx.NumLinks())
	res = &Result{Paths: paths, Load: make(netmodel.LinkLoad)}
	for i := range outs {
		for _, c := range outs[i].contribs {
			acc[c.lidx] += c.volume
			touched[c.lidx] = true
		}
		if outs[i].capped {
			res.Capped++
		}
	}
	for li, t := range touched {
		if t {
			res.Load[f.idx.LinkIDAt(netmodel.LinkIdx(li))] = acc[li]
		}
	}
	if traced {
		traces = outs
	}
	return res, traces, reused
}

// Path computes the representative forwarding path of one flow, choosing one
// ECMP branch per hop by 5-tuple hash.
func (f *Forwarder) Path(fl netmodel.Flow) netmodel.Path {
	w := f.newWalker()
	w.start(fl, false)
	return w.path()
}

// linkShare is one link's slice of a flow's volume, in the order the BFS
// visits it — replaying a flow's shares in order reproduces the sequential
// accumulation exactly. lidx is the link's dense index, valid against the
// index it was taken on: a share is only reused on an index whose links are
// the base's (see Trace).
type linkShare struct {
	lidx   netmodel.LinkIdx
	volume float64
}

// branch is one way a device forwards a flow: the CSR edge position, in the
// forwarding device's row of the forwarder's TopoIndex, of the link it sends
// the flow over. The next device, the link and the interface the flow enters
// the next device on are all read from the index.
type branch int32

type stepExit uint8

const (
	exitNone stepExit = iota
	exitDelivered
	exitToPeer
	exitNoRoute
	exitACL
	exitLinkDown
)

func exitReason(e stepExit) netmodel.ExitReason {
	switch e {
	case exitDelivered:
		return netmodel.ExitDelivered
	case exitToPeer:
		return netmodel.ExitToPeer
	case exitACL:
		return netmodel.ExitACLDenied
	case exitLinkDown:
		return netmodel.ExitLinkDown
	}
	return netmodel.ExitNoRoute
}

// stepResult is what a device does with the flow: an exit, or forwarding
// along the branches w.arena[lo:hi] of the walker that computed it.
type stepResult struct {
	exit   stepExit
	lo, hi int32
}

// walker forwards flows one at a time for one worker of a forward call. A
// flow's state is the edge it arrived on (-1: injected at the ingress), which
// names both the device and its ingress interface; the walker computes each
// state's step once per flow and both the representative path and the ECMP
// fan-out read the memo. Its buffers carry over from flow to flow; what a
// flow keeps is copied out at its exact length.
type walker struct {
	f      *Forwarder
	fl     netmodel.Flow
	traced bool
	// ingress is the flow's ingress DevID, NoDev outside the index.
	ingress netmodel.DevID

	// gen stamps the memo and visited slots the current flow wrote, so a new
	// flow clears neither.
	gen     uint32
	memo    []memoSlot // by arrival edge position + 1; slot 0 is the ingress
	visited []uint32   // by DevID: the gen whose path walk visited it
	// steps holds the flow's computed steps, one per state reached.
	steps []stepResult
	// arena holds the branches of every step the flow computed. A memoized
	// step's branches are read-only: filtering and sorting happen only on a
	// fresh step's tail, before it is memoized.
	arena []branch

	hops   []netmodel.Hop
	queue  []queued
	shares []linkShare
	devs   []netmodel.DevID
	deps   []igpQuery
}

type memoSlot struct {
	gen  uint32
	step int32
}

// queued is one state of the ECMP fan-out with the volume it carries.
type queued struct {
	in     int32
	volume float64
	depth  int
}

func (f *Forwarder) newWalker() *walker {
	return &walker{
		f:       f,
		memo:    make([]memoSlot, f.idx.NumEdges()+1),
		visited: make([]uint32, f.idx.NumDevices()),
	}
}

// start readies the walker for flow fl.
func (w *walker) start(fl netmodel.Flow, traced bool) {
	w.fl, w.traced = fl, traced
	w.ingress = netmodel.NoDev
	if id, ok := w.f.idx.DevID(fl.Ingress); ok {
		w.ingress = id
	}
	w.gen++
	w.steps, w.arena, w.devs, w.deps = w.steps[:0], w.arena[:0], w.devs[:0], w.deps[:0]
}

// state resolves an arrival edge (-1: the ingress) into the device the flow
// is at and the interface it entered on ("" at the ingress).
func (w *walker) state(in int32) (name string, dev netmodel.DevID, inIface string) {
	if in < 0 {
		return w.fl.Ingress, w.ingress, ""
	}
	ix := w.f.idx
	dev = ix.EdgeDev(in)
	l := ix.EdgeLink(in)
	inIface = l.AIface
	if ix.EdgeFromA(in) {
		inIface = l.BIface
	}
	return ix.DevName(dev), dev, inIface
}

// step is the memoized forwarding decision at state in.
func (w *walker) step(in int32) stepResult {
	slot := &w.memo[in+1]
	if slot.gen == w.gen {
		return w.steps[slot.step]
	}
	name, dev, inIface := w.state(in)
	sr := w.compute(name, dev, inIface)
	slot.gen, slot.step = w.gen, int32(len(w.steps))
	w.steps = append(w.steps, sr)
	return sr
}

// path walks the flow's representative path, one hash-chosen branch per hop.
func (w *walker) path() netmodel.Path {
	ix := w.f.idx
	hops := w.hops[:0]
	h := flowHash(w.fl)
	in, name, dev := int32(-1), w.fl.Ingress, w.ingress
	exit := netmodel.ExitLoop
	for hop := 0; hop < maxHops; hop++ {
		if dev != netmodel.NoDev {
			if w.visited[dev] == w.gen {
				break
			}
			w.visited[dev] = w.gen
		}
		sr := w.step(in)
		if sr.exit != exitNone {
			exit = exitReason(sr.exit)
			break
		}
		bs := w.arena[sr.lo:sr.hi]
		nh := int32(bs[int(h)%len(bs)])
		hops = append(hops, netmodel.Hop{Device: name, Link: ix.LinkIDAt(ix.EdgeLinkIdx(nh))})
		in, dev = nh, ix.EdgeDev(nh)
		name = ix.DevName(dev)
	}
	hops = append(hops, netmodel.Hop{Device: name})
	w.hops = hops
	out := make([]netmodel.Hop, len(hops))
	copy(out, hops)
	return netmodel.Path{Hops: out, Exit: exit}
}

// fanOut walks the flow's ECMP fan-out breadth first and returns the volume
// share it places on every traversed link, splitting evenly at each branch
// point, and whether it stopped at maxVisits with states still queued.
func (w *walker) fanOut() (shares []linkShare, capped bool) {
	ix := w.f.idx
	q := append(w.queue[:0], queued{in: -1, volume: w.fl.Volume})
	out := w.shares[:0]
	head := 0
	for ; head < len(q) && head < maxVisits; head++ {
		st := q[head]
		if st.depth >= maxHops {
			continue
		}
		sr := w.step(st.in)
		if sr.exit != exitNone {
			continue
		}
		share := st.volume / float64(sr.hi-sr.lo)
		for _, br := range w.arena[sr.lo:sr.hi] {
			out = append(out, linkShare{lidx: ix.EdgeLinkIdx(int32(br)), volume: share})
			q = append(q, queued{in: int32(br), volume: share, depth: st.depth + 1})
		}
	}
	w.queue, w.shares = q, out
	if len(out) > 0 {
		shares = make([]linkShare, len(out))
		copy(shares, out)
	}
	return shares, head < len(q)
}

// compute decides what device name (dev in the index) does with the flow
// entering on inIface: terminate or forward along one or more equal-cost
// branches, appended to w.arena. A traced walker records the device and the
// IGP first-hop queries the step makes.
func (w *walker) compute(name string, dev netmodel.DevID, inIface string) stepResult {
	if w.traced {
		w.devs = append(w.devs, dev)
	}
	f, fl := w.f, w.fl
	d := f.net.Devices[name]
	if d == nil {
		return stepResult{exit: exitNoRoute}
	}
	// Ingress ACL.
	if inIface != "" {
		if i := d.Interfaces[inIface]; i != nil && i.ACLIn != "" {
			if acl := d.ACLs[i.ACLIn]; acl != nil && !acl.Permits(fl) {
				return stepResult{exit: exitACL}
			}
		}
	}
	// Local delivery.
	if f.ownsAddr(d, fl.Dst) {
		return stepResult{exit: exitDelivered}
	}
	// PBR bound to the ingress interface (or any interface at injection).
	if nh, ok := f.pbrNextHop(d, inIface, fl); ok {
		return w.applyEgressACL(d, w.toward(d, dev, nh))
	}
	// Longest prefix match over best routes. When the RIB has no match the
	// flow may still be deliverable through the IGP (router loopbacks and
	// link subnets are IS-IS routes, not BGP ones).
	rib := f.ribs.RIB(name, netmodel.DefaultVRF)
	_, best, ok := rib.LongestMatch(fl.Dst)
	if !ok {
		return w.toward(d, dev, fl.Dst)
	}
	// Direct route: destination is on-subnet but not ours — the flow leaves
	// the modelled network here (e.g. toward an un-modelled server).
	if best[0].Protocol == netmodel.ProtoDirect {
		return stepResult{exit: exitDelivered}
	}
	// Each route's branches land contiguously at the arena's tail; a route
	// that exits adds none.
	lo := int32(len(w.arena))
	exitSeen := exitNoRoute
	for _, r := range best {
		if br := w.toward(d, dev, r.NextHop); br.exit != exitNone && exitSeen == exitNoRoute {
			exitSeen = br.exit
		}
	}
	if int32(len(w.arena)) == lo {
		return stepResult{exit: exitSeen}
	}
	return w.applyEgressACL(d, w.dedupe(lo))
}

// applyEgressACL drops branches whose local egress interface carries a
// denying ACL; the flow is ACL-denied when every branch is blocked. sr must
// be fresh: its branches are the arena's tail, filtered in place.
func (w *walker) applyEgressACL(d *config.Device, sr stepResult) stepResult {
	if sr.exit != exitNone {
		return sr
	}
	ix := w.f.idx
	kept := sr.lo
	for _, br := range w.arena[sr.lo:sr.hi] {
		l := ix.EdgeLink(int32(br))
		iface := l.BIface
		if ix.EdgeFromA(int32(br)) {
			iface = l.AIface
		}
		if i := d.Interfaces[iface]; i != nil && i.ACLOut != "" {
			if acl := d.ACLs[i.ACLOut]; acl != nil && !acl.Permits(w.fl) {
				continue
			}
		}
		w.arena[kept] = br
		kept++
	}
	w.arena = w.arena[:kept]
	if kept == sr.lo {
		return stepResult{exit: exitACL}
	}
	sr.hi = kept
	return sr
}

// toward resolves a next-hop address into concrete branches, appended to
// w.arena, or an exit, which appends none.
func (w *walker) toward(d *config.Device, dev netmodel.DevID, nh netip.Addr) stepResult {
	if !nh.IsValid() {
		return stepResult{exit: exitNoRoute}
	}
	f, ix := w.f, w.f.idx
	owner := ix.AddrOwnerID(nh)
	if owner == netmodel.NoDev {
		// Off-network next hop: if it is on a directly connected subnet the
		// flow exits to a peer; otherwise it is unroutable.
		for _, i := range d.Interfaces {
			if i.Addr.IsValid() && i.Addr.Masked().Contains(nh) {
				return stepResult{exit: exitToPeer}
			}
		}
		return stepResult{exit: exitNoRoute}
	}
	if owner == dev {
		return stepResult{exit: exitDelivered}
	}
	// SR policy with explicit segments: first segment decides the next
	// device (the tunnel path then continues hop by hop since intermediate
	// devices also follow their SR/IGP state; explicit segments are resolved
	// by routing toward the first segment device).
	target := owner
	if sp := f.srPolicyFor(d, nh, owner); sp != nil && len(sp.Segments) > 0 {
		if id, ok := ix.DevID(sp.Segments[0]); ok {
			target = id
		}
	}
	if dev == netmodel.NoDev {
		return stepResult{exit: exitNoRoute}
	}
	lo := int32(len(w.arena))
	// Directly connected to the target through the link holding nh? A CSR
	// scan of the device's links; on a (degenerate) duplicate-address tie the
	// first link in insertion order wins.
	bestPos, bestIns := int32(-1), int32(0)
	rlo, rhi := ix.EdgeRange(dev)
	for pos := rlo; pos < rhi; pos++ {
		l := ix.EdgeLink(pos)
		if !l.Up {
			continue
		}
		nbAddr := l.AAddr
		if ix.EdgeFromA(pos) {
			nbAddr = l.BAddr
		}
		if nbAddr != nh || ix.EdgeDev(pos) != target {
			continue
		}
		ins := ix.InsertionOrder(ix.EdgeLinkIdx(pos))
		if bestPos < 0 || ins < bestIns {
			bestPos, bestIns = pos, ins
		}
	}
	if bestPos >= 0 {
		w.arena = append(w.arena, branch(bestPos))
		return stepResult{lo: lo, hi: lo + 1}
	}
	// Recursive resolution through the IGP.
	if w.traced {
		w.deps = append(w.deps, igpQuery{dev, target})
	}
	for _, pos := range f.igp.FirstHopEdges(dev, target) {
		if l := ix.EdgeLink(pos); l != nil && l.Up {
			w.arena = append(w.arena, branch(pos))
		}
	}
	if int32(len(w.arena)) == lo {
		return stepResult{exit: exitLinkDown}
	}
	return w.dedupe(lo)
}

// dedupe sorts the fresh branches w.arena[lo:] and removes exact duplicates.
// Every branch is an edge position in one device's CSR row, whose positions
// ascend in (next device, link) order, so this is (device name, LinkID)
// order.
func (w *walker) dedupe(lo int32) stepResult {
	bs := w.arena[lo:]
	slices.Sort(bs)
	bs = slices.Compact(bs)
	w.arena = w.arena[:lo+int32(len(bs))]
	return stepResult{lo: lo, hi: int32(len(w.arena))}
}

func (f *Forwarder) srPolicyFor(d *config.Device, nh netip.Addr, owner netmodel.DevID) *config.SRPolicy {
	for _, sp := range d.SRPolicies {
		epOwner := f.idx.AddrOwnerID(sp.Endpoint)
		if sp.Endpoint == nh || (epOwner != netmodel.NoDev && epOwner == owner) {
			return sp
		}
	}
	return nil
}

// pbrNextHop finds an applicable PBR rule. At the injection point (no
// ingress interface) any bound policy applies, in name order; mid-path only
// the ingress interface's policy applies.
func (f *Forwarder) pbrNextHop(d *config.Device, inIface string, fl netmodel.Flow) (netip.Addr, bool) {
	if inIface != "" {
		if i := d.Interfaces[inIface]; i != nil && i.PBR != "" {
			return pbrMatch(d.PBRPolicies[i.PBR], fl)
		}
		return netip.Addr{}, false
	}
	for _, name := range f.pbr[d.Name] {
		if nh, ok := pbrMatch(d.PBRPolicies[name], fl); ok {
			return nh, true
		}
	}
	return netip.Addr{}, false
}

// pbrMatch returns the next hop of the first rule matching fl.
func pbrMatch(rules []config.PBRRule, fl netmodel.Flow) (netip.Addr, bool) {
	for _, rule := range rules {
		if rule.Match.Matches(fl) {
			return rule.NextHop, true
		}
	}
	return netip.Addr{}, false
}

// ownsAddr reports whether the device terminates the address locally, from
// the prebuilt owned-address set. The invalid address matches an unset
// loopback.
func (f *Forwarder) ownsAddr(d *config.Device, a netip.Addr) bool {
	if a.IsValid() {
		return f.owned[d.Name][a]
	}
	return !d.Loopback.IsValid()
}

// flowHash is FNV-1a over the 5-tuple, computed inline (byte-identical to
// hash/fnv over AsSlice bytes) so per-flow hashing does not allocate.
func flowHash(fl netmodel.Flow) uint32 {
	const prime = 16777619
	h := uint32(2166136261)
	mixAddr := func(a netip.Addr) {
		switch {
		case !a.IsValid():
		case a.Is4():
			b := a.As4()
			for _, x := range b {
				h = (h ^ uint32(x)) * prime
			}
		default:
			b := a.As16()
			for _, x := range b {
				h = (h ^ uint32(x)) * prime
			}
		}
	}
	mixAddr(fl.Src)
	mixAddr(fl.Dst)
	for _, x := range [5]byte{byte(fl.SrcPort >> 8), byte(fl.SrcPort), byte(fl.DstPort >> 8), byte(fl.DstPort), byte(fl.Proto)} {
		h = (h ^ uint32(x)) * prime
	}
	return h
}
