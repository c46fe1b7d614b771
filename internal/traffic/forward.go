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
	"strings"

	"hoyan/internal/config"
	"hoyan/internal/isis"
	"hoyan/internal/netmodel"
	"hoyan/internal/par"
	"hoyan/internal/vsb"
)

// RIBSource supplies routing tables per (device, vrf). Both *bgp.Result and
// RIB file sets loaded by the distributed framework implement it.
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
	for name, d := range net.Devices {
		set := make(map[netip.Addr]bool, len(d.Interfaces)+2)
		if d.Loopback.IsValid() {
			set[d.Loopback] = true
		}
		for _, i := range d.Interfaces {
			if i.Addr.IsValid() {
				set[i.Addr.Addr()] = true
			}
		}
		f.owned[name] = set
	}
	return f
}

// Result of a traffic simulation.
type Result struct {
	// Paths holds the representative (hash-chosen) path per flow, in input
	// order.
	Paths []FlowPath
	// Load is the per-link traffic volume with ECMP even-splitting.
	Load netmodel.LinkLoad
}

// FlowPath pairs a flow with its simulated forwarding path.
type FlowPath struct {
	Flow netmodel.Flow
	Path netmodel.Path
}

// Simulate forwards every flow and aggregates link loads.
func (f *Forwarder) Simulate(flows []netmodel.Flow) *Result {
	res, _, _ := f.forward(flows, false, nil, nil, nil)
	return res
}

// forward is the one forwarding loop behind Simulate, SimulateTraced and
// Resimulate. Flow i keeps base.Paths[i] and baseTraces[i] when reuse(i)
// holds and is walked otherwise (every flow is walked when reuse is nil); a
// traced walk records the flow's Trace, an untraced one passes a nil recorder
// and allocates no trace maps. Walked flows fan out over Options.Parallelism
// workers, each filling only its flow's slots, and the link shares are summed
// sequentially in flow order afterwards, so the floating-point additions
// happen in exactly the sequential path's order and the result is
// byte-identical at any parallelism and whatever subset was walked.
func (f *Forwarder) forward(flows []netmodel.Flow, traced bool, reuse func(i int) bool, base *Result, baseTraces []Trace) (res *Result, traces []Trace, reused int) {
	if len(flows) == 0 {
		return &Result{Load: make(netmodel.LinkLoad)}, nil, 0
	}
	paths := make([]FlowPath, len(flows))
	traces = make([]Trace, len(flows))
	var redo []int
	for i := range flows {
		if reuse != nil && reuse(i) {
			paths[i], traces[i] = base.Paths[i], baseTraces[i]
			reused++
		} else {
			redo = append(redo, i)
		}
	}
	par.ForEach(f.opts.Parallelism, len(redo), func(j int) {
		if f.opts.ctxDone() {
			return
		}
		i := redo[j]
		var rec *Trace
		if traced {
			rec = &traces[i]
		}
		paths[i] = FlowPath{Flow: flows[i], Path: f.path(flows[i], rec)}
		traces[i].contribs = f.loadContribs(flows[i], rec)
	})
	// Accumulate into a flat per-LinkIdx array: each link's additions happen
	// in flow order, as in a sequential merge.
	acc := make([]float64, f.idx.NumLinks())
	touched := make([]bool, f.idx.NumLinks())
	for i := range traces {
		for _, c := range traces[i].contribs {
			acc[c.lidx] += c.volume
			touched[c.lidx] = true
		}
	}
	res = &Result{Paths: paths, Load: make(netmodel.LinkLoad)}
	for li, t := range touched {
		if t {
			res.Load[f.idx.LinkIDAt(netmodel.LinkIdx(li))] = acc[li]
		}
	}
	return res, traces, reused
}

// Path computes the representative forwarding path of one flow, choosing one
// ECMP branch per hop by 5-tuple hash.
func (f *Forwarder) Path(fl netmodel.Flow) netmodel.Path {
	return f.path(fl, nil)
}

// path is Path with optional trace recording: rec accumulates every device
// whose forwarding state the walk consulted.
func (f *Forwarder) path(fl netmodel.Flow, rec *Trace) netmodel.Path {
	var path netmodel.Path
	cur := fl.Ingress
	inIface := ""
	// Visited set: a flat per-DevID slice, with a lazy map fallback for names
	// outside the topology index.
	visited := make([]bool, f.idx.NumDevices())
	var visitedM map[string]bool
	wasVisited := func(dev string) bool {
		if id, ok := f.idx.DevID(dev); ok {
			if visited[id] {
				return true
			}
			visited[id] = true
			return false
		}
		if visitedM == nil {
			visitedM = map[string]bool{}
		}
		if visitedM[dev] {
			return true
		}
		visitedM[dev] = true
		return false
	}
	h := flowHash(fl)
	for hop := 0; hop < maxHops; hop++ {
		if wasVisited(cur) {
			path.Hops = append(path.Hops, netmodel.Hop{Device: cur})
			path.Exit = netmodel.ExitLoop
			return path
		}

		rec.see(cur)
		step := f.step(cur, inIface, fl, rec)
		if step.exit != exitNone {
			path.Hops = append(path.Hops, netmodel.Hop{Device: cur})
			path.Exit = exitReason(step.exit)
			return path
		}
		// Pick one branch by hash.
		nh := step.branches[int(h)%len(step.branches)]
		path.Hops = append(path.Hops, netmodel.Hop{Device: cur, Link: nh.link})
		cur = nh.device
		inIface = nh.remoteIface
	}
	path.Hops = append(path.Hops, netmodel.Hop{Device: cur})
	path.Exit = netmodel.ExitLoop
	return path
}

// linkShare is one link's slice of a flow's volume, in the order the BFS
// visits it — replaying a flow's shares in order reproduces the sequential
// accumulation exactly. lidx is the link's dense index: every fork of a
// network holds the same links, so an index taken on the base stays valid.
type linkShare struct {
	lidx   netmodel.LinkIdx
	volume float64
}

// loadContribs walks the flow's ECMP fan-out and returns the volume share it
// places on every traversed link, splitting evenly at each branch point. rec
// (optional) accumulates the devices and IGP queries the walk consults.
func (f *Forwarder) loadContribs(fl netmodel.Flow, rec *Trace) []linkShare {
	type state struct {
		device  string
		inIface string
		volume  float64
		depth   int
	}
	var out []linkShare
	queue := []state{{device: fl.Ingress, volume: fl.Volume}}
	// visits caps work on pathological loops.
	visits := 0
	for len(queue) > 0 && visits < 4*maxHops {
		st := queue[0]
		queue = queue[1:]
		visits++
		if st.depth >= maxHops {
			continue
		}
		rec.see(st.device)
		step := f.step(st.device, st.inIface, fl, rec)
		if step.exit != exitNone {
			continue
		}
		share := st.volume / float64(len(step.branches))
		for _, br := range step.branches {
			out = append(out, linkShare{lidx: br.lidx, volume: share})
			queue = append(queue, state{device: br.device, inIface: br.remoteIface, volume: share, depth: st.depth + 1})
		}
	}
	return out
}

type branch struct {
	device      string // next device
	link        netmodel.LinkID
	lidx        netmodel.LinkIdx // dense link index
	remoteIface string           // interface name on the next device (for its ACL-in)
}

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

type stepResult struct {
	exit     stepExit
	branches []branch
}

// step decides what device dev does with the flow: terminate or forward
// along one or more equal-cost branches. rec (optional) accumulates the IGP
// first-hop queries the step makes.
func (f *Forwarder) step(dev, inIface string, fl netmodel.Flow, rec *Trace) stepResult {
	d := f.net.Devices[dev]
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
		return f.applyEgressACL(d, fl, f.toward(d, nh, fl, rec))
	}
	// Longest prefix match over best routes. When the RIB has no match the
	// flow may still be deliverable through the IGP (router loopbacks and
	// link subnets are IS-IS routes, not BGP ones).
	rib := f.ribs.RIB(dev, netmodel.DefaultVRF)
	_, best, ok := rib.LongestMatch(fl.Dst)
	if !ok {
		return f.toward(d, fl.Dst, fl, rec)
	}
	// Direct route: destination is on-subnet but not ours — the flow leaves
	// the modelled network here (e.g. toward an un-modelled server).
	if best[0].Protocol == netmodel.ProtoDirect {
		return stepResult{exit: exitDelivered}
	}
	var out stepResult
	exitSeen := exitNoRoute
	for _, r := range best {
		br := f.toward(d, r.NextHop, fl, rec)
		if br.exit != exitNone {
			if exitSeen == exitNoRoute {
				exitSeen = br.exit
			}
			continue
		}
		out.branches = append(out.branches, br.branches...)
	}
	if len(out.branches) == 0 {
		out.exit = exitSeen
		return out
	}
	f.dedupeBranches(&out.branches)
	return f.applyEgressACL(d, fl, out)
}

// applyEgressACL drops branches whose local egress interface carries a
// denying ACL; the flow is ACL-denied when every branch is blocked.
func (f *Forwarder) applyEgressACL(d *config.Device, fl netmodel.Flow, sr stepResult) stepResult {
	if sr.exit != exitNone {
		return sr
	}
	kept := sr.branches[:0]
	for _, br := range sr.branches {
		l := f.net.Topo.Link(br.link)
		if l == nil {
			continue
		}
		iface := l.AIface
		if l.B == d.Name {
			iface = l.BIface
		}
		if i := d.Interfaces[iface]; i != nil && i.ACLOut != "" {
			if acl := d.ACLs[i.ACLOut]; acl != nil && !acl.Permits(fl) {
				continue
			}
		}
		kept = append(kept, br)
	}
	if len(kept) == 0 {
		return stepResult{exit: exitACL}
	}
	sr.branches = kept
	return sr
}

// toward resolves a next-hop address into concrete branches (or an exit).
func (f *Forwarder) toward(d *config.Device, nh netip.Addr, fl netmodel.Flow, rec *Trace) stepResult {
	if !nh.IsValid() {
		return stepResult{exit: exitNoRoute}
	}
	owner := f.net.Topo.AddrOwner(nh)
	if owner == "" {
		// Off-network next hop: if it is on a directly connected subnet the
		// flow exits to a peer; otherwise it is unroutable.
		for _, i := range d.Interfaces {
			if i.Addr.IsValid() && i.Addr.Masked().Contains(nh) {
				return stepResult{exit: exitToPeer}
			}
		}
		return stepResult{exit: exitNoRoute}
	}
	if owner == d.Name {
		return stepResult{exit: exitDelivered}
	}
	// SR policy with explicit segments: first segment decides the next
	// device (the tunnel path then continues hop by hop since intermediate
	// devices also follow their SR/IGP state; explicit segments are resolved
	// by routing toward the first segment device).
	target := owner
	if sp := f.srPolicyFor(d, nh, owner); sp != nil && len(sp.Segments) > 0 {
		if f.net.Topo.Node(sp.Segments[0]) != nil {
			target = sp.Segments[0]
		}
	}
	// Directly connected to the target through the link holding nh? A CSR
	// scan of the device's links; on a (degenerate) duplicate-address tie the
	// first link in insertion order wins.
	if devID, ok := f.idx.DevID(d.Name); ok {
		bestPos, bestIns := int32(-1), int32(0)
		lo, hi := f.idx.EdgeRange(devID)
		for pos := lo; pos < hi; pos++ {
			l := f.idx.EdgeLink(pos)
			if !l.Up {
				continue
			}
			nbAddr := l.AAddr
			if f.idx.EdgeFromA(pos) {
				nbAddr = l.BAddr
			}
			if nbAddr != nh || f.idx.DevName(f.idx.EdgeDev(pos)) != target {
				continue
			}
			ins := f.idx.InsertionOrder(f.idx.EdgeLinkIdx(pos))
			if bestPos < 0 || ins < bestIns {
				bestPos, bestIns = pos, ins
			}
		}
		if bestPos >= 0 {
			l := f.idx.EdgeLink(bestPos)
			iface := l.AIface
			if f.idx.EdgeFromA(bestPos) {
				iface = l.BIface
			}
			return stepResult{branches: []branch{{
				device:      f.idx.DevName(f.idx.EdgeDev(bestPos)),
				link:        f.idx.LinkIDAt(f.idx.EdgeLinkIdx(bestPos)),
				lidx:        f.idx.EdgeLinkIdx(bestPos),
				remoteIface: iface,
			}}}
		}
	}
	// Recursive resolution through the IGP.
	rec.dep(d.Name, target)
	devID, okD := f.idx.DevID(d.Name)
	tgtID, okT := f.idx.DevID(target)
	if !okD || !okT {
		return stepResult{exit: exitNoRoute}
	}
	poss := f.igp.FirstHopEdges(devID, tgtID)
	if len(poss) == 0 {
		return stepResult{exit: exitNoRoute}
	}
	var out stepResult
	for _, pos := range poss {
		l := f.idx.EdgeLink(pos)
		if l == nil || !l.Up {
			continue
		}
		iface := l.AIface
		if f.idx.EdgeFromA(pos) {
			iface = l.BIface
		}
		out.branches = append(out.branches, branch{
			device:      f.idx.DevName(f.idx.EdgeDev(pos)),
			link:        f.idx.LinkIDAt(f.idx.EdgeLinkIdx(pos)),
			lidx:        f.idx.EdgeLinkIdx(pos),
			remoteIface: iface,
		})
	}
	if len(out.branches) == 0 {
		return stepResult{exit: exitLinkDown}
	}
	f.dedupeBranches(&out.branches)
	return out
}

func (f *Forwarder) srPolicyFor(d *config.Device, nh netip.Addr, owner string) *config.SRPolicy {
	for _, sp := range d.SRPolicies {
		epOwner := f.net.Topo.AddrOwner(sp.Endpoint)
		if sp.Endpoint == nh || (epOwner != "" && epOwner == owner) {
			return sp
		}
	}
	return nil
}

// pbrNextHop finds an applicable PBR rule. At the injection point (no
// ingress interface) any bound policy applies; mid-path only the ingress
// interface's policy applies.
func (f *Forwarder) pbrNextHop(d *config.Device, inIface string, fl netmodel.Flow) (netip.Addr, bool) {
	var names []string
	if inIface != "" {
		if i := d.Interfaces[inIface]; i != nil && i.PBR != "" {
			names = []string{i.PBR}
		}
	} else {
		seen := map[string]bool{}
		for _, i := range d.Interfaces {
			if i.PBR != "" && !seen[i.PBR] {
				names = append(names, i.PBR)
				seen[i.PBR] = true
			}
		}
		slices.Sort(names)
	}
	for _, name := range names {
		for _, rule := range d.PBRPolicies[name] {
			if rule.Match.Matches(fl) {
				return rule.NextHop, true
			}
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

// dedupeBranches sorts branches into (device, link) order and removes exact
// duplicates. The link order comes from the dense link index, which is
// assigned in LinkID-string order.
func (f *Forwarder) dedupeBranches(bs *[]branch) {
	slices.SortFunc(*bs, func(a, b branch) int {
		if c := strings.Compare(a.device, b.device); c != 0 {
			return c
		}
		return int(a.lidx) - int(b.lidx)
	})
	out := (*bs)[:0]
	var last branch
	for i, b := range *bs {
		if i == 0 || b != last {
			out = append(out, b)
		}
		last = b
	}
	*bs = out
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
