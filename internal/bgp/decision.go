package bgp

import (
	"net/netip"
	"slices"

	"hoyan/internal/config"
	"hoyan/internal/netmodel"
	"hoyan/internal/policy"
)

// decideAndAdvertise reruns the decision process for every dirty
// (table, prefix), updates the RIBs, maintains aggregates and VRF leaks, and
// sends the advertisements for the next round (s.round), returning how many
// it sent.
//
// The dirty set arrives as the dense per-table bitset deliver maintained
// (dense.go), iteration order comes from precomputed rank arrays over
// interned IDs instead of sorting strings and prefixes every round,
// per-table configuration (device, profile, policy env, sessions with
// resolved export policies, leak targets, aggregates) is read from the
// cached tableInfo, and the advertisement signature is compared byte-wise
// against the stored string before anything is allocated. The round's
// buffers are reused across rounds — a round's messages are fully consumed
// by deliver before the next call.
func (s *sim) decideAndAdvertise() int {
	s.round.msgs.reset()
	s.round.advs.reset()

	// Deterministic iteration order: tables in (device, vrf) lexical order
	// via the interned rank array, prefixes in LastAddr order via the
	// per-pid LastAddr cache (ties broken by prefix length then address,
	// making the order total).
	trank := s.tableRank()
	tids := s.dirtyTids
	slices.SortFunc(tids, func(a, b int32) int { return int(trank[a]) - int(trank[b]) })

	for ti64, tid := range tids {
		if ti64&63 == 63 && s.ctxDone() {
			break
		}
		ti := s.tinfo[tid]
		k := ti.k
		t := s.own(k)
		pids := s.dirtyPids[tid]
		s.decided += len(pids)
		slices.SortFunc(pids, func(a, b int32) int {
			if c := s.lastAddrs[a].Compare(s.lastAddrs[b]); c != 0 {
				return c
			}
			pa, pb := s.pfxs[a], s.pfxs[b]
			if ba, bb := pa.Bits(), pb.Bits(); ba != bb {
				return ba - bb
			}
			return pa.Addr().Compare(pb.Addr())
		})
		if t.rib == nil {
			hint := s.tableHint(k, t)
			t.rib = netmodel.NewRIBSized(k.dev, k.vrf, hint)
			t.lastAdv.Grow(hint)
		}
		rib := t.rib
		for _, pid := range pids {
			p := s.pfxs[pid]
			best, sorted, rows := s.decide(ti, t, p)
			rib.ReplaceOwned(p, rows)
			sig := appendAdvSignature(s.sigScratch[:0], sorted)
			s.sigScratch = sig
			if t.advOf(p) == string(sig) { // alloc-free comparison
				continue // steady state for this prefix
			}
			t.lastAdv.Set(p, string(sig))
			s.advertise(ti, pid, best, sorted)
			s.leak(ti, pid, best)
			s.updateAggregates(ti, tid, p)
		}
		// Clear this table's dirty marks for the next round.
		mark := s.dirtyMark[tid]
		for _, pid := range pids {
			mark[pid] = false
		}
		s.dirtyPids[tid] = pids[:0]
	}
	s.dirtyTids = tids[:0]
	return s.round.msgs.len()
}

// decide runs best-path selection for one (table, prefix). It returns the
// best (possibly ECMP) candidates, the full resolved candidate list in
// preference order (for add-path), and the finished RIB rows; best and
// sorted point into the sim's scratch buffers that the next decide call
// overwrites, while rows are carved from the grow-only row arena and belong
// to the caller (the RIB adopts them via ReplaceOwned).
func (s *sim) decide(ti *tableInfo, t *table, p netip.Prefix) (best, sorted []cand, rows []netmodel.Route) {
	cands := s.candScratch[:0]
	cands = append(cands, t.locals.Get(p)...)
	byFrom := t.adjIn.Get(p)
	senders := s.fromScratch[:0]
	for from := range byFrom {
		senders = append(senders, from)
	}
	slices.Sort(senders)
	s.fromScratch = senders
	for _, from := range senders {
		cands = append(cands, byFrom[from]...)
	}

	// Resolve next hops and compute IGP costs, mutating the scratch copies in
	// place (a cand embeds a full Route, so by-value resolve cost three big
	// copies per candidate). The stable compaction keeps the resolved
	// candidates in arrival order.
	unresolved := s.unresScratch[:0]
	w := 0
	for i := range cands {
		s.resolve(ti, &cands[i])
		if cands[i].resolved {
			if w != i {
				cands[w] = cands[i]
			}
			w++
		} else {
			unresolved = append(unresolved, cands[i])
		}
	}
	cands = cands[:w]
	s.unresScratch = unresolved
	s.candScratch = cands[:0]

	// Sort an index permutation instead of the candidates themselves: the
	// comparator then shuffles int32s rather than copying a ~150-byte struct
	// pair per comparison. A stable sort of indices initialized in slice order
	// is equivalent to a stable sort of the elements.
	ord := s.ordScratch[:0]
	for i := range cands {
		ord = append(ord, int32(i))
	}
	if len(cands) > 1 {
		slices.SortStableFunc(ord, func(x, y int32) int { return s.cmpCand(&cands[x], &cands[y]) })
	}
	s.ordScratch = ord
	identity := true
	for i, ix := range ord {
		if ix != int32(i) {
			identity = false
			break
		}
	}
	if identity {
		// Arrival order was already preference order (the common steady
		// state): skip materializing the permutation.
		sorted = cands
	} else {
		sorted = s.sortScratch[:0]
		for _, ix := range ord {
			sorted = append(sorted, cands[ix])
		}
		s.sortScratch = sorted
	}

	// Mark best + ECMP. Non-BGP protocols win on Preference alone: the
	// comparator sorts by preference first, so the top candidate's protocol
	// group takes the table.
	maxPaths := ti.maxPaths
	best = s.bestScratch[:0]
	// Exact-size carve from the grow-only row arena; the RIB adopts it in
	// place of Replace's copy (ReplaceOwned).
	if n := len(sorted) + len(unresolved); n > 0 {
		rows = s.takeRows(n)
	}
	for i := range sorted {
		c := &sorted[i]
		r := c.route
		r.IGPCost = c.igpCost
		r.ViaSR = c.viaSR
		if i == 0 {
			r.RouteType = netmodel.RouteBest
			best = append(best, *c)
		} else if len(best) < maxPaths && equalCost(&sorted[0], c) && distinctNextHop(best, c) {
			r.RouteType = netmodel.RouteBest
			best = append(best, *c)
		} else {
			r.RouteType = netmodel.RouteCandidate
		}
		rows = append(rows, r)
	}
	s.bestScratch = best
	// Unresolved candidates stay visible as candidates for diagnosis.
	for i := range unresolved {
		r := unresolved[i].route
		r.RouteType = netmodel.RouteCandidate
		rows = append(rows, r)
	}
	return best, sorted, rows
}

// resolve fills in next-hop reachability, IGP cost, and SR tunnel state.
// The table's dense device ID (cached in ti) feeds the flat-array IGP cost
// lookup and the address-ownership table.
func (s *sim) resolve(ti *tableInfo, c *cand) {
	dev, devID := ti.k.dev, ti.devID
	c.resolved = false
	nh := c.route.NextHop
	if c.local {
		// Locally originated candidates resolve trivially, except statics
		// whose next hop must be reachable.
		if c.route.Protocol == netmodel.ProtoStatic {
			if !s.nextHopUsable(dev, nh) {
				return
			}
		}
		c.resolved, c.igpCost = true, 0
		return
	}
	if !nh.IsValid() {
		return
	}
	ownerID := s.topoIdx.AddrOwnerID(nh)
	if ownerID == netmodel.NoDev {
		// Unknown owner: usable only when on a directly connected subnet
		// (e.g. an un-modelled external peer address).
		if s.onDirectSubnet(dev, nh) {
			c.resolved, c.igpCost = true, 0
		}
		return
	}
	if ownerID == devID {
		c.resolved, c.igpCost = true, 0
		return
	}
	var cost uint32
	var ok bool
	if devID != netmodel.NoDev {
		cost, ok = s.igp.CostID(devID, ownerID)
	}
	if !ok {
		if l := s.net.Topo.FindLink(dev, s.topoIdx.DevName(ownerID)); l != nil {
			cost, ok = l.DirCost(dev), true
		}
	}
	if !ok {
		return
	}
	// SR tunnel: if the device configures an SR policy whose endpoint is the
	// next hop (or the owner's loopback), traffic rides the tunnel. The VSB
	// decides whether the IGP cost is zeroed (Figure 9 root cause).
	if d := ti.dev; d != nil {
		for _, sp := range d.SRPolicies {
			epOwner := s.topoIdx.AddrOwnerID(sp.Endpoint)
			if sp.Endpoint == nh || (epOwner != netmodel.NoDev && epOwner == ownerID) {
				c.viaSR = true
				break
			}
		}
	}
	if c.viaSR && ti.prof.SRTunnelIGPCostZero {
		cost = 0
	}
	c.resolved, c.igpCost = true, cost
}

// onDirectSubnet reports whether nh is on a subnet of one of dev's
// interfaces, the links' ends among them.
func (s *sim) onDirectSubnet(dev string, nh netip.Addr) bool {
	d := s.net.Devices[dev]
	if d == nil {
		return false
	}
	for _, i := range d.Interfaces {
		if i.Addr.IsValid() && i.Addr.Masked().Contains(nh) {
			return true
		}
	}
	return false
}

func (s *sim) nextHopUsable(dev string, nh netip.Addr) bool {
	if !nh.IsValid() {
		return false
	}
	owner := s.net.Topo.AddrOwner(nh)
	if owner == dev {
		return true
	}
	if owner != "" {
		if s.igp.Reachable(dev, owner) || s.net.Topo.FindLink(dev, owner) != nil {
			return true
		}
		return false
	}
	return s.onDirectSubnet(dev, nh)
}

// equalCost reports whether b ties with a through the IGP-cost step
// (multipath eligibility). It takes pointers: a cand embeds a full Route.
func equalCost(a, b *cand) bool {
	ra, rb := a.route.Attr(), b.route.Attr()
	return ra.Preference == rb.Preference &&
		a.route.Protocol == b.route.Protocol &&
		ra.Weight == rb.Weight &&
		ra.LocalPref == rb.LocalPref &&
		ra.ASPath.Len() == rb.ASPath.Len() &&
		ra.Origin == rb.Origin &&
		ra.MED == rb.MED &&
		a.ebgp == b.ebgp &&
		a.igpCost == b.igpCost
}

// distinctNextHop reports whether no candidate in best shares c's next hop.
func distinctNextHop(best []cand, c *cand) bool {
	for i := range best {
		if best[i].route.NextHop == c.route.NextHop {
			return false
		}
	}
	return true
}

func (s *sim) peerRouterID(peer string) netip.Addr {
	if d := s.net.Devices[peer]; d != nil && d.RouterID.IsValid() {
		return d.RouterID
	}
	return netip.Addr{}
}

// appendAdvSignature appends to dst a fingerprint of a decision's sorted
// candidates so unchanged results are not re-advertised (this is what drives
// the fixpoint to termination). It must cover every field that influences
// what peers receive — warm restarts rely on a changed decision always
// producing a changed signature. Appending lets the decision loop reuse one
// buffer across prefixes and allocate only when the signature changed.
func appendAdvSignature(dst []byte, best []cand) []byte {
	if len(best) == 0 {
		return dst
	}
	// Binary encoding with fixed-width integers and length-prefixed variable
	// fields: only injectivity matters (a changed decision must always produce
	// a changed signature, and an unchanged one never may), not readability,
	// and decimal formatting dominated fixpoint bookkeeping cost. This runs
	// once per (table, prefix) decision.
	b := dst
	if cap(b)-len(b) < 96*len(best) {
		grown := make([]byte, len(b), len(b)+96*len(best))
		copy(grown, b)
		b = grown
	}
	appendU32 := func(v uint32) {
		b = append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	}
	appendAddr := func(a netip.Addr) {
		// As16 maps v4 into the v4-in-v6 space; the Is4 flag keeps the two
		// forms distinct so the encoding stays injective.
		flags := byte(0)
		if a.IsValid() {
			flags |= 1
		}
		if a.Is4() {
			flags |= 2
		}
		b = append(b, flags)
		a16 := a.As16()
		b = append(b, a16[:]...)
	}
	appendBool := func(v bool) {
		if v {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
	}
	for ci := range best {
		c := &best[ci]
		r := &c.route
		ra := r.Attr()
		appendAddr(r.Prefix.Addr())
		b = append(b, byte(r.Prefix.Bits()))
		appendAddr(r.NextHop)
		comms := ra.Communities.All()
		appendU32(uint32(len(comms)))
		for _, cm := range comms {
			appendU32(uint32(cm))
		}
		appendU32(ra.LocalPref)
		appendU32(ra.MED)
		appendU32(ra.Weight)
		appendU32(uint32(len(ra.ASPath.Seq)))
		for _, a := range ra.ASPath.Seq {
			appendU32(uint32(a))
		}
		appendU32(uint32(len(ra.ASPath.Set)))
		for _, a := range ra.ASPath.Set {
			appendU32(uint32(a))
		}
		b = append(b, byte(ra.Origin))
		appendBool(c.ebgp)
		appendU32(c.igpCost)
		b = append(b, byte(r.Protocol))
		appendU32(uint32(len(r.Source)))
		b = append(b, r.Source...)
		appendBool(c.local)
		appendBool(c.direct32)
	}
	return b
}

// advertise sends the messages for one table/prefix after its best set
// changed, one per session over the session's edge. Sessions with add-path
// draw from the full sorted candidate list; plain sessions advertise only the
// best route. The table's sessions (pre-filtered to its VRF, with export
// policies resolved with the session graph) come from the cached tableInfo;
// per-session advertisement slices are carved from the round's routes, and a
// withdrawal (empty adv) allocates nothing.
func (s *sim) advertise(ti *tableInfo, pid int32, best, sorted []cand) {
	d := ti.dev
	// VSB: policy-isolated devices keep learning but stop advertising.
	if d == nil || !ti.advertise {
		return
	}
	prof := ti.prof
	hasAggs := len(ti.aggs) > 0

	for i := range ti.sessions {
		si := &ti.sessions[i]
		sess, pol := si.sess, si.sess.export
		if !sess.exportOK {
			continue
		}
		if si.toTID1 == 0 {
			si.toTID1 = s.tidOf(tableKey{sess.remote, sess.vrf}) + 1
		}
		limit := 1
		pool := best[:min(1, len(best))]
		if sess.nb.AddPaths > 1 {
			limit = sess.nb.AddPaths
			pool = sorted
		}
		var adv []netmodel.Route
		for ci := range pool {
			c := &pool[ci]
			if len(adv) >= limit {
				break
			}
			// Only BGP routes (including aggregates, which are originated
			// into BGP) are advertised; direct/static/IS-IS routes stay
			// local unless redistributed.
			if c.route.Protocol != netmodel.ProtoBGP && c.route.Protocol != netmodel.ProtoAggregate {
				continue
			}
			if !s.shouldPropagate(sess, c, ti.isRR) {
				continue
			}
			r := c.route
			// Suppress more-specifics covered by a summary-only aggregate
			// (only tables that configure aggregates can suppress).
			if hasAggs && s.suppressedByAggregate(d, ti.k.vrf, r.Prefix) {
				continue
			}
			// VSB: /32 direct host routes may not be advertised to peers.
			if c.direct32 && !prof.SendDirect32ToPeer {
				continue
			}
			if pol != nil {
				var disp policy.Disposition
				r, disp = ti.env.Apply(pol, r, sess.remoteAddr, d.ASN)
				if disp == policy.Reject {
					continue
				}
			}
			// Weight, preference and, over eBGP, local preference are not
			// carried: the receiver sets them (acceptedFor), so the row's
			// attribute set travels as it is unless the path grows.
			if sess.ebgp {
				a := *r.Attr()
				a.ASPath = a.ASPath.Prepend(d.ASN)
				r.SetAttrs(&a)
				r.NextHop = sess.localAddr
			} else if sess.nb.NextHopSelf && d.Loopback.IsValid() {
				r.NextHop = d.Loopback
			}
			r.IGPCost = 0
			r.ViaSR = false
			r.RouteType = netmodel.RouteCandidate
			if adv == nil {
				adv = s.takeAdv(min(limit, len(pool)))
			}
			adv = append(adv, r)
		}
		s.send(msg{routes: adv, edge: &sess.out, tid: si.toTID1 - 1, pid: pid})
	}
}

// cmpCand is the BGP decision comparator (negative when a is preferred over
// b), used by the decision's stable sort. Non-BGP protocols compete on
// administrative preference first, then in deterministic route order; BGP
// routes go through weight, local preference, AS-path length, origin, MED,
// eBGP over iBGP, IGP cost, and the advertising device's router ID.
func (s *sim) cmpCand(a, b *cand) int {
	ra, rb := a.route.Attr(), b.route.Attr()
	if ra.Preference != rb.Preference {
		if ra.Preference < rb.Preference {
			return -1
		}
		return 1
	}
	if a.route.Protocol != netmodel.ProtoBGP || b.route.Protocol != netmodel.ProtoBGP {
		return netmodel.CompareRouteKeys(a.route, b.route)
	}
	if ra.Weight != rb.Weight {
		if ra.Weight > rb.Weight {
			return -1
		}
		return 1
	}
	if ra.LocalPref != rb.LocalPref {
		if ra.LocalPref > rb.LocalPref {
			return -1
		}
		return 1
	}
	if la, lb := ra.ASPath.Len(), rb.ASPath.Len(); la != lb {
		if la < lb {
			return -1
		}
		return 1
	}
	if ra.Origin != rb.Origin {
		if ra.Origin < rb.Origin {
			return -1
		}
		return 1
	}
	if ra.MED != rb.MED {
		if ra.MED < rb.MED {
			return -1
		}
		return 1
	}
	if a.ebgp != b.ebgp {
		if a.ebgp {
			return -1
		}
		return 1
	}
	if a.igpCost != b.igpCost {
		if a.igpCost < b.igpCost {
			return -1
		}
		return 1
	}
	ia, ib := s.peerRouterID(a.route.Peer), s.peerRouterID(b.route.Peer)
	if ia != ib {
		if ia.Less(ib) {
			return -1
		}
		return 1
	}
	return netmodel.CompareRouteKeys(a.route, b.route)
}

// shouldPropagate implements BGP propagation rules including route
// reflection.
func (s *sim) shouldPropagate(sess *session, c *cand, isRR bool) bool {
	// Split horizon: never back to the device we learned it from.
	if c.route.Peer == sess.remote {
		return false
	}
	if sess.ebgp {
		return true
	}
	// To an iBGP peer:
	if c.local || c.ebgp {
		return true // locally originated or eBGP-learned: advertise
	}
	// iBGP-learned: only a route reflector forwards, per RR rules.
	if !isRR {
		return false
	}
	for _, other := range s.sessions[sess.local] {
		if other.remote == c.route.Peer && other.nb.RRClient {
			return true // learned from a client: reflect to all
		}
	}
	return sess.nb.RRClient // from non-client: reflect only to clients
}

func (s *sim) suppressedByAggregate(d *config.Device, vrf string, p netip.Prefix) bool {
	for _, a := range d.Aggregates {
		if a.VRF == vrf && a.SummaryOnly && a.Prefix.Bits() < p.Bits() && a.Prefix.Contains(p.Addr()) {
			if s.tables[tableKey{d.Name, vrf}].aggOn.Get(a.Prefix) {
				return true
			}
		}
	}
	return false
}
