package bgp

import (
	"cmp"
	"fmt"
	"net/netip"
	"slices"
	"strings"

	"hoyan/internal/config"
	"hoyan/internal/isis"
	"hoyan/internal/netmodel"
	"hoyan/internal/policy"
)

// This file is the oracle the fixpoint is checked against: a stable-state
// check in the style of ACORN's and LIGHTYEAR's local checks. A converged RIB
// is a fixed point of best-path selection over what the sessions deliver, so
// it can be verified one (table, prefix) at a time from the installed rows
// alone: rebuild the candidate set that the table's originations, its
// neighbours' installed rows, its device's VRF leaks and its aggregates put
// there, decide over it, and compare with what is installed. No rounds, no
// messages, no dirty sets: O(rows × session degree).
//
// It shares with the engine what defines the problem — the session graph,
// origination, the policy and vendor-profile lookups, the route comparator
// cmpCand — and writes out again what the fixpoint does with it: export and
// import chains, VRF leaking, aggregation, next-hop resolution and ECMP
// marking. It never reads fixpoint state (adj-RIB-in, advertisement
// signatures, aggregate activation, per-table caches, work units).

// ViolationKind classifies one way a RIB fails to be a stable state.
type ViolationKind string

const (
	// KindMissing: the decision over the candidate set installs a row, from
	// an advertiser the installed rows lack.
	KindMissing ViolationKind = "missing"
	// KindOrphan: an installed row from an advertiser that delivers nothing
	// here — a withdrawn route left behind.
	KindOrphan ViolationKind = "orphan"
	// KindDecision: rows from the same advertisers that differ — attributes,
	// IGP cost, best / ECMP marking, resolution.
	KindDecision ViolationKind = "decision"
	// KindAggregate: an aggregate row without a contributor, or contributors
	// (suppressed ones, for a summary-only aggregate) without the aggregate.
	KindAggregate ViolationKind = "aggregate"
)

// Violation is one (table, prefix) where the RIB is not a stable state. Got
// and Want are the rows that differ: installed, and installed by the decision
// over the rebuilt candidate set.
type Violation struct {
	Kind        ViolationKind
	Device, VRF string
	Prefix      netip.Prefix
	Got, Want   []netmodel.Route
}

// maxViolations caps the violations a CheckError lists.
const maxViolations = 32

// CheckError is Check's verdict on a RIB that is not a stable state: the first
// maxViolations violations in (device, VRF, prefix) order, and how many there
// were in all.
type CheckError struct {
	Violations []Violation
	Total      int
}

func (e *CheckError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "bgp: RIB is not a stable state: %d violations", e.Total)
	for _, v := range e.Violations {
		fmt.Fprintf(&b, "\n  %s at %s/%s %s: got %v, want %v", v.Kind, v.Device, v.VRF, v.Prefix, v.Got, v.Want)
	}
	return b.String()
}

// Check reports whether rib — the global RIB of a BGP simulation of net over
// igp and inputs under opts, before any EC expansion — is a stable state:
// every (table, prefix) holds exactly the rows best-path selection installs
// over the candidates its originations, its neighbours' installed rows, its
// device's other VRFs and its aggregates provide; no row outlives its
// advertiser; and aggregates are on exactly when they have contributors. It
// returns nil or a *CheckError.
func Check(net *config.Network, igp *isis.Result, inputs []netmodel.Route, rib *netmodel.GlobalRIB, opts Options) error {
	s := newSim(net, igp, opts)
	s.originateLocals(inputs, nil)
	c := &checker{
		s:       s,
		inst:    make(map[tableKey]map[netip.Prefix][]netmodel.Route),
		in:      make(map[tableKey]map[netip.Prefix]map[string][]cand),
		summary: make(map[tableKey][]netip.Prefix),
	}
	for _, block := range rib.Blocks() {
		for len(block) > 0 {
			r := block[0]
			n := 1
			for n < len(block) && block[n].VRF == r.VRF && block[n].Prefix == r.Prefix {
				n++
			}
			k := tableKey{r.Device, r.VRF}
			if c.inst[k] == nil {
				c.inst[k] = make(map[netip.Prefix][]netmodel.Route)
			}
			c.inst[k][r.Prefix] = block[:n:n]
			block = block[n:]
		}
	}
	c.aggregates()
	for k, rows := range c.inst {
		c.advertise(k, rows)
	}
	type pair struct {
		k tableKey
		p netip.Prefix
	}
	seen := make(map[pair]bool)
	visit := func(k tableKey, p netip.Prefix) {
		if !seen[pair{k, p}] {
			seen[pair{k, p}] = true
			c.compare(k, p, c.inst[k][p], c.bestPath(k, p))
		}
	}
	for k, m := range c.inst {
		for p := range m {
			visit(k, p)
		}
	}
	for k, t := range s.tables {
		t.locals.All(func(p netip.Prefix, _ []cand) { visit(k, p) })
	}
	for k, m := range c.in {
		for p := range m {
			visit(k, p)
		}
	}
	if len(c.errs.Violations) == 0 {
		return nil
	}
	slices.SortFunc(c.errs.Violations, func(a, b Violation) int {
		return cmp.Or(strings.Compare(a.Device, b.Device), strings.Compare(a.VRF, b.VRF),
			a.Prefix.Addr().Compare(b.Prefix.Addr()), a.Prefix.Bits()-b.Prefix.Bits(), strings.Compare(string(a.Kind), string(b.Kind)))
	})
	c.errs.Total = len(c.errs.Violations)
	c.errs.Violations = c.errs.Violations[:min(maxViolations, c.errs.Total)]
	return &c.errs
}

type checker struct {
	s *sim
	// inst holds the installed rows per (table, prefix); in, per (table,
	// prefix) and advertiser, the candidates the advertiser's installed rows
	// deliver; summary, per table, its active summary-only aggregates.
	inst    map[tableKey]map[netip.Prefix][]netmodel.Route
	in      map[tableKey]map[netip.Prefix]map[string][]cand
	summary map[tableKey][]netip.Prefix
	errs    CheckError
}

// locals returns table k's originated candidates at p (aggregates included
// once aggregates has run).
func (c *checker) locals(k tableKey, p netip.Prefix) []cand {
	if t := c.s.tables[k]; t != nil {
		return t.locals.Get(p)
	}
	return nil
}

func (c *checker) violation(kind ViolationKind, k tableKey, p netip.Prefix, got, want []netmodel.Route) {
	c.errs.Violations = append(c.errs.Violations, Violation{Kind: kind, Device: k.dev, VRF: k.vrf, Prefix: p, Got: got, Want: want})
}

// aggregates derives every configured aggregate from the installed best rows
// strictly inside it: active when there is one, with the AS path its vendor
// builds from them. An active aggregate joins its table's local candidates
// (after the originated ones, where the fixpoint keeps it), and a
// summary-only one suppresses the export of what it covers.
func (c *checker) aggregates() {
	for _, name := range c.s.net.DeviceNames() {
		d := c.s.net.Devices[name]
		for _, a := range d.Aggregates {
			k := tableKey{name, a.VRF}
			var contrib []netmodel.Route
			for p, rows := range c.inst[k] {
				if p.Bits() <= a.Prefix.Bits() || !a.Prefix.Contains(p.Addr()) {
					continue
				}
				for _, r := range rows {
					if r.RouteType == netmodel.RouteBest && r.Protocol != netmodel.ProtoAggregate {
						contrib = append(contrib, r)
					}
				}
			}
			installed := slices.ContainsFunc(c.inst[k][a.Prefix], func(r netmodel.Route) bool { return r.Protocol == netmodel.ProtoAggregate })
			if installed != (len(contrib) > 0) {
				c.violation(KindAggregate, k, a.Prefix, c.inst[k][a.Prefix], contrib)
			}
			locals := c.locals(k, a.Prefix)
			locals = slices.DeleteFunc(slices.Clone(locals), func(l cand) bool { return l.route.Protocol == netmodel.ProtoAggregate })
			if len(contrib) > 0 {
				var path netmodel.ASPath
				if a.ASSet {
					for _, r := range contrib {
						path.Set = append(append(path.Set, r.ASPath.Seq...), r.ASPath.Set...)
					}
					slices.Sort(path.Set)
					path.Set = slices.Compact(path.Set)
				} else if c.s.profileOf(name).AggregateKeepsCommonASPrefix {
					path.Seq = commonASPrefix(contrib)
				}
				locals = append(locals, cand{local: true, route: netmodel.Route{
					Device: name, VRF: a.VRF, Prefix: a.Prefix, Protocol: netmodel.ProtoAggregate,
					NextHop: d.Loopback, LocalPref: 100, Origin: netmodel.OriginIGP, ASPath: path,
					Source: name, Peer: "aggregate",
				}})
				if a.SummaryOnly {
					c.summary[k] = append(c.summary[k], a.Prefix)
				}
			}
			if len(locals) > 0 || c.s.tables[k] != nil {
				c.s.own(k).setLocals(a.Prefix, locals)
			}
		}
	}
}

// advertise hands to each receiver what table k's installed rows advertise
// over each of its sessions and leak into its device's other VRFs.
func (c *checker) advertise(k tableKey, rows map[netip.Prefix][]netmodel.Route) {
	s := c.s
	d := s.net.Devices[k.dev]
	if d == nil {
		return
	}
	prof, env := s.profileOf(k.dev), s.envOf(d)
	isRR := slices.ContainsFunc(s.sessions[k.dev], func(o *session) bool { return o.nb.RRClient })
	var targets []string
	leakPolicy := ""
	if k.vrf == netmodel.DefaultVRF && len(d.VRFs) > 0 {
		targets = leakTargets(d, k.vrf, []string{GlobalRT})
	} else if v := d.VRFs[k.vrf]; v != nil && len(v.ExportRTs) > 0 {
		targets, leakPolicy = leakTargets(d, k.vrf, v.ExportRTs), v.ExportPolicy
	}
	for p, rs := range rows {
		// The installed decision in preference order: its resolved rows (the
		// add-path pool) and its best ones.
		var sorted, best []cand
		for _, r := range rs {
			cd := c.candOf(k, r)
			if probe := cd; c.resolve(k.dev, &probe) {
				sorted = append(sorted, cd)
			}
			if r.RouteType == netmodel.RouteBest {
				best = append(best, cd)
			}
		}
		byPreference := func(a, b cand) int { return s.cmpCand(&a, &b) }
		slices.SortStableFunc(sorted, byPreference)
		slices.SortStableFunc(best, byPreference)

		for _, sess := range s.sessions[k.dev] {
			pol, ok := s.exportPolicy(d, sess.nb, sess.remote, prof)
			if sess.vrf != k.vrf || !ok || (d.Isolated && prof.IsolationViaPolicy) {
				continue
			}
			limit, pool := 1, best[:min(1, len(best))]
			if sess.nb.AddPaths > 1 {
				limit, pool = sess.nb.AddPaths, sorted
			}
			var adv []netmodel.Route
			for _, cd := range pool {
				r := cd.route
				if len(adv) == limit || !advertisable(r) || !c.propagates(sess, &cd, isRR) ||
					c.suppressed(k, p) || (cd.direct32 && !prof.SendDirect32ToPeer) {
					continue
				}
				if pol != nil {
					var disp policy.Disposition
					if r, disp = env.Apply(pol, r, sess.remoteAddr, d.ASN); disp == policy.Reject {
						continue
					}
				}
				if sess.ebgp {
					r.ASPath, r.NextHop, r.LocalPref = r.ASPath.Prepend(d.ASN), sess.localAddr, 0
				} else if sess.nb.NextHopSelf && d.Loopback.IsValid() {
					r.NextHop = d.Loopback
				}
				r.Weight, r.Preference, r.IGPCost, r.ViaSR, r.RouteType = 0, 0, 0, false, netmodel.RouteCandidate
				adv = append(adv, r)
			}
			c.receive(tableKey{sess.remote, sess.vrf}, p, k.dev, sess.ebgp, sess.localAddr, adv)
		}

		for _, target := range targets {
			polName := leakPolicy
			if k.vrf == netmodel.DefaultVRF {
				if tv := d.VRFs[target]; tv == nil || !prof.VRFExportPolicyOnGlobalLeak {
					polName = ""
				} else {
					polName = tv.ExportPolicy
				}
			}
			rm, defined := d.RouteMaps[polName]
			var adv []netmodel.Route
			for _, cd := range best {
				r := cd.route
				if !advertisable(r) || (strings.HasPrefix(r.Peer, "leak:") && !prof.ReLeakRoutes) ||
					(polName != "" && !defined && !prof.AcceptOnUndefinedPolicy) {
					continue
				}
				if polName != "" && defined {
					var disp policy.Disposition
					if r, disp = env.Apply(rm, r, netip.Addr{}, d.ASN); disp == policy.Reject {
						continue
					}
				}
				r.RouteType = netmodel.RouteCandidate
				adv = append(adv, r)
			}
			c.receive(tableKey{k.dev, target}, p, "leak:"+k.vrf, false, netip.Addr{}, adv)
		}
	}
}

// advertisable: only BGP routes, aggregates included, cross sessions and
// VRFs; direct, static and IS-IS routes do so only redistributed.
func advertisable(r netmodel.Route) bool {
	return r.Protocol == netmodel.ProtoBGP || r.Protocol == netmodel.ProtoAggregate
}

// candOf turns an installed row back into the candidate it was decided as:
// flags from the table's local candidate with the same origin, else from the
// session it was learned over.
func (c *checker) candOf(k tableKey, r netmodel.Route) cand {
	cd := cand{igpCost: r.IGPCost, viaSR: r.ViaSR}
	r.IGPCost, r.ViaSR, r.RouteType = 0, false, netmodel.RouteCandidate
	cd.route = r
	for _, l := range c.locals(k, r.Prefix) {
		if l.route.Peer == r.Peer && l.route.Protocol == r.Protocol && l.route.NextHop == r.NextHop {
			cd.local, cd.ebgp, cd.direct32 = l.local, l.ebgp, l.direct32
			return cd
		}
	}
	for _, sess := range c.s.sessions[k.dev] {
		if sess.remote == r.Peer && sess.vrf == k.vrf {
			cd.ebgp = sess.ebgp
			break
		}
	}
	return cd
}

// propagates applies the session rules: split horizon, then iBGP-learned
// routes cross iBGP only at a route reflector — from a client to everyone,
// from a non-client to clients.
func (c *checker) propagates(sess *session, cd *cand, isRR bool) bool {
	switch {
	case cd.route.Peer == sess.remote:
		return false
	case sess.ebgp || cd.local || cd.ebgp:
		return true
	case !isRR:
		return false
	}
	return sess.nb.RRClient || slices.ContainsFunc(c.s.sessions[sess.local], func(o *session) bool {
		return o.remote == cd.route.Peer && o.nb.RRClient
	})
}

// suppressed reports whether an active summary-only aggregate of table k
// strictly covers p.
func (c *checker) suppressed(k tableKey, p netip.Prefix) bool {
	return slices.ContainsFunc(c.summary[k], func(a netip.Prefix) bool {
		return a.Bits() < p.Bits() && a.Contains(p.Addr())
	})
}

// receive runs routes advertised by from through table to's import chain —
// AS-loop prevention, session-type defaults, import policy — and records
// what is accepted as from's candidates there; nothing accepted is a
// withdrawal. Leaks (from "leak:<vrf>") skip the import policy.
func (c *checker) receive(to tableKey, p netip.Prefix, from string, ebgp bool, fromAddr netip.Addr, routes []netmodel.Route) {
	s := c.s
	d := s.net.Devices[to.dev]
	if d == nil {
		return
	}
	prof, env := s.profileOf(to.dev), s.envOf(d)
	var pol *policy.RouteMap
	ok := true
	if !strings.HasPrefix(from, "leak:") {
		pol, ok = s.importPolicy(d, s.neighborConfigFor(d, from, to.vrf), from, prof, ebgp)
	}
	var accepted []cand
	for _, r := range routes {
		if !ok || (ebgp && r.ASPath.Contains(d.ASN)) {
			continue
		}
		r.Device, r.VRF, r.Peer = to.dev, to.vrf, from
		if ebgp {
			r.LocalPref, r.Preference = 100, prof.EBGPPreference
		} else if r.Preference == 0 {
			r.Preference = prof.IBGPPreference
		}
		r.Weight, r.IGPCost, r.RouteType = 0, 0, netmodel.RouteCandidate
		if pol != nil {
			var disp policy.Disposition
			if r, disp = env.Apply(pol, r, fromAddr, d.ASN); disp == policy.Reject {
				continue
			}
		}
		accepted = append(accepted, cand{route: r, ebgp: ebgp})
	}
	if c.in[to] == nil {
		c.in[to] = make(map[netip.Prefix]map[string][]cand)
	}
	cell := c.in[to][p]
	if cell == nil {
		cell = make(map[string][]cand)
		c.in[to][p] = cell
	}
	if len(accepted) == 0 {
		delete(cell, from)
	} else {
		cell[from] = accepted
	}
}

// bestPath is best-path selection over (k, p)'s rebuilt candidates, in the
// fixpoint's arrival order (locals, then advertisers by name): resolved
// candidates in preference order, the first best and those tying with it up
// to the IGP cost (distinct next hops, up to maximum-paths) ECMP, then the
// unresolved ones.
func (c *checker) bestPath(k tableKey, p netip.Prefix) []netmodel.Route {
	cands := slices.Clone(c.locals(k, p))
	cell := c.in[k][p]
	senders := make([]string, 0, len(cell))
	for from := range cell {
		senders = append(senders, from)
	}
	slices.Sort(senders)
	for _, from := range senders {
		cands = append(cands, cell[from]...)
	}
	var sorted, unresolved []cand
	for _, cd := range cands {
		if c.resolve(k.dev, &cd) {
			sorted = append(sorted, cd)
		} else {
			unresolved = append(unresolved, cd)
		}
	}
	slices.SortStableFunc(sorted, func(a, b cand) int { return c.s.cmpCand(&a, &b) })
	maxPaths := 1
	if d := c.s.net.Devices[k.dev]; d != nil && d.MaxPaths > 1 {
		maxPaths = d.MaxPaths
	}
	var rows []netmodel.Route
	var best []cand
	for i := range sorted {
		cd := &sorted[i]
		r := cd.route
		r.IGPCost, r.ViaSR = cd.igpCost, cd.viaSR
		if i == 0 || (len(best) < maxPaths && equalCost(&sorted[0], cd) && distinctNextHop(best, cd)) {
			r.RouteType = netmodel.RouteBest
			best = append(best, *cd)
		}
		rows = append(rows, r)
	}
	for _, cd := range unresolved {
		cd.route.RouteType = netmodel.RouteCandidate
		rows = append(rows, cd.route)
	}
	return rows
}

// resolve decides whether cd's next hop is usable from dev and at what IGP
// cost, through the string-keyed IGP lookups (the fixpoint uses the dense
// ones): locals trivially (statics need a usable next hop), own addresses at
// cost 0, unknown owners only on a connected subnet, anything else at its
// owner's IGP distance or over a direct link, zeroed through an SR tunnel on
// vendors that do so.
func (c *checker) resolve(dev string, cd *cand) bool {
	s := c.s
	nh := cd.route.NextHop
	cd.igpCost, cd.viaSR = 0, false
	if cd.local {
		return cd.route.Protocol != netmodel.ProtoStatic || s.nextHopUsable(dev, nh)
	}
	if !nh.IsValid() {
		return false
	}
	switch owner := s.net.Topo.AddrOwner(nh); owner {
	case dev:
		return true
	case "":
		return s.onDirectSubnet(dev, nh)
	default:
		cost, ok := s.igp.Cost(dev, owner)
		if !ok {
			l := s.net.Topo.FindLink(dev, owner)
			if l == nil {
				return false
			}
			cost = l.DirCost(dev, s.opts.UseTEMetric)
		}
		if d := s.net.Devices[dev]; d != nil {
			cd.viaSR = slices.ContainsFunc(d.SRPolicies, func(sp *config.SRPolicy) bool {
				return sp.Endpoint == nh || s.net.Topo.AddrOwner(sp.Endpoint) == owner
			})
		}
		if cd.viaSR && s.profileOf(dev).SRTunnelIGPCostZero {
			cost = 0
		}
		cd.igpCost = cost
		return true
	}
}

// compare reports where the installed rows of (k, p) differ from the decided
// ones. Rows compare as multisets with the best / candidate mark aside; the
// marks then compare per exact comparator tie, since which of two candidates
// cmpCand cannot tell apart is marked best is a matter of arrival order.
func (c *checker) compare(k tableKey, p netip.Prefix, got, want []netmodel.Route) {
	gotOnly, wantOnly := rowsDiff(got, want)
	if len(gotOnly)+len(wantOnly) == 0 {
		marks := make(map[tieKey]int)
		for _, r := range got {
			if r.RouteType == netmodel.RouteBest {
				marks[tieOf(r)]++
			}
		}
		for _, r := range want {
			if r.RouteType == netmodel.RouteBest {
				marks[tieOf(r)]--
			}
		}
		for _, n := range marks {
			if n != 0 {
				c.violation(KindDecision, k, p, got, want)
				break
			}
		}
		return
	}
	fromPeer := func(rows []netmodel.Route, peer string) bool {
		return slices.ContainsFunc(rows, func(r netmodel.Route) bool { return r.Peer == peer })
	}
	kind := KindDecision
	if slices.ContainsFunc(gotOnly, func(r netmodel.Route) bool { return !fromPeer(want, r.Peer) }) {
		kind = KindOrphan
	} else if slices.ContainsFunc(wantOnly, func(r netmodel.Route) bool { return !fromPeer(got, r.Peer) }) {
		kind = KindMissing
	}
	c.violation(kind, k, p, gotOnly, wantOnly)
}

// rowsDiff returns the rows of a not in b and of b not in a, as multisets of
// everything but the best / candidate mark.
func rowsDiff(a, b []netmodel.Route) (aOnly, bOnly []netmodel.Route) {
	matched := make([]bool, len(b))
next:
	for _, r := range a {
		masked := r
		for j := range b {
			masked.RouteType = b[j].RouteType
			if !matched[j] && masked.Identical(b[j]) {
				matched[j] = true
				continue next
			}
		}
		aOnly = append(aOnly, r)
	}
	for j, r := range b {
		if !matched[j] {
			bOnly = append(bOnly, r)
		}
	}
	return aOnly, bOnly
}

// tieKey is what cmpCand reads of a row: rows with equal keys are exact ties.
type tieKey struct {
	pref, weight, lp, med, igp uint32
	pathLen                    int
	origin                     netmodel.Origin
	proto                      netmodel.Protocol
	nextHop                    netip.Addr
	peer                       string
}

func tieOf(r netmodel.Route) tieKey {
	t := tieKey{pref: r.Preference, proto: r.Protocol, nextHop: r.NextHop, peer: r.Peer}
	if r.Protocol == netmodel.ProtoBGP {
		t.weight, t.lp, t.med, t.igp = r.Weight, r.LocalPref, r.MED, r.IGPCost
		t.pathLen, t.origin = r.ASPath.Len(), r.Origin
	}
	return t
}
