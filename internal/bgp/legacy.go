package bgp

import (
	"net/netip"
	"sort"
	"strings"

	"hoyan/internal/netmodel"
	"hoyan/internal/policy"
)

// This file preserves the original string-keyed fixpoint verbatim. It is the
// reference implementation behind Options.Legacy: the speedup guard
// (TestCoreSpeedup) measures the indexed engine against it on the same host,
// and the equivalence suite asserts both produce identical results. Keep it
// in sync with nothing — it intentionally does not pick up optimizations.

// legacyDecideAndAdvertise is the original decision-batch loop.
func (s *sim) legacyDecideAndAdvertise(dirty map[tableKey]map[netip.Prefix]bool) []msg {
	var out []msg

	// Deterministic iteration order.
	keys := make([]tableKey, 0, len(dirty))
	for k := range dirty {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].dev != keys[j].dev {
			return keys[i].dev < keys[j].dev
		}
		return keys[i].vrf < keys[j].vrf
	})

	for _, k := range keys {
		s.own(k)
		prefixes := make([]netip.Prefix, 0, len(dirty[k]))
		for p := range dirty[k] {
			prefixes = append(prefixes, p)
		}
		sort.Slice(prefixes, func(i, j int) bool {
			return netmodel.LastAddr(prefixes[i]).Compare(netmodel.LastAddr(prefixes[j])) < 0
		})
		for _, p := range prefixes {
			best, sorted := s.legacyDecide(k, p)
			sig := advSignature(sorted)
			if s.lastAdv[k] == nil {
				s.lastAdv[k] = make(map[netip.Prefix]string)
			}
			if s.lastAdv[k][p] == sig {
				continue // steady state for this prefix
			}
			s.lastAdv[k][p] = sig
			out = append(out, s.legacyAdvertise(k, p, best, sorted)...)
			out = append(out, s.leak(k, p, best)...)
			out = append(out, s.updateAggregates(k, p)...)
		}
	}
	return out
}

// legacyDecide is the original per-prefix decision process.
func (s *sim) legacyDecide(k tableKey, p netip.Prefix) (best, sorted []cand) {
	var cands []cand
	for _, c := range s.locals[k][p] {
		cands = append(cands, c)
	}
	fromKeys := make([]string, 0)
	for from := range s.adjIn[k][p] {
		fromKeys = append(fromKeys, from)
	}
	sort.Strings(fromKeys)
	for _, from := range fromKeys {
		cands = append(cands, s.adjIn[k][p][from]...)
	}

	// Resolve next hops and compute IGP costs.
	resolved := cands[:0]
	var unresolved []cand
	for _, c := range cands {
		c = s.legacyResolve(k.dev, c)
		if c.resolved {
			resolved = append(resolved, c)
		} else {
			unresolved = append(unresolved, c)
		}
	}
	cands = resolved

	d := s.net.Devices[k.dev]
	sort.SliceStable(cands, func(i, j int) bool { return s.better(cands[i], cands[j]) })

	// Mark best + ECMP. Non-BGP protocols win on Preference alone: the
	// comparator sorts by preference first, so the top candidate's protocol
	// group takes the table.
	rib := s.ribs[k]
	if rib == nil {
		rib = netmodel.NewRIB(k.dev, k.vrf)
		s.ribs[k] = rib
	}
	maxPaths := 1
	if d != nil && d.MaxPaths > 1 {
		maxPaths = d.MaxPaths
	}
	var rows []netmodel.Route
	for i := range cands {
		c := cands[i]
		r := c.route
		r.IGPCost = c.igpCost
		r.ViaSR = c.viaSR
		if i == 0 {
			r.RouteType = netmodel.RouteBest
			best = append(best, c)
		} else if len(best) < maxPaths && s.equalCost(cands[0], c) && distinctNextHop(best, c) {
			r.RouteType = netmodel.RouteBest
			best = append(best, c)
		} else {
			r.RouteType = netmodel.RouteCandidate
		}
		rows = append(rows, r)
	}
	// Unresolved candidates stay visible as candidates for diagnosis.
	for _, c := range unresolved {
		r := c.route
		r.RouteType = netmodel.RouteCandidate
		rows = append(rows, r)
	}
	rib.Replace(p, rows)
	s.noteInstall(k, p, rows)
	return best, cands
}

// legacyResolve is the original next-hop resolution.
func (s *sim) legacyResolve(dev string, c cand) cand {
	c.resolved = false
	r := c.route
	if c.local {
		// Locally originated candidates resolve trivially, except statics
		// whose next hop must be reachable.
		if r.Protocol == netmodel.ProtoStatic {
			if !s.nextHopUsable(dev, r.NextHop) {
				return c
			}
		}
		c.resolved, c.igpCost = true, 0
		return c
	}
	if !r.NextHop.IsValid() {
		return c
	}
	owner := s.net.Topo.AddrOwner(r.NextHop)
	if owner == dev {
		c.resolved, c.igpCost = true, 0
		return c
	}
	prof := s.profileOf(dev)
	if owner == "" {
		// Unknown owner: usable only when on a directly connected subnet
		// (e.g. an un-modelled external peer address).
		if s.onDirectSubnet(dev, r.NextHop) {
			c.resolved, c.igpCost = true, 0
		}
		return c
	}
	cost, ok := s.igp.Cost(dev, owner)
	if !ok {
		if l := s.net.Topo.FindLink(dev, owner); l != nil {
			cost, ok = l.DirCost(dev, s.opts.UseTEMetric), true
		}
	}
	if !ok {
		return c
	}
	// SR tunnel: if the device configures an SR policy whose endpoint is the
	// next hop (or the owner's loopback), traffic rides the tunnel. The VSB
	// decides whether the IGP cost is zeroed (Figure 9 root cause).
	if d := s.net.Devices[dev]; d != nil {
		for _, sp := range d.SRPolicies {
			epOwner := s.net.Topo.AddrOwner(sp.Endpoint)
			if sp.Endpoint == r.NextHop || (epOwner != "" && epOwner == owner) {
				c.viaSR = true
				break
			}
		}
	}
	if c.viaSR && prof.SRTunnelIGPCostZero {
		cost = 0
	}
	c.resolved, c.igpCost = true, cost
	return c
}

// legacyDeliver is the original message-delivery loop.
func (s *sim) legacyDeliver(msgs []msg) map[tableKey]map[netip.Prefix]bool {
	dirty := make(map[tableKey]map[netip.Prefix]bool)
	for _, m := range msgs {
		s.messages++
		d := s.net.Devices[m.to]
		if d == nil {
			continue
		}
		k := tableKey{m.to, m.vrf}
		prof := s.profileOf(m.to)
		env := s.envOf(d)

		var accepted []cand
		for _, r := range m.routes {
			r.Device, r.VRF = m.to, m.vrf
			r.Peer = m.from
			// eBGP AS-loop prevention.
			if m.ebgp && r.ASPath.Contains(d.ASN) {
				continue
			}
			// Session-type defaults, applied before the import policy so the
			// policy can override them.
			if m.ebgp {
				r.LocalPref = 100
				r.Preference = prof.EBGPPreference
			} else if r.Preference == 0 {
				r.Preference = prof.IBGPPreference
			}
			r.Weight = 0
			r.IGPCost = 0
			r.RouteType = netmodel.RouteCandidate

			if !strings.HasPrefix(m.from, "leak:") {
				nb := s.neighborConfigFor(d, m.from, m.vrf)
				pol, ok := s.importPolicy(d, nb, m.from, prof, m.ebgp)
				if !ok {
					continue // rejected by a VSB on missing/undefined policy
				}
				if pol != nil {
					var disp policy.Disposition
					r, disp = env.Apply(pol, r, m.fromAddr, d.ASN)
					if disp == policy.Reject {
						continue
					}
				}
			}
			accepted = append(accepted, cand{route: r, ebgp: m.ebgp})
		}

		s.own(k)
		if s.adjIn[k] == nil {
			s.adjIn[k] = make(map[netip.Prefix]map[string][]cand)
		}
		byFrom := s.ownFroms(k, m.prefix, s.adjIn[k][m.prefix])
		if byFrom == nil {
			byFrom = make(map[string][]cand)
			s.adjIn[k][m.prefix] = byFrom
		}
		if len(accepted) == 0 {
			delete(byFrom, m.from)
		} else {
			byFrom[m.from] = accepted
		}
		if dirty[k] == nil {
			dirty[k] = make(map[netip.Prefix]bool)
		}
		dirty[k][m.prefix] = true
	}
	return dirty
}

// legacyAdvertise is the original advertisement builder.
func (s *sim) legacyAdvertise(k tableKey, p netip.Prefix, best, sorted []cand) []msg {
	d := s.net.Devices[k.dev]
	if d == nil {
		return nil
	}
	prof := s.profileOf(k.dev)
	// VSB: policy-isolated devices keep learning but stop advertising.
	if d.Isolated && prof.IsolationViaPolicy {
		return nil
	}
	env := s.envOf(d)
	isRR := false
	for _, sess := range s.sessions[k.dev] {
		if sess.nb.RRClient {
			isRR = true
			break
		}
	}

	var out []msg
	for _, sess := range s.sessions[k.dev] {
		if sess.vrf != k.vrf {
			continue
		}
		pol, ok := s.exportPolicy(d, sess.nb, sess.remote, prof)
		if !ok {
			continue
		}
		limit := 1
		pool := best[:min(1, len(best))]
		if sess.nb.AddPaths > 1 {
			limit = sess.nb.AddPaths
			pool = sorted
		}
		var adv []netmodel.Route
		for _, c := range pool {
			if len(adv) >= limit {
				break
			}
			// Only BGP routes (including aggregates, which are originated
			// into BGP) are advertised; direct/static/IS-IS routes stay
			// local unless redistributed.
			if c.route.Protocol != netmodel.ProtoBGP && c.route.Protocol != netmodel.ProtoAggregate {
				continue
			}
			if !s.shouldPropagate(d, sess, c, isRR) {
				continue
			}
			r := c.route
			// Suppress more-specifics covered by a summary-only aggregate.
			if s.suppressedByAggregate(d, k.vrf, r.Prefix) {
				continue
			}
			// VSB: /32 direct host routes may not be advertised to peers.
			if c.direct32 && !prof.SendDirect32ToPeer {
				continue
			}
			if pol != nil {
				var disp policy.Disposition
				r, disp = env.Apply(pol, r, sess.remoteAddr, d.ASN)
				if disp == policy.Reject {
					continue
				}
			}
			if sess.ebgp {
				r.ASPath = r.ASPath.Prepend(d.ASN)
				r.NextHop = sess.localAddr
				r.LocalPref = 0 // not carried over eBGP
			} else if sess.nb.NextHopSelf && d.Loopback.IsValid() {
				r.NextHop = d.Loopback
			}
			r.Weight = 0
			r.Preference = 0
			r.IGPCost = 0
			r.ViaSR = false
			r.RouteType = netmodel.RouteCandidate
			adv = append(adv, r)
		}
		out = append(out, msg{
			to: sess.remote, vrf: sess.vrf, from: k.dev,
			prefix: p, routes: adv, ebgp: sess.ebgp, fromAddr: sess.localAddr,
		})
	}
	return out
}
