// Package bgp simulates BGP route propagation over the parsed network model:
// the fixpoint message-passing algorithm of §3.1, with best-path selection,
// route reflection, add-path, aggregation, redistribution, VRF route
// leaking, and every vendor-specific behaviour of Table 5 that touches BGP.
package bgp

import (
	"net/netip"
	"slices"
	"strings"

	"hoyan/internal/config"
	"hoyan/internal/isis"
	"hoyan/internal/netmodel"
	"hoyan/internal/policy"
	"hoyan/internal/vsb"
)

// session is one established BGP session as seen from the local side, with
// what the configurations of its two ends resolve about it once the graph is
// built: its export policy, and the edge its advertisements arrive over.
type session struct {
	local      string
	remote     string
	vrf        string
	ebgp       bool
	localAddr  netip.Addr // our address on the session (next hop for eBGP adverts)
	remoteAddr netip.Addr // configured neighbor address
	nb         *config.Neighbor

	// export is the export policy (exportPolicy): nil advertises unfiltered,
	// and !exportOK advertises nothing.
	export   *policy.RouteMap
	exportOK bool
	// out is the remote end's record of the session: what it delivers into
	// the remote's table in vrf arrives over it.
	out edge
}

// edge is the receiving side of one way routes arrive at a table: a session
// (its remote end's record of it), a VRF leak source, or the aggregate
// refresh. Delivery reads everything it needs off it — the adj-RIB-in key,
// the session type, the sender's address and the import policy, resolved
// when the session graph is built — and no configuration.
type edge struct {
	from     string     // adj-RIB-in key: the sending device, or "leak:<vrf>"
	fromAddr netip.Addr // the sender's session address, which import policies match
	ebgp     bool
	// pol is the import policy, nil to accept unfiltered; !ok rejects every
	// route (the missing- and undefined-policy VSBs).
	pol *policy.RouteMap
	ok  bool
	// refresh marks the aggregate refresh: its message installs nothing and
	// re-decides its prefix, whose local candidates changed in place.
	refresh bool
	// leak marks a VRF leak: its routes keep the preference they hold in
	// their source table, where a session's take the receiver's default.
	leak bool
}

// refreshEdge is the edge every aggregate refresh arrives over.
var refreshEdge = &edge{refresh: true}

// buildSessions derives the set of up sessions from neighbor configuration,
// topology, and IGP reachability, and resolves each one's policies under the
// vendor profiles prof returns (resolvePolicies). A session is up when:
//   - the neighbor address belongs to a known, up device,
//   - both sides configure each other (address + matching AS numbers),
//   - eBGP endpoints share an up link; iBGP endpoints are IGP-reachable,
//   - neither side is isolated on a session-shutdown vendor.
func buildSessions(net *config.Network, igp *isis.Result, prof func(dev string) vsb.Profile) map[string][]*session {
	isoSessionDown := func(dev string) bool { return !prof(dev).IsolationViaPolicy }
	out := make(map[string][]*session)
	for _, name := range net.DeviceNames() {
		d := net.Devices[name]
		node := net.Topo.Node(name)
		if node == nil || !node.Up {
			continue
		}
		if d.Isolated && isoSessionDown(name) {
			continue
		}
		for _, nb := range d.Neighbors {
			remoteName := net.Topo.AddrOwner(nb.Addr)
			if remoteName == "" || remoteName == name {
				continue
			}
			rd := net.Devices[remoteName]
			rn := net.Topo.Node(remoteName)
			if rd == nil || rn == nil || !rn.Up {
				continue
			}
			if rd.Isolated && isoSessionDown(remoteName) {
				continue
			}
			if nb.RemoteAS != rd.ASN {
				continue // misconfigured remote-as: session never establishes
			}
			// The remote must configure us back on a matching session.
			back := remoteNeighborFor(net, rd, d)
			if back == nil || back.RemoteAS != d.ASN {
				continue
			}
			ebgp := d.ASN != rd.ASN
			if ebgp {
				if net.Topo.FindLink(name, remoteName) == nil {
					continue // eBGP requires a direct up link
				}
			} else if !igp.Reachable(name, remoteName) {
				continue // iBGP rides on the IGP
			}
			out[name] = append(out[name], &session{
				local:      name,
				remote:     remoteName,
				vrf:        nb.VRF,
				ebgp:       ebgp,
				localAddr:  localSessionAddr(net, d, rd, back),
				remoteAddr: nb.Addr,
				nb:         nb,
			})
		}
		slices.SortFunc(out[name], func(a, b *session) int {
			if a.remote != b.remote {
				return strings.Compare(a.remote, b.remote)
			}
			return strings.Compare(a.vrf, b.vrf)
		})
	}
	resolvePolicies(net, out, prof)
	return out
}

// resolvePolicies resolves, once per session, what the fixpoint would
// otherwise look up per advertisement and per message: the local end's
// export policy, and the remote end's edge with its import policy, which the
// remote's own neighbor configuration toward the local end binds.
func resolvePolicies(net *config.Network, sessions map[string][]*session, prof func(dev string) vsb.Profile) {
	for _, ss := range sessions {
		for _, sess := range ss {
			mine, theirs := sessions[sess.local], sessions[sess.remote]
			sess.export, sess.exportOK = exportPolicy(net.Devices[sess.local],
				sess.nb, neighborOf(mine, sess.remote, netmodel.DefaultVRF), prof(sess.local))
			pol, ok := importPolicy(net.Devices[sess.remote], neighborOf(theirs, sess.local, sess.vrf),
				neighborOf(theirs, sess.local, netmodel.DefaultVRF), prof(sess.remote), sess.ebgp)
			sess.out = edge{from: sess.local, fromAddr: sess.localAddr, ebgp: sess.ebgp, pol: pol, ok: ok}
		}
	}
}

// neighborOf returns the neighbor configuration of the first session in ss —
// one device's sessions, in (remote, vrf) order — to remote in vrf, or nil.
func neighborOf(ss []*session, remote, vrf string) *config.Neighbor {
	i, found := slices.BinarySearchFunc(ss, [2]string{remote, vrf}, func(s *session, k [2]string) int {
		if c := strings.Compare(s.remote, k[0]); c != 0 {
			return c
		}
		return strings.Compare(s.vrf, k[1])
	})
	if !found {
		return nil
	}
	return ss[i].nb
}

// importPolicy resolves a session's import policy under the missing- and
// undefined-policy VSBs, at the receiving device d: nb is d's neighbor
// configuration for the session (nil when it has none), global d's
// default-VRF one toward the same remote, whose binding a sub-view (VRF)
// session inherits on vendors that do. pol == nil with ok == true means
// "accept unfiltered".
func importPolicy(d *config.Device, nb, global *config.Neighbor, prof vsb.Profile, ebgp bool) (*policy.RouteMap, bool) {
	name := boundPolicy(nb, global, prof, func(n *config.Neighbor) string { return n.ImportPolicy })
	if name == "" {
		// VSB: missing policy. iBGP updates are always accepted.
		if ebgp && !prof.AcceptOnMissingPolicy {
			return nil, false
		}
		return nil, true
	}
	rm, ok := d.RouteMaps[name]
	if !ok {
		// VSB: undefined policy.
		return nil, prof.AcceptOnUndefinedPolicy
	}
	return rm, true
}

// exportPolicy mirrors importPolicy for the egress direction; a missing
// export policy always advertises.
func exportPolicy(d *config.Device, nb, global *config.Neighbor, prof vsb.Profile) (*policy.RouteMap, bool) {
	name := boundPolicy(nb, global, prof, func(n *config.Neighbor) string { return n.ExportPolicy })
	if name == "" {
		return nil, true
	}
	rm, ok := d.RouteMaps[name]
	if !ok {
		return nil, prof.AcceptOnUndefinedPolicy
	}
	return rm, true
}

// boundPolicy returns the policy name a session binds: nb's own, or — VSB —
// on a sub-view (VRF address family) session of an inheriting vendor that
// binds none, the global session's.
func boundPolicy(nb, global *config.Neighbor, prof vsb.Profile, name func(*config.Neighbor) string) string {
	if nb == nil {
		return ""
	}
	if n := name(nb); n != "" || nb.VRF == netmodel.DefaultVRF || !prof.SubViewInheritsOptions || global == nil {
		return n
	}
	return name(global)
}

// remoteNeighborFor finds, on remote device rd, the neighbor entry whose
// address belongs to local device d.
func remoteNeighborFor(net *config.Network, rd, d *config.Device) *config.Neighbor {
	for _, nb := range rd.Neighbors {
		if net.Topo.AddrOwner(nb.Addr) == d.Name {
			return nb
		}
	}
	return nil
}

// localSessionAddr is the address the remote uses to reach us: the remote's
// configured neighbor address pointing at d, i.e. our interface or loopback.
func localSessionAddr(net *config.Network, d, rd *config.Device, back *config.Neighbor) netip.Addr {
	if back != nil && back.Addr.IsValid() {
		return back.Addr
	}
	return d.Loopback
}
