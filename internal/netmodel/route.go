package netmodel

import (
	"bytes"
	"fmt"
	"net/netip"
	"strings"
)

// DefaultVRF is the name of the global routing table.
const DefaultVRF = "global"

// Route is one row of a (global) RIB. ECMP routes for a prefix appear as
// multiple rows sharing the prefix, matching the paper's global RIB
// abstraction (Figure 6).
type Route struct {
	// Location.
	Device string // router hosting the route
	VRF    string // VRF name; DefaultVRF for the global table

	// Identity.
	Prefix   netip.Prefix
	Protocol Protocol
	NextHop  netip.Addr

	// BGP attributes.
	Communities CommunitySet
	LocalPref   uint32
	MED         uint32
	Weight      uint32
	Preference  uint32 // administrative preference (vendor "route preference")
	ASPath      ASPath
	Origin      Origin

	// Selection state.
	IGPCost   uint32 // IGP metric to NextHop at selection time
	RouteType RouteType
	ViaSR     bool // next hop is reached through an SR tunnel

	// Provenance for propagation graphs and diagnosis.
	Peer   string // neighbor device the route was learned from ("" if local)
	Source string // device where the input route was injected
}

// Key uniquely identifies a route row within a RIB for comparison purposes.
type RouteKey struct {
	Device   string
	VRF      string
	Prefix   netip.Prefix
	Protocol Protocol
	NextHop  netip.Addr
}

// Key returns the identity key of the route.
func (r Route) Key() RouteKey {
	return RouteKey{Device: r.Device, VRF: r.VRF, Prefix: r.Prefix, Protocol: r.Protocol, NextHop: r.NextHop}
}

// AttrsEqual reports whether all non-provenance attributes of the two routes
// are identical. Used by RCL's PRE = POST comparison and by the accuracy
// diagnosis framework.
func (r Route) AttrsEqual(o Route) bool {
	return r.Device == o.Device &&
		r.VRF == o.VRF &&
		r.Prefix == o.Prefix &&
		r.Protocol == o.Protocol &&
		r.NextHop == o.NextHop &&
		r.Communities.Equal(o.Communities) &&
		r.LocalPref == o.LocalPref &&
		r.MED == o.MED &&
		r.Weight == o.Weight &&
		r.Preference == o.Preference &&
		r.ASPath.Equal(o.ASPath) &&
		r.Origin == o.Origin &&
		r.RouteType == o.RouteType
}

// Identical reports full structural equality: AttrsEqual plus the selection
// state and provenance fields. Two identical rows are interchangeable for
// every downstream consumer (forwarding, intents, diagnosis).
func (r Route) Identical(o Route) bool {
	return r.AttrsEqual(o) &&
		r.IGPCost == o.IGPCost &&
		r.ViaSR == o.ViaSR &&
		r.Peer == o.Peer &&
		r.Source == o.Source
}

func (r Route) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s/%s %s via %s proto=%s lp=%d med=%d comm=[%s] aspath=[%s] %s",
		r.Device, r.VRF, r.Prefix, r.NextHop, r.Protocol, r.LocalPref, r.MED,
		r.Communities, r.ASPath, r.RouteType)
	return b.String()
}

// Fields usable in RCL route predicates and aggregations, mirroring the
// columns of the paper's global RIB (Figure 6 plus selection metadata).
const (
	FieldDevice      = "device"
	FieldVRF         = "vrf"
	FieldPrefix      = "prefix"
	FieldProtocol    = "protocol"
	FieldNextHop     = "nexthop"
	FieldCommunities = "communities"
	FieldLocalPref   = "localPref"
	FieldMED         = "med"
	FieldWeight      = "weight"
	FieldPreference  = "preference"
	FieldASPath      = "aspath"
	FieldOrigin      = "origin"
	FieldIGPCost     = "igpCost"
	FieldRouteType   = "routeType"
	FieldPeer        = "peer"
	FieldSource      = "source"
)

// FieldNames lists all route fields accessible from RCL.
var FieldNames = []string{
	FieldDevice, FieldVRF, FieldPrefix, FieldProtocol, FieldNextHop,
	FieldCommunities, FieldLocalPref, FieldMED, FieldWeight, FieldPreference,
	FieldASPath, FieldOrigin, FieldIGPCost, FieldRouteType, FieldPeer, FieldSource,
}

// Field returns the value of the named RCL-visible column. Scalar columns
// are returned as string or int64; set-valued columns (communities) as
// []string. ok is false for unknown field names.
func (r Route) Field(name string) (v any, ok bool) {
	switch name {
	case FieldDevice:
		return r.Device, true
	case FieldVRF:
		return r.VRF, true
	case FieldPrefix:
		return r.Prefix.String(), true
	case FieldProtocol:
		return r.Protocol.String(), true
	case FieldNextHop:
		return r.NextHop.String(), true
	case FieldCommunities:
		return r.Communities.Strings(), true
	case FieldLocalPref:
		return int64(r.LocalPref), true
	case FieldMED:
		return int64(r.MED), true
	case FieldWeight:
		return int64(r.Weight), true
	case FieldPreference:
		return int64(r.Preference), true
	case FieldASPath:
		return r.ASPath.String(), true
	case FieldOrigin:
		return r.Origin.String(), true
	case FieldIGPCost:
		return int64(r.IGPCost), true
	case FieldRouteType:
		return r.RouteType.String(), true
	case FieldPeer:
		return r.Peer, true
	case FieldSource:
		return r.Source, true
	}
	return nil, false
}

// LastAddr returns the last IP address covered by p. The §3.2 ordering
// heuristic sorts input routes by this address.
func LastAddr(p netip.Prefix) netip.Addr {
	a := p.Addr()
	bits := p.Bits()
	bytes := a.AsSlice()
	for i := bits; i < len(bytes)*8; i++ {
		bytes[i/8] |= 1 << (7 - i%8)
	}
	out, _ := netip.AddrFromSlice(bytes)
	return out
}

// CompareRoutes is the canonical total order of route rows: RIB files,
// global RIBs and counterexamples are sorted by it, so they are positionally
// stable across runs. Rows order by CompareRouteKeys; rows that tie there
// (same location, key, type and peer, different attributes) order by
// bytes.Compare of their AppendSignature encodings, which is injective, so
// only Identical rows compare equal. The signatures are built on ties only.
func CompareRoutes(a, b Route) int {
	return compareRoutePtr(&a, &b)
}

func compareRoutePtr(a, b *Route) int {
	if c := compareRouteKeyPtr(a, b); c != 0 {
		return c
	}
	sa, sb := GetSigBuf(), GetSigBuf()
	*sa = a.AppendSignature((*sa)[:0])
	*sb = b.AppendSignature((*sb)[:0])
	c := bytes.Compare(*sa, *sb)
	PutSigBuf(sa)
	PutSigBuf(sb)
	return c
}

// CompareRouteKeys orders rows by device, VRF, prefix, protocol, next hop,
// route type and peer, ignoring every other attribute. It is the last step
// of stable sorts whose ties must keep input order (the BGP decision
// process, input-route splitting); anything that fixes row positions in a
// RIB uses CompareRoutes.
func CompareRouteKeys(a, b Route) int {
	return compareRouteKeyPtr(&a, &b)
}

func compareRouteKeyPtr(a, b *Route) int {
	if c := strings.Compare(a.Device, b.Device); c != 0 {
		return c
	}
	if c := strings.Compare(a.VRF, b.VRF); c != 0 {
		return c
	}
	if c := comparePrefix(a.Prefix, b.Prefix); c != 0 {
		return c
	}
	if a.Protocol != b.Protocol {
		if a.Protocol < b.Protocol {
			return -1
		}
		return 1
	}
	if c := a.NextHop.Compare(b.NextHop); c != 0 {
		return c
	}
	if a.RouteType != b.RouteType {
		if a.RouteType < b.RouteType {
			return -1
		}
		return 1
	}
	return strings.Compare(a.Peer, b.Peer)
}

func comparePrefix(a, b netip.Prefix) int {
	if c := a.Addr().Compare(b.Addr()); c != 0 {
		return c
	}
	switch {
	case a.Bits() < b.Bits():
		return -1
	case a.Bits() > b.Bits():
		return 1
	}
	return 0
}
