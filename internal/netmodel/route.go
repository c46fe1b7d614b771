package netmodel

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/netip"
	"strings"
)

// DefaultVRF is the name of the global routing table.
const DefaultVRF = "global"

// Route is one row of a (global) RIB. ECMP routes for a prefix appear as
// multiple rows sharing the prefix, matching the paper's global RIB
// abstraction (Figure 6). A row is where it lives, what it is via, and one
// shared attribute set: rows that carry the same attributes hold the same
// *Attrs, so copying a row copies a pointer, not the attributes.
type Route struct {
	// Rows compare with Identical or AttrsEqual: == would compare attribute
	// sets by pointer, so a Route is not comparable.
	_ [0]func()

	// Location.
	Device string // router hosting the route
	VRF    string // VRF name; DefaultVRF for the global table

	// Identity.
	Prefix   netip.Prefix
	NextHop  netip.Addr
	Protocol Protocol

	// Selection state.
	RouteType RouteType
	ViaSR     bool   // next hop is reached through an SR tunnel
	IGPCost   uint32 // IGP metric to NextHop at selection time

	// Attrs is the row's path attribute set, nil for the zero set. A set is
	// immutable once a row holds it: read it through Attr, change it
	// through SetAttrs.
	Attrs *Attrs

	// Provenance for propagation graphs and diagnosis.
	Peer   string // neighbor device the route was learned from ("" if local)
	Source string // device where the input route was injected
}

// Attrs is a route's BGP path attribute set. Rows share sets by pointer and
// never write one: the one write path edits a copy and installs it
// (Route.SetAttrs), which allocates a new set only when the copy differs.
type Attrs struct {
	Communities CommunitySet
	LocalPref   uint32
	MED         uint32
	Weight      uint32
	Preference  uint32 // administrative preference (vendor "route preference")
	ASPath      ASPath
	Origin      Origin
}

// zeroAttrs is what Attr reads for a row holding no set. Nothing writes it.
var zeroAttrs Attrs

// Equal reports whether a and b hold the same attributes, nil being the zero
// set. Rows sharing a set compare by pointer alone.
func (a *Attrs) Equal(b *Attrs) bool {
	if a == b {
		return true
	}
	if a == nil {
		a = &zeroAttrs
	}
	if b == nil {
		b = &zeroAttrs
	}
	return a.LocalPref == b.LocalPref &&
		a.MED == b.MED &&
		a.Weight == b.Weight &&
		a.Preference == b.Preference &&
		a.Origin == b.Origin &&
		a.Communities.Equal(b.Communities) &&
		a.ASPath.Equal(b.ASPath)
}

// Attr returns r's attribute set for reading: the zero set when r holds
// none. Callers must not write through it.
func (r *Route) Attr() *Attrs {
	if r.Attrs == nil {
		return &zeroAttrs
	}
	return r.Attrs
}

// SetAttrs installs a, typically an edited copy of *r.Attr(), as r's
// attribute set. r keeps the set it holds when a equals it, so a row whose
// attributes did not change goes on sharing; otherwise r gets a new set
// holding a copy of a, or nil for the zero set.
func (r *Route) SetAttrs(a *Attrs) {
	switch {
	case r.Attrs.Equal(a):
	case a.Equal(nil):
		r.Attrs = nil
	default:
		n := new(Attrs)
		*n = *a
		r.Attrs = n
	}
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
		r.RouteType == o.RouteType &&
		r.Attrs.Equal(o.Attrs)
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
	a := r.Attr()
	var b strings.Builder
	fmt.Fprintf(&b, "%s/%s %s via %s proto=%s lp=%d med=%d comm=[%s] aspath=[%s] %s",
		r.Device, r.VRF, r.Prefix, r.NextHop, r.Protocol, a.LocalPref, a.MED,
		a.Communities, a.ASPath, r.RouteType)
	return b.String()
}

// routeJSON is a Route's JSON form: the attribute set's fields inline,
// between the next hop and the IGP cost.
type routeJSON struct {
	Device   string
	VRF      string
	Prefix   netip.Prefix
	Protocol Protocol
	NextHop  netip.Addr
	Attrs
	IGPCost   uint32
	RouteType RouteType
	ViaSR     bool
	Peer      string
	Source    string
}

// MarshalJSON encodes r as one flat object, its attributes beside its
// location and identity.
func (r Route) MarshalJSON() ([]byte, error) {
	return json.Marshal(routeJSON{r.Device, r.VRF, r.Prefix, r.Protocol, r.NextHop, *r.Attr(),
		r.IGPCost, r.RouteType, r.ViaSR, r.Peer, r.Source})
}

// UnmarshalJSON decodes the form MarshalJSON writes.
func (r *Route) UnmarshalJSON(b []byte) error {
	var j routeJSON
	if err := json.Unmarshal(b, &j); err != nil {
		return err
	}
	*r = Route{Device: j.Device, VRF: j.VRF, Prefix: j.Prefix, Protocol: j.Protocol, NextHop: j.NextHop,
		IGPCost: j.IGPCost, RouteType: j.RouteType, ViaSR: j.ViaSR, Peer: j.Peer, Source: j.Source}
	r.SetAttrs(&j.Attrs)
	return nil
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
	a := r.Attr()
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
		return a.Communities.Strings(), true
	case FieldLocalPref:
		return int64(a.LocalPref), true
	case FieldMED:
		return int64(a.MED), true
	case FieldWeight:
		return int64(a.Weight), true
	case FieldPreference:
		return int64(a.Preference), true
	case FieldASPath:
		return a.ASPath.String(), true
	case FieldOrigin:
		return a.Origin.String(), true
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
