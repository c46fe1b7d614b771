// Package config holds Hoyan's internal network model — the vendor-neutral
// representation every device configuration is parsed into — together with
// parsers and serializers for the two synthetic vendor dialects (alpha and
// beta) and incremental application of change-plan commands.
//
// The paper's network-model-building service corresponds to BuildNetworkOpts:
// parse every device's configuration text once and derive the topology from
// the interfaces (Network.Topology), so the configurations are the whole
// model; the monitored state only marks nodes and links down (§2.2).
package config

import (
	"net/netip"

	"hoyan/internal/netmodel"
	"hoyan/internal/policy"
	"hoyan/internal/vsb"
	"slices"
)

// Interface is a configured router interface.
type Interface struct {
	Name      string
	Addr      netip.Prefix // interface address with subnet length
	ISISCost  uint32
	TECost    uint32 // IS-IS TE metric (0 = unset)
	Bandwidth float64
	ACLIn     string // ACL applied to traffic entering this interface
	ACLOut    string // ACL applied to traffic leaving this interface
	PBR       string // PBR policy applied to traffic entering this interface
}

// VRF is a VPN routing instance on a device.
type VRF struct {
	Name         string
	RD           string
	ImportRTs    []string
	ExportRTs    []string
	ExportPolicy string // route map applied when leaking out of this VRF
}

// Neighbor is a configured BGP session endpoint.
type Neighbor struct {
	Addr         netip.Addr
	RemoteAS     netmodel.ASN
	VRF          string // session VRF; DefaultVRF for global
	ImportPolicy string // route map name; "" = no policy defined
	ExportPolicy string
	RRClient     bool // this neighbor is a route-reflector client of us
	NextHopSelf  bool
	AddPaths     int  // number of paths advertised (RFC 7911); 0/1 = best only
	UpdateSource bool // session uses loopbacks (iBGP convention)
}

// StaticRoute is a configured static route.
type StaticRoute struct {
	VRF        string
	Prefix     netip.Prefix
	NextHop    netip.Addr
	Preference uint32
}

// Aggregate is a BGP aggregate-address statement.
type Aggregate struct {
	VRF         string
	Prefix      netip.Prefix
	ASSet       bool
	SummaryOnly bool
}

// Redistribution injects routes of one protocol into BGP, optionally through
// a route map.
type Redistribution struct {
	From   netmodel.Protocol
	Policy string
}

// SRPolicy is a segment-routing policy steering BGP traffic toward Endpoint
// through an explicit segment list (device names). An empty segment list
// means "IGP shortest path to the endpoint in a tunnel".
type SRPolicy struct {
	Name     string
	Endpoint netip.Addr // remote loopback
	Color    uint32
	Segments []string
}

// PBRRule steers flows matching the ACL-style clause to an explicit next
// hop, bypassing the FIB.
type PBRRule struct {
	Name    string
	Match   policy.ACLEntry
	NextHop netip.Addr
}

// Device is the parsed model of one router's configuration.
type Device struct {
	Name     string
	Vendor   string
	ASN      netmodel.ASN
	RouterID netip.Addr
	Loopback netip.Addr

	Interfaces map[string]*Interface
	VRFs       map[string]*VRF

	Neighbors      []*Neighbor
	MaxPaths       int // BGP multipath limit; <=1 disables ECMP
	Networks       []netip.Prefix
	Aggregates     []Aggregate
	Redistributes  []Redistribution
	Statics        []StaticRoute
	SRPolicies     []*SRPolicy
	PBRPolicies    map[string][]PBRRule
	RouteMaps      map[string]*policy.RouteMap
	PrefixLists    map[string]*policy.PrefixList
	CommunityLists map[string]*policy.CommunityList
	ASPathLists    map[string]*policy.ASPathList
	ACLs           map[string]*policy.ACL

	ISISEnabled bool

	// Isolated marks the device as under maintenance isolation. How
	// isolation manifests is vendor-specific (Table 5 "device isolation"):
	// policy-based vendors stop advertising routes but keep learning;
	// configuration-based vendors shut the BGP sessions down entirely.
	Isolated bool

	// Lines is the number of configuration lines the device was parsed
	// from; kept for scale reporting (each production router carries
	// thousands of lines).
	Lines int
}

// NewDevice creates an empty device model.
func NewDevice(name, vendor string) *Device {
	return &Device{
		Name:           name,
		Vendor:         vendor,
		Interfaces:     make(map[string]*Interface),
		VRFs:           make(map[string]*VRF),
		PBRPolicies:    make(map[string][]PBRRule),
		RouteMaps:      make(map[string]*policy.RouteMap),
		PrefixLists:    make(map[string]*policy.PrefixList),
		CommunityLists: make(map[string]*policy.CommunityList),
		ASPathLists:    make(map[string]*policy.ASPathList),
		ACLs:           make(map[string]*policy.ACL),
		MaxPaths:       1,
	}
}

// Neighbor returns the configured neighbor with the given address in the
// given VRF, or nil.
func (d *Device) Neighbor(addr netip.Addr, vrf string) *Neighbor {
	for _, n := range d.Neighbors {
		if n.Addr == addr && n.VRF == vrf {
			return n
		}
	}
	return nil
}

// RemoveNeighbor deletes the neighbor with the given address/VRF.
func (d *Device) RemoveNeighbor(addr netip.Addr, vrf string) bool {
	for i, n := range d.Neighbors {
		if n.Addr == addr && n.VRF == vrf {
			d.Neighbors = append(d.Neighbors[:i], d.Neighbors[i+1:]...)
			return true
		}
	}
	return false
}

// PolicyEnv assembles the policy evaluation environment for this device
// under the given VSB profile.
func (d *Device) PolicyEnv(prof vsb.Profile) policy.Env {
	return policy.Env{
		Profile:        prof,
		PrefixLists:    d.PrefixLists,
		CommunityLists: d.CommunityLists,
		ASPathLists:    d.ASPathLists,
	}
}

// Clone returns a deep copy of the device, so a change plan can be applied
// to a copy of the base model.
func (d *Device) Clone() *Device {
	out := NewDevice(d.Name, d.Vendor)
	out.ASN, out.RouterID, out.Loopback = d.ASN, d.RouterID, d.Loopback
	out.MaxPaths, out.ISISEnabled, out.Lines = d.MaxPaths, d.ISISEnabled, d.Lines
	out.Isolated = d.Isolated
	for name, i := range d.Interfaces {
		cp := *i
		out.Interfaces[name] = &cp
	}
	for name, v := range d.VRFs {
		cp := *v
		cp.ImportRTs = append([]string(nil), v.ImportRTs...)
		cp.ExportRTs = append([]string(nil), v.ExportRTs...)
		out.VRFs[name] = &cp
	}
	for _, n := range d.Neighbors {
		cp := *n
		out.Neighbors = append(out.Neighbors, &cp)
	}
	out.Networks = append([]netip.Prefix(nil), d.Networks...)
	out.Aggregates = append([]Aggregate(nil), d.Aggregates...)
	out.Redistributes = append([]Redistribution(nil), d.Redistributes...)
	out.Statics = append([]StaticRoute(nil), d.Statics...)
	for _, s := range d.SRPolicies {
		cp := *s
		cp.Segments = append([]string(nil), s.Segments...)
		out.SRPolicies = append(out.SRPolicies, &cp)
	}
	for name, rules := range d.PBRPolicies {
		out.PBRPolicies[name] = append([]PBRRule(nil), rules...)
	}
	for name, rm := range d.RouteMaps {
		out.RouteMaps[name] = rm.Clone()
	}
	for name, pl := range d.PrefixLists {
		cp := &policy.PrefixList{Name: pl.Name, Family: pl.Family}
		cp.Entries = append([]policy.PrefixEntry(nil), pl.Entries...)
		out.PrefixLists[name] = cp
	}
	for name, cl := range d.CommunityLists {
		cp := &policy.CommunityList{Name: cl.Name}
		cp.Entries = append([]policy.CommunityEntry(nil), cl.Entries...)
		out.CommunityLists[name] = cp
	}
	for name, al := range d.ASPathLists {
		cp := &policy.ASPathList{Name: al.Name}
		for _, e := range al.Entries {
			cp.Entries = append(cp.Entries, policy.ASPathEntry{Permit: e.Permit, Regex: e.Regex})
		}
		out.ASPathLists[name] = cp
	}
	for name, a := range d.ACLs {
		cp := &policy.ACL{Name: a.Name}
		cp.Entries = append([]policy.ACLEntry(nil), a.Entries...)
		out.ACLs[name] = cp
	}
	return out
}

// Network is Hoyan's base network model: every parsed device plus the
// topology derived from them (Topology), with its monitored up/down state.
type Network struct {
	Devices map[string]*Device
	Topo    *netmodel.Topology
}

// NewNetwork creates an empty network model.
func NewNetwork() *Network {
	return &Network{Devices: make(map[string]*Device), Topo: netmodel.NewTopology()}
}

// DeviceNames returns all device names sorted.
func (n *Network) DeviceNames() []string {
	out := make([]string, 0, len(n.Devices))
	for name := range n.Devices {
		out = append(out, name)
	}
	slices.Sort(out)
	return out
}

// Clone deep-copies the network model so changes can be applied without
// disturbing the pre-computed base model.
func (n *Network) Clone() *Network {
	out := NewNetwork()
	for name, d := range n.Devices {
		out.Devices[name] = d.Clone()
	}
	out.Topo = n.Topo.Clone()
	return out
}
