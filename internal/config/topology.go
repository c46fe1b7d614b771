package config

import (
	"cmp"
	"errors"
	"fmt"
	"maps"
	"net/netip"
	"slices"
	"strings"

	"hoyan/internal/netmodel"
)

// ErrNoLinks is what BuildNetwork returns for two or more devices whose
// configurations derive no link: simulating them would treat every device
// as isolated and verify nothing.
var ErrNoLinks = errors.New("config: the configurations derive no link (no two devices share an IS-IS subnet)")

// linkEnd is one IS-IS interface: an addressed interface with isis cost set.
type linkEnd struct {
	dev   string
	iface *Interface
}

func (e linkEnd) subnet() netip.Prefix { return e.iface.Addr.Masked() }

// isEnd reports whether i can end a link.
func isEnd(i *Interface) bool { return i.ISISCost != 0 && i.Addr.IsValid() }

// subnets returns every IS-IS interface of the network grouped by subnet:
// the groups in subnet address order, each group's ends in device, then
// interface, order.
func (n *Network) subnets() [][]linkEnd {
	var ends []linkEnd
	for name, d := range n.Devices {
		for _, i := range d.Interfaces {
			if isEnd(i) {
				ends = append(ends, linkEnd{name, i})
			}
		}
	}
	slices.SortFunc(ends, func(x, y linkEnd) int {
		sx, sy := x.subnet(), y.subnet()
		return cmp.Or(sx.Addr().Compare(sy.Addr()), cmp.Compare(sx.Bits(), sy.Bits()),
			strings.Compare(x.dev, y.dev), strings.Compare(x.iface.Name, y.iface.Name))
	})
	var groups [][]linkEnd
	for i := 0; i < len(ends); {
		j := i + 1
		for j < len(ends) && ends[j].subnet() == ends[i].subnet() {
			j++
		}
		groups = append(groups, ends[i:j:j])
		i = j
	}
	return groups
}

// paired reports whether a subnet's ends form a link: exactly two, on
// different devices.
func paired(g []linkEnd) bool { return len(g) == 2 && g[0].dev != g[1].dev }

// Topology derives the topology from the device configurations, the one
// place it is built: one up node per device, with the device's loopback, and
// one up link per subnet that exactly two IS-IS interfaces (interfaces with
// isis cost set) on different devices share. Each direction's IGP cost and TE
// metric are its sending interface's isis cost and te-cost; the bandwidth is
// the smaller of the two ends'. Links come in subnet address order. A subnet
// that does not pair up derives nothing; Validate reports it.
func (n *Network) Topology() *netmodel.Topology {
	t := netmodel.NewTopology()
	for name, d := range n.Devices {
		t.AddNode(netmodel.Node{Name: name, Loopback: d.Loopback})
	}
	for _, g := range n.subnets() {
		if !paired(g) {
			continue
		}
		a, b := g[0].iface, g[1].iface
		t.AddLink(netmodel.Link{
			A: g[0].dev, B: g[1].dev, AIface: a.Name, BIface: b.Name,
			ANet: a.Addr.Masked(), BNet: b.Addr.Masked(), AAddr: a.Addr.Addr(), BAddr: b.Addr.Addr(),
			CostAB: a.ISISCost, CostBA: b.ISISCost, TEAB: a.TECost, TEBA: b.TECost,
			Bandwidth: min(a.Bandwidth, b.Bandwidth),
		})
	}
	return t
}

// ChangesTopology reports whether replacing device was by is changes what
// Topology derives from it: the loopback, or any IS-IS interface's name,
// address, isis cost, te-cost or bandwidth.
func ChangesTopology(was, is *Device) bool {
	return was.Loopback != is.Loopback || !maps.Equal(linkEnds(was), linkEnds(is))
}

// linkEnds is what Topology reads of each of d's IS-IS interfaces.
func linkEnds(d *Device) map[string]Interface {
	out := make(map[string]Interface)
	for name, i := range d.Interfaces {
		if isEnd(i) {
			out[name] = Interface{Addr: i.Addr, ISISCost: i.ISISCost, TECost: i.TECost, Bandwidth: i.Bandwidth}
		}
	}
	return out
}

// FindingKind names what Validate found.
type FindingKind string

const (
	// UndefinedPolicy: a BGP neighbor binds a route map the device does not
	// define.
	UndefinedPolicy FindingKind = "undefined policy"
	// UndefinedACL: an interface applies an ACL the device does not define.
	UndefinedACL FindingKind = "undefined ACL"
	// LoneInterface: no other IS-IS interface shares the subnet.
	LoneInterface FindingKind = "lone IS-IS interface"
	// SharedSubnet: three or more IS-IS interfaces share the subnet.
	SharedSubnet FindingKind = "IS-IS subnet shared by three or more"
	// SameDeviceSubnet: the only other IS-IS interface on the subnet is on
	// the same device.
	SameDeviceSubnet FindingKind = "IS-IS subnet within one device"
)

// Finding is one issue Validate reports: where it is and what it names (the
// undefined policy or ACL, or the subnet that does not pair up).
type Finding struct {
	Kind   FindingKind
	Device string
	Where  string // the neighbor address or the interface name
	Name   string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s: %s %q", f.Device, f.Where, f.Kind, f.Name)
}

// Validate performs structural sanity checks used by tests and the auditing
// workflow. Every BGP neighbor's referenced policies and every interface ACL
// must exist (dangling references are legal configs — they trigger VSBs — so
// Validate reports rather than fails them), and every IS-IS interface's
// subnet must pair it with exactly one interface of another device (else it
// ends no link of Topology).
func (n *Network) Validate() []Finding {
	var out []Finding
	for _, name := range n.DeviceNames() {
		d := n.Devices[name]
		for _, nb := range d.Neighbors {
			for _, pol := range []string{nb.ImportPolicy, nb.ExportPolicy} {
				if _, ok := d.RouteMaps[pol]; pol != "" && !ok {
					out = append(out, Finding{UndefinedPolicy, name, "neighbor " + nb.Addr.String(), pol})
				}
			}
		}
		for _, iname := range sortedKeys(d.Interfaces) {
			i := d.Interfaces[iname]
			for _, acl := range []string{i.ACLIn, i.ACLOut} {
				if _, ok := d.ACLs[acl]; acl != "" && !ok {
					out = append(out, Finding{UndefinedACL, name, "interface " + iname, acl})
				}
			}
		}
	}
	for _, g := range n.subnets() {
		if paired(g) {
			continue
		}
		kind := SharedSubnet
		switch {
		case len(g) == 1:
			kind = LoneInterface
		case len(g) == 2:
			kind = SameDeviceSubnet
		}
		for _, e := range g {
			out = append(out, Finding{kind, e.dev, "interface " + e.iface.Name, e.subnet().String()})
		}
	}
	return out
}
