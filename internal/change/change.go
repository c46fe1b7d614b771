// Package change models network change plans: the 12 change types of
// Table 2, each consisting of topology deltas and per-device configuration
// command blocks written in the device's own vendor dialect. Applying a plan
// clones the pre-computed base network model and updates it incrementally
// (§2.2's "constructs the updated network model incrementally").
package change

import (
	"fmt"
	"net/netip"
	"slices"

	"hoyan/internal/config"
	"hoyan/internal/core"
	"hoyan/internal/netmodel"
)

// Type enumerates the change types of Table 2.
type Type string

// The 12 change types. Starred types in the paper (requiring control-plane
// route change intents) are marked in the comment.
const (
	OSUpgrade         Type = "os-upgrade"        // *
	OSPatch           Type = "os-patch"          // *
	RouteAttrModify   Type = "route-attr-modify" // *
	StaticRouteModify Type = "static-route-modify"
	PBRModify         Type = "pbr-modify"
	ACLModify         Type = "acl-modify"
	AddLinks          Type = "add-links"   // *
	AddRouters        Type = "add-routers" // *
	TopologyAdjust    Type = "topology-adjust"
	NewPrefix         Type = "new-prefix"
	PrefixReclamation Type = "prefix-reclamation"
	TrafficSteering   Type = "traffic-steering" // *
)

// AllTypes lists every change type in Table 2 order.
var AllTypes = []Type{
	OSUpgrade, OSPatch, RouteAttrModify, StaticRouteModify, PBRModify,
	ACLModify, AddLinks, AddRouters, TopologyAdjust, NewPrefix,
	PrefixReclamation, TrafficSteering,
}

// NeedsRouteIntent reports whether the change type requires control-plane
// route change intent specification (the * rows of Table 2).
func (t Type) NeedsRouteIntent() bool {
	switch t {
	case OSUpgrade, OSPatch, RouteAttrModify, AddLinks, AddRouters, TrafficSteering:
		return true
	}
	return false
}

// LinkUpDown toggles a link's administrative state.
type LinkUpDown struct {
	ID netmodel.LinkID
	Up bool
}

// NodeUpDown toggles a router's administrative state (maintenance).
type NodeUpDown struct {
	Name string
	Up   bool
}

// Plan is one change plan as submitted for verification.
type Plan struct {
	ID          string
	Type        Type
	Description string

	// Commands maps device name to a block of configuration commands in the
	// device's own dialect (typically a few hundred to a few thousand
	// lines on the production WAN).
	Commands map[string]string

	// Topology deltas.
	AddNodes    []AddNode
	AddLinks    []netmodel.Link
	RemoveLinks []netmodel.LinkID
	RemoveNodes []string
	SetLinks    []LinkUpDown
	SetNodes    []NodeUpDown

	// NewConfigs introduces entire new devices (add-routers change type):
	// full configuration texts parsed from scratch.
	NewConfigs map[string]string

	// NewInputs are additional input routes injected for the simulation
	// (new prefix announcement).
	NewInputs []netmodel.Route

	// DropInputs removes existing input routes whose prefix matches
	// (prefix reclamation).
	DropInputs []netmodel.Route
}

// CommandLines counts the total command lines of the plan, for reporting.
func (p *Plan) CommandLines() int {
	n := 0
	for _, block := range p.Commands {
		for _, line := range splitNonEmpty(block) {
			_ = line
			n++
		}
	}
	return n
}

func splitNonEmpty(s string) []string {
	var out []string
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == '\n' {
			line := s[start:i]
			trimmed := ""
			for _, c := range line {
				if c != ' ' && c != '\t' && c != '\r' {
					trimmed = line
					break
				}
			}
			if trimmed != "" {
				out = append(out, line)
			}
			start = i + 1
		}
	}
	return out
}

// Apply produces the updated network model: a deep copy of base with the
// plan's structural edits, then its Delta, applied. The base model is never
// modified.
func (p *Plan) Apply(base *config.Network) (*config.Network, error) {
	updated := base.Clone()

	// New devices first, so commands may also target them.
	for name, text := range p.NewConfigs {
		d, err := config.ParseDevice(name, text)
		if err != nil {
			return nil, fmt.Errorf("change %s: parsing new device %s: %w", p.ID, name, err)
		}
		updated.Devices[d.Name] = d
	}
	for _, n := range p.AddNodes {
		updated.Topo.AddNode(netmodel.Node{Name: n.Name, Loopback: n.Loopback})
	}
	for _, l := range p.AddLinks {
		nl := updated.Topo.AddLink(l)
		// Register the link interfaces on both devices when they exist.
		registerLinkInterfaces(updated, nl)
	}
	for _, id := range p.RemoveLinks {
		if !updated.Topo.RemoveLink(id) {
			return nil, fmt.Errorf("change %s: link %s not found", p.ID, id)
		}
	}
	for _, name := range p.RemoveNodes {
		if updated.Topo.Node(name) == nil {
			return nil, fmt.Errorf("change %s: unknown device %q to remove", p.ID, name)
		}
		updated.Topo.RemoveNode(name)
		delete(updated.Devices, name)
	}
	d, err := p.delta(updated)
	if err != nil {
		return nil, err
	}
	if _, err := d.Apply(updated); err != nil {
		return nil, fmt.Errorf("change %s: %w", p.ID, err)
	}
	return updated, nil
}

// AddNode declares a new topology node.
type AddNode struct {
	Name     string
	Loopback netip.Addr
}

// prefixFor pairs an interface address with its subnet length.
func prefixFor(addr netip.Addr, subnet netip.Prefix) netip.Prefix {
	if !addr.IsValid() {
		return netip.Prefix{}
	}
	bits := addr.BitLen()
	if subnet.IsValid() {
		bits = subnet.Bits()
	}
	return netip.PrefixFrom(addr, bits)
}

func registerLinkInterfaces(net *config.Network, l *netmodel.Link) {
	if d, ok := net.Devices[l.A]; ok {
		if _, exists := d.Interfaces[l.AIface]; !exists {
			d.Interfaces[l.AIface] = &config.Interface{Name: l.AIface, Addr: prefixFor(l.AAddr, l.ANet), ISISCost: l.CostAB, Bandwidth: l.Bandwidth}
		}
	}
	if d, ok := net.Devices[l.B]; ok {
		if _, exists := d.Interfaces[l.BIface]; !exists {
			d.Interfaces[l.BIface] = &config.Interface{Name: l.BIface, Addr: prefixFor(l.BAddr, l.BNet), ISISCost: l.CostBA, Bandwidth: l.Bandwidth}
		}
	}
}

// Delta expresses the plan as a fork of the engine converged on base: its
// up/down toggles, its input changes, and every device its commands
// reconfigure, each block applied to a clone of base's device. A structural
// plan (NewConfigs, AddNodes, AddLinks, RemoveLinks, RemoveNodes) returns
// ok=false and goes through Apply plus a full simulation, as does any plan a
// fleet (pipeline.System.Workers > 0) verifies.
func (p *Plan) Delta(base *config.Network) (d core.Delta, ok bool, err error) {
	if len(p.NewConfigs) > 0 || len(p.AddNodes) > 0 || len(p.AddLinks) > 0 ||
		len(p.RemoveLinks) > 0 || len(p.RemoveNodes) > 0 {
		return core.Delta{}, false, nil
	}
	d, err = p.delta(base)
	return d, err == nil, err
}

// delta is Delta against net, which holds the structural edits.
func (p *Plan) delta(net *config.Network) (core.Delta, error) {
	d := core.Delta{Configs: make(map[string]*config.Device, len(p.Commands)), AddInputs: p.NewInputs, DropInputs: p.DropInputs}
	for _, s := range p.SetLinks {
		if s.Up {
			d.LinksUp = append(d.LinksUp, s.ID)
		} else {
			d.LinksDown = append(d.LinksDown, s.ID)
		}
	}
	for _, s := range p.SetNodes {
		if s.Up {
			d.NodesUp = append(d.NodesUp, s.Name)
		} else {
			d.NodesDown = append(d.NodesDown, s.Name)
		}
	}
	// In device order, so a plan with several bad blocks always reports the
	// same one.
	devices := make([]string, 0, len(p.Commands))
	for device := range p.Commands {
		devices = append(devices, device)
	}
	slices.Sort(devices)
	for _, device := range devices {
		base, ok := net.Devices[device]
		if !ok {
			// Typos in router names are one of Table 6's top root causes;
			// real CLIs reject them, so the plan fails to apply.
			return core.Delta{}, fmt.Errorf("change %s: unknown device %q in commands", p.ID, device)
		}
		dev := base.Clone()
		if err := config.ApplyCommands(dev, p.Commands[device]); err != nil {
			return core.Delta{}, fmt.Errorf("change %s: %w", p.ID, err)
		}
		d.Configs[device] = dev
	}
	return d, nil
}

// ApplyInputs adjusts the input route set per the plan: reclaimed prefixes
// are dropped, newly announced ones appended.
func (p *Plan) ApplyInputs(inputs []netmodel.Route) []netmodel.Route {
	return core.Delta{AddInputs: p.NewInputs, DropInputs: p.DropInputs}.ApplyInputs(inputs)
}
