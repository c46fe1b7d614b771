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
	"strings"

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

	// Topology deltas. AddLinks writes an IS-IS interface on each end;
	// RemoveLinks and RemoveNodes delete the interfaces and the device.
	AddLinks    []netmodel.Link
	RemoveLinks []netmodel.LinkID
	RemoveNodes []string
	SetLinks    []LinkUpDown
	SetNodes    []NodeUpDown

	// NewConfigs introduces entire new devices (add-routers change type):
	// full configuration texts parsed from scratch. A device is a node of
	// the topology by its configuration alone.
	NewConfigs map[string]string

	// NewInputs are additional input routes injected for the simulation
	// (new prefix announcement).
	NewInputs []netmodel.Route

	// DropInputs removes existing input routes whose prefix matches
	// (prefix reclamation).
	DropInputs []netmodel.Route
}

// CommandLines counts the total command lines of the plan, for reporting:
// every line that is not blank.
func (p *Plan) CommandLines() int {
	n := 0
	for _, block := range p.Commands {
		for _, line := range strings.Split(block, "\n") {
			if strings.TrimSpace(line) != "" {
				n++
			}
		}
	}
	return n
}

// Apply produces the updated network model. Every edit is a configuration
// edit of a deep copy of base: NewConfigs adds devices, AddLinks writes an
// IS-IS interface on each end, RemoveLinks deletes both, RemoveNodes deletes
// the device, and each command block reconfigures its device in place. The
// topology is then derived anew from the configurations, and base's down
// nodes and links that remain, then the plan's SetLinks and SetNodes, are
// applied as a core.Delta. The base model is never modified.
func (p *Plan) Apply(base *config.Network) (*config.Network, error) {
	updated := base.Clone()
	for name, text := range p.NewConfigs {
		d, err := config.ParseDevice(name, text)
		if err != nil {
			return nil, fmt.Errorf("change %s: parsing new device %s: %w", p.ID, name, err)
		}
		updated.Devices[d.Name] = d
	}
	for _, id := range p.RemoveLinks {
		if base.Topo.Link(id) == nil {
			return nil, fmt.Errorf("change %s: link %s not found", p.ID, id)
		}
		delete(updated.Devices[id.A].Interfaces, id.AIface)
		delete(updated.Devices[id.B].Interfaces, id.BIface)
	}
	for _, name := range p.RemoveNodes {
		if updated.Devices[name] == nil {
			return nil, fmt.Errorf("change %s: unknown device %q to remove", p.ID, name)
		}
		delete(updated.Devices, name)
	}
	for _, l := range p.AddLinks {
		// Each end is an IS-IS interface: l as seen from A, then from B.
		for _, e := range []netmodel.Link{l, {A: l.B, AIface: l.BIface, ANet: l.BNet, AAddr: l.BAddr, CostAB: l.CostBA, TEAB: l.TEBA}} {
			d := updated.Devices[e.A]
			if d == nil {
				return nil, fmt.Errorf("change %s: link %s names unknown device %q", p.ID, l.ID(), e.A)
			}
			d.Interfaces[e.AIface] = &config.Interface{Name: e.AIface, Addr: netip.PrefixFrom(e.AAddr, e.ANet.Bits()),
				ISISCost: e.CostAB, TECost: e.TEAB, Bandwidth: l.Bandwidth}
		}
	}
	if err := p.configure(updated.Devices); err != nil {
		return nil, err
	}
	updated.Topo = updated.Topology()
	for _, l := range p.AddLinks {
		if updated.Topo.Link(l.Canonical().ID()) == nil {
			return nil, fmt.Errorf("change %s: added link %s does not pair two IS-IS interfaces", p.ID, l.ID())
		}
	}
	// Delta.Apply flips every element down before any up, so a plan's
	// SetLinks / SetNodes up wins over the base's down state.
	d := p.toggles()
	for _, n := range base.Topo.Nodes() {
		if !n.Up && updated.Topo.Node(n.Name) != nil {
			d.NodesDown = append(d.NodesDown, n.Name)
		}
	}
	for _, l := range base.Topo.Links() {
		if !l.Up && updated.Topo.Link(l.ID()) != nil {
			d.LinksDown = append(d.LinksDown, l.ID())
		}
	}
	if _, err := d.Apply(updated); err != nil {
		return nil, fmt.Errorf("change %s: %w", p.ID, err)
	}
	return updated, nil
}

// Delta expresses the plan as a fork of the engine converged on base: its
// up/down toggles, its input changes, and every device its commands
// reconfigure, each block applied to a clone of base's device. A structural
// plan returns ok=false and goes through Apply plus a full simulation, as
// does any plan a fleet (pipeline.System.Workers > 0) verifies. Structural
// means NewConfigs, AddLinks, RemoveLinks or RemoveNodes, or a command block
// that changes what the topology derives from its device
// (config.ChangesTopology: an IS-IS interface, an address, isis cost,
// te-cost, bandwidth, the loopback).
func (p *Plan) Delta(base *config.Network) (d core.Delta, ok bool, err error) {
	if len(p.NewConfigs) > 0 || len(p.AddLinks) > 0 || len(p.RemoveLinks) > 0 || len(p.RemoveNodes) > 0 {
		return core.Delta{}, false, nil
	}
	configs := make(map[string]*config.Device, len(p.Commands))
	for name := range p.Commands {
		if dev := base.Devices[name]; dev != nil {
			configs[name] = dev.Clone()
		}
	}
	if err := p.configure(configs); err != nil {
		return core.Delta{}, false, err
	}
	for name, dev := range configs {
		if config.ChangesTopology(base.Devices[name], dev) {
			return core.Delta{}, false, nil
		}
	}
	d = p.toggles()
	d.Configs, d.AddInputs, d.DropInputs = configs, p.NewInputs, p.DropInputs
	return d, true, nil
}

// toggles is the delta of the plan's SetLinks and SetNodes.
func (p *Plan) toggles() core.Delta {
	var d core.Delta
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
	return d
}

// configure applies each command block to its device in devices, in place.
// Blocks go in device order, so a plan with several bad blocks always reports
// the same one.
func (p *Plan) configure(devices map[string]*config.Device) error {
	names := make([]string, 0, len(p.Commands))
	for name := range p.Commands {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		dev, ok := devices[name]
		if !ok {
			// Typos in router names are one of Table 6's top root causes;
			// real CLIs reject them, so the plan fails to apply.
			return fmt.Errorf("change %s: unknown device %q in commands", p.ID, name)
		}
		if err := config.ApplyCommands(dev, p.Commands[name]); err != nil {
			return fmt.Errorf("change %s: %w", p.ID, err)
		}
	}
	return nil
}

// ApplyInputs adjusts the input route set per the plan: reclaimed prefixes
// are dropped, newly announced ones appended.
func (p *Plan) ApplyInputs(inputs []netmodel.Route) []netmodel.Route {
	return core.Delta{AddInputs: p.NewInputs, DropInputs: p.DropInputs}.ApplyInputs(inputs)
}
