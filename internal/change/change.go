// Package change models network change plans: the 12 change types of
// Table 2, each consisting of topology deltas and per-device configuration
// command blocks written in the device's own vendor dialect. Applying a plan
// clones the pre-computed base network model and updates it incrementally
// (§2.2's "constructs the updated network model incrementally").
package change

import (
	"fmt"
	"maps"
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

// Apply produces the updated network model: base with the plan's delta
// (Delta) applied to a copy of it. Only the devices the delta leaves alone
// are cloned; the base model is never modified.
func (p *Plan) Apply(base *config.Network) (*config.Network, error) {
	d, err := p.Delta(base)
	if err != nil {
		return nil, err
	}
	updated := &config.Network{Devices: maps.Clone(base.Devices), Topo: base.Topo.Clone()}
	for name, dev := range updated.Devices {
		if _, ok := d.Configs[name]; !ok {
			updated.Devices[name] = dev.Clone()
		}
	}
	if _, err := d.Apply(updated); err != nil {
		return nil, fmt.Errorf("change %s: %w", p.ID, err)
	}
	return updated, nil
}

// Delta expresses the plan as a fork of the engine converged on base. Every
// edit is a configuration: NewConfigs adds devices, RemoveNodes removes them
// (a nil entry), AddLinks writes an IS-IS interface on each end, RemoveLinks
// deletes both, and each command block reconfigures its device, each applied
// to a clone of base's device. SetLinks and SetNodes are its toggles, and
// NewInputs and DropInputs its input changes. The engine derives the topology
// again when a configuration changes it (core.Delta.Apply).
func (p *Plan) Delta(base *config.Network) (core.Delta, error) {
	d := core.Delta{Configs: make(map[string]*config.Device), AddInputs: p.NewInputs, DropInputs: p.DropInputs}
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
	for name, text := range p.NewConfigs {
		dev, err := config.ParseDevice(name, text)
		if err != nil {
			return core.Delta{}, fmt.Errorf("change %s: parsing new device %s: %w", p.ID, name, err)
		}
		d.Configs[dev.Name] = dev
	}
	// device returns name's configuration in d, cloned from base on first use.
	device := func(name string) *config.Device {
		dev, ok := d.Configs[name]
		if !ok && base.Devices[name] != nil {
			dev = base.Devices[name].Clone()
			d.Configs[name] = dev
		}
		return dev
	}
	for _, id := range p.RemoveLinks {
		if base.Topo.Link(id) == nil {
			return core.Delta{}, fmt.Errorf("change %s: link %s not found", p.ID, id)
		}
		delete(device(id.A).Interfaces, id.AIface)
		delete(device(id.B).Interfaces, id.BIface)
	}
	for _, name := range p.RemoveNodes {
		if device(name) == nil {
			return core.Delta{}, fmt.Errorf("change %s: unknown device %q to remove", p.ID, name)
		}
		d.Configs[name] = nil
	}
	for _, l := range p.AddLinks {
		// Each end is an IS-IS interface: l as seen from A, then from B.
		for _, e := range []netmodel.Link{l, {A: l.B, AIface: l.BIface, ANet: l.BNet, AAddr: l.BAddr, CostAB: l.CostBA, TEAB: l.TEBA}} {
			dev := device(e.A)
			if dev == nil {
				return core.Delta{}, fmt.Errorf("change %s: link %s names unknown device %q", p.ID, l.ID(), e.A)
			}
			dev.Interfaces[e.AIface] = &config.Interface{Name: e.AIface, Addr: netip.PrefixFrom(e.AAddr, e.ANet.Bits()),
				ISISCost: e.CostAB, TECost: e.TEAB, Bandwidth: l.Bandwidth}
		}
	}
	// Command blocks go in device order, so a plan with several bad blocks
	// always reports the same one.
	names := make([]string, 0, len(p.Commands))
	for name := range p.Commands {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		dev := device(name)
		if dev == nil {
			// Typos in router names are one of Table 6's top root causes;
			// real CLIs reject them, so the plan fails to apply.
			return core.Delta{}, fmt.Errorf("change %s: unknown device %q in commands", p.ID, name)
		}
		if err := config.ApplyCommands(dev, p.Commands[name]); err != nil {
			return core.Delta{}, fmt.Errorf("change %s: %w", p.ID, err)
		}
	}
	if len(p.AddLinks) > 0 {
		// Each added link must pair two IS-IS interfaces once every edit is in.
		updated := &config.Network{Devices: maps.Clone(base.Devices), Topo: base.Topo.Clone()}
		if _, err := d.Apply(updated); err != nil {
			return core.Delta{}, fmt.Errorf("change %s: %w", p.ID, err)
		}
		for _, l := range p.AddLinks {
			if updated.Topo.Link(l.Canonical().ID()) == nil {
				return core.Delta{}, fmt.Errorf("change %s: added link %s does not pair two IS-IS interfaces", p.ID, l.ID())
			}
		}
	}
	return d, nil
}

// ApplyInputs adjusts the input route set per the plan: reclaimed prefixes
// are dropped, newly announced ones appended.
func (p *Plan) ApplyInputs(inputs []netmodel.Route) []netmodel.Route {
	return core.Delta{AddInputs: p.NewInputs, DropInputs: p.DropInputs}.ApplyInputs(inputs)
}
