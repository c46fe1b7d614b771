// Package monitor simulates the WAN's monitoring systems (§2.1): the BGP
// route monitoring system (session-based collection plus BMP), the traffic
// monitoring system (NetFlow/sFlow flow records and SNMP link counters), and
// the topology management system.
//
// Collectors sample a *ground-truth* simulation (the repo's stand-in for the
// live network) and reproduce the real systems' blind spots — only best
// routes are advertised to the BGP agent, locally-significant attributes
// (weight) do not propagate, ECMP siblings are hidden — plus injectable
// faults for the Table 4 accuracy campaign (agent failures, NetFlow volume
// bugs, stale topology).
package monitor

import (
	"math/rand"
	"net/netip"
	"slices"
	"strings"

	"hoyan/internal/netmodel"
)

// Faults configures monitoring-system defects to inject.
type Faults struct {
	// FailedRouteAgents lists devices whose BGP agent is down: none of
	// their routes are collected.
	FailedRouteAgents []string

	// FlowVolumeScale multiplies reported link loads (a vendor NetFlow
	// implementation bug). 0 means "no fault" (scale 1.0).
	FlowVolumeScale float64

	// HiddenLinks are links the topology system fails to report (stale
	// topology data).
	HiddenLinks []netmodel.LinkID

	// LoadNoise adds multiplicative noise of ±LoadNoise (fraction) to SNMP
	// counters, seeded deterministically.
	LoadNoise float64
	NoiseSeed int64
}

// RouteMonitor is the BGP route-collection system.
type RouteMonitor struct {
	// BMPDevices have the BGP Monitoring Protocol deployed: their full RIB
	// (including ECMP siblings) is visible. Other devices advertise only
	// their best route per prefix over the collection session.
	BMPDevices map[string]bool

	Faults Faults
}

// Collect samples the ground-truth global RIB the way the production
// monitoring system would see it: its projection, less the routes of every
// device whose agent failed.
func (m *RouteMonitor) Collect(truth *netmodel.GlobalRIB) *netmodel.GlobalRIB {
	return m.Lose(m.Project(truth))
}

// Project restricts a global RIB to what the monitoring system can see,
// faults aside: best routes only and, from a device without BMP, one best
// route per (vrf, prefix) with weight and IGP cost zeroed. Rows that held
// one attribute set share one weight-zeroed set.
func (m *RouteMonitor) Project(rib *netmodel.GlobalRIB) *netmodel.GlobalRIB {
	type tableKey struct {
		dev, vrf string
		p        netip.Prefix
	}
	var rows []netmodel.Route
	seenBest := map[tableKey]bool{}
	zeroed := map[*netmodel.Attrs]*netmodel.Attrs{}
	for _, r := range rib.Rows() {
		if r.RouteType != netmodel.RouteBest {
			continue // only selected routes are visible at all
		}
		if !m.BMPDevices[r.Device] {
			// Session-based collection: the router advertises one best route
			// per (vrf, prefix); ECMP siblings are invisible, and the
			// locally-significant weight attribute does not propagate.
			key := tableKey{r.Device, r.VRF, r.Prefix}
			if seenBest[key] {
				continue
			}
			seenBest[key] = true
			z, ok := zeroed[r.Attrs]
			if !ok {
				was := r.Attrs
				a := *r.Attr()
				a.Weight = 0
				r.SetAttrs(&a)
				z = r.Attrs
				zeroed[was] = z
			}
			r.Attrs = z
			r.IGPCost = 0
		}
		rows = append(rows, r)
	}
	// The rows keep rib's order: a row without BMP is the only one of its
	// (device, vrf, prefix), so its zeroed attributes decide no tie.
	return netmodel.NewGlobalRIBFromSorted(rows)
}

// Lose drops from a projected RIB the routes of every device whose agent
// failed.
func (m *RouteMonitor) Lose(projected *netmodel.GlobalRIB) *netmodel.GlobalRIB {
	failed := make(map[string]int, len(m.Faults.FailedRouteAgents))
	for _, d := range m.Faults.FailedRouteAgents {
		failed[d] = 0
	}
	return projected.ReplaceDevices(failed, nil)
}

// LiveShow is the guarded "show command" comparison path: it returns the
// full-fidelity routes of selected prefixes from the live network (showing
// all routes is prohibited in production, §5.1). A prefix that does not
// parse matches nothing.
func LiveShow(truth *netmodel.GlobalRIB, prefixes []string) []netmodel.Route {
	want := make(map[netip.Prefix]bool, len(prefixes))
	for _, p := range prefixes {
		if pfx, err := netip.ParsePrefix(p); err == nil {
			want[pfx] = true
		}
	}
	var out []netmodel.Route
	for _, r := range truth.Rows() {
		if want[r.Prefix] {
			out = append(out, r)
		}
	}
	return out
}

// TrafficMonitor is the NetFlow/sFlow + SNMP traffic-collection system.
type TrafficMonitor struct {
	Faults Faults
}

// CollectLoads samples the ground-truth per-link loads as SNMP counters,
// applying the configured faults and noise.
func (m *TrafficMonitor) CollectLoads(truth netmodel.LinkLoad) netmodel.LinkLoad {
	scale := m.Faults.FlowVolumeScale
	if scale == 0 {
		scale = 1.0
	}
	hidden := make(map[netmodel.LinkID]bool, len(m.Faults.HiddenLinks))
	for _, id := range m.Faults.HiddenLinks {
		hidden[id] = true
	}
	rnd := rand.New(rand.NewSource(m.Faults.NoiseSeed))
	out := make(netmodel.LinkLoad, len(truth))

	ids := make([]netmodel.LinkID, 0, len(truth))
	for id := range truth {
		ids = append(ids, id)
	}
	slices.SortFunc(ids, func(a, b netmodel.LinkID) int { return strings.Compare(a.String(), b.String()) })
	for _, id := range ids {
		if hidden[id] {
			continue
		}
		v := truth[id] * scale
		if m.Faults.LoadNoise > 0 {
			v *= 1 + (rnd.Float64()*2-1)*m.Faults.LoadNoise
		}
		out[id] = v
	}
	return out
}
