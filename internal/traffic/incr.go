package traffic

import (
	"net/netip"
	"slices"

	"hoyan/internal/netmodel"
)

// Trace records, for one flow, every device whose forwarding state the
// simulation consulted (RIB lookups, IGP first hops, adjacent link state),
// plus the flow's per-link volume shares in BFS order. A flow's result can
// only change if the state of one of its traced devices changed, so traces
// let a re-simulation skip flows the delta cannot reach.
type Trace struct {
	devs map[string]bool
	// deps records every IGP first-hop query the walk made, as
	// device → queried targets. A changed first-hop set only matters to
	// this flow if the exact (device, target) pair was consulted.
	deps     map[string]map[string]bool
	contribs []linkShare
}

func (t *Trace) see(dev string) {
	if t == nil {
		return
	}
	if t.devs == nil {
		t.devs = make(map[string]bool, 8)
	}
	t.devs[dev] = true
}

// dep records that the walk consulted dev's IGP first hops toward target.
func (t *Trace) dep(dev, target string) {
	if t == nil {
		return
	}
	if t.deps == nil {
		t.deps = make(map[string]map[string]bool, 4)
	}
	m := t.deps[dev]
	if m == nil {
		m = make(map[string]bool, 2)
		t.deps[dev] = m
	}
	m[target] = true
}

// Touches reports whether the trace consulted any of the changed devices, or
// made an IGP first-hop query whose answer changed (hopsChanged maps each
// device with a changed IGP view to the destinations whose first-hop set
// differs from base).
func (t *Trace) Touches(changed map[string]bool, hopsChanged map[string]map[string]bool) bool {
	if t == nil {
		return true
	}
	for dev := range t.devs {
		if changed[dev] {
			return true
		}
	}
	for dev, targets := range t.deps {
		hc := hopsChanged[dev]
		if hc == nil {
			continue
		}
		for x := range targets {
			if hc[x] {
				return true
			}
		}
	}
	return false
}

// TouchesRIB reports whether any visited device has a changed RIB prefix
// covering dst. A flow's RIB lookups are longest-prefix matches on its
// destination, so when no differing prefix at any visited device contains the
// destination, every lookup the flow made (including misses) answers exactly
// as it did in the base run.
func (t *Trace) TouchesRIB(ribDiff map[string][]netip.Prefix, dst netip.Addr) bool {
	if t == nil {
		return true
	}
	if len(ribDiff) == 0 {
		return false
	}
	for dev := range t.devs {
		for _, p := range ribDiff[dev] {
			if p.Contains(dst) {
				return true
			}
		}
	}
	return false
}

// SameForwarding reports whether two row sets of one (device, prefix) forward
// every flow alike: the same rows in the same order, IGP cost aside. The
// forwarder reads a prefix's best rows for their next hops and never
// Route.IGPCost — a moved IGP distance reaches a flow through the first-hop
// queries its trace recorded (Trace.Touches), and a best set it re-elects
// shows in the rows' RouteType — so a prefix whose rows differ in cost alone
// belongs in no ribDiff.
func SameForwarding(a, b []netmodel.Route) bool {
	return slices.EqualFunc(a, b, func(x, y netmodel.Route) bool {
		x.IGPCost = y.IGPCost
		return x.Identical(y)
	})
}

// SimulateTraced is Simulate plus a per-flow trace usable with Resimulate.
// Results are identical to Simulate's.
func (f *Forwarder) SimulateTraced(flows []netmodel.Flow) (*Result, []Trace) {
	res, traces, _ := f.forward(flows, true, nil, nil, nil)
	return res, traces
}

// Resimulate forwards only the flows whose base trace touches a changed
// device, a changed (device, target) IGP query, or a changed RIB prefix
// covering the flow's destination, copying the base path and contributions
// for every other flow. It returns the new result, the new traces, and the
// number of flows reused. The result is byte-identical to a full simulation
// whatever subset was recomputed.
//
// flows must be the same slice contents the base was simulated with; base
// traces of another length are not reused.
func (f *Forwarder) Resimulate(flows []netmodel.Flow, base *Result, baseTraces []Trace, changed map[string]bool, hopsChanged map[string]map[string]bool, ribDiff map[string][]netip.Prefix) (*Result, []Trace, int) {
	var reuse func(i int) bool
	if len(baseTraces) == len(flows) && len(base.Paths) == len(flows) {
		reuse = func(i int) bool {
			return !baseTraces[i].Touches(changed, hopsChanged) && !baseTraces[i].TouchesRIB(ribDiff, flows[i].Dst)
		}
	}
	return f.forward(flows, true, reuse, base, baseTraces)
}
