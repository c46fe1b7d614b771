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
// let a re-simulation skip flows the delta cannot reach. Devices are the
// dense IDs of the index the trace was recorded on, so a trace is only
// reused on an index with the same devices, links and address owners — a
// fork's whose configurations derive the base's topology
// (netmodel.TopoIndex.Changes).
type Trace struct {
	// devs is every device a step was computed at, sorted and unique; NoDev
	// stands for an ingress outside the index, which no delta can be matched
	// against, so such a flow is always forwarded again.
	devs []netmodel.DevID
	// deps records every IGP first-hop query the walk made, sorted and
	// unique. A changed first-hop set only matters to this flow if the exact
	// (device, target) pair was consulted.
	deps     []igpQuery
	contribs []linkShare
	capped   bool
}

// igpQuery is a consulted IGP first-hop set: dev's first hops toward target.
type igpQuery struct {
	dev, target netmodel.DevID
}

func compareQueries(a, b igpQuery) int {
	if a.dev != b.dev {
		return int(a.dev) - int(b.dev)
	}
	return int(a.target) - int(b.target)
}

// finishTrace copies the walker's recorded devices and IGP queries into t,
// sorted, unique, at their exact length.
func (w *walker) finishTrace(t *Trace) {
	slices.Sort(w.devs)
	w.devs = slices.Compact(w.devs)
	t.devs = make([]netmodel.DevID, len(w.devs))
	copy(t.devs, w.devs)
	if len(w.deps) > 0 {
		slices.SortFunc(w.deps, compareQueries)
		w.deps = slices.Compact(w.deps)
		t.deps = make([]igpQuery, len(w.deps))
		copy(t.deps, w.deps)
	}
}

// changes is a delta against the base in the index's dense IDs.
type changes struct {
	devs []bool            // by DevID: flipped, downed or reconfigured
	hops map[igpQuery]bool // IGP first-hop sets that differ from the base
	ribs [][]netip.Prefix  // by DevID: prefixes whose rows forward differently
}

// changesOf interns a delta's device names; a name outside the index can be
// in no trace.
func (f *Forwarder) changesOf(changed map[string]bool, hopsChanged map[string]map[string]bool, ribDiff map[string][]netip.Prefix) *changes {
	c := &changes{devs: make([]bool, f.idx.NumDevices())}
	for name, ch := range changed {
		if id, ok := f.idx.DevID(name); ok && ch {
			c.devs[id] = true
		}
	}
	for src, targets := range hopsChanged {
		sid, ok := f.idx.DevID(src)
		if !ok {
			continue
		}
		for dst, ch := range targets {
			if tid, ok := f.idx.DevID(dst); ok && ch {
				if c.hops == nil {
					c.hops = make(map[igpQuery]bool)
				}
				c.hops[igpQuery{sid, tid}] = true
			}
		}
	}
	if len(ribDiff) > 0 {
		c.ribs = make([][]netip.Prefix, f.idx.NumDevices())
		for name, ps := range ribDiff {
			if id, ok := f.idx.DevID(name); ok {
				c.ribs[id] = ps
			}
		}
	}
	return c
}

// touches reports whether the trace consulted a changed device, made an IGP
// first-hop query whose answer changed, or visited a device with a changed
// RIB prefix covering dst. A flow's RIB lookups are longest-prefix matches on
// its destination, so when no differing prefix at any visited device contains
// the destination, every lookup the flow made (including misses) answers
// exactly as it did in the base run.
func (t *Trace) touches(c *changes, dst netip.Addr) bool {
	for _, d := range t.devs {
		if d == netmodel.NoDev || c.devs[d] {
			return true
		}
		if c.ribs != nil {
			for _, p := range c.ribs[d] {
				if p.Contains(dst) {
					return true
				}
			}
		}
	}
	for _, q := range t.deps {
		if c.hops[q] {
			return true
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

// Resimulate forwards flows against a traced base run, copying a flow's base
// path and contributions when the flow is one the base forwarded and its
// base trace touches no changed device, no changed (device, target) IGP
// query and no changed RIB prefix covering its destination; it walks every
// other flow, untraced. baseOf maps flow i to the base flow it equals —
// same fields, Volume bit for bit — or to -1 for one it must walk; nil means
// flows is the base's own list. The link shares are summed in the order of
// flows, so the result is byte-identical to a full simulation of flows
// whatever subset was walked. It returns the result and the number of flows
// reused.
//
// Base traces that do not cover base's paths are not reused.
func (f *Forwarder) Resimulate(flows []netmodel.Flow, baseOf []int32, base *Result, baseTraces []Trace, changed map[string]bool, hopsChanged map[string]map[string]bool, ribDiff map[string][]netip.Prefix) (*Result, int) {
	var reuse func(i int) int
	if len(baseTraces) == len(base.Paths) && (baseOf != nil || len(flows) == len(base.Paths)) {
		c := f.changesOf(changed, hopsChanged, ribDiff)
		reuse = func(i int) int {
			k := i
			if baseOf != nil {
				k = int(baseOf[i])
			}
			if k < 0 || baseTraces[k].touches(c, flows[i].Dst) {
				return -1
			}
			return k
		}
	}
	res, _, reused := f.forward(flows, false, reuse, base, baseTraces)
	return res, reused
}
