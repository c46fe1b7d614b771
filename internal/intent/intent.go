// Package intent implements Hoyan's change-intent verification: given the
// simulated base and updated network states, it checks the operator's
// formally specified intents and produces counterexamples for violations
// (§2.2). The paper identifies three intent families with different
// abstractions:
//
//   - route change intents, written in RCL (§4);
//   - flow path change intents (a Rela-like path constraint language);
//   - traffic load intents (utilization thresholds).
//
// Reachability intents — the original Hoyan's bread and butter — are kept as
// a fourth, simpler family.
package intent

import (
	"fmt"
	"net/netip"
	"slices"
	"strings"

	"hoyan/internal/core"
	"hoyan/internal/netmodel"
	"hoyan/internal/rcl"
)

// Snapshot is one simulated network state an intent is checked against.
type Snapshot struct {
	RIB   *netmodel.GlobalRIB
	Paths []netmodel.FlowPath
	Load  netmodel.LinkLoad
	// Bandwidth maps links to capacity (bits/second) for load intents.
	Bandwidth map[netmodel.LinkID]float64
}

// SnapshotOf is the state an engine result hands to intents: its global RIB,
// paths and loads as simulated, and the bandwidths of the topology simulated.
func SnapshotOf(res *core.Result) *Snapshot {
	snap := &Snapshot{RIB: res.Routes.GlobalRIB(), Bandwidth: res.Bandwidth}
	if res.Traffic != nil {
		snap.Paths = res.Traffic.Traffic.Paths
		snap.Load = res.Traffic.Traffic.Load
	}
	return snap
}

// Context carries the base (pre-change) and updated (post-change) states.
type Context struct {
	Base    Snapshot
	Updated Snapshot
}

// Intent is one formally specified change intent.
type Intent interface {
	// Describe returns a one-line human-readable summary.
	Describe() string
	// Check evaluates the intent and returns its report.
	Check(ctx *Context) Report
}

// Report is the outcome of checking one intent.
type Report struct {
	Intent    string
	Satisfied bool
	// Violations are human-readable counterexamples (routes, flows, links).
	Violations []string
}

// Verify checks every intent and returns the reports; ok is true when all
// intents are satisfied.
func Verify(ctx *Context, intents []Intent) (reports []Report, ok bool) {
	ok = true
	for _, it := range intents {
		rep := it.Check(ctx)
		if !rep.Satisfied {
			ok = false
		}
		reports = append(reports, rep)
	}
	return reports, ok
}

// ---- route change intents (RCL) ----

// RouteIntent wraps an RCL specification.
type RouteIntent struct {
	Spec string
}

// Describe implements Intent.
func (i RouteIntent) Describe() string { return "rcl: " + i.Spec }

// Check implements Intent.
func (i RouteIntent) Check(ctx *Context) Report {
	rep := Report{Intent: i.Describe()}
	g, err := rcl.Parse(i.Spec)
	if err != nil {
		rep.Violations = []string{"specification error: " + err.Error()}
		return rep
	}
	res, err := rcl.Check(g, ctx.Base.RIB, ctx.Updated.RIB)
	if err != nil {
		rep.Violations = []string{"evaluation error: " + err.Error()}
		return rep
	}
	rep.Satisfied = res.Holds
	for _, v := range res.Violations {
		rep.Violations = append(rep.Violations, v.String())
		for _, r := range v.Routes {
			rep.Violations = append(rep.Violations, "  route: "+r.String())
		}
	}
	return rep
}

// ---- reachability intents ----

// ReachIntent asserts the presence (or absence) of a prefix's best route on
// a set of devices in the updated state.
type ReachIntent struct {
	Prefix  netip.Prefix
	Devices []string // empty: every device appearing in the updated RIB
	Want    bool     // true: must be present; false: must be absent
}

// Describe implements Intent.
func (i ReachIntent) Describe() string {
	verb := "reaches"
	if !i.Want {
		verb = "is absent from"
	}
	where := "all routers"
	if len(i.Devices) > 0 {
		where = strings.Join(i.Devices, ",")
	}
	return fmt.Sprintf("reach: %s %s %s", i.Prefix, verb, where)
}

// Check implements Intent. It reads the RIB through its per-device blocks:
// the device list comes from the block heads and each (device, prefix) is a
// binary search, so checking a what-if fork never flattens its RIB.
func (i ReachIntent) Check(ctx *Context) Report {
	rep := Report{Intent: i.Describe(), Satisfied: true}
	rib := ctx.Updated.RIB
	devices := i.Devices
	if len(devices) == 0 {
		for _, b := range rib.Blocks() {
			devices = append(devices, b[0].Device)
		}
	}
	for _, d := range devices {
		if hasBest(rib, d, i.Prefix) != i.Want {
			rep.Satisfied = false
			if i.Want {
				rep.Violations = append(rep.Violations, fmt.Sprintf("%s has no best route for %s", d, i.Prefix))
			} else {
				rep.Violations = append(rep.Violations, fmt.Sprintf("%s still has a route for %s", d, i.Prefix))
			}
		}
	}
	return rep
}

// hasBest reports whether device holds a best route for prefix in any VRF.
func hasBest(rib *netmodel.GlobalRIB, device string, prefix netip.Prefix) bool {
	found := false
	rib.Lookup(device, prefix, func(rows []netmodel.Route) {
		for k := range rows {
			found = found || rows[k].RouteType == netmodel.RouteBest
		}
	})
	return found
}

// ---- flow path change intents ----

// FlowSelector picks the flows an intent talks about.
type FlowSelector struct {
	Ingress   string       // "" = any
	DstWithin netip.Prefix // zero = any
}

// Matches reports whether the selector picks the flow.
func (s FlowSelector) Matches(f netmodel.Flow) bool {
	if s.Ingress != "" && f.Ingress != s.Ingress {
		return false
	}
	if s.DstWithin.IsValid() && !s.DstWithin.Contains(f.Dst) {
		return false
	}
	return true
}

func (s FlowSelector) String() string {
	parts := []string{}
	if s.Ingress != "" {
		parts = append(parts, "ingress="+s.Ingress)
	}
	if s.DstWithin.IsValid() {
		parts = append(parts, "dst in "+s.DstWithin.String())
	}
	if len(parts) == 0 {
		return "all flows"
	}
	return strings.Join(parts, " ")
}

// PathIntent constrains the updated forwarding paths of the selected flows
// (the Rela-style flow path change intents of Table 2).
type PathIntent struct {
	Select FlowSelector
	// Traverse requires every selected flow's path to visit these devices
	// in order (as a subsequence).
	Traverse []string
	// Avoid forbids these devices on any selected flow's path.
	Avoid []string
	// AvoidLinks forbids these links.
	AvoidLinks []netmodel.LinkID
	// Delivered requires the flows to exit normally (delivered or to-peer).
	Delivered bool
	// Blocked requires the flows to be dropped by an ACL ("all matching
	// flows should be blocked", Table 2's ACL modification intent).
	Blocked bool
}

// Describe implements Intent.
func (i PathIntent) Describe() string {
	var parts []string
	if len(i.Traverse) > 0 {
		parts = append(parts, "via "+strings.Join(i.Traverse, "-"))
	}
	if len(i.Avoid) > 0 {
		parts = append(parts, "avoiding "+strings.Join(i.Avoid, ","))
	}
	if len(i.AvoidLinks) > 0 {
		parts = append(parts, fmt.Sprintf("avoiding %d links", len(i.AvoidLinks)))
	}
	if i.Delivered {
		parts = append(parts, "delivered")
	}
	if i.Blocked {
		parts = append(parts, "blocked")
	}
	return fmt.Sprintf("path: %s %s", i.Select, strings.Join(parts, ", "))
}

// Check implements Intent.
func (i PathIntent) Check(ctx *Context) Report {
	rep := Report{Intent: i.Describe(), Satisfied: true}
	matched := 0
	for _, fp := range ctx.Updated.Paths {
		if !i.Select.Matches(fp.Flow) {
			continue
		}
		matched++
		devs := fp.Path.Devices()
		if i.Delivered && fp.Path.Exit != netmodel.ExitDelivered && fp.Path.Exit != netmodel.ExitToPeer {
			rep.Satisfied = false
			rep.Violations = append(rep.Violations,
				fmt.Sprintf("flow %s: %s (%s)", fp.Flow, strings.Join(devs, "-"), fp.Path.Exit))
			continue
		}
		if i.Blocked && fp.Path.Exit != netmodel.ExitACLDenied {
			rep.Satisfied = false
			rep.Violations = append(rep.Violations,
				fmt.Sprintf("flow %s not blocked: %s (%s)", fp.Flow, strings.Join(devs, "-"), fp.Path.Exit))
			continue
		}
		if len(i.Traverse) > 0 && !isSubsequence(i.Traverse, devs) {
			rep.Satisfied = false
			rep.Violations = append(rep.Violations,
				fmt.Sprintf("flow %s takes %s, not via %s", fp.Flow, strings.Join(devs, "-"), strings.Join(i.Traverse, "-")))
		}
		for _, avoid := range i.Avoid {
			for _, d := range devs {
				if d == avoid {
					rep.Satisfied = false
					rep.Violations = append(rep.Violations,
						fmt.Sprintf("flow %s traverses forbidden device %s", fp.Flow, avoid))
				}
			}
		}
		for _, id := range i.AvoidLinks {
			if fp.Path.Traverses(id) {
				rep.Satisfied = false
				rep.Violations = append(rep.Violations,
					fmt.Sprintf("flow %s traverses forbidden link %s", fp.Flow, id))
			}
		}
	}
	if matched == 0 {
		rep.Satisfied = false
		rep.Violations = append(rep.Violations, "no simulated flow matches the selector")
	}
	return rep
}

func isSubsequence(want, seq []string) bool {
	i := 0
	for _, d := range seq {
		if i < len(want) && d == want[i] {
			i++
		}
	}
	return i == len(want)
}

// ---- traffic load intents ----

// LoadIntent asserts no link exceeds the utilization threshold in the
// updated state ("no overloaded links", Table 2).
type LoadIntent struct {
	// MaxUtilization is the permitted load/bandwidth fraction (e.g. 0.8).
	MaxUtilization float64
	// Links restricts the check; empty means every link with known
	// bandwidth.
	Links []netmodel.LinkID
}

// Describe implements Intent.
func (i LoadIntent) Describe() string {
	return fmt.Sprintf("load: utilization <= %.0f%%", i.MaxUtilization*100)
}

// Check implements Intent.
func (i LoadIntent) Check(ctx *Context) Report {
	rep := Report{Intent: i.Describe(), Satisfied: true}
	check := func(id netmodel.LinkID) {
		bw := ctx.Updated.Bandwidth[id]
		if bw <= 0 {
			return
		}
		if load := ctx.Updated.Load[id]; load > bw*i.MaxUtilization {
			rep.Satisfied = false
			rep.Violations = append(rep.Violations,
				fmt.Sprintf("link %s overloaded: %.0f of %.0f bps (%.0f%%)", id, load, bw, 100*load/bw))
		}
	}
	if len(i.Links) > 0 {
		for _, id := range i.Links {
			check(id)
		}
		return rep
	}
	ids := make([]netmodel.LinkID, 0, len(ctx.Updated.Bandwidth))
	for id := range ctx.Updated.Bandwidth {
		ids = append(ids, id)
	}
	sortLinkIDs(ids)
	for _, id := range ids {
		check(id)
	}
	return rep
}

// sortLinkIDs orders ids by their String() rendering, the order violations
// are reported in, rendering each ID once.
func sortLinkIDs(ids []netmodel.LinkID) {
	type keyed struct {
		key string
		id  netmodel.LinkID
	}
	ks := make([]keyed, len(ids))
	for i, id := range ids {
		ks[i] = keyed{id.String(), id}
	}
	slices.SortStableFunc(ks, func(a, b keyed) int { return strings.Compare(a.key, b.key) })
	for i := range ks {
		ids[i] = ks[i].id
	}
}
