package intent

import (
	"fmt"
	"math/rand"
	"net/netip"
	"reflect"
	"strings"
	"testing"

	"hoyan/internal/netmodel"
)

func snapRoutes(rows ...netmodel.Route) Snapshot {
	return Snapshot{RIB: netmodel.NewGlobalRIB(rows), Bandwidth: map[netmodel.LinkID]float64{}}
}

func route(dev, prefix, nh string, best bool) netmodel.Route {
	rt := netmodel.RouteCandidate
	if best {
		rt = netmodel.RouteBest
	}
	return netmodel.Route{
		Device: dev, VRF: netmodel.DefaultVRF,
		Prefix:   netip.MustParsePrefix(prefix),
		NextHop:  netip.MustParseAddr(nh),
		Protocol: netmodel.ProtoBGP, RouteType: rt,
	}
}

func TestRouteIntent(t *testing.T) {
	ctx := &Context{
		Base:    snapRoutes(route("A", "10.0.0.0/24", "1.1.1.1", true)),
		Updated: snapRoutes(route("A", "10.0.0.0/24", "2.2.2.2", true)),
	}
	rep := RouteIntent{Spec: "PRE != POST"}.Check(ctx)
	if !rep.Satisfied {
		t.Errorf("%v", rep.Violations)
	}
	rep = RouteIntent{Spec: "PRE = POST"}.Check(ctx)
	if rep.Satisfied || len(rep.Violations) == 0 {
		t.Error("violation with counterexamples expected")
	}
	// Spec errors surface as violations, not panics.
	rep = RouteIntent{Spec: "this is not rcl"}.Check(ctx)
	if rep.Satisfied || !strings.Contains(rep.Violations[0], "specification error") {
		t.Errorf("%v", rep.Violations)
	}
}

func TestReachIntent(t *testing.T) {
	ctx := &Context{Updated: snapRoutes(
		route("A", "10.0.0.0/24", "1.1.1.1", true),
		route("B", "10.0.0.0/24", "1.1.1.1", false), // candidate only
	)}
	p := netip.MustParsePrefix("10.0.0.0/24")
	if rep := (ReachIntent{Prefix: p, Devices: []string{"A"}, Want: true}).Check(ctx); !rep.Satisfied {
		t.Errorf("A has it: %v", rep.Violations)
	}
	if rep := (ReachIntent{Prefix: p, Devices: []string{"B"}, Want: true}).Check(ctx); rep.Satisfied {
		t.Error("candidate-only must not satisfy a best-route reach intent")
	}
	if rep := (ReachIntent{Prefix: p, Devices: []string{"B"}, Want: false}).Check(ctx); !rep.Satisfied {
		t.Error("absence on B holds")
	}
	// Empty device list = all devices in the RIB.
	if rep := (ReachIntent{Prefix: p, Want: true}).Check(ctx); rep.Satisfied {
		t.Error("B lacks a best route, so 'all routers' fails")
	}
}

func flowPath(ing string, dst string, exit netmodel.ExitReason, devs ...string) netmodel.FlowPath {
	hops := make([]netmodel.Hop, len(devs))
	for i, d := range devs {
		hops[i] = netmodel.Hop{Device: d}
	}
	return netmodel.FlowPath{
		Flow: netmodel.Flow{Ingress: ing, Dst: netip.MustParseAddr(dst), Src: netip.MustParseAddr("192.0.2.1")},
		Path: netmodel.Path{Hops: hops, Exit: exit},
	}
}

func TestPathIntent(t *testing.T) {
	ctx := &Context{Updated: Snapshot{Paths: []netmodel.FlowPath{
		flowPath("A", "10.0.0.5", netmodel.ExitDelivered, "A", "B", "C"),
	}}}
	sel := FlowSelector{Ingress: "A", DstWithin: netip.MustParsePrefix("10.0.0.0/24")}
	if rep := (PathIntent{Select: sel, Traverse: []string{"A", "C"}, Delivered: true}).Check(ctx); !rep.Satisfied {
		t.Errorf("subsequence should match: %v", rep.Violations)
	}
	if rep := (PathIntent{Select: sel, Traverse: []string{"C", "A"}}).Check(ctx); rep.Satisfied {
		t.Error("order matters")
	}
	if rep := (PathIntent{Select: sel, Avoid: []string{"B"}}).Check(ctx); rep.Satisfied {
		t.Error("B is on the path")
	}
	if rep := (PathIntent{Select: sel, Blocked: true}).Check(ctx); rep.Satisfied {
		t.Error("delivered flow is not blocked")
	}
	// No matching flow is itself a violation (vacuous truth is dangerous in
	// change verification).
	none := FlowSelector{Ingress: "Z"}
	if rep := (PathIntent{Select: none, Delivered: true}).Check(ctx); rep.Satisfied {
		t.Error("empty selection must not verify")
	}
}

func TestLoadIntent(t *testing.T) {
	id := netmodel.LinkID{A: "A", B: "B", AIface: "x", BIface: "y"}
	ctx := &Context{Updated: Snapshot{
		Load:      netmodel.LinkLoad{id: 95e6},
		Bandwidth: map[netmodel.LinkID]float64{id: 100e6},
	}}
	if rep := (LoadIntent{MaxUtilization: 0.96}).Check(ctx); !rep.Satisfied {
		t.Errorf("under threshold: %v", rep.Violations)
	}
	rep := LoadIntent{MaxUtilization: 0.9}.Check(ctx)
	if rep.Satisfied {
		t.Error("95% > 90% must violate")
	}
	if !strings.Contains(rep.Violations[0], "overloaded") {
		t.Errorf("violation text: %v", rep.Violations)
	}
	// Restricting to other links passes.
	other := netmodel.LinkID{A: "C", B: "D"}
	if rep := (LoadIntent{MaxUtilization: 0.9, Links: []netmodel.LinkID{other}}).Check(ctx); !rep.Satisfied {
		t.Error("restricted link set should pass")
	}
}

func TestVerifyAggregates(t *testing.T) {
	ctx := &Context{
		Base:    snapRoutes(route("A", "10.0.0.0/24", "1.1.1.1", true)),
		Updated: snapRoutes(route("A", "10.0.0.0/24", "1.1.1.1", true)),
	}
	reports, ok := Verify(ctx, []Intent{
		RouteIntent{Spec: "PRE = POST"},
		RouteIntent{Spec: "PRE != POST"},
	})
	if ok {
		t.Error("one intent fails, so ok must be false")
	}
	if len(reports) != 2 || !reports[0].Satisfied || reports[1].Satisfied {
		t.Errorf("reports: %+v", reports)
	}
}

func TestDescribeStrings(t *testing.T) {
	descs := []string{
		RouteIntent{Spec: "PRE = POST"}.Describe(),
		ReachIntent{Prefix: netip.MustParsePrefix("10.0.0.0/24"), Want: true}.Describe(),
		ReachIntent{Prefix: netip.MustParsePrefix("10.0.0.0/24"), Devices: []string{"A"}, Want: false}.Describe(),
		PathIntent{Select: FlowSelector{Ingress: "A"}, Traverse: []string{"A", "B"}, Delivered: true}.Describe(),
		LoadIntent{MaxUtilization: 0.8}.Describe(),
	}
	for _, d := range descs {
		if d == "" {
			t.Error("empty description")
		}
	}
	if !strings.Contains(descs[3], "via A-B") {
		t.Errorf("path describe: %q", descs[3])
	}
}

// reachByScan is ReachIntent.Check as it was before the global RIB had
// blocks: one scan over all rows for the device list, one for the devices
// holding a best route — the reference for the block lookups.
func reachByScan(i ReachIntent, ctx *Context) Report {
	rep := Report{Intent: i.Describe(), Satisfied: true}
	devices := i.Devices
	if len(devices) == 0 {
		seen := map[string]bool{}
		for _, r := range ctx.Updated.RIB.Rows() {
			if !seen[r.Device] {
				seen[r.Device] = true
				devices = append(devices, r.Device)
			}
		}
	}
	has := map[string]bool{}
	for _, r := range ctx.Updated.RIB.Rows() {
		if r.Prefix == i.Prefix && r.RouteType == netmodel.RouteBest {
			has[r.Device] = true
		}
	}
	for _, d := range devices {
		if has[d] != i.Want {
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

// TestReachIntentBlockLookupMatchesScan checks the block-lookup Check against
// the two-scan one on random RIBs — flat ones and fork-style views with
// replaced and purged devices — for prefixes present, absent and present
// with candidate rows only, in either VRF, with Want true and false, explicit
// device lists (including purged and unknown devices) and the empty list.
func TestReachIntentBlockLookupMatchesScan(t *testing.T) {
	rnd := rand.New(rand.NewSource(11))
	devices := []string{"A", "A1", "B", "C", "D", "E"}
	prefixes := []netip.Prefix{
		netip.MustParsePrefix("10.0.0.0/8"), netip.MustParsePrefix("10.0.0.0/24"),
		netip.MustParsePrefix("10.0.1.0/24"), netip.MustParsePrefix("2001:db8::/32"),
	}
	absent := netip.MustParsePrefix("172.16.0.0/12")
	randRows := func(devs []string, n int) []netmodel.Route {
		rows := make([]netmodel.Route, n)
		for k := range rows {
			rows[k] = route(devs[rnd.Intn(len(devs))], "10.0.0.0/8", "1.1.1.1", rnd.Intn(3) == 0)
			rows[k].Prefix = prefixes[rnd.Intn(len(prefixes))]
			rows[k].VRF = []string{netmodel.DefaultVRF, "vrf1", "vrf2"}[rnd.Intn(3)]
			rows[k].NextHop = netip.AddrFrom4([4]byte{1, 1, 1, byte(rnd.Intn(4))})
		}
		return rows
	}
	for trial := 0; trial < 300; trial++ {
		rib := netmodel.NewGlobalRIB(randRows(devices, rnd.Intn(60)))
		if trial%2 == 1 { // a fork's view: one device replaced, one purged
			replaced := map[string]bool{devices[rnd.Intn(len(devices))]: true}
			purged := devices[rnd.Intn(len(devices))]
			var freshDevs []string
			for d := range replaced {
				if d != purged {
					freshDevs = append(freshDevs, d)
				}
			}
			replaced[purged] = true
			var fresh []netmodel.Route
			if len(freshDevs) > 0 {
				fresh = netmodel.NewGlobalRIB(randRows(freshDevs, rnd.Intn(12))).Rows()
			}
			rows := map[string]int{}
			for d := range replaced {
				rows[d] = 0
			}
			for _, r := range fresh {
				rows[r.Device]++
			}
			rib = rib.ReplaceDevices(rows, func(dev string, dst []netmodel.Route) []netmodel.Route {
				for _, r := range fresh {
					if r.Device == dev {
						dst = append(dst, r)
					}
				}
				return dst
			})
		}
		ctx := &Context{Updated: Snapshot{RIB: rib}}
		for _, p := range append([]netip.Prefix{absent}, prefixes...) {
			for _, want := range []bool{true, false} {
				for _, devs := range [][]string{nil, {"A"}, {"B", "A1", "E"}, {"nope", "C", "C"}, devices} {
					in := ReachIntent{Prefix: p, Devices: devs, Want: want}
					if got, ref := in.Check(ctx), reachByScan(in, ctx); !reflect.DeepEqual(got, ref) {
						t.Fatalf("trial %d: %s:\n block lookup %+v\n two scans    %+v", trial, in.Describe(), got, ref)
					}
				}
			}
		}
	}
}

// TestSortLinkIDsMatchesStringOrder pins sortLinkIDs to the order of the
// insertion sort it replaced — ascending LinkID.String(), ties in input order,
// which is the order LoadIntent reports violations in — and to one rendered
// key per link.
func TestSortLinkIDsMatchesStringOrder(t *testing.T) {
	rnd := rand.New(rand.NewSource(16))
	names := []string{"core-0-0", "core-0-1", "core-0-10", "rr-0", "border-1-0", "a", "a[x]"}
	var ids []netmodel.LinkID
	for i := 0; i < 169; i++ {
		ids = append(ids, netmodel.LinkID{
			A: names[rnd.Intn(len(names))], AIface: fmt.Sprintf("e%d", rnd.Intn(12)),
			B: names[rnd.Intn(len(names))], BIface: fmt.Sprintf("e%d", rnd.Intn(12)),
		})
	}
	ref := append([]netmodel.LinkID(nil), ids...)
	for i := 1; i < len(ref); i++ { // the old comparator, verbatim
		for j := i; j > 0 && ref[j].String() < ref[j-1].String(); j-- {
			ref[j], ref[j-1] = ref[j-1], ref[j]
		}
	}
	got := append([]netmodel.LinkID(nil), ids...)
	sortLinkIDs(got)
	if !reflect.DeepEqual(got, ref) {
		t.Fatalf("sortLinkIDs order differs from the String() insertion sort")
	}

	scratch := make([]netmodel.LinkID, len(ids))
	allocs := testing.AllocsPerRun(20, func() {
		copy(scratch, ids)
		sortLinkIDs(scratch)
	})
	if bound := float64(len(ids) + 4); allocs > bound {
		t.Errorf("sortLinkIDs made %.0f allocations for %d links; bound %.0f (one key each)", allocs, len(ids), bound)
	}
}
