package policy

import (
	"net/netip"
	"testing"

	"hoyan/internal/netmodel"
	"hoyan/internal/vsb"
)

func pfx(s string) netip.Prefix { return netip.MustParsePrefix(s) }
func addr(s string) netip.Addr  { return netip.MustParseAddr(s) }

func TestPrefixEntryMatches(t *testing.T) {
	tests := []struct {
		entry PrefixEntry
		p     string
		want  bool
	}{
		// Exact match only.
		{PrefixEntry{Prefix: pfx("10.0.0.0/24")}, "10.0.0.0/24", true},
		{PrefixEntry{Prefix: pfx("10.0.0.0/24")}, "10.0.0.0/25", false},
		{PrefixEntry{Prefix: pfx("10.0.0.0/24")}, "10.0.1.0/24", false},
		// le extends to more specific.
		{PrefixEntry{Prefix: pfx("10.0.0.0/24"), Le: 32}, "10.0.0.8/32", true},
		{PrefixEntry{Prefix: pfx("10.0.0.0/24"), Le: 28}, "10.0.0.0/30", false},
		// ge sets the floor; hi defaults to address length.
		{PrefixEntry{Prefix: pfx("10.0.0.0/8"), Ge: 24}, "10.1.2.0/24", true},
		{PrefixEntry{Prefix: pfx("10.0.0.0/8"), Ge: 24}, "10.1.0.0/16", false},
		{PrefixEntry{Prefix: pfx("10.0.0.0/8"), Ge: 24}, "10.1.2.3/32", true},
		// ge+le window.
		{PrefixEntry{Prefix: pfx("10.0.0.0/8"), Ge: 16, Le: 24}, "10.1.2.0/24", true},
		{PrefixEntry{Prefix: pfx("10.0.0.0/8"), Ge: 16, Le: 24}, "10.1.2.0/25", false},
		// Family mismatch never matches at the entry level.
		{PrefixEntry{Prefix: pfx("10.0.0.0/8"), Le: 128}, "2001:db8::/64", false},
	}
	for _, tt := range tests {
		if got := tt.entry.Matches(pfx(tt.p)); got != tt.want {
			t.Errorf("entry %+v match %s = %v, want %v", tt.entry, tt.p, got, tt.want)
		}
	}
}

func TestPrefixListFirstMatchWins(t *testing.T) {
	l := &PrefixList{Name: "PL", Family: FamilyIPv4, Entries: []PrefixEntry{
		{Permit: false, Prefix: pfx("10.0.1.0/24")},
		{Permit: true, Prefix: pfx("10.0.0.0/16"), Le: 32},
	}}
	prof := vsb.Alpha()
	if l.Match(pfx("10.0.1.0/24"), prof) {
		t.Error("deny entry should win")
	}
	if !l.Match(pfx("10.0.2.0/24"), prof) {
		t.Error("permit entry should match")
	}
	if l.Match(pfx("192.168.0.0/24"), prof) {
		t.Error("implicit deny for no match")
	}
}

func TestPrefixListIPv6VSB(t *testing.T) {
	// Figure 10(b): IPv4 "ip-prefix" list applied to IPv6 routes.
	l := &PrefixList{Name: "PL", Family: FamilyIPv4, Entries: []PrefixEntry{
		{Permit: true, Prefix: pfx("10.0.0.0/8"), Le: 32},
	}}
	v6 := pfx("2001:db8::/48")
	permissive := vsb.Alpha() // IPPrefixFilterPermitsIPv6 = true
	strict := vsb.Beta()
	if !l.Match(v6, permissive) {
		t.Error("permissive vendor must permit all IPv6 prefixes through an IPv4 list")
	}
	if l.Match(v6, strict) {
		t.Error("strict vendor must not match IPv6 against an IPv4 list")
	}
	// A proper IPv6 list is unaffected by the VSB.
	l6 := &PrefixList{Name: "PL6", Family: FamilyIPv6, Entries: []PrefixEntry{
		{Permit: true, Prefix: pfx("2001:db8::/32"), Le: 128},
	}}
	if !l6.Match(v6, strict) {
		t.Error("IPv6 list should match IPv6 prefix")
	}
}

func TestCommunityList(t *testing.T) {
	l := &CommunityList{Name: "CL", Entries: []CommunityEntry{
		{Permit: false, Community: netmodel.MustCommunity("666:0")},
		{Permit: true, Community: netmodel.MustCommunity("100:1")},
	}}
	if !l.Match(netmodel.NewCommunitySet(netmodel.MustCommunity("100:1"), netmodel.MustCommunity("7:7"))) {
		t.Error("want permit for 100:1")
	}
	if l.Match(netmodel.NewCommunitySet(netmodel.MustCommunity("666:0"), netmodel.MustCommunity("100:1"))) {
		t.Error("deny entry is first; want deny")
	}
	if l.Match(netmodel.NewCommunitySet(netmodel.MustCommunity("9:9"))) {
		t.Error("implicit deny")
	}
}

func TestASPathList(t *testing.T) {
	l := &ASPathList{Name: "AP", Entries: []ASPathEntry{
		{Permit: true, Regex: `(^|.* )123( .*|$)`},
	}}
	if !l.Match("65001 123 65002") {
		t.Error("want match for AS 123 in path")
	}
	if l.Match("65001 1234 65002") {
		t.Error("1234 must not match 123 with correct regex")
	}
}

func TestACL(t *testing.T) {
	a := &ACL{Name: "A1", Entries: []ACLEntry{
		{Permit: false, Dst: pfx("10.0.0.0/24"), Proto: netmodel.ProtoTCP, DstPortLo: 80, DstPortHi: 80},
		{Permit: true},
	}}
	blocked := netmodel.Flow{Src: addr("1.1.1.1"), Dst: addr("10.0.0.5"), Proto: netmodel.ProtoTCP, DstPort: 80}
	if a.Permits(blocked) {
		t.Error("should block TCP/80 to 10.0.0.0/24")
	}
	okFlow := blocked
	okFlow.DstPort = 443
	if !a.Permits(okFlow) {
		t.Error("should permit other ports")
	}
	udp := blocked
	udp.Proto = netmodel.ProtoUDP
	if !a.Permits(udp) {
		t.Error("should permit UDP")
	}
	empty := &ACL{Name: "E"}
	if empty.Permits(okFlow) {
		t.Error("empty ACL has implicit deny")
	}
}

func testEnv(prof vsb.Profile) Env {
	return Env{
		Profile: prof,
		PrefixLists: map[string]*PrefixList{
			"PL10": {Name: "PL10", Family: FamilyIPv4, Entries: []PrefixEntry{
				{Permit: true, Prefix: pfx("10.0.0.0/24")},
			}},
		},
		CommunityLists: map[string]*CommunityList{
			"CL1": {Name: "CL1", Entries: []CommunityEntry{
				{Permit: true, Community: netmodel.MustCommunity("100:1")},
			}},
		},
		ASPathLists: map[string]*ASPathList{},
	}
}

func testRoute() netmodel.Route {
	return netmodel.Route{
		Device: "A", VRF: netmodel.DefaultVRF,
		Prefix:   pfx("10.0.0.0/24"),
		Protocol: netmodel.ProtoBGP,
		NextHop:  addr("2.0.0.1"),
		Attrs: &netmodel.Attrs{Communities: netmodel.NewCommunitySet(netmodel.MustCommunity("100:1")),
			LocalPref: 100, ASPath: netmodel.ASPath{Seq: []netmodel.ASN{65002}}},
	}
}

func TestRouteMapFirstMatchAppliesSets(t *testing.T) {
	rm := &RouteMap{Name: "RM", Nodes: []*Node{
		{Seq: 10, Action: ActionPermit,
			Matches: []Match{{Kind: MatchPrefixList, ListName: "PL10"}},
			Sets: []Set{
				{Kind: SetLocalPref, Value: 300},
				{Kind: AddCommunity, Community: netmodel.MustCommunity("200:2")},
			}},
		{Seq: 20, Action: ActionDeny},
	}}
	env := testEnv(vsb.Alpha())
	out, disp := env.Apply(rm, testRoute(), addr("9.9.9.9"), 65001)
	if disp != Accept {
		t.Fatalf("disp = %v", disp)
	}
	if out.Attr().LocalPref != 300 {
		t.Errorf("LocalPref = %d", out.Attr().LocalPref)
	}
	if !out.Attr().Communities.Contains(netmodel.MustCommunity("200:2")) {
		t.Error("additive community missing")
	}
	if !out.Attr().Communities.Contains(netmodel.MustCommunity("100:1")) {
		t.Error("additive set must keep existing communities")
	}

	// A route not matching node 10 falls to node 20 (deny).
	other := testRoute()
	other.Prefix = pfx("99.0.0.0/24")
	_, disp = env.Apply(rm, other, addr("9.9.9.9"), 65001)
	if disp != Reject {
		t.Errorf("non-matching route should hit deny node, got %v", disp)
	}
}

func TestRouteMapNodeOrdering(t *testing.T) {
	// Paper Figure 10(a): node 10 denies everything, node 20 permits the
	// target prefix. Deleting node 10 lets the route through.
	env := testEnv(vsb.Beta())
	rm := &RouteMap{Name: "IN", Nodes: []*Node{
		{Seq: 10, Action: ActionDeny},
		{Seq: 20, Action: ActionPermit, Matches: []Match{{Kind: MatchPrefixList, ListName: "PL10"}}},
	}}
	r := testRoute()
	if _, disp := env.Apply(rm, r, addr("9.9.9.9"), 0); disp != Reject {
		t.Fatal("node 10 should deny all")
	}
	if !rm.DeleteNode(10) {
		t.Fatal("DeleteNode")
	}
	if _, disp := env.Apply(rm, r, addr("9.9.9.9"), 0); disp != Accept {
		t.Fatal("after deleting node 10, node 20 should permit")
	}
}

func TestRouteMapNoMatchVSB(t *testing.T) {
	rm := &RouteMap{Name: "RM", Nodes: []*Node{
		{Seq: 10, Action: ActionPermit, Matches: []Match{{Kind: MatchPrefixList, ListName: "PL10"}}},
	}}
	r := testRoute()
	r.Prefix = pfx("99.0.0.0/24")
	envA := testEnv(vsb.Alpha()) // AcceptOnNoMatch = false
	if _, disp := envA.Apply(rm, r, addr("9.9.9.9"), 0); disp != Reject {
		t.Error("alpha rejects on no match")
	}
	envB := testEnv(vsb.Beta()) // AcceptOnNoMatch = true
	if _, disp := envB.Apply(rm, r, addr("9.9.9.9"), 0); disp != Accept {
		t.Error("beta accepts on no match")
	}
}

func TestRouteMapNoActionVSB(t *testing.T) {
	rm := &RouteMap{Name: "RM", Nodes: []*Node{
		{Seq: 10, Action: ActionUnset, Sets: []Set{{Kind: SetLocalPref, Value: 500}}},
	}}
	envA := testEnv(vsb.Alpha()) // PermitOnNoAction = true
	out, disp := envA.Apply(rm, testRoute(), addr("9.9.9.9"), 0)
	if disp != Accept || out.Attr().LocalPref != 500 {
		t.Errorf("alpha: %v lp=%d", disp, out.Attr().LocalPref)
	}
	envB := testEnv(vsb.Beta())
	if _, disp := envB.Apply(rm, testRoute(), addr("9.9.9.9"), 0); disp != Reject {
		t.Error("beta rejects on unset action")
	}
}

func TestRouteMapUndefinedFilterVSB(t *testing.T) {
	rm := &RouteMap{Name: "RM", Nodes: []*Node{
		{Seq: 10, Action: ActionPermit, Matches: []Match{{Kind: MatchPrefixList, ListName: "NOSUCH"}},
			Sets: []Set{{Kind: SetLocalPref, Value: 900}}},
	}}
	envA := testEnv(vsb.Alpha()) // UndefinedFilterMatchesAll = true
	out, disp := envA.Apply(rm, testRoute(), addr("9.9.9.9"), 0)
	if disp != Accept || out.Attr().LocalPref != 900 {
		t.Error("alpha treats undefined filter as match-all")
	}
	envB := testEnv(vsb.Beta()) // ...MatchesAll = false, AcceptOnNoMatch = true
	out, disp = envB.Apply(rm, testRoute(), addr("9.9.9.9"), 0)
	if disp != Accept || out.Attr().LocalPref != 100 {
		t.Errorf("beta: node must not match, default policy accepts unmodified; lp=%d disp=%v", out.Attr().LocalPref, disp)
	}
}

func TestReplaceASPathOwnASNVSB(t *testing.T) {
	rm := &RouteMap{Name: "RM", Nodes: []*Node{
		{Seq: 10, Action: ActionPermit, Sets: []Set{
			{Kind: ReplaceASPath, ASPath: netmodel.ASPath{Seq: []netmodel.ASN{7}}},
		}},
	}}
	envA := testEnv(vsb.Alpha()) // AddOwnASNAfterPolicyOverwrite = true
	out, _ := envA.Apply(rm, testRoute(), addr("9.9.9.9"), 65001)
	if got := out.Attr().ASPath.String(); got != "65001 7" {
		t.Errorf("alpha overwrite = %q, want own ASN prepended", got)
	}
	envB := testEnv(vsb.Beta())
	out, _ = envB.Apply(rm, testRoute(), addr("9.9.9.9"), 65001)
	if got := out.Attr().ASPath.String(); got != "7" {
		t.Errorf("beta overwrite = %q", got)
	}
}

func TestMatchPeerAndProtocol(t *testing.T) {
	rm := &RouteMap{Name: "RM", Nodes: []*Node{
		{Seq: 10, Action: ActionDeny, Matches: []Match{{Kind: MatchPeerAddr, Addr: addr("5.5.5.5")}}},
		{Seq: 20, Action: ActionPermit, Matches: []Match{{Kind: MatchProtocol, Protocol: netmodel.ProtoStatic}}},
	}}
	env := testEnv(vsb.Alpha())
	env.Profile.AcceptOnNoMatch = false

	if _, disp := env.Apply(rm, testRoute(), addr("5.5.5.5"), 0); disp != Reject {
		t.Error("peer match should deny")
	}
	st := testRoute()
	st.Protocol = netmodel.ProtoStatic
	if _, disp := env.Apply(rm, st, addr("1.2.3.4"), 0); disp != Accept {
		t.Error("protocol match should permit")
	}
	if _, disp := env.Apply(rm, testRoute(), addr("1.2.3.4"), 0); disp != Reject {
		t.Error("no match should reject")
	}
}

func TestRouteMapSetsEveryKind(t *testing.T) {
	rm := &RouteMap{Name: "RM", Nodes: []*Node{{Seq: 1, Action: ActionPermit, Sets: []Set{
		{Kind: SetMED, Value: 42},
		{Kind: SetWeight, Value: 7},
		{Kind: SetPreference, Value: 90},
		{Kind: SetCommunity, Communities: netmodel.NewCommunitySet(netmodel.MustCommunity("300:3"))},
		{Kind: DeleteCommunity, Community: netmodel.MustCommunity("300:3")},
		{Kind: AddCommunity, Community: netmodel.MustCommunity("400:4")},
		{Kind: SetNextHop, NextHop: addr("8.8.8.8")},
		{Kind: PrependASPath, ASN: 65001, Value: 2},
	}}}}
	env := testEnv(vsb.Alpha())
	out, disp := env.Apply(rm, testRoute(), addr("9.9.9.9"), 65001)
	if disp != Accept {
		t.Fatal(disp)
	}
	if out.Attr().MED != 42 || out.Attr().Weight != 7 || out.Attr().Preference != 90 {
		t.Errorf("numeric sets: %+v", out)
	}
	if out.Attr().Communities.String() != "400:4" {
		t.Errorf("communities = %s", out.Attr().Communities)
	}
	if out.NextHop != addr("8.8.8.8") {
		t.Errorf("nexthop = %s", out.NextHop)
	}
	if got := out.Attr().ASPath.String(); got != "65001 65001 65002" {
		t.Errorf("aspath = %q", got)
	}
}

func TestRouteMapCloneIsDeep(t *testing.T) {
	rm := &RouteMap{Name: "RM", Nodes: []*Node{
		{Seq: 10, Action: ActionPermit, Sets: []Set{{Kind: SetLocalPref, Value: 1}}},
	}}
	cl := rm.Clone()
	cl.Nodes[0].Sets[0].Value = 2
	cl.Nodes[0].Seq = 99
	if rm.Nodes[0].Sets[0].Value != 1 || rm.Nodes[0].Seq != 10 {
		t.Error("Clone shares state with original")
	}
}

func TestSortNodes(t *testing.T) {
	rm := &RouteMap{Name: "RM", Nodes: []*Node{{Seq: 30}, {Seq: 10}, {Seq: 20}}}
	rm.SortNodes()
	if rm.Nodes[0].Seq != 10 || rm.Nodes[2].Seq != 30 {
		t.Errorf("SortNodes: %v", []int{rm.Nodes[0].Seq, rm.Nodes[1].Seq, rm.Nodes[2].Seq})
	}
	if rm.Node(20) == nil || rm.Node(99) != nil {
		t.Error("Node lookup")
	}
}

// TestRouteMapAllocs: set actions collect on a copy of the route's attribute
// set, so a node that sets nothing keeps the route's set (no allocation) and
// one that sets three attributes allocates one new set.
func TestRouteMapAllocs(t *testing.T) {
	env := testEnv(vsb.Alpha())
	r := testRoute()
	permit := &RouteMap{Name: "P", Nodes: []*Node{{Seq: 10, Action: ActionPermit,
		Matches: []Match{{Kind: MatchPrefixList, ListName: "PL10"}}}}}
	three := &RouteMap{Name: "S", Nodes: []*Node{{Seq: 10, Action: ActionPermit, Sets: []Set{
		{Kind: SetLocalPref, Value: 300}, {Kind: SetMED, Value: 7}, {Kind: SetWeight, Value: 9}}}}}
	var out netmodel.Route
	if n := testing.AllocsPerRun(100, func() { out, _ = env.Apply(permit, r, addr("9.9.9.9"), 65001) }); n != 0 {
		t.Errorf("a node that sets nothing: %.1f allocations, want 0", n)
	}
	if out.Attrs != r.Attrs {
		t.Error("a node that sets nothing must keep the route's attribute set")
	}
	if n := testing.AllocsPerRun(100, func() { out, _ = env.Apply(three, r, addr("9.9.9.9"), 65001) }); n != 1 {
		t.Errorf("a node that sets three attributes: %.1f allocations, want 1", n)
	}
	if a := out.Attr(); a.LocalPref != 300 || a.MED != 7 || a.Weight != 9 || r.Attr().LocalPref != 100 {
		t.Errorf("sets: got %+v, input left at %+v", *a, *r.Attr())
	}
}
