package ec

import (
	"fmt"
	"net/netip"
	"slices"
	"testing"
	"testing/quick"

	"hoyan/internal/config"
	"hoyan/internal/netmodel"
	"hoyan/internal/policy"
	"hoyan/internal/vsb"
)

func testNet() *config.Network {
	net := config.NewNetwork()
	d := config.NewDevice("R1", "alpha")
	d.PrefixLists["PL"] = &policy.PrefixList{Name: "PL", Family: policy.FamilyIPv4, Entries: []policy.PrefixEntry{
		{Permit: true, Prefix: netip.MustParsePrefix("10.0.0.0/8"), Le: 32},
	}}
	d.Aggregates = append(d.Aggregates, config.Aggregate{VRF: netmodel.DefaultVRF, Prefix: netip.MustParsePrefix("20.0.0.0/8")})
	net.Devices["R1"] = d
	net.Devices["R2"] = config.NewDevice("R2", "beta")
	return net
}

func input(dev, prefix string, lp uint32) netmodel.Route {
	return netmodel.Route{
		Device: dev, VRF: netmodel.DefaultVRF,
		Prefix:   netip.MustParsePrefix(prefix),
		Protocol: netmodel.ProtoBGP,
		NextHop:  netip.MustParseAddr("203.0.113.1"),
		Attrs:    &netmodel.Attrs{LocalPref: lp, ASPath: netmodel.ASPath{Seq: []netmodel.ASN{65100}}},
	}
}

func TestRouteECGrouping(t *testing.T) {
	net := testNet()
	inputs := []netmodel.Route{
		input("R1", "10.1.0.0/24", 100), // matches PL, no agg
		input("R1", "10.2.0.0/24", 100), // same class
		input("R1", "20.1.0.0/24", 100), // different: no PL match, triggers agg
		input("R1", "10.3.0.0/24", 200), // different: attribute differs
		input("R2", "10.4.0.0/24", 100), // different: injection device
	}
	ecs := ComputeRouteECs(net, nil, inputs, 1)
	if len(ecs.Classes) != 4 {
		for i, c := range ecs.Classes {
			t.Logf("class %d: %v", i, c.Routes)
		}
		t.Fatalf("classes = %d, want 4", len(ecs.Classes))
	}
	if ecs.Inputs != 5 {
		t.Errorf("Inputs = %d", ecs.Inputs)
	}
	if got := ecs.Reduction(); got != 5.0/4.0 {
		t.Errorf("Reduction = %v", got)
	}
	if len(ecs.Representatives()) != 4 {
		t.Error("one representative per class")
	}
}

func TestRouteECExpansion(t *testing.T) {
	net := testNet()
	inputs := []netmodel.Route{
		input("R1", "10.1.0.0/24", 100),
		input("R1", "10.2.0.0/24", 100),
	}
	ecs := ComputeRouteECs(net, nil, inputs, 1)
	if len(ecs.Classes) != 1 {
		t.Fatalf("classes = %d", len(ecs.Classes))
	}
	rep, member := ecs.Classes[0].Rep().Prefix, ecs.Classes[0].Routes[1].Prefix

	// Simulating only the representative, then expanding, reproduces rows
	// for the member prefix, and for no other.
	rib := netmodel.NewRIB("X", netmodel.DefaultVRF)
	rib.Replace(rep, []netmodel.Route{{Prefix: rep, Protocol: netmodel.ProtoBGP,
		NextHop: netip.MustParseAddr("1.1.1.1"), RouteType: netmodel.RouteBest}})
	var handed []netip.Prefix
	ecs.Expansion().Receipts(rib, func(p netip.Prefix, _ []netmodel.Route) { handed = append(handed, p) })
	if member == rep || !slices.Equal(handed, []netip.Prefix{member}) {
		t.Fatalf("expansion of %s hands rows to %v, want [%s]", rep, handed, member)
	}
	ecs.ExpandRIB(rib)
	rows := rib.Routes(member)
	if len(rows) != 1 || rows[0].NextHop != netip.MustParseAddr("1.1.1.1") || rows[0].RouteType != netmodel.RouteBest {
		t.Errorf("expanded rows = %v", rows)
	}
}

func TestRouteECVendorSensitivity(t *testing.T) {
	// An IPv6 input route against an IPv4 prefix list: match result depends
	// on the device's vendor profile, so EC membership must too.
	net := config.NewNetwork()
	d := config.NewDevice("R1", "alpha") // IPPrefixFilterPermitsIPv6 = true
	d.PrefixLists["PL"] = &policy.PrefixList{Name: "PL", Family: policy.FamilyIPv4, Entries: []policy.PrefixEntry{
		{Permit: true, Prefix: netip.MustParsePrefix("10.0.0.0/8"), Le: 32},
	}}
	net.Devices["R1"] = d
	v6a := netmodel.Route{Device: "R1", VRF: netmodel.DefaultVRF, Prefix: netip.MustParsePrefix("2001:db8:1::/48"), NextHop: netip.MustParseAddr("2001:db8::1")}
	v4a := netmodel.Route{Device: "R1", VRF: netmodel.DefaultVRF, Prefix: netip.MustParsePrefix("10.1.0.0/24"), NextHop: netip.MustParseAddr("2001:db8::1")}
	ecs := ComputeRouteECs(net, nil, []netmodel.Route{v6a, v4a}, 1)
	// Alpha: both match PL (v6 via the VSB) but they are still different...
	// prefixes with equal signatures fold into one EC.
	if len(ecs.Classes) != 1 {
		t.Errorf("alpha classes = %d, want 1 (VSB folds v6 into the same EC)", len(ecs.Classes))
	}
	d.Vendor = "beta" // strict: v6 does not match the IPv4 list
	ecs = ComputeRouteECs(net, nil, []netmodel.Route{v6a, v4a}, 1)
	if len(ecs.Classes) != 2 {
		t.Errorf("beta classes = %d, want 2", len(ecs.Classes))
	}
}

func TestAtoms(t *testing.T) {
	atoms := NewAtoms([]netip.Prefix{
		netip.MustParsePrefix("10.0.0.0/24"),
		netip.MustParsePrefix("10.0.0.0/8"),
	})
	a1 := atoms.Atom(netip.MustParseAddr("10.0.0.1"))
	a2 := atoms.Atom(netip.MustParseAddr("10.0.0.254"))
	if a1 != a2 {
		t.Errorf("same /24 atoms differ: %d %d", a1, a2)
	}
	b1 := atoms.Atom(netip.MustParseAddr("10.1.0.1"))
	if b1 == a1 {
		t.Error("/24 and /8-only must differ")
	}
	b2 := atoms.Atom(netip.MustParseAddr("10.255.255.255"))
	if b1 != b2 {
		t.Error("addresses covered by /8 only must share an atom")
	}
	out1 := atoms.Atom(netip.MustParseAddr("9.255.255.255"))
	out2 := atoms.Atom(netip.MustParseAddr("11.0.0.0"))
	if out1 == b1 || out2 == b1 {
		t.Error("outside addresses must not join /8 atom")
	}
}

func TestAtomsProperty(t *testing.T) {
	prefixes := []netip.Prefix{
		netip.MustParsePrefix("10.0.0.0/8"),
		netip.MustParsePrefix("10.64.0.0/10"),
		netip.MustParsePrefix("10.64.3.0/24"),
		netip.MustParsePrefix("172.16.0.0/12"),
	}
	atoms := NewAtoms(prefixes)
	cover := func(a netip.Addr) string {
		s := ""
		for _, p := range prefixes {
			if p.Contains(a) {
				s += "1"
			} else {
				s += "0"
			}
		}
		return s
	}
	f := func(b0, b1, b2, b3, c0, c1, c2, c3 byte) bool {
		a1 := netip.AddrFrom4([4]byte{b0, b1, b2, b3})
		a2 := netip.AddrFrom4([4]byte{c0, c1, c2, c3})
		// Same atom implies same covering prefix set.
		if atoms.Atom(a1) == atoms.Atom(a2) {
			return cover(a1) == cover(a2)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestFlowECs(t *testing.T) {
	net := config.NewNetwork()
	net.Devices["R1"] = config.NewDevice("R1", "alpha")
	prefixes := []netip.Prefix{
		netip.MustParsePrefix("10.0.0.0/24"),
		netip.MustParsePrefix("20.0.0.0/24"),
	}
	mkFlow := func(ing, dst string, dport uint16, vol float64) netmodel.Flow {
		return netmodel.Flow{
			Ingress: ing,
			Src:     netip.MustParseAddr("192.0.2.1"),
			Dst:     netip.MustParseAddr(dst),
			DstPort: dport, Proto: netmodel.ProtoTCP, Volume: vol,
		}
	}
	flows := []netmodel.Flow{
		mkFlow("R1", "10.0.0.1", 80, 10),
		mkFlow("R1", "10.0.0.99", 443, 20), // same dst atom; no ACLs -> same EC
		mkFlow("R1", "20.0.0.1", 80, 5),    // different atom
		mkFlow("R2", "10.0.0.1", 80, 1),    // different ingress
	}
	ecs := ComputeFlowECs(net, prefixes, flows, 1)
	if len(ecs.Classes) != 3 {
		t.Fatalf("classes = %d, want 3", len(ecs.Classes))
	}
	// Volumes sum within a class.
	var found bool
	for _, c := range ecs.Classes {
		if c.Rep.Dst == netip.MustParseAddr("10.0.0.1") && c.Rep.Ingress == "R1" {
			found = true
			if c.Volume != 30 {
				t.Errorf("class volume = %v, want 30", c.Volume)
			}
			if len(c.Flows) != 2 {
				t.Errorf("class size = %d", len(c.Flows))
			}
		}
	}
	if !found {
		t.Error("expected class missing")
	}
	reps := ecs.Representatives()
	if len(reps) != 3 {
		t.Fatal("reps")
	}
	var total float64
	for _, r := range reps {
		total += r.Volume
	}
	if total != 36 {
		t.Errorf("representative volumes must sum to input total, got %v", total)
	}
}

// TestFlowECsKept: a partition refined by a new prefix, then coarsened by a
// retired one, maps each class to the base class with its representative
// and volume. The split class's part that keeps the first flow has lost
// volume, and the merged class's representative gained some, so neither is
// kept; a class the change leaves alone is, wherever it now stands.
func TestFlowECsKept(t *testing.T) {
	net := config.NewNetwork()
	net.Devices["R1"] = config.NewDevice("R1", "alpha")
	flow := func(ing, dst string, vol float64) netmodel.Flow {
		return netmodel.Flow{Ingress: ing, Dst: netip.MustParseAddr(dst), Proto: netmodel.ProtoTCP, Volume: vol}
	}
	flows := []netmodel.Flow{
		flow("R1", "10.0.0.1", 10),   // 0: 10.0.0.0/24, split by 10.0.0.128/25
		flow("R1", "20.0.0.1", 5),    // 1: 20.0.0.0/24, alone
		flow("R1", "10.0.0.200", 20), // 2: 10.0.0.0/24, lands in the /25
		flow("R1", "30.0.0.1", 1),    // 3: 30.0.0.0/24, merged with ...
		flow("R1", "30.0.1.1", 2),    // 4: 30.0.1.0/24 once 30.0.0.0/24 is gone
	}
	pfx := func(ss ...string) []netip.Prefix {
		var out []netip.Prefix
		for _, s := range ss {
			out = append(out, netip.MustParsePrefix(s))
		}
		return out
	}
	base := ComputeFlowECs(net, pfx("10.0.0.0/24", "20.0.0.0/24", "30.0.0.0/24", "30.0.1.0/24", "30.0.0.0/23"), flows, 1)
	for _, tc := range []struct {
		name     string
		prefixes []netip.Prefix
		want     []int32
	}{
		{"unchanged", pfx("10.0.0.0/24", "20.0.0.0/24", "30.0.0.0/24", "30.0.1.0/24", "30.0.0.0/23"), []int32{0, 1, 2, 3}},
		{"split", pfx("10.0.0.0/24", "10.0.0.128/25", "20.0.0.0/24", "30.0.0.0/24", "30.0.1.0/24", "30.0.0.0/23"), []int32{-1, 1, -1, 2, 3}},
		{"merged", pfx("10.0.0.0/24", "20.0.0.0/24", "30.0.0.0/23"), []int32{0, 1, -1}},
	} {
		ecs := ComputeFlowECs(net, tc.prefixes, flows, 1)
		for i, c := range ecs.Classes {
			if c.Rep != flows[c.First] {
				t.Errorf("%s: class %d represented by %v, not its first flow %d", tc.name, i, c.Rep, c.First)
			}
		}
		if got := ecs.Kept(base); !slices.Equal(got, tc.want) {
			t.Errorf("%s: Kept = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestFlowECsACLRefinement(t *testing.T) {
	net := config.NewNetwork()
	d := config.NewDevice("R1", "alpha")
	d.ACLs["A"] = &policy.ACL{Name: "A", Entries: []policy.ACLEntry{
		{Permit: false, Proto: netmodel.ProtoTCP, DstPortLo: 80, DstPortHi: 80},
		{Permit: true},
	}}
	net.Devices["R1"] = d
	prefixes := []netip.Prefix{netip.MustParsePrefix("10.0.0.0/24")}
	f80 := netmodel.Flow{Ingress: "R1", Src: netip.MustParseAddr("192.0.2.1"), Dst: netip.MustParseAddr("10.0.0.1"), DstPort: 80, Proto: netmodel.ProtoTCP, Volume: 1}
	f443 := f80
	f443.DstPort = 443
	fUDP := f80
	fUDP.Proto = netmodel.ProtoUDP
	ecs := ComputeFlowECs(net, prefixes, []netmodel.Flow{f80, f443, fUDP}, 1)
	// The ACL matches on dst port and proto, so all three must separate.
	if len(ecs.Classes) != 3 {
		t.Errorf("classes = %d, want 3 (ACL-sensitive fields separate)", len(ecs.Classes))
	}
}

func TestRIBPrefixes(t *testing.T) {
	rs := []netmodel.Route{
		{Prefix: netip.MustParsePrefix("10.0.0.0/24")},
		{Prefix: netip.MustParsePrefix("10.0.0.0/24")},
		{Prefix: netip.MustParsePrefix("20.0.0.0/24")},
	}
	ps := RIBPrefixes(rs)
	if len(ps) != 2 {
		t.Errorf("prefixes = %v", ps)
	}
}

func BenchmarkRouteECSignatures(b *testing.B) {
	net := testNet()
	var inputs []netmodel.Route
	for i := 0; i < 1000; i++ {
		inputs = append(inputs, input("R1", fmt.Sprintf("10.%d.%d.0/24", i/256, i%256), 100))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ComputeRouteECs(net, nil, inputs, 1)
	}
}

var _ = vsb.Defaults // keep import when benchmarks compile alone
