package traffic

import (
	"net/netip"
	"testing"

	"hoyan/internal/bgp"
	"hoyan/internal/config"
	"hoyan/internal/isis"
	"hoyan/internal/netmodel"
	"hoyan/internal/policy"
)

// testNet builds a diamond network with an external exit:
//
//	IN -- A -- B -- D -- OUT    (OUT advertises 10.0.0.0/24)
//	       \       /
//	        \- C -/
//
// All in AS 65001 (iBGP full mesh through RR-less direct sessions A-B, A-C,
// B-D, C-D won't propagate; so D uses next-hop-self sessions to A directly).
// To keep propagation simple every router pair has an iBGP session with D
// and A as needed.
type testEnv struct {
	net *config.Network
	igp *isis.Result
	res *bgp.Result
}

func addrOfLink(net *config.Network, a, b string, side string) netip.Addr {
	l := net.Topo.FindLink(a, b)
	aAddr, bAddr := l.AAddr, l.BAddr
	if l.A != a {
		aAddr, bAddr = bAddr, aAddr
	}
	if side == "a" {
		return aAddr
	}
	return bAddr
}

func buildDiamond(t *testing.T) *testEnv {
	t.Helper()
	net := config.NewNetwork()
	nextIP := 0
	dev := func(name string, asn netmodel.ASN, lo string) *config.Device {
		d := config.NewDevice(name, "alpha")
		d.ASN = asn
		d.Loopback = netip.MustParseAddr(lo)
		d.RouterID = d.Loopback
		d.MaxPaths = 4
		net.Devices[name] = d
		net.Topo.AddNode(netmodel.Node{Name: name, Loopback: d.Loopback})
		return d
	}
	link := func(a, b string, cost uint32) {
		nextIP++
		base := netip.AddrFrom4([4]byte{172, 20, byte(nextIP >> 6), byte((nextIP << 2) & 0xff)})
		aAddr := base.Next()
		bAddr := aAddr.Next()
		aIf, bIf := "to-"+b, "to-"+a
		net.Devices[a].Interfaces[aIf] = &config.Interface{Name: aIf, Addr: netip.PrefixFrom(aAddr, 30), ISISCost: cost}
		net.Devices[b].Interfaces[bIf] = &config.Interface{Name: bIf, Addr: netip.PrefixFrom(bAddr, 30), ISISCost: cost}
		net.Topo.AddLink(netmodel.Link{
			A: a, B: b, AIface: aIf, BIface: bIf,
			ANet: netip.PrefixFrom(base, 30), BNet: netip.PrefixFrom(base, 30),
			AAddr: aAddr, BAddr: bAddr, CostAB: cost, CostBA: cost, Bandwidth: 1e10,
		})
	}
	ibgp := func(a, b string) {
		da, db := net.Devices[a], net.Devices[b]
		da.Neighbors = append(da.Neighbors, &config.Neighbor{Addr: db.Loopback, RemoteAS: db.ASN, VRF: netmodel.DefaultVRF, UpdateSource: true, NextHopSelf: true})
		db.Neighbors = append(db.Neighbors, &config.Neighbor{Addr: da.Loopback, RemoteAS: da.ASN, VRF: netmodel.DefaultVRF, UpdateSource: true, NextHopSelf: true})
	}
	dev("A", 65001, "1.0.0.1")
	dev("B", 65001, "1.0.0.2")
	dev("C", 65001, "1.0.0.3")
	dev("D", 65001, "1.0.0.4")
	link("A", "B", 10)
	link("A", "C", 10)
	link("B", "D", 10)
	link("C", "D", 10)
	// D injects the external prefix; iBGP sessions A-D (through IGP).
	ibgp("A", "D")
	ibgp("B", "D")
	ibgp("C", "D")
	// D's external interface covering the input route's next hop.
	net.Devices["D"].Interfaces["ext"] = &config.Interface{Name: "ext", Addr: netip.MustParsePrefix("198.51.100.1/24")}

	igp := isis.Compute(net.Topo, isis.Options{})
	inputs := []netmodel.Route{{
		Device: "D", VRF: netmodel.DefaultVRF,
		Prefix:   netip.MustParsePrefix("10.0.0.0/24"),
		Protocol: netmodel.ProtoBGP,
		NextHop:  netip.MustParseAddr("198.51.100.2"),
		Attrs:    &netmodel.Attrs{ASPath: netmodel.ASPath{Seq: []netmodel.ASN{65100}}},
		Source:   "D",
	}}
	res := bgp.Simulate(net, igp, inputs, bgp.Options{})
	if !res.Converged {
		t.Fatal("bgp did not converge")
	}
	return &testEnv{net: net, igp: igp, res: res}
}

func flow(ing, src, dst string, vol float64) netmodel.Flow {
	return netmodel.Flow{
		Ingress: ing,
		Src:     netip.MustParseAddr(src),
		Dst:     netip.MustParseAddr(dst),
		SrcPort: 1234, DstPort: 80, Proto: netmodel.ProtoTCP,
		Volume: vol,
	}
}

func TestForwardBasicPath(t *testing.T) {
	e := buildDiamond(t)
	fw := NewForwarder(e.net, e.igp, e.res, Options{})
	p := fw.Path(flow("A", "192.0.2.1", "10.0.0.5", 100))
	devs := p.Devices()
	if p.Exit != netmodel.ExitToPeer {
		t.Fatalf("exit = %v path = %v", p.Exit, p)
	}
	if devs[0] != "A" || devs[len(devs)-1] != "D" {
		t.Errorf("path = %v, want A..D", devs)
	}
	if len(devs) != 3 {
		t.Errorf("path length = %d, want 3 (A-B-D or A-C-D)", len(devs))
	}
}

func TestForwardECMPLoadSplit(t *testing.T) {
	e := buildDiamond(t)
	fw := NewForwarder(e.net, e.igp, e.res, Options{})
	res := fw.Simulate([]netmodel.Flow{flow("A", "192.0.2.1", "10.0.0.5", 100)})
	// A's route to 10/24 has next hop D's loopback; IGP gives ECMP via B and
	// C: 50 each on A-B and A-C, then 50 each on B-D and C-D.
	ab := e.net.Topo.FindLink("A", "B").ID()
	ac := e.net.Topo.FindLink("A", "C").ID()
	bd := e.net.Topo.FindLink("B", "D").ID()
	cd := e.net.Topo.FindLink("C", "D").ID()
	for _, tc := range []struct {
		id   netmodel.LinkID
		want float64
	}{{ab, 50}, {ac, 50}, {bd, 50}, {cd, 50}} {
		if got := res.Load[tc.id]; got != tc.want {
			t.Errorf("load[%s] = %v, want %v", tc.id, got, tc.want)
		}
	}
}

func TestForwardNoRoute(t *testing.T) {
	e := buildDiamond(t)
	fw := NewForwarder(e.net, e.igp, e.res, Options{})
	p := fw.Path(flow("A", "192.0.2.1", "203.0.113.77", 10))
	if p.Exit != netmodel.ExitNoRoute {
		t.Errorf("exit = %v, want no-route", p.Exit)
	}
}

func TestForwardDeliveredToLoopback(t *testing.T) {
	e := buildDiamond(t)
	fw := NewForwarder(e.net, e.igp, e.res, Options{})
	p := fw.Path(flow("A", "192.0.2.1", "1.0.0.4", 10)) // D's loopback
	if p.Exit != netmodel.ExitDelivered {
		t.Fatalf("exit = %v", p.Exit)
	}
	if devs := p.Devices(); devs[len(devs)-1] != "D" {
		t.Errorf("path = %v", devs)
	}
}

func TestACLBlocksFlow(t *testing.T) {
	e := buildDiamond(t)
	// Block TCP/80 entering D from B.
	d := e.net.Devices["D"]
	d.ACLs["BLOCK80"] = &policy.ACL{Name: "BLOCK80", Entries: []policy.ACLEntry{
		{Permit: false, Proto: netmodel.ProtoTCP, DstPortLo: 80, DstPortHi: 80},
		{Permit: true},
	}}
	d.Interfaces["to-B"].ACLIn = "BLOCK80"
	d.Interfaces["to-C"].ACLIn = "BLOCK80"
	fw := NewForwarder(e.net, e.igp, e.res, Options{})
	p := fw.Path(flow("A", "192.0.2.1", "10.0.0.5", 10))
	if p.Exit != netmodel.ExitACLDenied {
		t.Errorf("exit = %v, want acl-denied (path %v)", p.Exit, p)
	}
	// Other ports pass.
	f2 := flow("A", "192.0.2.1", "10.0.0.5", 10)
	f2.DstPort = 443
	if p := fw.Path(f2); p.Exit != netmodel.ExitToPeer {
		t.Errorf("443 exit = %v", p.Exit)
	}
	// With the bindings cleared, forwarding is restored.
	d.Interfaces["to-B"].ACLIn, d.Interfaces["to-C"].ACLIn = "", ""
	fw2 := NewForwarder(e.net, e.igp, e.res, Options{})
	if p := fw2.Path(flow("A", "192.0.2.1", "10.0.0.5", 10)); p.Exit != netmodel.ExitToPeer {
		t.Errorf("exit without ACL bindings = %v", p.Exit)
	}
}

func TestPBRSteering(t *testing.T) {
	e := buildDiamond(t)
	// On A, steer 10.0.0.0/24 traffic explicitly via C (bypassing LPM/ECMP).
	a := e.net.Devices["A"]
	cAddr := addrOfLink(e.net, "C", "A", "a")
	a.PBRPolicies["VIA_C"] = []config.PBRRule{{
		Name:    "VIA_C",
		Match:   policy.ACLEntry{Permit: true, Dst: netip.MustParsePrefix("10.0.0.0/24")},
		NextHop: cAddr,
	}}
	a.Interfaces["to-B"].PBR = "VIA_C"

	fw := NewForwarder(e.net, e.igp, e.res, Options{})
	p := fw.Path(flow("A", "192.0.2.1", "10.0.0.5", 10))
	if devs := p.Devices(); len(devs) != 3 || devs[1] != "C" {
		t.Errorf("PBR path = %v, want via C", devs)
	}
	// With the binding cleared, ECMP returns.
	a.Interfaces["to-B"].PBR = ""
	fw2 := NewForwarder(e.net, e.igp, e.res, Options{})
	res := fw2.Simulate([]netmodel.Flow{flow("A", "192.0.2.1", "10.0.0.5", 100)})
	if got := res.Load[e.net.Topo.FindLink("A", "B").ID()]; got != 50 {
		t.Errorf("load via B without the PBR binding = %v, want 50", got)
	}
}

func TestLinkFailureReroutesLoad(t *testing.T) {
	e := buildDiamond(t)
	abID := e.net.Topo.FindLink("A", "B").ID()
	acID := e.net.Topo.FindLink("A", "C").ID()
	e.net.Topo.SetLinkUp(abID, false)
	// Recompute the IGP after the failure.
	igp := isis.Compute(e.net.Topo, isis.Options{})
	fw := NewForwarder(e.net, igp, e.res, Options{})
	res := fw.Simulate([]netmodel.Flow{flow("A", "192.0.2.1", "10.0.0.5", 100)})
	if got := res.Load[acID]; got != 100 {
		t.Errorf("all volume must shift to A-C, got %v", got)
	}
	if got := res.Load[abID]; got != 0 {
		t.Errorf("down link must carry nothing, got %v", got)
	}
}

func TestPathDeterministicHashChoice(t *testing.T) {
	e := buildDiamond(t)
	fw := NewForwarder(e.net, e.igp, e.res, Options{})
	f := flow("A", "192.0.2.1", "10.0.0.5", 10)
	p1 := fw.Path(f)
	p2 := fw.Path(f)
	if p1.String() != p2.String() {
		t.Error("same flow must take the same path")
	}
	// Different 5-tuples eventually use both branches.
	seen := map[string]bool{}
	for port := uint16(1); port < 50; port++ {
		f.SrcPort = port
		seen[fw.Path(f).Devices()[1]] = true
	}
	if !seen["B"] || !seen["C"] {
		t.Errorf("hashing should spread across ECMP branches, saw %v", seen)
	}
}

func TestLoopDetection(t *testing.T) {
	// Static routes pointing at each other create a forwarding loop.
	net := config.NewNetwork()
	for i, name := range []string{"X", "Y"} {
		d := config.NewDevice(name, "alpha")
		d.ASN = 65001
		d.Loopback = netip.AddrFrom4([4]byte{9, 9, 9, byte(i + 1)})
		net.Devices[name] = d
		net.Topo.AddNode(netmodel.Node{Name: name, Loopback: d.Loopback})
	}
	xa, ya := netip.MustParseAddr("172.30.0.1"), netip.MustParseAddr("172.30.0.2")
	net.Devices["X"].Interfaces["e0"] = &config.Interface{Name: "e0", Addr: netip.PrefixFrom(xa, 30)}
	net.Devices["Y"].Interfaces["e0"] = &config.Interface{Name: "e0", Addr: netip.PrefixFrom(ya, 30)}
	net.Topo.AddLink(netmodel.Link{
		A: "X", B: "Y", AIface: "e0", BIface: "e0",
		AAddr: xa, BAddr: ya, CostAB: 10, CostBA: 10,
	})
	igp := isis.Compute(net.Topo, isis.Options{})
	// Both statics point across the link for the same prefix.
	net.Devices["X"].Statics = []config.StaticRoute{{VRF: netmodel.DefaultVRF, Prefix: netip.MustParsePrefix("10.0.0.0/24"), NextHop: ya, Preference: 1}}
	net.Devices["Y"].Statics = []config.StaticRoute{{VRF: netmodel.DefaultVRF, Prefix: netip.MustParsePrefix("10.0.0.0/24"), NextHop: xa, Preference: 1}}
	res := bgp.Simulate(net, igp, nil, bgp.Options{})
	fw := NewForwarder(net, igp, res, Options{})
	p := fw.Path(flow("X", "192.0.2.1", "10.0.0.5", 10))
	if p.Exit != netmodel.ExitLoop {
		t.Errorf("exit = %v, want loop (path %v)", p.Exit, p)
	}
	// Load accumulation must terminate too.
	r := fw.Simulate([]netmodel.Flow{flow("X", "192.0.2.1", "10.0.0.5", 10)})
	if len(r.Paths) != 1 {
		t.Error("simulate must finish")
	}
}

func TestSRSegmentSteering(t *testing.T) {
	e := buildDiamond(t)
	// A configures an SR policy to D via explicit segment C.
	a := e.net.Devices["A"]
	a.SRPolicies = append(a.SRPolicies, &config.SRPolicy{
		Name: "TO-D-VIA-C", Endpoint: e.net.Devices["D"].Loopback, Color: 100, Segments: []string{"C"},
	})
	fw := NewForwarder(e.net, e.igp, e.res, Options{})
	p := fw.Path(flow("A", "192.0.2.1", "10.0.0.5", 10))
	if devs := p.Devices(); len(devs) < 2 || devs[1] != "C" {
		t.Errorf("SR path = %v, want first hop C", devs)
	}
	res := fw.Simulate([]netmodel.Flow{flow("A", "192.0.2.1", "10.0.0.5", 100)})
	if got := res.Load[e.net.Topo.FindLink("A", "C").ID()]; got != 100 {
		t.Errorf("SR must steer all volume via C, got %v", got)
	}
}

func TestEgressACLBlocksFlow(t *testing.T) {
	e := buildDiamond(t)
	// A blocks TCP/80 leaving toward both B and C.
	a := e.net.Devices["A"]
	a.ACLs["EGRESS80"] = &policy.ACL{Name: "EGRESS80", Entries: []policy.ACLEntry{
		{Permit: false, Proto: netmodel.ProtoTCP, DstPortLo: 80, DstPortHi: 80},
		{Permit: true},
	}}
	a.Interfaces["to-B"].ACLOut = "EGRESS80"
	a.Interfaces["to-C"].ACLOut = "EGRESS80"
	fw := NewForwarder(e.net, e.igp, e.res, Options{})
	if p := fw.Path(flow("A", "192.0.2.1", "10.0.0.5", 10)); p.Exit != netmodel.ExitACLDenied {
		t.Errorf("exit = %v, want acl-denied", p.Exit)
	}
	// With only one side blocked, traffic takes the other branch.
	a.Interfaces["to-C"].ACLOut = ""
	res := fw.Simulate([]netmodel.Flow{flow("A", "192.0.2.1", "10.0.0.5", 100)})
	if got := res.Load[e.net.Topo.FindLink("A", "C").ID()]; got != 100 {
		t.Errorf("all volume must take the unblocked branch, got %v", got)
	}
	if got := res.Load[e.net.Topo.FindLink("A", "B").ID()]; got != 0 {
		t.Errorf("blocked branch must carry nothing, got %v", got)
	}
}
