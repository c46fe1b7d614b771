package traffic

import (
	"fmt"
	"math"
	"net/netip"
	"reflect"
	"slices"
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

// testNetBuilder assembles a hand-built network device by device and link by
// link, numbering the link subnets from 172.20.0.0/16.
type testNetBuilder struct {
	net    *config.Network
	nextIP int
}

func (b *testNetBuilder) dev(name string, asn netmodel.ASN, lo string) *config.Device {
	d := config.NewDevice(name, "alpha")
	d.ASN = asn
	d.Loopback = netip.MustParseAddr(lo)
	d.RouterID = d.Loopback
	d.MaxPaths = 4
	b.net.Devices[name] = d
	b.net.Topo.AddNode(netmodel.Node{Name: name, Loopback: d.Loopback})
	return d
}

func (b *testNetBuilder) link(a, c string, cost uint32) {
	b.nextIP++
	base := netip.AddrFrom4([4]byte{172, 20, byte(b.nextIP >> 6), byte((b.nextIP << 2) & 0xff)})
	aAddr := base.Next()
	cAddr := aAddr.Next()
	aIf, cIf := "to-"+c, "to-"+a
	b.net.Devices[a].Interfaces[aIf] = &config.Interface{Name: aIf, Addr: netip.PrefixFrom(aAddr, 30), ISISCost: cost}
	b.net.Devices[c].Interfaces[cIf] = &config.Interface{Name: cIf, Addr: netip.PrefixFrom(cAddr, 30), ISISCost: cost}
	b.net.Topo.AddLink(netmodel.Link{
		A: a, B: c, AIface: aIf, BIface: cIf,
		ANet: netip.PrefixFrom(base, 30), BNet: netip.PrefixFrom(base, 30),
		AAddr: aAddr, BAddr: cAddr, CostAB: cost, CostBA: cost, Bandwidth: 1e10,
	})
}

func buildDiamond(t *testing.T) *testEnv {
	t.Helper()
	b := &testNetBuilder{net: config.NewNetwork()}
	net, dev, link := b.net, b.dev, b.link
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

// buildLoop is two routers whose static routes for 10.0.0.0/24 point at each
// other across their one link: a forwarding loop.
func buildLoop() *testEnv {
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
	net.Devices["X"].Statics = []config.StaticRoute{{VRF: netmodel.DefaultVRF, Prefix: netip.MustParsePrefix("10.0.0.0/24"), NextHop: ya, Preference: 1}}
	net.Devices["Y"].Statics = []config.StaticRoute{{VRF: netmodel.DefaultVRF, Prefix: netip.MustParsePrefix("10.0.0.0/24"), NextHop: xa, Preference: 1}}
	return &testEnv{net: net, igp: igp, res: bgp.Simulate(net, igp, nil, bgp.Options{})}
}

func TestLoopDetection(t *testing.T) {
	e := buildLoop()
	fw := NewForwarder(e.net, e.igp, e.res, Options{})
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

// buildLadder chains stages 2-way ECMP diamonds: A0 forks to B0 and C0, both
// join at A1, and so on up to A<stages>, whose loopback 1.1.0.<stages> the
// ladder's flows target. Every link costs 10; no route is configured, so each
// hop resolves the loopback through the IGP's equal-cost first hops.
func buildLadder(stages int) *testEnv {
	b := &testNetBuilder{net: config.NewNetwork()}
	name := func(p string, i int) string { return fmt.Sprintf("%s%d", p, i) }
	for i := 0; i <= stages; i++ {
		b.dev(name("A", i), 65001, fmt.Sprintf("1.1.0.%d", i))
		if i < stages {
			b.dev(name("B", i), 65001, fmt.Sprintf("1.1.1.%d", i))
			b.dev(name("C", i), 65001, fmt.Sprintf("1.1.2.%d", i))
		}
	}
	for i := 0; i < stages; i++ {
		for _, mid := range []string{name("B", i), name("C", i)} {
			b.link(name("A", i), mid, 10)
			b.link(mid, name("A", i+1), 10)
		}
	}
	igp := isis.Compute(b.net.Topo, isis.Options{})
	return &testEnv{net: b.net, igp: igp, res: bgp.Simulate(b.net, igp, nil, bgp.Options{})}
}

// TestVisitCapCounted pins the ECMP fan-out's visit cap. On a 2-way ECMP
// ladder the fan-out queues 2^k copies of stage k's fork, so on 9 stages it
// dequeues maxVisits states at stage 6 and drops what is still queued: the
// flow counts in Result.Capped, and the loads are the capped ones — all 64
// copies of A6 split onto B6 and C6, but only 3 of the 128 that follow go on
// (B6, C6, B6, each carrying 1/128 of the volume). On 4 stages nothing is
// capped and the volume arrives whole.
func TestVisitCapCounted(t *testing.T) {
	for _, tc := range []struct {
		stages, capped int
		load           map[[2]string]float64
	}{
		{4, 0, map[[2]string]float64{{"A3", "B3"}: 64, {"B3", "A4"}: 64, {"C3", "A4"}: 64}},
		{9, 1, map[[2]string]float64{{"A6", "B6"}: 64, {"A6", "C6"}: 64, {"B6", "A7"}: 2, {"C6", "A7"}: 1, {"A7", "B7"}: 0}},
	} {
		e := buildLadder(tc.stages)
		fw := NewForwarder(e.net, e.igp, e.res, Options{})
		fl := flow("A0", "192.0.2.1", fmt.Sprintf("1.1.0.%d", tc.stages), 128)
		res := fw.Simulate([]netmodel.Flow{fl})
		if res.Capped != tc.capped {
			t.Errorf("%d stages: Capped = %d, want %d", tc.stages, res.Capped, tc.capped)
		}
		if p := res.Paths[0].Path; p.Exit != netmodel.ExitDelivered || len(p.Hops) != 2*tc.stages+1 {
			t.Errorf("%d stages: path %v, want %d hops delivered", tc.stages, p, 2*tc.stages+1)
		}
		for ends, want := range tc.load {
			if got := res.Load[e.net.Topo.FindLink(ends[0], ends[1]).ID()]; got != want {
				t.Errorf("%d stages: load %s-%s = %v, want %v", tc.stages, ends[0], ends[1], got, want)
			}
		}
	}
}

// refFlow is one flow as the reference forwarder walked it.
type refFlow struct {
	path   netmodel.Path
	shares []linkShare
	capped bool
	devs   map[string]bool    // devices a step was computed at
	deps   map[[2]string]bool // (device, target) IGP first-hop queries
	states int                // distinct (device, arrival edge) states stepped
}

// refWalk is the forwarder as it was before the step memo: the representative
// path and the ECMP fan-out are two walks, every visit computes its step
// afresh, and the path's visited set and the trace are keyed by name. It
// shares with the forwarder under test only compute, the per-device decision.
func refWalk(f *Forwarder, fl netmodel.Flow) refFlow {
	ix := f.idx
	w := f.newWalker()
	w.start(fl, true)
	out := refFlow{devs: map[string]bool{}, deps: map[[2]string]bool{}}
	states := map[int32]bool{}
	step := func(in int32) (stepResult, []branch) {
		name, dev, inIface := w.state(in)
		out.devs[name] = true
		states[in] = true
		sr := w.compute(name, dev, inIface)
		return sr, slices.Clone(w.arena[sr.lo:sr.hi])
	}

	// The representative path: one hash-chosen branch per hop.
	visited := map[string]bool{}
	h := flowHash(fl)
	in, cur := int32(-1), fl.Ingress
	out.path.Exit = netmodel.ExitLoop
	for hop := 0; hop < maxHops; hop++ {
		if visited[cur] {
			break
		}
		visited[cur] = true
		sr, bs := step(in)
		if sr.exit != exitNone {
			out.path.Exit = exitReason(sr.exit)
			break
		}
		nh := int32(bs[int(h)%len(bs)])
		out.path.Hops = append(out.path.Hops, netmodel.Hop{Device: cur, Link: ix.LinkIDAt(ix.EdgeLinkIdx(nh))})
		in, cur = nh, ix.DevName(ix.EdgeDev(nh))
	}
	out.path.Hops = append(out.path.Hops, netmodel.Hop{Device: cur})

	// The ECMP fan-out, breadth first, splitting evenly at each branch point.
	type state struct {
		in     int32
		volume float64
		depth  int
	}
	queue := []state{{in: -1, volume: fl.Volume}}
	visits := 0
	for len(queue) > 0 && visits < 4*maxHops {
		st := queue[0]
		queue = queue[1:]
		visits++
		if st.depth >= maxHops {
			continue
		}
		sr, bs := step(st.in)
		if sr.exit != exitNone {
			continue
		}
		share := st.volume / float64(len(bs))
		for _, br := range bs {
			out.shares = append(out.shares, linkShare{lidx: ix.EdgeLinkIdx(int32(br)), volume: share})
			queue = append(queue, state{in: int32(br), volume: share, depth: st.depth + 1})
		}
	}
	out.capped = len(queue) > 0
	for _, q := range w.deps {
		out.deps[[2]string{ix.DevName(q.dev), ix.DevName(q.target)}] = true
	}
	out.states = len(states)
	return out
}

// Case is one forwarding fixture: a network with its IGP and RIBs, and the
// flows to forward over it.
type Case struct {
	Name  string
	Net   *config.Network
	IGP   *isis.Result
	RIBs  RIBSource
	Flows []netmodel.Flow
}

// probeFlows injects, at every device and at one name outside the network,
// flows toward the diamond's external prefix, an unrouted address and every
// loopback, on two destination ports and four source ports.
func probeFlows(net *config.Network) []netmodel.Flow {
	dsts := []string{"10.0.0.5", "203.0.113.77"}
	ingresses := append(net.DeviceNames(), "nowhere")
	for _, name := range net.DeviceNames() {
		dsts = append(dsts, net.Devices[name].Loopback.String())
	}
	var out []netmodel.Flow
	for _, ing := range ingresses {
		for _, dst := range dsts {
			for _, dport := range []uint16{80, 443} {
				for sport := uint16(1); sport <= 4; sport++ {
					fl := flow(ing, "192.0.2.1", dst, 96)
					fl.SrcPort, fl.DstPort = sport, dport
					out = append(out, fl)
				}
			}
		}
	}
	return out
}

// UnitCases are the hand-built topologies: the ECMP diamond bare and with an
// ingress ACL, an egress ACL, a PBR binding and an SR policy on one branch
// each, the static-route loop, and the 9-stage ECMP ladder whose fan-out
// hits the visit cap.
func UnitCases(t *testing.T) []Case {
	deny80 := &policy.ACL{Name: "DENY80", Entries: []policy.ACLEntry{
		{Permit: false, Proto: netmodel.ProtoTCP, DstPortLo: 80, DstPortHi: 80},
		{Permit: true},
	}}
	diamond := func(name string, edit func(e *testEnv)) Case {
		e := buildDiamond(t)
		edit(e)
		return Case{Name: name, Net: e.net, IGP: e.igp, RIBs: e.res, Flows: probeFlows(e.net)}
	}
	loop, ladder := buildLoop(), buildLadder(9)
	return []Case{
		diamond("ecmp", func(*testEnv) {}),
		diamond("acl-in", func(e *testEnv) {
			d := e.net.Devices["D"]
			d.ACLs["DENY80"] = deny80
			d.Interfaces["to-B"].ACLIn = "DENY80"
		}),
		diamond("acl-out", func(e *testEnv) {
			a := e.net.Devices["A"]
			a.ACLs["DENY80"] = deny80
			a.Interfaces["to-C"].ACLOut = "DENY80"
		}),
		diamond("pbr", func(e *testEnv) {
			a := e.net.Devices["A"]
			a.PBRPolicies["VIA_C"] = []config.PBRRule{{
				Name:    "VIA_C",
				Match:   policy.ACLEntry{Permit: true, Dst: netip.MustParsePrefix("10.0.0.0/24")},
				NextHop: addrOfLink(e.net, "C", "A", "a"),
			}}
			a.Interfaces["to-B"].PBR = "VIA_C"
		}),
		diamond("sr", func(e *testEnv) {
			a := e.net.Devices["A"]
			a.SRPolicies = append(a.SRPolicies, &config.SRPolicy{
				Name: "TO-D-VIA-C", Endpoint: e.net.Devices["D"].Loopback, Color: 100, Segments: []string{"C"},
			})
		}),
		{Name: "loop", Net: loop.net, IGP: loop.igp, RIBs: loop.res, Flows: probeFlows(loop.net)},
		{Name: "ladder", Net: ladder.net, IGP: ladder.igp, RIBs: ladder.res, Flows: []netmodel.Flow{
			flow("A0", "192.0.2.1", "1.1.0.9", 128), flow("B3", "192.0.2.1", "1.1.0.9", 128), flow("A0", "192.0.2.1", "1.1.2.8", 128),
		}},
	}
}

// CheckOneWalk fails unless the forwarder agrees with the reference on every
// flow of c: SimulateTraced at GOMAXPROCS workers gives the reference's path,
// its shares in the same order bit for bit, its cap flag and its trace's
// device and IGP-query sets; and one walker, reused over the flows in order,
// computes each flow's step exactly once per distinct state the reference
// stepped.
func CheckOneWalk(t *testing.T, c Case) {
	t.Helper()
	f := NewForwarder(c.Net, c.IGP, c.RIBs, Options{})
	res, traces := f.SimulateTraced(c.Flows)
	w := f.newWalker()
	capped := 0
	for i, fl := range c.Flows {
		ref := refWalk(f, fl)
		if !reflect.DeepEqual(res.Paths[i].Path, ref.path) {
			t.Fatalf("%s: flow %d: path %v, reference %v", c.Name, i, res.Paths[i].Path, ref.path)
		}
		got := traces[i].contribs
		if len(got) != len(ref.shares) {
			t.Fatalf("%s: flow %d: %d shares, reference %d", c.Name, i, len(got), len(ref.shares))
		}
		for k, s := range ref.shares {
			if got[k].lidx != s.lidx || math.Float64bits(got[k].volume) != math.Float64bits(s.volume) {
				t.Fatalf("%s: flow %d: share %d is %v, reference %v", c.Name, i, k, got[k], s)
			}
		}
		if traces[i].capped != ref.capped {
			t.Fatalf("%s: flow %d: capped %v, reference %v", c.Name, i, traces[i].capped, ref.capped)
		}
		if ref.capped {
			capped++
		}
		devs := map[string]bool{}
		for _, d := range traces[i].devs {
			if d == netmodel.NoDev {
				devs[fl.Ingress] = true
			} else {
				devs[f.idx.DevName(d)] = true
			}
		}
		if !reflect.DeepEqual(devs, ref.devs) || len(devs) != len(traces[i].devs) {
			t.Fatalf("%s: flow %d: traced devices %v, reference %v", c.Name, i, traces[i].devs, ref.devs)
		}
		deps := map[[2]string]bool{}
		for _, q := range traces[i].deps {
			deps[[2]string{f.idx.DevName(q.dev), f.idx.DevName(q.target)}] = true
		}
		if !reflect.DeepEqual(deps, ref.deps) || len(deps) != len(traces[i].deps) {
			t.Fatalf("%s: flow %d: traced IGP queries %v, reference %v", c.Name, i, deps, ref.deps)
		}
		w.start(fl, false)
		if p := w.path(); !reflect.DeepEqual(p, ref.path) {
			t.Fatalf("%s: flow %d: reused walker's path %v, reference %v", c.Name, i, p, ref.path)
		}
		if sh, _ := w.fanOut(); !slices.Equal(sh, ref.shares) {
			t.Fatalf("%s: flow %d: reused walker's shares differ from the reference", c.Name, i)
		}
		if len(w.steps) != ref.states {
			t.Fatalf("%s: flow %d: %d steps computed for %d distinct states", c.Name, i, len(w.steps), ref.states)
		}
	}
	if res.Capped != capped {
		t.Fatalf("%s: Capped = %d, reference %d", c.Name, res.Capped, capped)
	}
}
