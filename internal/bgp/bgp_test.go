package bgp

import (
	"fmt"
	"net/netip"
	"strings"
	"testing"

	"hoyan/internal/config"
	"hoyan/internal/gen"
	"hoyan/internal/isis"
	"hoyan/internal/netmodel"
	"hoyan/internal/policy"
	"hoyan/internal/vsb"
)

// netBuilder assembles test networks programmatically: every device runs
// IS-IS with four-way multipath, every link is 10G.
type netBuilder struct{ *gen.Builder }

func newBuilder() *netBuilder {
	return &netBuilder{gen.NewBuilder(netip.MustParsePrefix("172.16.0.0/12"))}
}

func (b *netBuilder) device(name, vendor string, asn netmodel.ASN, loopback string) *config.Device {
	d := b.Device(name, vendor, asn, netip.MustParseAddr(loopback))
	d.ISISEnabled = true
	d.MaxPaths = 4
	return d
}

func (b *netBuilder) link(a, bdev string, cost uint32) netmodel.Link {
	return b.Link(a, bdev, cost, 1e10)
}

func (b *netBuilder) ebgp(a, bdev string) { b.EBGP(a, bdev) }

// ibgp configures an iBGP session between loopbacks, next-hop unchanged on
// both sides.
func (b *netBuilder) ibgp(a, bdev string) {
	_, nb := b.IBGP(a, bdev)
	nb.NextHopSelf = false
}

// run derives the network's topology and simulates it.
func (b *netBuilder) run(inputs []netmodel.Route, opts Options) *Result {
	b.Network()
	return b.simulate(inputs, opts)
}

// simulate simulates the network on the topology it has.
func (b *netBuilder) simulate(inputs []netmodel.Route, opts Options) *Result {
	igp := isis.Compute(b.Net.Topo, isis.Options{})
	return Simulate(b.Net, igp, inputs, opts)
}

// withMED returns r with its MED set to med.
func withMED(r netmodel.Route, med uint32) netmodel.Route {
	a := *r.Attr()
	a.MED = med
	r.SetAttrs(&a)
	return r
}

func inputRoute(dev, prefix string, aspath ...netmodel.ASN) netmodel.Route {
	return netmodel.Route{
		Device: dev, VRF: netmodel.DefaultVRF,
		Prefix:   netip.MustParsePrefix(prefix),
		Protocol: netmodel.ProtoBGP,
		NextHop:  netip.MustParseAddr("203.0.113.1"), // unmodeled external peer
		Attrs:    &netmodel.Attrs{LocalPref: 100, ASPath: netmodel.ASPath{Seq: aspath}},
		Source:   dev,
	}
}

// nextHopSelfAll sets next-hop-self on every iBGP neighbor of dev so input
// routes with external next hops can propagate over iBGP in tests.
func nextHopSelfAll(b *netBuilder, dev string) {
	for _, nb := range b.Net.Devices[dev].Neighbors {
		nb.NextHopSelf = true
	}
}

// permitAllImport binds a permit-all import policy to every neighbor of dev
// (needed on vendor beta, which drops eBGP updates without a policy).
func permitAllImport(b *netBuilder, dev string) {
	d := b.Net.Devices[dev]
	d.RouteMaps["PERMIT_ALL"] = &policy.RouteMap{Name: "PERMIT_ALL", Nodes: []*policy.Node{{Seq: 10, Action: policy.ActionPermit}}}
	for _, nb := range d.Neighbors {
		nb.ImportPolicy = "PERMIT_ALL"
	}
}

// lineTopo builds E(64999) -- A(65001) -- B(65001) with eBGP E-A and iBGP A-B.
func lineTopo() *netBuilder {
	b := newBuilder()
	b.device("E", "alpha", 64999, "1.0.0.1")
	b.device("A", "alpha", 65001, "1.0.0.2")
	b.device("B", "alpha", 65001, "1.0.0.3")
	b.link("E", "A", 10)
	b.link("A", "B", 10)
	b.ebgp("E", "A")
	b.ibgp("A", "B")
	b.Network()
	return b
}

func TestBasicPropagation(t *testing.T) {
	b := lineTopo()
	// E's external subnet must cover the input route's next hop so it
	// resolves as directly connected.
	b.Net.Devices["E"].Interfaces["ext"] = &config.Interface{Name: "ext", Addr: netip.MustParsePrefix("203.0.113.2/24")}

	p := netip.MustParsePrefix("10.0.0.0/24")
	res := b.run([]netmodel.Route{inputRoute("E", "10.0.0.0/24", 65100)}, Options{})
	if !res.Converged {
		t.Fatalf("did not converge in %d rounds", res.Rounds)
	}

	// E has the input route as best.
	if best := res.RIB("E", netmodel.DefaultVRF).Best(p); len(best) != 1 {
		t.Fatalf("E best = %v", best)
	}
	// A learned it over eBGP with E's ASN prepended.
	aBest := res.RIB("A", netmodel.DefaultVRF).Best(p)
	if len(aBest) != 1 {
		t.Fatalf("A best = %v", aBest)
	}
	if got := aBest[0].Attr().ASPath.String(); got != "64999 65100" {
		t.Errorf("A aspath = %q", got)
	}
	if aBest[0].Peer != "E" {
		t.Errorf("A peer = %q", aBest[0].Peer)
	}
	if aBest[0].Attr().LocalPref != 100 {
		t.Errorf("A localpref = %d (eBGP default)", aBest[0].Attr().LocalPref)
	}
	// The eBGP next hop is E's side of the E-A link.
	l := b.Net.Topo.FindLink("A", "E")
	eAddr := l.AAddr
	if l.A != "E" {
		eAddr = l.BAddr
	}
	if aBest[0].NextHop != eAddr {
		t.Errorf("A nexthop = %s, want %s", aBest[0].NextHop, eAddr)
	}
	// B learned it over iBGP: same AS path, next hop unchanged.
	bBest := res.RIB("B", netmodel.DefaultVRF).Best(p)
	if len(bBest) != 1 {
		t.Fatalf("B best = %v", bBest)
	}
	if got := bBest[0].Attr().ASPath.String(); got != "64999 65100" {
		t.Errorf("B aspath = %q (iBGP must not prepend)", got)
	}
	if bBest[0].NextHop != eAddr {
		t.Errorf("B nexthop = %s, want unchanged %s", bBest[0].NextHop, eAddr)
	}
}

func TestNextHopSelf(t *testing.T) {
	b := lineTopo()
	b.Net.Devices["E"].Interfaces["ext"] = &config.Interface{Name: "ext", Addr: netip.MustParsePrefix("203.0.113.2/24")}
	// A sets next-hop-self toward B.
	for _, nb := range b.Net.Devices["A"].Neighbors {
		if nb.Addr == b.Net.Devices["B"].Loopback {
			nb.NextHopSelf = true
		}
	}
	p := netip.MustParsePrefix("10.0.0.0/24")
	res := b.run([]netmodel.Route{inputRoute("E", "10.0.0.0/24", 65100)}, Options{})
	bBest := res.RIB("B", netmodel.DefaultVRF).Best(p)
	if len(bBest) != 1 || bBest[0].NextHop != b.Net.Devices["A"].Loopback {
		t.Errorf("B best = %v, want next hop A's loopback", bBest)
	}
}

func TestASLoopPrevention(t *testing.T) {
	// Figure 10(a) shape: A(external AS) peers with M1 and M2 (same AS).
	// A route learned by A from M2 must not be accepted by M1 via A.
	b := newBuilder()
	b.device("A", "alpha", 64512, "1.0.0.1")
	b.device("M1", "beta", 65001, "1.0.0.2")
	b.device("M2", "beta", 65001, "1.0.0.3")
	b.link("A", "M1", 10)
	b.link("A", "M2", 10)
	b.ebgp("A", "M1")
	b.ebgp("A", "M2")
	// No M1-M2 iBGP (they talk through A only, as in the case study).
	b.Net.Devices["M2"].Interfaces["ext"] = &config.Interface{Name: "ext", Addr: netip.MustParsePrefix("203.0.113.2/24")}

	p := netip.MustParsePrefix("1.0.0.0/24")
	res := b.run([]netmodel.Route{inputRoute("M2", "1.0.0.0/24", 65200)}, Options{})
	// A has the route (via M2, path "65001 65200").
	aBest := res.RIB("A", netmodel.DefaultVRF).Best(p)
	if len(aBest) != 1 || aBest[0].Attr().ASPath.String() != "65001 65200" {
		t.Fatalf("A best = %v", aBest)
	}
	// M1 must NOT have it: A advertises with path "64512 65001 65200",
	// which contains M1's own ASN.
	if best := res.RIB("M1", netmodel.DefaultVRF).Best(p); len(best) != 0 {
		t.Errorf("M1 must drop looped route, got %v", best)
	}
}

func TestRouteReflection(t *testing.T) {
	// RR with two clients C1, C2 and a non-client N; route from C1 must
	// reach C2 and N; route from N must reach clients only via RR.
	b := newBuilder()
	b.device("RR", "alpha", 65001, "1.0.0.1")
	b.device("C1", "alpha", 65001, "1.0.0.2")
	b.device("C2", "alpha", 65001, "1.0.0.3")
	b.device("N", "alpha", 65001, "1.0.0.4")
	b.link("RR", "C1", 10)
	b.link("RR", "C2", 10)
	b.link("RR", "N", 10)
	b.ibgp("RR", "C1")
	b.ibgp("RR", "C2")
	b.ibgp("RR", "N")
	for _, nb := range b.Net.Devices["RR"].Neighbors {
		if nb.Addr == b.Net.Devices["C1"].Loopback || nb.Addr == b.Net.Devices["C2"].Loopback {
			nb.RRClient = true
		}
	}
	b.Net.Devices["C1"].Interfaces["ext"] = &config.Interface{Name: "ext", Addr: netip.MustParsePrefix("203.0.113.2/24")}
	nextHopSelfAll(b, "C1")

	p := netip.MustParsePrefix("10.1.0.0/16")
	res := b.run([]netmodel.Route{inputRoute("C1", "10.1.0.0/16", 65100)}, Options{})
	for _, dev := range []string{"RR", "C2", "N"} {
		if best := res.RIB(dev, netmodel.DefaultVRF).Best(p); len(best) != 1 {
			t.Errorf("%s best = %v, want route reflected", dev, best)
		}
	}

	// Now inject at N (non-client): RR reflects to clients.
	b2 := newBuilder()
	b2.device("RR", "alpha", 65001, "1.0.0.1")
	b2.device("C1", "alpha", 65001, "1.0.0.2")
	b2.device("N", "alpha", 65001, "1.0.0.4")
	b2.link("RR", "C1", 10)
	b2.link("RR", "N", 10)
	b2.ibgp("RR", "C1")
	b2.ibgp("RR", "N")
	for _, nb := range b2.Net.Devices["RR"].Neighbors {
		if nb.Addr == b2.Net.Devices["C1"].Loopback {
			nb.RRClient = true
		}
	}
	b2.Net.Devices["N"].Interfaces["ext"] = &config.Interface{Name: "ext", Addr: netip.MustParsePrefix("203.0.113.2/24")}
	nextHopSelfAll(b2, "N")
	res2 := b2.run([]netmodel.Route{inputRoute("N", "10.1.0.0/16", 65100)}, Options{})
	if best := res2.RIB("C1", netmodel.DefaultVRF).Best(p); len(best) != 1 {
		t.Errorf("C1 best = %v, want reflected from non-client", best)
	}
}

func TestNoReflectionWithoutRR(t *testing.T) {
	// Without RR config, iBGP-learned routes are not re-advertised to iBGP.
	b := newBuilder()
	b.device("X", "alpha", 65001, "1.0.0.1")
	b.device("Y", "alpha", 65001, "1.0.0.2")
	b.device("Z", "alpha", 65001, "1.0.0.3")
	b.link("X", "Y", 10)
	b.link("Y", "Z", 10)
	b.ibgp("X", "Y")
	b.ibgp("Y", "Z") // chain, no X-Z session, Y not an RR
	b.Net.Devices["X"].Interfaces["ext"] = &config.Interface{Name: "ext", Addr: netip.MustParsePrefix("203.0.113.2/24")}
	nextHopSelfAll(b, "X")

	p := netip.MustParsePrefix("10.2.0.0/16")
	res := b.run([]netmodel.Route{inputRoute("X", "10.2.0.0/16", 65100)}, Options{})
	if best := res.RIB("Y", netmodel.DefaultVRF).Best(p); len(best) != 1 {
		t.Fatalf("Y best = %v", best)
	}
	if best := res.RIB("Z", netmodel.DefaultVRF).Best(p); len(best) != 0 {
		t.Errorf("Z must not learn iBGP route through non-RR Y, got %v", best)
	}
}

func TestECMPMultipath(t *testing.T) {
	// D learns the same prefix from two eBGP peers with equal attributes.
	b := newBuilder()
	b.device("D", "alpha", 65001, "1.0.0.1")
	b.device("P1", "alpha", 65002, "1.0.0.2")
	b.device("P2", "alpha", 65002, "1.0.0.3")
	b.link("D", "P1", 10)
	b.link("D", "P2", 10)
	b.ebgp("D", "P1")
	b.ebgp("D", "P2")
	for _, e := range []string{"P1", "P2"} {
		b.Net.Devices[e].Interfaces["ext"] = &config.Interface{Name: "ext", Addr: netip.MustParsePrefix("203.0.113.2/24")}
	}
	p := netip.MustParsePrefix("10.3.0.0/16")
	res := b.run([]netmodel.Route{
		inputRoute("P1", "10.3.0.0/16", 65100),
		inputRoute("P2", "10.3.0.0/16", 65100),
	}, Options{})
	best := res.RIB("D", netmodel.DefaultVRF).Best(p)
	if len(best) != 2 {
		t.Fatalf("D best = %v, want 2 ECMP routes", best)
	}

	// With MaxPaths 1, only one best.
	b.Net.Devices["D"].MaxPaths = 1
	res = b.run([]netmodel.Route{
		inputRoute("P1", "10.3.0.0/16", 65100),
		inputRoute("P2", "10.3.0.0/16", 65100),
	}, Options{})
	if best := res.RIB("D", netmodel.DefaultVRF).Best(p); len(best) != 1 {
		t.Errorf("MaxPaths=1: best = %v", best)
	}
}

func TestBestPathLocalPrefBeatsShorterPath(t *testing.T) {
	b := newBuilder()
	b.device("D", "alpha", 65001, "1.0.0.1")
	b.device("P1", "alpha", 65002, "1.0.0.2")
	b.device("P2", "alpha", 65003, "1.0.0.3")
	b.link("D", "P1", 10)
	l := b.link("D", "P2", 10)
	b.ebgp("D", "P1")
	b.ebgp("D", "P2")
	for _, e := range []string{"P1", "P2"} {
		b.Net.Devices[e].Interfaces["ext"] = &config.Interface{Name: "ext", Addr: netip.MustParsePrefix("203.0.113.2/24")}
	}
	// Import policy on D for P2 session sets localpref 200.
	d := b.Net.Devices["D"]
	d.RouteMaps["LP200"] = mustRouteMap(t, `route-map LP200 permit 10
 set local-preference 200
`)
	p2Addr := l.AAddr
	if l.A != "P2" {
		p2Addr = l.BAddr
	}
	for _, nb := range d.Neighbors {
		if nb.Addr == p2Addr {
			nb.ImportPolicy = "LP200"
		}
	}
	p := netip.MustParsePrefix("10.4.0.0/16")
	res := b.run([]netmodel.Route{
		inputRoute("P1", "10.4.0.0/16", 65100),        // short path via P1
		inputRoute("P2", "10.4.0.0/16", 65100, 65101), // longer path via P2
	}, Options{})
	best := res.RIB("D", netmodel.DefaultVRF).Best(p)
	if len(best) != 1 {
		t.Fatalf("best = %v", best)
	}
	if best[0].Peer != "P2" || best[0].Attr().LocalPref != 200 {
		t.Errorf("localpref must beat AS-path length: %v", best[0])
	}
}

func mustRouteMap(t *testing.T, text string) *policyRouteMap {
	t.Helper()
	d, err := config.ParseDevice("tmp", text)
	if err != nil {
		t.Fatal(err)
	}
	for _, rm := range d.RouteMaps {
		return rm
	}
	t.Fatal("no route map parsed")
	return nil
}

func TestMissingPolicyVSBOnEBGP(t *testing.T) {
	// Beta drops eBGP updates when the neighbor has no import policy.
	b := newBuilder()
	b.device("D", "beta", 65001, "1.0.0.1")
	b.device("P", "alpha", 65002, "1.0.0.2")
	b.link("D", "P", 10)
	b.ebgp("D", "P")
	b.Net.Devices["P"].Interfaces["ext"] = &config.Interface{Name: "ext", Addr: netip.MustParsePrefix("203.0.113.2/24")}
	p := netip.MustParsePrefix("10.5.0.0/16")
	res := b.run([]netmodel.Route{inputRoute("P", "10.5.0.0/16", 65100)}, Options{})
	if best := res.RIB("D", netmodel.DefaultVRF).Best(p); len(best) != 0 {
		t.Errorf("beta without policy must reject eBGP update, got %v", best)
	}
	// Alpha accepts in the same situation.
	b.Net.Devices["D"].Vendor = "alpha"
	res = b.run([]netmodel.Route{inputRoute("P", "10.5.0.0/16", 65100)}, Options{})
	if best := res.RIB("D", netmodel.DefaultVRF).Best(p); len(best) != 1 {
		t.Errorf("alpha without policy must accept eBGP update, got %v", best)
	}
}

func TestUndefinedPolicyVSB(t *testing.T) {
	b := newBuilder()
	b.device("D", "alpha", 65001, "1.0.0.1")
	b.device("P", "alpha", 65002, "1.0.0.2")
	b.link("D", "P", 10)
	b.ebgp("D", "P")
	b.Net.Devices["P"].Interfaces["ext"] = &config.Interface{Name: "ext", Addr: netip.MustParsePrefix("203.0.113.2/24")}
	for _, nb := range b.Net.Devices["D"].Neighbors {
		nb.ImportPolicy = "TYPO_NAME" // referenced but never defined
	}
	p := netip.MustParsePrefix("10.6.0.0/16")
	res := b.run([]netmodel.Route{inputRoute("P", "10.6.0.0/16", 65100)}, Options{})
	if best := res.RIB("D", netmodel.DefaultVRF).Best(p); len(best) != 1 {
		t.Errorf("alpha accepts on undefined policy, got %v", best)
	}
	b.Net.Devices["D"].Vendor = "beta"
	res = b.run([]netmodel.Route{inputRoute("P", "10.6.0.0/16", 65100)}, Options{})
	if best := res.RIB("D", netmodel.DefaultVRF).Best(p); len(best) != 0 {
		t.Errorf("beta rejects on undefined policy, got %v", best)
	}
}

func TestSRTunnelIGPCostVSB(t *testing.T) {
	// Figure 9: A has two iBGP routes for f's prefix, via B (IGP cost 10)
	// and via C (IGP cost 10). Equal costs -> ECMP. But when the route via C
	// has a higher IGP cost, only B is used — unless an SR policy toward C
	// zeroes the cost on vendor alpha, restoring C as best.
	build := func(vendorA string, srToC bool, costC uint32) *Result {
		b := newBuilder()
		b.device("A", vendorA, 65001, "1.0.0.1")
		b.device("B", "alpha", 65001, "1.0.0.2")
		b.device("C", "alpha", 65001, "1.0.0.3")
		b.link("A", "B", 10)
		b.link("A", "C", costC)
		b.ibgp("A", "B")
		b.ibgp("A", "C")
		for _, e := range []string{"B", "C"} {
			b.Net.Devices[e].Interfaces["ext"] = &config.Interface{Name: "ext", Addr: netip.MustParsePrefix("203.0.113.2/24")}
		}
		// B and C both advertise the prefix with next-hop-self.
		for _, dev := range []string{"B", "C"} {
			for _, nb := range b.Net.Devices[dev].Neighbors {
				nb.NextHopSelf = true
			}
		}
		if srToC {
			b.Net.Devices["A"].SRPolicies = append(b.Net.Devices["A"].SRPolicies,
				&config.SRPolicy{Name: "SR-C", Endpoint: b.Net.Devices["C"].Loopback, Color: 100})
		}
		return b.run([]netmodel.Route{
			inputRoute("B", "10.7.0.0/16", 65100),
			inputRoute("C", "10.7.0.0/16", 65100),
		}, Options{})
	}
	p := netip.MustParsePrefix("10.7.0.0/16")

	// Higher IGP cost to C, no SR: only the B route is best.
	res := build("alpha", false, 30)
	best := res.RIB("A", netmodel.DefaultVRF).Best(p)
	if len(best) != 1 || best[0].Peer != "B" {
		t.Fatalf("no-SR best = %v, want only via B", best)
	}
	// SR policy toward C on alpha (cost-zeroing vendor): C wins (cost 0 < 10).
	res = build("alpha", true, 30)
	best = res.RIB("A", netmodel.DefaultVRF).Best(p)
	if len(best) != 1 || best[0].Peer != "C" || !best[0].ViaSR {
		t.Fatalf("alpha+SR best = %v, want via C through SR", best)
	}
	// Same config on beta (no cost zeroing): B still wins.
	res = build("beta", true, 30)
	best = res.RIB("A", netmodel.DefaultVRF).Best(p)
	if len(best) != 1 || best[0].Peer != "B" {
		t.Fatalf("beta+SR best = %v, want via B", best)
	}
}

func TestAggregation(t *testing.T) {
	b := lineTopo()
	b.Net.Devices["E"].Interfaces["ext"] = &config.Interface{Name: "ext", Addr: netip.MustParsePrefix("203.0.113.2/24")}
	a := b.Net.Devices["A"]
	a.Aggregates = append(a.Aggregates, config.Aggregate{
		VRF: netmodel.DefaultVRF, Prefix: netip.MustParsePrefix("10.0.0.0/8"), ASSet: true,
	})
	res := b.run([]netmodel.Route{
		inputRoute("E", "10.0.1.0/24", 65100),
		inputRoute("E", "10.0.2.0/24", 65200),
	}, Options{})
	agg := netip.MustParsePrefix("10.0.0.0/8")
	aBest := res.RIB("A", netmodel.DefaultVRF).Best(agg)
	if len(aBest) != 1 {
		t.Fatalf("aggregate not generated: %v", aBest)
	}
	// AS-set contains the contributors' ASNs.
	path := aBest[0].Attr().ASPath
	if len(path.Set) == 0 || !path.Contains(65100) || !path.Contains(65200) {
		t.Errorf("aggregate as-set = %v", path)
	}
	// The aggregate is advertised to B over iBGP.
	if best := res.RIB("B", netmodel.DefaultVRF).Best(agg); len(best) != 1 {
		t.Errorf("B aggregate = %v", best)
	}
	// Without contributors the aggregate is absent.
	res = b.run(nil, Options{})
	if best := res.RIB("A", netmodel.DefaultVRF).Best(agg); len(best) != 0 {
		t.Errorf("aggregate without contributors: %v", best)
	}
}

func TestAggregateCommonASPrefixVSB(t *testing.T) {
	mk := func(vendor string) netmodel.ASPath {
		b := lineTopo()
		b.Net.Devices["E"].Interfaces["ext"] = &config.Interface{Name: "ext", Addr: netip.MustParsePrefix("203.0.113.2/24")}
		a := b.Net.Devices["A"]
		a.Vendor = vendor
		permitAllImport(b, "A")
		a.Aggregates = append(a.Aggregates, config.Aggregate{
			VRF: netmodel.DefaultVRF, Prefix: netip.MustParsePrefix("10.0.0.0/8"),
		})
		res := b.run([]netmodel.Route{
			inputRoute("E", "10.0.1.0/24", 65100, 65500),
			inputRoute("E", "10.0.2.0/24", 65100, 65600),
		}, Options{})
		best := res.RIB("A", netmodel.DefaultVRF).Best(netip.MustParsePrefix("10.0.0.0/8"))
		if len(best) != 1 {
			t.Fatalf("%s aggregate missing", vendor)
		}
		return best[0].Attr().ASPath
	}
	// Contributor paths on A: "64999 65100 65500" and "64999 65100 65600";
	// common prefix "64999 65100".
	if got := mk("alpha").String(); got != "64999 65100" {
		t.Errorf("alpha aggregate path = %q, want common prefix", got)
	}
	if got := mk("beta").String(); got != "" {
		t.Errorf("beta aggregate path = %q, want empty", got)
	}
}

func TestSummaryOnlySuppression(t *testing.T) {
	b := lineTopo()
	b.Net.Devices["E"].Interfaces["ext"] = &config.Interface{Name: "ext", Addr: netip.MustParsePrefix("203.0.113.2/24")}
	a := b.Net.Devices["A"]
	a.Aggregates = append(a.Aggregates, config.Aggregate{
		VRF: netmodel.DefaultVRF, Prefix: netip.MustParsePrefix("10.0.0.0/8"), SummaryOnly: true,
	})
	res := b.run([]netmodel.Route{inputRoute("E", "10.0.1.0/24", 65100)}, Options{})
	spec := netip.MustParsePrefix("10.0.1.0/24")
	// A still has the specific...
	if best := res.RIB("A", netmodel.DefaultVRF).Best(spec); len(best) != 1 {
		t.Fatalf("A specific missing")
	}
	// ...but B only sees the aggregate.
	if best := res.RIB("B", netmodel.DefaultVRF).Best(spec); len(best) != 0 {
		t.Errorf("B specific should be suppressed, got %v", best)
	}
	if best := res.RIB("B", netmodel.DefaultVRF).Best(netip.MustParsePrefix("10.0.0.0/8")); len(best) != 1 {
		t.Errorf("B aggregate missing")
	}
}

func TestVRFLeaking(t *testing.T) {
	b := newBuilder()
	d := b.device("D", "alpha", 65001, "1.0.0.1")
	d.VRFs["v1"] = &config.VRF{Name: "v1", ExportRTs: []string{"65001:100"}}
	d.VRFs["v2"] = &config.VRF{Name: "v2", ImportRTs: []string{"65001:100"}}
	d.VRFs["v3"] = &config.VRF{Name: "v3", ImportRTs: []string{"65001:999"}}

	in := inputRoute("D", "10.8.0.0/16", 65100)
	in.VRF = "v1"
	in.NextHop = d.Loopback // resolves locally
	res := b.run([]netmodel.Route{in}, Options{})
	p := netip.MustParsePrefix("10.8.0.0/16")
	if best := res.RIB("D", "v1").Best(p); len(best) != 1 {
		t.Fatalf("v1 best = %v", best)
	}
	if best := res.RIB("D", "v2").Best(p); len(best) != 1 {
		t.Errorf("v2 must import via RT, got %v", best)
	}
	if best := res.RIB("D", "v3").Best(p); len(best) != 0 {
		t.Errorf("v3 must not import, got %v", best)
	}
}

func TestReLeakVSB(t *testing.T) {
	// v1 exports RT1; v2 imports RT1 and exports RT2; v3 imports RT2.
	// Whether the route reaches v3 depends on the re-leaking VSB.
	mk := func(vendor string) int {
		b := newBuilder()
		d := b.device("D", vendor, 65001, "1.0.0.1")
		d.VRFs["v1"] = &config.VRF{Name: "v1", ExportRTs: []string{"rt1"}}
		d.VRFs["v2"] = &config.VRF{Name: "v2", ImportRTs: []string{"rt1"}, ExportRTs: []string{"rt2"}}
		d.VRFs["v3"] = &config.VRF{Name: "v3", ImportRTs: []string{"rt2"}}
		in := inputRoute("D", "10.9.0.0/16", 65100)
		in.VRF = "v1"
		in.NextHop = d.Loopback
		res := b.run([]netmodel.Route{in}, Options{})
		return len(res.RIB("D", "v3").Best(netip.MustParsePrefix("10.9.0.0/16")))
	}
	if got := mk("beta"); got != 1 { // beta re-leaks
		t.Errorf("beta re-leak: got %d routes in v3", got)
	}
	if got := mk("alpha"); got != 0 { // alpha does not
		t.Errorf("alpha must not re-leak: got %d routes in v3", got)
	}
}

func TestIsolationVSB(t *testing.T) {
	mk := func(vendor string) (*Result, netip.Prefix) {
		b := lineTopo()
		b.Net.Devices["E"].Interfaces["ext"] = &config.Interface{Name: "ext", Addr: netip.MustParsePrefix("203.0.113.2/24")}
		b.Net.Devices["A"].Vendor = vendor
		b.Net.Devices["A"].Isolated = true
		res := b.run([]netmodel.Route{inputRoute("E", "10.0.0.0/24", 65100)}, Options{})
		return res, netip.MustParsePrefix("10.0.0.0/24")
	}
	// Alpha isolates via policy: A keeps learning but stops advertising.
	res, p := mk("alpha")
	if best := res.RIB("A", netmodel.DefaultVRF).Best(p); len(best) != 1 {
		t.Errorf("policy-isolated A should still learn, got %v", best)
	}
	if best := res.RIB("B", netmodel.DefaultVRF).Best(p); len(best) != 0 {
		t.Errorf("policy-isolated A must not advertise to B, got %v", best)
	}
	// Beta isolates via configuration: sessions down, A learns nothing.
	res, p = mk("beta")
	if best := res.RIB("A", netmodel.DefaultVRF).Best(p); len(best) != 0 {
		t.Errorf("session-isolated A must learn nothing, got %v", best)
	}
}

func TestAddPath(t *testing.T) {
	// RR with add-paths advertises 2 paths to its client.
	b := newBuilder()
	b.device("RR", "alpha", 65001, "1.0.0.1")
	b.device("C", "alpha", 65001, "1.0.0.2")
	b.device("P1", "alpha", 65002, "1.0.0.3")
	b.device("P2", "alpha", 65003, "1.0.0.4")
	b.link("RR", "C", 10)
	b.link("RR", "P1", 10)
	b.link("RR", "P2", 10)
	b.ibgp("RR", "C")
	b.ebgp("RR", "P1")
	b.ebgp("RR", "P2")
	for _, nb := range b.Net.Devices["RR"].Neighbors {
		if nb.Addr == b.Net.Devices["C"].Loopback {
			nb.RRClient = true
			nb.AddPaths = 2
		}
	}
	for _, e := range []string{"P1", "P2"} {
		b.Net.Devices[e].Interfaces["ext"] = &config.Interface{Name: "ext", Addr: netip.MustParsePrefix("203.0.113.2/24")}
	}
	p := netip.MustParsePrefix("10.10.0.0/16")
	// Different AS path lengths: not ECMP, but add-path still sends both.
	res := b.run([]netmodel.Route{
		inputRoute("P1", "10.10.0.0/16", 65100),
		inputRoute("P2", "10.10.0.0/16", 65100, 65101),
	}, Options{})
	rows := res.RIB("C", netmodel.DefaultVRF).Routes(p)
	if len(rows) != 2 {
		t.Fatalf("C should hold 2 add-path routes, got %v", rows)
	}
}

func TestConvergenceWithinPaperBound(t *testing.T) {
	b := lineTopo()
	b.Net.Devices["E"].Interfaces["ext"] = &config.Interface{Name: "ext", Addr: netip.MustParsePrefix("203.0.113.2/24")}
	res := b.run([]netmodel.Route{inputRoute("E", "10.0.0.0/24", 65100)}, Options{})
	if !res.Converged || res.Rounds > 20 {
		t.Errorf("converged=%v rounds=%d; paper's WAN converges within 20", res.Converged, res.Rounds)
	}
}

func TestDeterminism(t *testing.T) {
	inputs := []netmodel.Route{
		inputRoute("E", "10.0.0.0/24", 65100),
		inputRoute("E", "10.0.1.0/24", 65100),
		inputRoute("E", "10.0.2.0/24", 65200),
	}
	mk := func() *netmodel.GlobalRIB {
		b := lineTopo()
		b.Net.Devices["E"].Interfaces["ext"] = &config.Interface{Name: "ext", Addr: netip.MustParsePrefix("203.0.113.2/24")}
		return b.run(inputs, Options{}).GlobalRIB()
	}
	g1, g2 := mk(), mk()
	if !g1.Equal(g2) {
		t.Error("simulation is not deterministic")
	}
}

func TestVendorProfileDivergenceIsObservable(t *testing.T) {
	// The same network simulated under a mutated profile must differ — the
	// foundation of the accuracy-diagnosis campaign.
	b := lineTopo()
	b.Net.Devices["E"].Interfaces["ext"] = &config.Interface{Name: "ext", Addr: netip.MustParsePrefix("203.0.113.2/24")}
	inputs := []netmodel.Route{inputRoute("E", "10.0.0.0/24", 65100)}
	igp := isis.Compute(b.Net.Topo, isis.Options{})

	truth := Simulate(b.Net, igp, inputs, Options{}).GlobalRIB()

	mutated := vsb.Defaults()
	mutated["alpha"] = vsb.MutDefaultPreference.Apply(mutated["alpha"])
	got := Simulate(b.Net, igp, inputs, Options{Profiles: mutated}).GlobalRIB()
	if truth.Equal(got) {
		t.Error("preference mutation must be observable in the global RIB")
	}
}

// policyRouteMap aliases policy.RouteMap for test readability.
type policyRouteMap = policy.RouteMap

func TestSessionEstablishmentRules(t *testing.T) {
	// A session requires matching remote-as on both sides, a back-reference,
	// an up remote, and (for eBGP) a direct link.
	mk := func(mutate func(b *netBuilder)) *Result {
		b := newBuilder()
		b.device("D", "alpha", 65001, "1.0.0.1")
		b.device("P", "alpha", 65002, "1.0.0.2")
		b.link("D", "P", 10)
		b.ebgp("D", "P")
		b.Net.Devices["P"].Interfaces["ext"] = &config.Interface{Name: "ext", Addr: netip.MustParsePrefix("203.0.113.2/24")}
		b.Network()
		mutate(b)
		return b.simulate([]netmodel.Route{inputRoute("P", "10.5.0.0/16", 65100)}, Options{})
	}
	p := netip.MustParsePrefix("10.5.0.0/16")

	// Baseline: session up, route learned.
	res := mk(func(b *netBuilder) {})
	if len(res.RIB("D", netmodel.DefaultVRF).Best(p)) != 1 {
		t.Fatal("baseline session must establish")
	}
	// Wrong remote-as on D's side: session never establishes.
	res = mk(func(b *netBuilder) {
		b.Net.Devices["D"].Neighbors[0].RemoteAS = 65099
	})
	if len(res.RIB("D", netmodel.DefaultVRF).Best(p)) != 0 {
		t.Error("remote-as mismatch must keep the session down")
	}
	// Remote does not configure us back.
	res = mk(func(b *netBuilder) {
		b.Net.Devices["P"].Neighbors = nil
	})
	if len(res.RIB("D", netmodel.DefaultVRF).Best(p)) != 0 {
		t.Error("one-sided session must stay down")
	}
	// Remote down.
	res = mk(func(b *netBuilder) {
		b.Net.Topo.SetNodeUp("P", false)
	})
	if len(res.RIB("D", netmodel.DefaultVRF).Best(p)) != 0 {
		t.Error("session to a down device must stay down")
	}
	// eBGP link down: no direct path.
	res = mk(func(b *netBuilder) {
		b.Net.Topo.SetLinkUp(b.Net.Topo.FindLink("D", "P").ID(), false)
	})
	if len(res.RIB("D", netmodel.DefaultVRF).Best(p)) != 0 {
		t.Error("eBGP without a direct up link must stay down")
	}
}

func TestIBGPSessionRequiresIGPReachability(t *testing.T) {
	// X and Z configure an iBGP session but are in separate IGP islands.
	b := newBuilder()
	b.device("X", "alpha", 65001, "1.0.0.1")
	b.device("Y", "alpha", 65001, "1.0.0.2")
	b.device("Z", "alpha", 65001, "1.0.0.3")
	b.link("X", "Y", 10) // Z is isolated
	b.ibgp("X", "Z")
	b.Net.Devices["X"].Interfaces["ext"] = &config.Interface{Name: "ext", Addr: netip.MustParsePrefix("203.0.113.2/24")}
	res := b.run([]netmodel.Route{inputRoute("X", "10.6.0.0/16", 65100)}, Options{})
	if len(res.RIB("Z", netmodel.DefaultVRF).Best(netip.MustParsePrefix("10.6.0.0/16"))) != 0 {
		t.Error("iBGP over a partitioned IGP must stay down")
	}
}

func TestMEDTieBreak(t *testing.T) {
	// Same AS path length, same localpref; lower MED wins.
	b := newBuilder()
	b.device("D", "alpha", 65001, "1.0.0.1")
	b.device("P1", "alpha", 65002, "1.0.0.2")
	b.device("P2", "alpha", 65002, "1.0.0.3")
	b.link("D", "P1", 10)
	b.link("D", "P2", 10)
	b.ebgp("D", "P1")
	b.ebgp("D", "P2")
	for _, e := range []string{"P1", "P2"} {
		b.Net.Devices[e].Interfaces["ext"] = &config.Interface{Name: "ext", Addr: netip.MustParsePrefix("203.0.113.2/24")}
	}
	r1 := withMED(inputRoute("P1", "10.8.0.0/16", 65100), 50)
	r2 := withMED(inputRoute("P2", "10.8.0.0/16", 65100), 10)
	res := b.run([]netmodel.Route{r1, r2}, Options{})
	best := res.RIB("D", netmodel.DefaultVRF).Best(netip.MustParsePrefix("10.8.0.0/16"))
	if len(best) != 1 || best[0].Peer != "P2" {
		t.Errorf("lower MED must win: %v", best)
	}
}

func TestStaticBeatsBGPOnPreference(t *testing.T) {
	b := lineTopo()
	b.Net.Devices["E"].Interfaces["ext"] = &config.Interface{Name: "ext", Addr: netip.MustParsePrefix("203.0.113.2/24")}
	// A static route on A for the same prefix with admin preference 1
	// (lower than eBGP's default).
	a := b.Net.Devices["A"]
	a.Statics = append(a.Statics, config.StaticRoute{
		VRF: netmodel.DefaultVRF, Prefix: netip.MustParsePrefix("10.0.0.0/24"),
		NextHop: a.Loopback, Preference: 1,
	})
	res := b.run([]netmodel.Route{inputRoute("E", "10.0.0.0/24", 65100)}, Options{})
	best := res.RIB("A", netmodel.DefaultVRF).Best(netip.MustParsePrefix("10.0.0.0/24"))
	if len(best) != 1 || best[0].Protocol != netmodel.ProtoStatic {
		t.Errorf("static (pref 1) must beat eBGP (pref 20): %v", best)
	}
}

// TestSimulateRejectsForeignIGP: an IGP result computed on another topology —
// here a clone's, taken before the network gained a link — names devices by
// another index, so Simulate must refuse it rather than price next hops with
// it.
func TestSimulateRejectsForeignIGP(t *testing.T) {
	out := gen.Generate(gen.WAN(1))
	igp := isis.Compute(out.Net.Clone().Topo, isis.Options{})
	names := out.Net.Topo.NodeNames()
	out.Net.Topo.AddLink(netmodel.Link{A: names[0], B: names[1], AIface: "extra", BIface: "extra", CostAB: 10, CostBA: 10})
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "another topology") {
			t.Fatalf("Simulate over a foreign IGP result: recovered %v, want a panic naming the topology mismatch", r)
		}
	}()
	Simulate(out.Net, igp, out.Inputs, Options{})
}
