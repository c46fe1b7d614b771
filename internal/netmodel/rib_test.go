package netmodel

import (
	"net/netip"
	"runtime"
	"testing"
)

func mkRoute(dev, vrf, prefix, nh string, rt RouteType) Route {
	return Route{
		Device: dev, VRF: vrf,
		Prefix:    netip.MustParsePrefix(prefix),
		Protocol:  ProtoBGP,
		NextHop:   netip.MustParseAddr(nh),
		RouteType: rt,
	}
}

func TestRIBReplaceAndBest(t *testing.T) {
	rib := NewRIB("A", DefaultVRF)
	p := netip.MustParsePrefix("10.0.0.0/24")
	rib.Replace(p, []Route{
		mkRoute("X", "ignored", "10.0.0.0/24", "1.1.1.1", RouteBest),
		mkRoute("X", "ignored", "10.0.0.0/24", "2.2.2.2", RouteCandidate),
	})
	if rib.Len() != 2 {
		t.Fatalf("Len = %d", rib.Len())
	}
	for _, r := range rib.Routes(p) {
		if r.Device != "A" || r.VRF != DefaultVRF {
			t.Errorf("Replace must force device/vrf, got %s/%s", r.Device, r.VRF)
		}
	}
	best := rib.Best(p)
	if len(best) != 1 || best[0].NextHop != netip.MustParseAddr("1.1.1.1") {
		t.Errorf("Best = %v", best)
	}
}

func TestRIBReplace(t *testing.T) {
	rib := NewRIB("A", DefaultVRF)
	p := netip.MustParsePrefix("10.0.0.0/24")
	rib.Replace(p, []Route{mkRoute("A", DefaultVRF, "10.0.0.0/24", "1.1.1.1", RouteBest)})
	rib.Replace(p, []Route{mkRoute("A", DefaultVRF, "10.0.0.0/24", "3.3.3.3", RouteBest)})
	if got := rib.Best(p); len(got) != 1 || got[0].NextHop != netip.MustParseAddr("3.3.3.3") {
		t.Errorf("Replace: %v", got)
	}
	rib.Replace(p, nil)
	if rib.Len() != 0 {
		t.Error("Replace(nil) should delete the prefix")
	}
}

// TestRIBGrow: a grown table keeps its rows and its memoized prefix order,
// takes n new prefixes without growing its map again, and an overlay ignores
// Grow.
func TestRIBGrow(t *testing.T) {
	rib := NewRIB("A", DefaultVRF)
	old := netip.MustParsePrefix("10.0.0.0/24")
	rib.Replace(old, []Route{mkRoute("A", DefaultVRF, "10.0.0.0/24", "1.1.1.1", RouteBest)})
	sorted := rib.Prefixes()
	const n = 500
	rows := make([][]Route, n)
	ps := make([]netip.Prefix, n)
	for i := range ps {
		ps[i] = netip.PrefixFrom(netip.AddrFrom4([4]byte{10, 1, byte(i >> 8), byte(i)}), 32)
		rows[i] = []Route{{Prefix: ps[i], RouteType: RouteBest}}
	}

	rib.Grow(n)
	if got := rib.Prefixes(); len(got) != 1 || &got[0] != &sorted[0] {
		t.Errorf("Grow dropped the memoized prefix order: %v", got)
	}
	if best := rib.Best(old); len(best) != 1 || best[0].NextHop != netip.MustParseAddr("1.1.1.1") {
		t.Errorf("Best after Grow = %v", best)
	}
	// Counted the way testing.AllocsPerRun counts: at GOMAXPROCS 1, so no
	// other goroutine's allocation lands between the two reads.
	var before, after runtime.MemStats
	func() {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		runtime.ReadMemStats(&before)
		for i := range ps {
			rib.ReplaceOwned(ps[i], rows[i])
		}
		runtime.ReadMemStats(&after)
	}()
	if allocs := after.Mallocs - before.Mallocs; allocs != 0 {
		t.Errorf("%d prefixes into a table grown for them: %d allocations, want 0", n, allocs)
	}
	if got := len(rib.Prefixes()); got != n+1 {
		t.Errorf("grown table holds %d prefixes, want %d", got, n+1)
	}

	o := rib.Overlay()
	o.Grow(n)
	if o.byPrefix.OwnLen() != 0 || o.Len() != rib.Len() {
		t.Errorf("Grow on an overlay: own map %d entries, Len %d, under's %d", o.byPrefix.OwnLen(), o.Len(), rib.Len())
	}
}

func TestRIBLongestMatch(t *testing.T) {
	rib := NewRIB("A", DefaultVRF)
	for _, r := range []Route{
		mkRoute("A", DefaultVRF, "10.0.0.0/8", "1.0.0.1", RouteBest),
		mkRoute("A", DefaultVRF, "10.1.0.0/16", "2.0.0.1", RouteBest),
		mkRoute("A", DefaultVRF, "10.1.2.0/24", "3.0.0.1", RouteCandidate), // no best rows
	} {
		rib.Replace(r.Prefix, []Route{r})
	}

	prefix, best, ok := rib.LongestMatch(netip.MustParseAddr("10.1.2.3"))
	if !ok {
		t.Fatal("no match")
	}
	// /24 has no best route, so LPM must fall back to /16.
	if prefix != netip.MustParsePrefix("10.1.0.0/16") {
		t.Errorf("matched %s, want 10.1.0.0/16", prefix)
	}
	if len(best) != 1 || best[0].NextHop != netip.MustParseAddr("2.0.0.1") {
		t.Errorf("best = %v", best)
	}
	if _, _, ok := rib.LongestMatch(netip.MustParseAddr("192.168.0.1")); ok {
		t.Error("want no match for uncovered address")
	}
}

func TestGlobalRIBDeterministicOrder(t *testing.T) {
	r1 := mkRoute("B", DefaultVRF, "10.0.0.0/24", "1.1.1.1", RouteBest)
	r2 := mkRoute("A", DefaultVRF, "10.0.0.0/24", "1.1.1.1", RouteBest)
	g1 := NewGlobalRIB([]Route{r1, r2})
	g2 := NewGlobalRIB([]Route{r2, r1})
	if !g1.Equal(g2) {
		t.Error("insertion order must not matter")
	}
	if g1.Rows()[0].Device != "A" {
		t.Error("rows not sorted by device")
	}
}

func TestGlobalRIBEqualAndDiff(t *testing.T) {
	base := []Route{
		mkRoute("A", DefaultVRF, "10.0.0.0/24", "2.0.0.1", RouteBest),
		mkRoute("B", DefaultVRF, "10.0.0.0/24", "4.0.0.1", RouteBest),
	}
	g := NewGlobalRIB(base)
	same := NewGlobalRIB(base)
	if !g.Equal(same) {
		t.Fatal("identical RIBs must be Equal")
	}

	changed := base[0]
	a := *changed.Attr()
	a.LocalPref = 300
	changed.SetAttrs(&a)
	h := NewGlobalRIB([]Route{changed, base[1]})
	if g.Equal(h) {
		t.Fatal("attribute change must break equality")
	}
	onlyG, onlyH := g.Diff(h)
	if len(onlyG) != 1 || len(onlyH) != 1 {
		t.Fatalf("Diff = %d/%d rows, want 1/1", len(onlyG), len(onlyH))
	}
	if onlyG[0].Attr().LocalPref == onlyH[0].Attr().LocalPref {
		t.Error("diff rows should differ in LocalPref")
	}
}

func TestTopologyBasics(t *testing.T) {
	topo := NewTopology()
	topo.AddNode(Node{Name: "A", Loopback: netip.MustParseAddr("1.1.1.1")})
	topo.AddNode(Node{Name: "B", Loopback: netip.MustParseAddr("2.2.2.2")})
	topo.AddNode(Node{Name: "C", Loopback: netip.MustParseAddr("3.3.3.3")})
	l := topo.AddLink(Link{
		A: "B", B: "A", AIface: "eth0", BIface: "eth1",
		AAddr: netip.MustParseAddr("10.0.0.2"), BAddr: netip.MustParseAddr("10.0.0.1"),
		CostAB: 10, CostBA: 20, Bandwidth: 1e9,
	})
	// Endpoints are normalized: A < B lexically.
	if l.A != "A" || l.B != "B" || l.AIface != "eth1" || l.CostAB != 20 {
		t.Errorf("normalization: %+v", l)
	}
	topo.AddLink(Link{A: "A", B: "C", AIface: "e2", BIface: "e0", CostAB: 5, CostBA: 5})

	nbrs := topo.neighbors("A")
	if len(nbrs) != 2 || nbrs[0].Device != "B" || nbrs[1].Device != "C" {
		t.Fatalf("Neighbors(A) = %v", nbrs)
	}
	if nbrs[0].Cost != 20 {
		t.Errorf("A->B cost = %d, want 20", nbrs[0].Cost)
	}

	if owner := topo.AddrOwner(netip.MustParseAddr("10.0.0.2")); owner != "B" {
		t.Errorf("AddrOwner = %q", owner)
	}
	if owner := topo.AddrOwner(netip.MustParseAddr("3.3.3.3")); owner != "C" {
		t.Errorf("loopback AddrOwner = %q", owner)
	}
}

func TestTopologyFailuresAndClone(t *testing.T) {
	topo := NewTopology()
	for _, n := range []string{"A", "B", "C"} {
		topo.AddNode(Node{Name: n})
	}
	topo.AddLink(Link{A: "A", B: "B", AIface: "e0", BIface: "e0", CostAB: 1, CostBA: 1})
	topo.AddLink(Link{A: "A", B: "C", AIface: "e1", BIface: "e0", CostAB: 1, CostBA: 1})

	clone := topo.Clone()

	topo.SetNodeUp("B", false)
	if got := topo.neighbors("A"); len(got) != 1 || got[0].Device != "C" {
		t.Errorf("down node still a neighbor: %v", got)
	}
	if got := clone.neighbors("A"); len(got) != 2 {
		t.Errorf("clone affected by original mutation: %v", got)
	}

	id := LinkID{A: "A", B: "C", AIface: "e1", BIface: "e0"}
	if !topo.SetLinkUp(id, false) {
		t.Fatal("SetLinkUp failed")
	}
	if got := topo.neighbors("A"); len(got) != 0 {
		t.Errorf("down link still a neighbor: %v", got)
	}
}

func TestPathHelpers(t *testing.T) {
	id := LinkID{A: "A", B: "B", AIface: "e0", BIface: "e0"}
	p := Path{Hops: []Hop{{Device: "A", Link: id}, {Device: "B"}}, Exit: ExitDelivered}
	if got := p.Devices(); len(got) != 2 || got[0] != "A" || got[1] != "B" {
		t.Errorf("Devices = %v", got)
	}
	if !p.Traverses(id) {
		t.Error("Traverses should find the link")
	}
	if p.Traverses(LinkID{A: "X", B: "Y"}) {
		t.Error("Traverses false positive")
	}
}
