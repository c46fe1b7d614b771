package isis

import (
	"cmp"
	"fmt"
	"math/rand"
	"net/netip"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"hoyan/internal/netmodel"
)

// diamond builds:
//
//	   A
//	10/ \10
//	 B    C
//	10\ /10
//	   D
//
// with an extra expensive direct A-D link of cost 100.
func diamond() *netmodel.Topology {
	topo := netmodel.NewTopology()
	lo := map[string]string{"A": "1.1.1.1", "B": "2.2.2.2", "C": "3.3.3.3", "D": "4.4.4.4"}
	for n, l := range lo {
		topo.AddNode(netmodel.Node{Name: n, Loopback: netip.MustParseAddr(l)})
	}
	add := func(a, b string, cost uint32, aAddr, bAddr string) {
		topo.AddLink(netmodel.Link{
			A: a, B: b, AIface: "to-" + b, BIface: "to-" + a,
			AAddr: netip.MustParseAddr(aAddr), BAddr: netip.MustParseAddr(bAddr),
			CostAB: cost, CostBA: cost, Bandwidth: 1e9,
		})
	}
	add("A", "B", 10, "10.0.1.1", "10.0.1.2")
	add("A", "C", 10, "10.0.2.1", "10.0.2.2")
	add("B", "D", 10, "10.0.3.1", "10.0.3.2")
	add("C", "D", 10, "10.0.4.1", "10.0.4.2")
	add("A", "D", 100, "10.0.5.1", "10.0.5.2")
	return topo
}

func TestSPFCostsAndECMP(t *testing.T) {
	r := Compute(diamond(), Options{})
	if c, ok := r.Cost("A", "D"); !ok || c != 20 {
		t.Errorf("Cost(A,D) = %d,%v want 20", c, ok)
	}
	if c, ok := r.Cost("A", "A"); !ok || c != 0 {
		t.Errorf("Cost(A,A) = %d,%v", c, ok)
	}
	fhs := r.FirstHops("A", "D")
	if len(fhs) != 2 || fhs[0].Device != "B" || fhs[1].Device != "C" {
		t.Errorf("FirstHops(A,D) = %v, want ECMP via B and C", fhs)
	}
	if fhs := r.FirstHops("A", "B"); len(fhs) != 1 || fhs[0].Device != "B" {
		t.Errorf("FirstHops(A,B) = %v", fhs)
	}
}

func TestSPFLinkFailure(t *testing.T) {
	topo := diamond()
	topo.SetLinkUp(netmodel.LinkID{A: "A", B: "B", AIface: "to-B", BIface: "to-A"}, false)
	r := Compute(topo, Options{})
	fhs := r.FirstHops("A", "D")
	if len(fhs) != 1 || fhs[0].Device != "C" {
		t.Errorf("after A-B failure FirstHops(A,D) = %v", fhs)
	}
	if c, _ := r.Cost("A", "B"); c != 30 {
		t.Errorf("Cost(A,B) via C,D = %d want 30", c)
	}
}

func TestSPFNodeFailurePartition(t *testing.T) {
	topo := diamond()
	topo.SetNodeUp("B", false)
	topo.SetNodeUp("C", false)
	topo.SetLinkUp(netmodel.LinkID{A: "A", B: "D", AIface: "to-D", BIface: "to-A"}, false)
	r := Compute(topo, Options{})
	if r.Reachable("A", "D") {
		t.Error("A must not reach D after partition")
	}
	if _, ok := r.Cost("A", "D"); ok {
		t.Error("Cost must report unreachable")
	}
	if r.FirstHops("A", "D") != nil {
		t.Error("no first hops when unreachable")
	}
}

func TestTEMetric(t *testing.T) {
	// Give the B branch a huge TE metric: SPF on the same diamond without
	// it keeps ECMP, with it prefers the C branch.
	plain := Compute(diamond(), Options{})
	if fhs := plain.FirstHops("A", "D"); len(fhs) != 2 {
		t.Errorf("SPF without TE should keep ECMP, got %v", fhs)
	}
	topo := diamond()
	topo.Link(netmodel.LinkID{A: "A", B: "B", AIface: "to-B", BIface: "to-A"}).TEAB = 1000
	te := Compute(topo, Options{})
	fhs := te.FirstHops("A", "D")
	if len(fhs) != 1 || fhs[0].Device != "C" {
		t.Errorf("TE SPF FirstHops(A,D) = %v, want only C", fhs)
	}
	if c, _ := te.Cost("A", "B"); c != 30 {
		t.Errorf("TE Cost(A,B) = %d, want 30 via C,D", c)
	}
}

func TestPath(t *testing.T) {
	r := Compute(diamond(), Options{})
	p := r.Path("A", "D")
	if len(p) != 3 || p[0] != "A" || p[2] != "D" {
		t.Errorf("Path(A,D) = %v", p)
	}
	if p[1] != "B" { // lexically first ECMP branch
		t.Errorf("Path should take lexically first branch, got %v", p)
	}
	if p := r.Path("A", "A"); len(p) != 1 {
		t.Errorf("Path(A,A) = %v", p)
	}
}

func TestRoutes(t *testing.T) {
	topo := diamond()
	r := Compute(topo, Options{})
	routes := r.Routes(topo, "A")
	// 3 destinations, D has 2 ECMP rows -> 4 rows.
	if len(routes) != 4 {
		t.Fatalf("len(routes) = %d want 4: %v", len(routes), routes)
	}
	byPrefix := map[string][]netmodel.Route{}
	for _, rt := range routes {
		if rt.Protocol != netmodel.ProtoISIS || rt.RouteType != netmodel.RouteBest {
			t.Errorf("bad route %v", rt)
		}
		byPrefix[rt.Prefix.String()] = append(byPrefix[rt.Prefix.String()], rt)
	}
	d := byPrefix["4.4.4.4/32"]
	if len(d) != 2 {
		t.Fatalf("ECMP rows for D = %d", len(d))
	}
	// Next hops are the neighbor-side interface addresses.
	nhs := map[string]bool{d[0].NextHop.String(): true, d[1].NextHop.String(): true}
	if !nhs["10.0.1.2"] || !nhs["10.0.2.2"] {
		t.Errorf("next hops = %v", nhs)
	}
	if d[0].IGPCost != 20 {
		t.Errorf("IGPCost = %d", d[0].IGPCost)
	}
}

func TestSPFTriangleInequalityProperty(t *testing.T) {
	topo := diamond()
	r := Compute(topo, Options{})
	names := topo.NodeNames()
	f := func(i, j, k uint8) bool {
		a, b, c := names[int(i)%len(names)], names[int(j)%len(names)], names[int(k)%len(names)]
		ab, ok1 := r.Cost(a, b)
		bc, ok2 := r.Cost(b, c)
		ac, ok3 := r.Cost(a, c)
		if !ok1 || !ok2 || !ok3 {
			return true
		}
		return ac <= ab+bc
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSPFSymmetricCosts(t *testing.T) {
	// With symmetric link costs, distance must be symmetric.
	topo := diamond()
	r := Compute(topo, Options{})
	for _, a := range topo.NodeNames() {
		for _, b := range topo.NodeNames() {
			ca, _ := r.Cost(a, b)
			cb, _ := r.Cost(b, a)
			if ca != cb {
				t.Errorf("asymmetric: %s->%s=%d %s->%s=%d", a, b, ca, b, a, cb)
			}
		}
	}
}

func TestComputeParallelMatchesSequential(t *testing.T) {
	topo := randomTopo(rand.New(rand.NewSource(6)), 24)
	topo.SetNodeUp("r05", false)
	seq := Compute(topo, Options{Parallelism: 1})
	pll := Compute(topo, Options{Parallelism: 8})
	assertSame(t, "parallelism 8 vs 1", topo, pll, seq)
}

// checkSPF asserts that r is a stable state of SPF on topo, from first
// principles rather than against another run: from every up source s,
// dist(s, s) = 0; no up edge u→v relaxes (dist(s, u) + cost(u, v) ≥
// dist(s, v)); every other reachable node has a tight in-edge (equality); and
// each node's first-hop set is the union over its tight in-edges u→v of that
// edge when u = s, else of FirstHops(s, u). A down source reaches nothing.
// Link costs must be positive.
func checkSPF(t *testing.T, label string, topo *netmodel.Topology, r *Result) {
	t.Helper()
	names := topo.NodeNames()
	key := func(h FirstHop) string { return h.Device + "|" + h.Link.String() }
	for _, s := range names {
		if n := topo.Node(s); !n.Up {
			for _, d := range names {
				if d != s && r.Reachable(s, d) {
					t.Fatalf("%s: down source %s reaches %s", label, s, d)
				}
			}
			continue
		}
		if sid, _ := r.idx.DevID(s); r.fdist[sid][sid] != 0 {
			t.Fatalf("%s: dist(%s, %s) = %d", label, s, s, r.fdist[sid][sid])
		}
		tight := make(map[string]map[string]FirstHop)
		for _, u := range names {
			du, ok := r.Cost(s, u)
			if !ok {
				continue
			}
			for _, nb := range neighbors(topo, u) {
				c := nb.Link.DirCost(u)
				dv, ok := r.Cost(s, nb.Device)
				if !ok || du+c < dv {
					t.Fatalf("%s: from %s, edge %s→%s relaxes %d+%d < %d (reachable %v)", label, s, u, nb.Device, du, c, dv, ok)
				}
				if du+c != dv || nb.Device == s {
					continue
				}
				hops := r.FirstHops(s, u)
				if u == s {
					hops = []FirstHop{{Device: nb.Device, Link: nb.Link.ID()}}
				}
				if tight[nb.Device] == nil {
					tight[nb.Device] = make(map[string]FirstHop)
				}
				for _, h := range hops {
					tight[nb.Device][key(h)] = h
				}
			}
		}
		for _, v := range names {
			_, reach := r.Cost(s, v)
			if v != s && reach && tight[v] == nil {
				t.Fatalf("%s: from %s, %s is reachable without a tight in-edge", label, s, v)
			}
			var want []string
			for k := range tight[v] {
				want = append(want, k)
			}
			var got []string
			for _, h := range r.FirstHops(s, v) {
				got = append(got, key(h))
			}
			slices.Sort(want)
			slices.Sort(got)
			if !slices.Equal(got, want) {
				t.Fatalf("%s: FirstHops(%s, %s) = %v, the union over its tight in-edges is %v", label, s, v, got, want)
			}
		}
	}
}

// TestSPFStableState checks Compute against checkSPF on the diamond (plain
// and TE metric, a link down) and on seeded random topologies with failed
// links and nodes.
func TestSPFStableState(t *testing.T) {
	topo := diamond()
	checkSPF(t, "diamond", topo, Compute(topo, Options{}))
	topo.Link(netmodel.LinkID{A: "A", B: "B", AIface: "to-B", BIface: "to-A"}).TEAB = 1000
	checkSPF(t, "diamond TE", topo, Compute(topo, Options{}))
	topo.SetLinkUp(netmodel.LinkID{A: "A", B: "C", AIface: "to-C", BIface: "to-A"}, false)
	checkSPF(t, "diamond, A-C down", topo, Compute(topo, Options{}))

	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 20; trial++ {
		topo := randomTopo(rng, 8+rng.Intn(16))
		links := topo.Links()
		for i := rng.Intn(4); i > 0; i-- {
			topo.SetLinkUp(links[rng.Intn(len(links))].ID(), false)
		}
		if rng.Intn(2) == 0 {
			topo.SetNodeUp(fmt.Sprintf("r%02d", rng.Intn(8)), false)
		}
		checkSPF(t, fmt.Sprintf("random trial %d", trial), topo, Compute(topo, Options{}))
	}
}

// adjacency is one up adjacency seen from a device.
type adjacency struct {
	Device string
	Link   *netmodel.Link
}

// neighbors returns an up device's adjacencies over its up links to up
// devices, sorted by neighbor name, then link.
func neighbors(topo *netmodel.Topology, device string) []adjacency {
	if n := topo.Node(device); n == nil || !n.Up {
		return nil
	}
	var out []adjacency
	for _, l := range topo.LinksOf(device) {
		other := l.A
		if l.A == device {
			other = l.B
		}
		if on := topo.Node(other); !l.Up || on == nil || !on.Up {
			continue
		}
		out = append(out, adjacency{Device: other, Link: l})
	}
	slices.SortFunc(out, func(a, b adjacency) int {
		return cmp.Or(strings.Compare(a.Device, b.Device), strings.Compare(a.Link.ID().String(), b.Link.ID().String()))
	})
	return out
}
