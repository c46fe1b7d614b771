package isis

import (
	"fmt"
	"math/rand"
	"net/netip"
	"reflect"
	"testing"

	"hoyan/internal/netmodel"
)

// randomTopo builds a seeded random connected topology with asymmetric costs,
// a TE metric on every fourth link's A→B direction, and a few parallel links.
func randomTopo(rng *rand.Rand, n int) *netmodel.Topology {
	topo := netmodel.NewTopology()
	for i := 0; i < n; i++ {
		topo.AddNode(netmodel.Node{
			Name:     fmt.Sprintf("r%02d", i),
			Loopback: netip.AddrFrom4([4]byte{10, 255, byte(i), 1}),
		})
	}
	link := 0
	addLink := func(a, b int) {
		l := netmodel.Link{
			A: fmt.Sprintf("r%02d", a), B: fmt.Sprintf("r%02d", b),
			AIface: fmt.Sprintf("eth%d", link), BIface: fmt.Sprintf("eth%d", link),
			CostAB: uint32(1 + rng.Intn(9)), CostBA: uint32(1 + rng.Intn(9)),
		}
		if link%4 == 0 {
			l.TEAB = 12
		}
		topo.AddLink(l)
		link++
	}
	// Ring for connectivity, then random chords.
	for i := 0; i < n; i++ {
		addLink(i, (i+1)%n)
	}
	for i := 0; i < n; i++ {
		a, b := rng.Intn(n), rng.Intn(n)
		if a != b {
			addLink(a, b)
		}
	}
	return topo
}

// assertSame compares an incremental result against a full recompute over
// every (source, destination) pair of topo — distance, reachability and ECMP
// first-hop set — and asserts both are stable states of SPF on topo.
func assertSame(t *testing.T, label string, topo *netmodel.Topology, got, want *Result) {
	t.Helper()
	names := topo.NodeNames()
	for _, s := range names {
		for _, d := range names {
			gc, gok := got.Cost(s, d)
			wc, wok := want.Cost(s, d)
			if gc != wc || gok != wok {
				t.Fatalf("%s: Cost(%s, %s) = %d, %v; want %d, %v", label, s, d, gc, gok, wc, wok)
			}
			if g, w := got.FirstHops(s, d), want.FirstHops(s, d); !reflect.DeepEqual(g, w) {
				t.Fatalf("%s: FirstHops(%s, %s) = %v, want %v", label, s, d, g, w)
			}
		}
	}
	checkSPF(t, label+" (incremental)", topo, got)
	checkSPF(t, label+" (full)", topo, want)
}

func TestRecomputeSingleLinkFailures(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	topo := randomTopo(rng, 16)
	base := Compute(topo, Options{})
	for _, l := range topo.Links() {
		id := l.ID()
		topo.SetLinkUp(id, false)
		want := Compute(topo, Options{})
		got, touched, stats := Recompute(topo, base, Delta{Links: []netmodel.LinkID{id}}, Options{})
		assertSame(t, "down "+id.String(), topo, got, want)
		if stats.Reused+stats.Recomputed != stats.Sources {
			t.Fatalf("stats do not add up: %+v", stats)
		}
		if len(touched) != stats.Recomputed {
			t.Fatalf("touched=%d recomputed=%d", len(touched), stats.Recomputed)
		}
		topo.SetLinkUp(id, true)
	}
}

func TestRecomputeLinkRestore(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	topo := randomTopo(rng, 12)
	ids := []netmodel.LinkID{topo.Links()[3].ID(), topo.Links()[9].ID()}
	for _, id := range ids {
		topo.SetLinkUp(id, false)
	}
	base := Compute(topo, Options{})
	topo.SetLinkUp(ids[0], true)
	want := Compute(topo, Options{})
	got, _, _ := Recompute(topo, base, Delta{Links: []netmodel.LinkID{ids[0]}}, Options{})
	assertSame(t, "restore", topo, got, want)
}

func TestRecomputeNodeFailure(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	topo := randomTopo(rng, 14)
	base := Compute(topo, Options{})
	for _, name := range []string{"r03", "r07", "r13"} {
		topo.SetNodeUp(name, false)
		want := Compute(topo, Options{})
		got, _, _ := Recompute(topo, base, Delta{NodesDown: []string{name}}, Options{})
		assertSame(t, "node down "+name, topo, got, want)
		topo.SetNodeUp(name, true)
	}
}

func TestRecomputeNodeUpFullFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	topo := randomTopo(rng, 10)
	topo.SetNodeUp("r05", false)
	base := Compute(topo, Options{})
	topo.SetNodeUp("r05", true)
	want := Compute(topo, Options{})
	got, touched, stats := Recompute(topo, base, Delta{NodesUp: []string{"r05"}}, Options{})
	assertSame(t, "node up", topo, got, want)
	if stats.Reused != 0 {
		t.Errorf("node-up must recompute everything, reused %d", stats.Reused)
	}
	if len(touched) != stats.Sources {
		t.Errorf("all sources must be touched on node-up")
	}
}

func TestRecomputeRandomizedMultiDeltas(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	topo := randomTopo(rng, 20)
	base := Compute(topo, Options{})
	links := topo.Links()
	for trial := 0; trial < 25; trial++ {
		var d Delta
		nl := 1 + rng.Intn(3)
		flipped := map[netmodel.LinkID]bool{}
		for j := 0; j < nl; j++ {
			id := links[rng.Intn(len(links))].ID()
			if flipped[id] {
				continue
			}
			flipped[id] = true
			topo.SetLinkUp(id, false)
			d.Links = append(d.Links, id)
		}
		if rng.Intn(2) == 0 {
			name := fmt.Sprintf("r%02d", rng.Intn(20))
			topo.SetNodeUp(name, false)
			d.NodesDown = append(d.NodesDown, name)
		}
		want := Compute(topo, Options{})
		got, _, _ := Recompute(topo, base, d, Options{})
		assertSame(t, fmt.Sprintf("trial %d", trial), topo, got, want)
		for id := range flipped {
			topo.SetLinkUp(id, true)
		}
		for _, n := range d.NodesDown {
			topo.SetNodeUp(n, true)
		}
	}
}

// TestRecomputeReusesUntouchedSources pins the perf property: a leaf link
// failure must not touch sources whose DAGs never used it.
func TestRecomputeReusesUntouchedSources(t *testing.T) {
	topo := netmodel.NewTopology()
	for _, n := range []string{"a", "b", "c", "d"} {
		topo.AddNode(netmodel.Node{Name: n})
	}
	add := func(a, b string, cost uint32) netmodel.LinkID {
		l := topo.AddLink(netmodel.Link{A: a, B: b, AIface: a + b, BIface: b + a, CostAB: cost, CostBA: cost})
		return l.ID()
	}
	// Chain a-b-c-d plus an expensive bypass a-d that no shortest path uses.
	add("a", "b", 1)
	add("b", "c", 1)
	add("c", "d", 1)
	bypass := add("a", "d", 100)
	base := Compute(topo, Options{})
	topo.SetLinkUp(bypass, false)
	want := Compute(topo, Options{})
	got, touched, stats := Recompute(topo, base, Delta{Links: []netmodel.LinkID{bypass}}, Options{})
	assertSame(t, "slack edge", topo, got, want)
	if len(touched) != 0 || stats.Reused != 4 {
		t.Errorf("slack-edge failure must touch nothing: touched=%v stats=%+v", touched, stats)
	}
}
