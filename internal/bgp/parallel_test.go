package bgp

import (
	"context"
	"fmt"
	"math/rand"
	"net/netip"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"hoyan/internal/config"
	"hoyan/internal/gen"
	"hoyan/internal/isis"
	"hoyan/internal/netmodel"
)

// parallelFixture builds a network exercising every coupling the grouping rule
// must respect — two nested aggregates on one table (one summary-only, which
// suppresses other prefixes of that table), VRF leaking, route reflection —
// plus enough uncovered prefixes that a run splits into several work units.
func parallelFixture() (*netBuilder, []netmodel.Route) {
	b := newBuilder()
	b.device("E", "alpha", 64999, "1.0.0.1")
	b.device("A", "alpha", 65001, "1.0.0.2")
	b.device("RR", "alpha", 65001, "1.0.0.3")
	b.device("C1", "alpha", 65001, "1.0.0.4")
	b.device("C2", "alpha", 65001, "1.0.0.5")
	b.link("E", "A", 10)
	b.link("A", "RR", 10)
	b.link("RR", "C1", 10)
	b.link("RR", "C2", 10)
	b.ebgp("E", "A")
	b.ibgp("A", "RR")
	b.ibgp("RR", "C1")
	b.ibgp("RR", "C2")
	for _, nb := range b.Net.Devices["RR"].Neighbors {
		if nb.Addr == b.Net.Devices["C1"].Loopback || nb.Addr == b.Net.Devices["C2"].Loopback {
			nb.RRClient = true
		}
	}
	b.Net.Devices["E"].Interfaces["ext"] = &config.Interface{Name: "ext", Addr: netip.MustParsePrefix("203.0.113.2/24")}
	nextHopSelfAll(b, "A")

	a := b.Net.Devices["A"]
	a.Aggregates = append(a.Aggregates,
		config.Aggregate{VRF: netmodel.DefaultVRF, Prefix: netip.MustParsePrefix("10.0.0.0/8"), ASSet: true},
		config.Aggregate{VRF: netmodel.DefaultVRF, Prefix: netip.MustParsePrefix("10.64.0.0/10"), SummaryOnly: true},
	)

	c1 := b.Net.Devices["C1"]
	c1.VRFs["v1"] = &config.VRF{Name: "v1", ExportRTs: []string{"rt1"}}
	c1.VRFs["v2"] = &config.VRF{Name: "v2", ImportRTs: []string{"rt1"}}

	var inputs []netmodel.Route
	for i := 0; i < 12; i++ {
		inputs = append(inputs, inputRoute("E", fmt.Sprintf("10.0.%d.0/24", i), 65100, netmodel.ASN(65200+i)))
	}
	for i := 0; i < 12; i++ {
		inputs = append(inputs, inputRoute("E", fmt.Sprintf("10.64.%d.0/24", i), 65100))
	}
	for i := 0; i < 12; i++ {
		inputs = append(inputs, inputRoute("E", fmt.Sprintf("172.20.%d.0/24", i), 65300))
	}
	for i := 0; i < 4; i++ {
		in := inputRoute("C1", fmt.Sprintf("192.168.%d.0/24", i), 65400)
		in.VRF = "v1"
		in.NextHop = c1.Loopback
		inputs = append(inputs, in)
	}
	b.Network()
	return b, inputs
}

// sameRun fails unless got reproduces want exactly: convergence metadata and
// the global RIB row by row, position by position.
func sameRun(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if got.Rounds != want.Rounds || got.Messages != want.Messages || got.Converged != want.Converged {
		t.Errorf("%s: rounds/messages/converged %d/%d/%v, want %d/%d/%v", label,
			got.Rounds, got.Messages, got.Converged, want.Rounds, want.Messages, want.Converged)
	}
	g, w := got.GlobalRIB().Rows(), want.GlobalRIB().Rows()
	if len(g) != len(w) {
		t.Fatalf("%s: %d RIB rows, want %d", label, len(g), len(w))
	}
	for i := range g {
		if !g[i].Identical(w[i]) {
			t.Fatalf("%s: RIB row %d is %v, want %v", label, i, g[i], w[i])
		}
	}
}

// mustCheck fails unless res's global RIB passes the stable-state check.
func mustCheck(t *testing.T, label string, net *config.Network, igp *isis.Result, inputs []netmodel.Route, res *Result) {
	t.Helper()
	if err := Check(net, igp, inputs, res.GlobalRIB(), Options{}); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
}

// checkParallelisms runs one scenario at parallelism 1, 2 and 8, requires
// all of them to agree and to pass the stable-state check; units reports
// whether the fixture is expected to split (then parallelism >= 2 must have
// run several units).
func checkParallelisms(t *testing.T, label string, net *config.Network, igp *isis.Result, inputs []netmodel.Route, units bool) {
	t.Helper()
	seq := Simulate(net, igp, inputs, Options{Parallelism: 1})
	if !seq.Converged {
		t.Fatalf("%s: did not converge in %d rounds", label, seq.Rounds)
	}
	if seq.Par != (ParStats{}) {
		t.Errorf("%s: sequential run reported unit stats %+v", label, seq.Par)
	}
	mustCheck(t, label+", sequential", net, igp, inputs, seq)
	for _, p := range []int{2, 8} {
		res := Simulate(net, igp, inputs, Options{Parallelism: p})
		sameRun(t, fmt.Sprintf("%s, parallelism %d", label, p), res, seq)
		mustCheck(t, fmt.Sprintf("%s, parallelism %d", label, p), net, igp, inputs, res)
		switch {
		case !units && res.Par != (ParStats{}):
			t.Errorf("%s, parallelism %d: one group reported unit stats %+v", label, p, res.Par)
		case units && (res.Par.Stripes < 2 || res.Par.Stripes > p):
			t.Errorf("%s, parallelism %d: ran %d units", label, p, res.Par.Stripes)
		case units && (res.Par.ParallelRounds < res.Rounds || res.Par.MaxStripePairs > res.Par.SumStripePairs):
			t.Errorf("%s, parallelism %d: inconsistent unit stats %+v", label, p, res.Par)
		}
	}
}

// TestParallelFixpointEquivalence pins the work-unit invariant on the
// dependency-rich fixture: a multi-unit run is identical — rounds, messages,
// convergence, positional global RIB — to the sequential fixpoint at every
// parallelism, and every run is a stable state; also with duplicate input
// keys, whose rows tie in the canonical order.
func TestParallelFixpointEquivalence(t *testing.T) {
	b, inputs := parallelFixture()
	igp := isis.Compute(b.Net.Topo, isis.Options{})
	checkParallelisms(t, "fixture", b.Net, igp, inputs, true)
	checkParallelisms(t, "fixture with duplicate inputs", b.Net, igp, gen.WithDuplicateInputs(inputs), true)
}

// TestParallelFixpointEquivalenceWAN re-checks it at gen.WAN scale, where the
// per-region aggregates form the groups, including the Parallelism 0
// (= GOMAXPROCS) convention.
func TestParallelFixpointEquivalenceWAN(t *testing.T) {
	for _, scale := range []int{1, 2} {
		out := gen.Generate(gen.WAN(scale))
		igp := isis.Compute(out.Net.Topo, isis.Options{})
		label := fmt.Sprintf("WAN(%d)", scale)
		checkParallelisms(t, label, out.Net, igp, out.Inputs, true)
		checkParallelisms(t, label+" with duplicate inputs", out.Net, igp, gen.WithDuplicateInputs(out.Inputs), true)
		seq := Simulate(out.Net, igp, out.Inputs, Options{Parallelism: 1})
		sameRun(t, label+", parallelism 0", Simulate(out.Net, igp, out.Inputs, Options{}), seq)
	}
}

// allDistChanged marks every device's distance to every destination as
// changed — a deliberately conservative warm-restart delta that is always
// correct, so the test isolates the captured state rather than delta
// computation.
func allDistChanged(net *config.Network) map[string]map[string]bool {
	names := net.DeviceNames()
	out := make(map[string]map[string]bool, len(names))
	for _, d := range names {
		m := make(map[string]bool, len(names))
		for _, o := range names {
			m[o] = true
		}
		out[d] = m
	}
	return out
}

// TestParallelResimulateEquivalence pins the warm-restart path: the State of
// a multi-unit run, merged on first use, holds what a single sim's holds, and
// restarts from it — several at once, as concurrent forks do — match a
// from-scratch sequential run of the changed scenario and are stable states.
// The scenarios: an input delta, one that takes every contributor of the
// summary-only aggregate 10.64.0.0/10 away, and a link failure.
func TestParallelResimulateEquivalence(t *testing.T) {
	b, inputs := parallelFixture()
	igp := isis.Compute(b.Net.Topo, isis.Options{})

	// Input delta: drop some routes, add a fresh one.
	inputs2 := append([]netmodel.Route(nil), inputs[:len(inputs)-6]...)
	inputs2 = append(inputs2, inputRoute("E", "10.0.200.0/24", 65100, 65999))
	// Input delta: no more specifics of 10.64.0.0/10.
	agg := netip.MustParsePrefix("10.64.0.0/10")
	var inputs3 []netmodel.Route
	for _, r := range inputs {
		if !agg.Contains(r.Prefix.Addr()) {
			inputs3 = append(inputs3, r)
		}
	}

	// Topology delta: RR-C1 link down (kills the iBGP session to C1).
	net2 := b.Net.Clone()
	link := net2.Topo.FindLink("RR", "C1")
	if !net2.Topo.SetLinkUp(link.ID(), false) {
		t.Fatal("link RR-C1 not found")
	}
	igp2 := isis.Compute(net2.Topo, isis.Options{})
	delta := Delta{
		ChangedLinks: []netmodel.LinkID{link.ID()},
		DistChanged:  allDistChanged(net2),
	}
	scenarios := []struct {
		name   string
		net    *config.Network
		igp    *isis.Result
		inputs []netmodel.Route
		delta  Delta
		ref    *netmodel.GlobalRIB
	}{
		{"input delta", b.Net, igp, inputs2, Delta{}, nil},
		{"aggregate loses its contributors", b.Net, igp, inputs3, Delta{}, nil},
		{"topology delta", net2, igp2, inputs, delta, nil},
	}
	for i, sc := range scenarios {
		scenarios[i].ref = Simulate(sc.net, sc.igp, sc.inputs, Options{Parallelism: 1}).GlobalRIB()
	}

	_, single := SimulateWithState(b.Net, igp, inputs, Options{Parallelism: 1})
	for _, p := range []int{1, 2, 8} {
		_, st := SimulateWithState(b.Net, igp, inputs, Options{Parallelism: p})
		if (st.units != nil) != (p > 1) {
			t.Fatalf("parallelism %d: state holds %d units", p, len(st.units))
		}
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for _, sc := range scenarios {
					res, _ := st.ResimulateCtx(nil, sc.net, sc.igp, sc.inputs, sc.delta)
					if !res.GlobalRIB().Equal(sc.ref) {
						t.Errorf("parallelism %d, %s: warm RIB differs from scratch", p, sc.name)
					}
					if err := Check(sc.net, sc.igp, sc.inputs, res.GlobalRIB(), Options{}); err != nil {
						t.Errorf("parallelism %d, %s: %v", p, sc.name, err)
					}
				}
			}()
		}
		wg.Wait()
		assertSameState(t, fmt.Sprintf("parallelism %d", p), st, single)
	}
}

// assertSameState compares two captured (merged) states record by record:
// adj-RIB-in, local candidates, RIB, advertisement signatures and aggregate
// activation. A table without entries may be absent on one side and empty on
// the other.
func assertSameState(t *testing.T, label string, got, want *State) {
	t.Helper()
	if got.units != nil {
		t.Fatalf("%s: state still holds unmerged units", label)
	}
	keys := make(map[tableKey]bool)
	for k := range got.tables {
		keys[k] = true
	}
	for k := range want.tables {
		keys[k] = true
	}
	for k := range keys {
		g, w := got.tables[k], want.tables[k]
		if g == nil {
			g = &table{}
		}
		if w == nil {
			w = &table{}
		}
		if !sameMap(flat(&g.adjIn), flat(&w.adjIn)) {
			t.Errorf("%s: adj-RIB-ins of %v differ", label, k)
		}
		if !sameMap(flat(&g.locals), flat(&w.locals)) {
			t.Errorf("%s: local candidates of %v differ", label, k)
		}
		if !sameMap(flat(&g.lastAdv), flat(&w.lastAdv)) {
			t.Errorf("%s: advertisement signatures of %v differ", label, k)
		}
		if !sameMap(flat(&g.aggOn), flat(&w.aggOn)) {
			t.Errorf("%s: aggregate activation of %v differs", label, k)
		}
		if (g.rib == nil) != (w.rib == nil) || g.rib != nil && !sameTable(g.rib, w.rib) {
			t.Errorf("%s: table %v differs", label, k)
		}
	}
}

// sameMap is reflect.DeepEqual with a nil map equal to an empty one.
func sameMap[K comparable, V any](a, b map[K]V) bool {
	return len(a) == 0 && len(b) == 0 || reflect.DeepEqual(a, b)
}

// sameTable reports whether two tables hold the same prefixes with Identical
// rows in the same stored (decision) order.
func sameTable(a, b *netmodel.RIB) bool {
	if !slices.Equal(a.Prefixes(), b.Prefixes()) {
		return false
	}
	for _, p := range a.Prefixes() {
		if !slices.EqualFunc(a.Routes(p), b.Routes(p), netmodel.Route.Identical) {
			return false
		}
	}
	return true
}

// TestParallelSimulateRace exercises multi-unit runs under the race detector:
// several goroutines simulate the same shared network (lazy topology indexes,
// policy caches) with Parallelism 8 each, and every result must
// still match the sequential reference.
func TestParallelSimulateRace(t *testing.T) {
	b, inputs := parallelFixture()
	igp := isis.Compute(b.Net.Topo, isis.Options{})
	ref := Simulate(b.Net, igp, inputs, Options{Parallelism: 1}).GlobalRIB()

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				res := Simulate(b.Net, igp, inputs, Options{Parallelism: 8})
				if !res.GlobalRIB().Equal(ref) {
					t.Error("concurrent multi-unit run differs from sequential")
				}
			}
		}()
	}
	wg.Wait()
}

// TestParallelCancelledContext: every unit polls the run's context, so a
// cancelled multi-unit run stops before its first round in all of them.
func TestParallelCancelledContext(t *testing.T) {
	out := gen.Generate(gen.WAN(1))
	igp := isis.Compute(out.Net.Topo, isis.Options{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := Simulate(out.Net, igp, out.Inputs, Options{Parallelism: 8, Ctx: ctx})
	if res.Par.Stripes < 2 {
		t.Fatalf("fixture ran %d units; the test needs several", res.Par.Stripes)
	}
	if res.Converged || res.Par.ParallelRounds != 0 {
		t.Errorf("cancelled run: converged=%v, %d rounds inside units; want every unit stopped at round 0",
			res.Converged, res.Par.ParallelRounds)
	}
}

// TestParallelAllocBytesBoundedByUnits pins what the units share and what they
// do not redo: a cold two-unit run allocates the bytes of the sequential run
// plus a small budget per unit (arena chunks, the first round-buffer chunks,
// per-table bookkeeping, its share of the result-table union — one map entry
// per decided pair), nothing per round or per message. Per-round striping
// re-grew message buffers and copied every batch in the ordered merge — a
// third more bytes on this fixture (38 MB on 111 MB), for under 1 % more
// allocations, which is why this counts bytes and not testing.AllocsPerRun.
func TestParallelAllocBytesBoundedByUnits(t *testing.T) {
	out := gen.Generate(gen.WAN(4))
	igp := isis.Compute(out.Net.Topo, isis.Options{})
	allocated := func(p int) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		Simulate(out.Net, igp, out.Inputs, Options{Parallelism: p})
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	const perUnit = 4 << 20
	seq, two := allocated(1), allocated(2)
	if two > seq+2*perUnit {
		t.Errorf("two units allocated %d bytes, sequential %d: more than %d per unit on top", two, seq, perUnit)
	}
	t.Logf("allocated: sequential %d bytes, two units %d bytes", seq, two)
}

// TestSubsetRunsAllocLikeOneRun pins the cost of a fleet-shaped split: the
// route subtasks of a distributed run are cold simulations of the whole
// network over contiguous slices of the inputs (dsim.splitRoutes), so what a
// cold run allocates must follow the prefixes BGP carries, not the network.
// Sixteen subset runs together may allocate at most 1.6 times one run over
// all inputs; a table presized for every prefix the sim interned — interface
// subnets, host routes and loopbacks included — made it about three times.
func TestSubsetRunsAllocLikeOneRun(t *testing.T) {
	out := gen.Generate(gen.WAN(4))
	igp := isis.Compute(out.Net.Topo, isis.Options{})
	inputs := slices.Clone(out.Inputs)
	slices.SortStableFunc(inputs, func(a, b netmodel.Route) int {
		return netmodel.LastAddr(a.Prefix).Compare(netmodel.LastAddr(b.Prefix))
	})
	const subsets = 16
	allocated := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	for _, p := range []int{1, 2} {
		opts := Options{Parallelism: p}
		whole := allocated(func() { Simulate(out.Net, igp, inputs, opts) })
		split := allocated(func() {
			for i := range subsets {
				Simulate(out.Net, igp, inputs[i*len(inputs)/subsets:(i+1)*len(inputs)/subsets], opts)
			}
		})
		ratio := float64(split) / float64(whole)
		if ratio > 1.6 {
			t.Errorf("parallelism %d: %d subset runs allocated %d bytes, one run %d: %.2fx, want at most 1.6x",
				p, subsets, split, whole, ratio)
		}
		t.Logf("parallelism %d: one run %d bytes, %d subset runs %d bytes (%.2fx)", p, whole, subsets, split, ratio)
	}
}

// FuzzParallelFixpointEquivalence drives randomized scenarios — seeded input
// subsets with duplicate keys and link failures — through parallelism 1, 2,
// and 8, asserting identical runs throughout and a stable state.
func FuzzParallelFixpointEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(0))
	f.Add(int64(2), uint8(1))
	f.Add(int64(3), uint8(2))
	f.Add(int64(4), uint8(5))
	f.Fuzz(func(t *testing.T, seed int64, downs uint8) {
		rng := rand.New(rand.NewSource(seed))
		b, inputs := parallelFixture()
		keep := inputs[:0:0]
		for _, r := range gen.WithDuplicateInputs(inputs) {
			if rng.Intn(4) > 0 {
				keep = append(keep, r)
			}
		}
		links := b.Net.Topo.Links()
		for i := 0; i < int(downs)%3; i++ {
			b.Net.Topo.SetLinkUp(links[rng.Intn(len(links))].ID(), false)
		}
		igp := isis.Compute(b.Net.Topo, isis.Options{})

		ref := Simulate(b.Net, igp, keep, Options{Parallelism: 1})
		mustCheck(t, fmt.Sprintf("seed %d, downs %d", seed, downs), b.Net, igp, keep, ref)
		for _, p := range []int{2, 8} {
			got := Simulate(b.Net, igp, keep, Options{Parallelism: p})
			sameRun(t, fmt.Sprintf("parallelism %d (seed %d, downs %d)", p, seed, downs), got, ref)
		}
	})
}
