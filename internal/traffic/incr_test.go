package traffic

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"hoyan/internal/bgp"
	"hoyan/internal/gen"
	"hoyan/internal/isis"
	"hoyan/internal/netmodel"
)

// sameResult fails unless got's paths equal want's and every link carries
// bit-for-bit the same load.
func sameResult(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if !reflect.DeepEqual(got.Paths, want.Paths) {
		t.Fatalf("%s: paths differ from Simulate's", label)
	}
	if len(got.Load) != len(want.Load) {
		t.Fatalf("%s: %d loaded links, Simulate %d", label, len(got.Load), len(want.Load))
	}
	for id, w := range want.Load {
		if g, ok := got.Load[id]; !ok || math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("%s: load on %s is %v, Simulate %v", label, id, g, w)
		}
	}
}

// TestEntryPointsAgree pins the one forwarding loop behind Simulate,
// SimulateTraced and Resimulate on a WAN with ECMP: at parallelism 1 and 0,
// the traced run and a re-simulation — with nothing changed (every flow
// reused), with the first flow's ingress changed (its flows walked again),
// and of the flows in reverse order with one of them new, mapped to the base
// flows they equal — give Simulate's paths and loads bit for bit.
func TestEntryPointsAgree(t *testing.T) {
	out := gen.Generate(gen.WAN(1))
	igp := isis.Compute(out.Net.Topo, isis.Options{})
	ribs := bgp.Simulate(out.Net, igp, out.Inputs, bgp.Options{})
	flows := out.Flows
	for _, p := range []int{1, 0} {
		fw := NewForwarder(out.Net, igp, ribs, Options{Parallelism: p})
		want := fw.Simulate(flows)
		traced, traces := fw.SimulateTraced(flows)
		sameResult(t, "SimulateTraced", traced, want)
		ecmp := false
		for i, tr := range traces {
			for _, c := range tr.contribs {
				ecmp = ecmp || c.volume < flows[i].Volume
			}
		}
		if !ecmp {
			t.Fatal("no flow split across equal-cost branches")
		}

		res, reused := fw.Resimulate(flows, nil, traced, traces, nil, nil, nil)
		sameResult(t, "Resimulate, nothing changed", res, want)
		if reused != len(flows) {
			t.Errorf("nothing changed: %d of %d flows reused", reused, len(flows))
		}
		changed := map[string]bool{flows[0].Ingress: true}
		res, reused = fw.Resimulate(flows, nil, traced, traces, changed, nil, nil)
		sameResult(t, "Resimulate, one device changed", res, want)
		if reused == 0 || reused == len(flows) {
			t.Errorf("%s changed: %d of %d flows reused, want some but not all", flows[0].Ingress, reused, len(flows))
		}

		// Reversed, the last flow carrying twice its volume: no base flow
		// equals it, so it is walked; every other one is its base flow's.
		remapped := slices.Clone(flows)
		slices.Reverse(remapped)
		remapped[len(remapped)-1].Volume *= 2
		baseOf := make([]int32, len(remapped))
		for i := range baseOf {
			baseOf[i] = int32(len(flows) - 1 - i)
		}
		baseOf[len(baseOf)-1] = -1
		res, reused = fw.Resimulate(remapped, baseOf, traced, traces, nil, nil, nil)
		sameResult(t, "Resimulate, remapped", res, fw.Simulate(remapped))
		if reused != len(flows)-1 {
			t.Errorf("remapped, nothing changed: %d of %d flows reused, want all but the new one", reused, len(flows))
		}
	}
}

// TestNewForwarderRejectsForeignIGP: an IGP result computed on another
// topology — here a clone's, taken before the network gained a link — names
// devices and links by another index, so NewForwarder must refuse it.
func TestNewForwarderRejectsForeignIGP(t *testing.T) {
	out := gen.Generate(gen.WAN(1))
	igp := isis.Compute(out.Net.Clone().Topo, isis.Options{})
	names := out.Net.DeviceNames()
	out.Net.Topo.AddLink(netmodel.Link{A: names[0], B: names[1], AIface: "extra", BIface: "extra", CostAB: 10, CostBA: 10})
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "another topology") {
			t.Fatalf("NewForwarder over a foreign IGP result: recovered %v, want a panic naming the topology mismatch", r)
		}
	}()
	NewForwarder(out.Net, igp, nil, Options{})
}

// TestResimulateAllocs pins what a fork's re-forwarding allocates, with every
// flow condemned so every flow is walked. Resimulate walks untraced: past
// the one forwarding loop Simulate also runs it allocates only its interned
// delta, no trace, where SimulateTraced copies out two trace slices per
// flow; and per walked flow it keeps the path and the shares, copied out at
// their exact length from buffers its walker reuses, under 1 KiB in all
// (about 680 B on WAN(1)). Mapping the flows to the base's (baseOf, here the
// identity spelled out) allocates nothing beyond the caller's map.
func TestResimulateAllocs(t *testing.T) {
	out := gen.Generate(gen.WAN(1))
	igp := isis.Compute(out.Net.Topo, isis.Options{})
	ribs := bgp.Simulate(out.Net, igp, out.Inputs, bgp.Options{})
	fw := NewForwarder(out.Net, igp, ribs, Options{Parallelism: 1})
	flows := out.Flows
	base, traces := fw.SimulateTraced(flows)
	changed := map[string]bool{}
	for _, name := range out.Net.DeviceNames() {
		changed[name] = true
	}
	resim := func() {
		if _, reused := fw.Resimulate(flows, nil, base, traces, changed, nil, nil); reused != 0 {
			t.Fatalf("every device changed: %d flows reused", reused)
		}
	}
	re := testing.AllocsPerRun(5, resim)
	baseOf := make([]int32, len(flows))
	for i := range baseOf {
		baseOf[i] = int32(i)
	}
	remapped := testing.AllocsPerRun(5, func() {
		if _, reused := fw.Resimulate(flows, baseOf, base, traces, changed, nil, nil); reused != 0 {
			t.Fatalf("every device changed, remapped: %d flows reused", reused)
		}
	})
	if remapped > re {
		t.Errorf("Resimulate makes %.0f allocations with baseOf, %.0f without: the mapping allocates", remapped, re)
	}
	sim := testing.AllocsPerRun(5, func() { fw.Simulate(flows) })
	traced := testing.AllocsPerRun(5, func() { fw.SimulateTraced(flows) })
	if re > sim+4 {
		t.Errorf("Resimulate makes %.0f allocations, Simulate %.0f: a walk allocates more than its path and shares", re, sim)
	}
	if traced < sim+float64(len(flows)) {
		t.Errorf("SimulateTraced makes %.0f allocations, Simulate %.0f: traces no longer show", traced, sim)
	}
	if limit := 2*float64(len(flows)) + 64; re > limit {
		t.Errorf("Resimulate makes %.0f allocations for %d walked flows, want <= %.0f", re, len(flows), limit)
	}
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		resim()
	}
	runtime.ReadMemStats(&after)
	perFlow := float64(after.TotalAlloc-before.TotalAlloc) / runs / float64(len(flows))
	t.Logf("%.0f allocations, %.0f B per walked flow", re, perFlow)
	if perFlow > 1024 {
		t.Errorf("Resimulate allocates %.0f B per walked flow, want <= 1024", perFlow)
	}
}
