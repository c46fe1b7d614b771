package core

import (
	"fmt"
	"math/rand"
	"net/netip"
	"slices"
	"testing"

	"hoyan/internal/ec"
	"hoyan/internal/gen"
	"hoyan/internal/netmodel"
)

// randomInputDelta draws an input delta against the base's route classes: it
// drops representatives and members of classes that have members, re-adds an
// existing input (the copy joins the original's class, a member then listed
// twice), and announces prefixes no input has, cloned from existing inputs
// (several cloned from one source share a class). serial keeps the new
// prefixes distinct across calls.
func randomInputDelta(rnd *rand.Rand, inputs []netmodel.Route, ecs *ec.RouteECs, serial *int) Delta {
	var multi []ec.RouteClass
	for _, c := range ecs.Classes {
		if len(c.Routes) > 2 {
			multi = append(multi, c)
		}
	}
	var d Delta
	for n := rnd.Intn(3); n > 0; n-- {
		c := multi[rnd.Intn(len(multi))]
		d.DropInputs = append(d.DropInputs, c.Routes[0])
	}
	for n := rnd.Intn(3); n > 0; n-- {
		c := multi[rnd.Intn(len(multi))]
		d.DropInputs = append(d.DropInputs, c.Routes[1+rnd.Intn(len(c.Routes)-1)])
	}
	if rnd.Intn(2) == 0 {
		d.AddInputs = append(d.AddInputs, inputs[rnd.Intn(len(inputs))])
	}
	src := inputs[rnd.Intn(len(inputs))]
	for n := rnd.Intn(3); n > 0; n-- {
		if rnd.Intn(2) == 0 {
			src = inputs[rnd.Intn(len(inputs))]
		}
		*serial++
		r := src
		r.Prefix = netip.PrefixFrom(netip.AddrFrom4([4]byte{198, 18, byte(*serial), 0}), 24)
		d.AddInputs = append(d.AddInputs, r)
	}
	return d
}

// sharedRowsFixture returns WAN inputs plus one route that makes a member
// prefix m of a class also the representative of a class of its own (another
// device, a MED no other input has), and the delta that withdraws m's member
// route. m then moves — it is a member of nothing — but keeps the rows it holds
// as a representative, so every fork of the delta rebuilds m from rows the
// base state shares with every other fork.
func sharedRowsFixture(t *testing.T, out *gen.Output) ([]netmodel.Route, Delta) {
	ecs := ec.ComputeRouteECs(out.Net, nil, out.Inputs, 1)
	for _, c := range ecs.Classes {
		if len(c.Routes) < 2 || c.Routes[1].Prefix == c.Rep().Prefix {
			continue
		}
		member := c.Routes[1]
		for _, r := range out.Inputs {
			if r.Device != member.Device {
				a := *r.Attr()
				a.MED = 4242
				r.Prefix = member.Prefix
				r.SetAttrs(&a)
				return append(slices.Clone(out.Inputs), r), Delta{DropInputs: []netmodel.Route{member}}
			}
		}
	}
	t.Fatal("fixture: no class with a member")
	return nil, Delta{}
}

// TestForkInputDeltaMatchesScratch: an input delta re-partitions the route
// ECs, and the fork rebuilds each table at the prefixes the warm restart
// changed plus those the new partition moves (ec.RouteECs.Moved), on overlays
// of the base's expanded tables. Under random input deltas — with and without
// duplicate input keys, with and without a link flip, from bases converged at
// parallelism 1, 0 and 8, and with flow ECs off — the result must be what a from-scratch engine on
// the edited inputs computes, and every patched table's carried-forward index
// must answer every flow destination as the index-free scan does. A last
// delta moves a prefix that keeps rows of its own (sharedRowsFixture).
func TestForkInputDeltaMatchesScratch(t *testing.T) {
	rnd := rand.New(rand.NewSource(26))
	out := gen.Generate(gen.WAN(2))
	links := out.Net.Topo.Links()
	dsts := make(map[netip.Addr]bool)
	for _, fl := range out.Flows {
		dsts[fl.Dst] = true
	}
	serial := 0
	for _, dup := range []bool{false, true} {
		inputs := out.Inputs
		if dup {
			inputs = gen.WithDuplicateInputs(inputs)
		}
		for _, opts := range []Options{{Parallelism: 1}, {}, {Parallelism: 8}, {DisableFlowECs: true}} {
			p, eng := opts.Parallelism, NewEngine(out.Net, opts)
			base := eng.BaseRun(inputs, out.Flows).Routes
			moved, patched := 0, 0
			for trial := 0; trial < 6; trial++ {
				d := randomInputDelta(rnd, inputs, eng.base.res.Routes.ECStats, &serial)
				if trial%2 == 1 {
					d.LinksDown = []netmodel.LinkID{links[rnd.Intn(len(links))].ID()}
				}
				label := fmt.Sprintf("duplicates %v, parallelism %d, flow ECs off %v, trial %d (drop %d, add %d, %v down)", dup, p, opts.DisableFlowECs, trial, len(d.DropInputs), len(d.AddInputs), d.LinksDown)
				stats := checkFork(t, eng, out.Net, inputs, out.Flows, d, label)
				if stats.Full {
					t.Fatalf("%s: fork fell back to a full simulation", label)
				}
				scratch := out.Net.Clone()
				applyDelta(scratch, d)
				inc, _ := eng.Fork(scratch, d)
				moved += len(inc.Routes.ECStats.Expansion().Moved(eng.base.res.Routes.ECStats.Expansion()))
				for _, tb := range inc.Routes.BGP.Tables() {
					rt := inc.Routes.BGP.RIB(tb.Device, tb.VRF)
					if rt == base.RIB(tb.Device, tb.VRF) {
						continue // unchanged: the base's own table
					}
					patched++
					for dst := range dsts {
						gp, gb, gok := rt.LongestMatch(dst)
						wp, wb, wok := rt.LongestMatchScan(dst)
						if gok != wok || gp != wp || !sameRows(gb, wb) {
							t.Fatalf("%s: %s/%s LongestMatch(%s) = %v %v %v, scan %v %v %v", label, tb.Device, tb.VRF, dst, gp, gb, gok, wp, wb, wok)
						}
					}
				}
				copied := copiedBySplice(base.GlobalRIB(), inc.Routes.GlobalRIB(), stats.RIBRowsChanged)
				if copied < 0 || stats.RIBRowsRebuilt > 2*stats.RIBRowsChanged+copied {
					t.Fatalf("%s: %d rows rebuilt for %d changed and %d copied by splice", label, stats.RIBRowsRebuilt, stats.RIBRowsChanged, copied)
				}
			}
			if moved == 0 || patched == 0 {
				t.Fatalf("duplicates %v, parallelism %d, flow ECs off %v: %d moved prefixes, %d patched tables; the input-delta path went untested", dup, p, opts.DisableFlowECs, moved, patched)
			}
		}
	}
	// A moved prefix that keeps rows of its own, unmerged.
	inputs, d := sharedRowsFixture(t, out)
	eng := NewEngine(out.Net, Options{})
	eng.BaseRun(inputs, out.Flows)
	checkFork(t, eng, out.Net, inputs, out.Flows, d, "moved prefix with rows of its own")
}

// TestForkRewalksOnlyCoveredFlows pins flow reuse across a change of the
// flow-EC partition on WAN(2). The delta announces one new input prefix
// outside every aggregate: the lower half of the input prefix outside every
// aggregate that most flows head to, from the device announcing it. The new prefix enters
// the global RIB, so the partition is recomputed, and each class maps to its
// base class. The fork must re-walk exactly the representatives whose
// destination the new prefix covers — counted here by a scan of the
// representatives — and reuse every other one; with flow ECs off, exactly
// the flows it covers.
func TestForkRewalksOnlyCoveredFlows(t *testing.T) {
	out := gen.Generate(gen.WAN(2))
	var aggregates []netip.Prefix
	for _, dev := range out.Net.Devices {
		for _, a := range dev.Aggregates {
			aggregates = append(aggregates, a.Prefix)
		}
	}
	var add netmodel.Route
	for most, i := 0, 0; i < len(out.Inputs); i++ {
		r := out.Inputs[i]
		n := 0
		for _, f := range out.Flows {
			if r.Prefix.Contains(f.Dst) {
				n++
			}
		}
		if n > most && !slices.ContainsFunc(aggregates, r.Prefix.Overlaps) {
			add, most = r, n
		}
	}
	if !add.Prefix.IsValid() {
		t.Fatal("fixture: no flow heads to an input prefix outside every aggregate")
	}
	add.Prefix = netip.PrefixFrom(add.Prefix.Addr(), add.Prefix.Bits()+1)
	d := Delta{AddInputs: []netmodel.Route{add}}
	for _, off := range []bool{false, true} {
		eng := NewEngine(out.Net, Options{DisableRouteECs: off, DisableFlowECs: off})
		eng.BaseRun(out.Inputs, out.Flows)
		label := fmt.Sprintf("ECs off %v, %s added", off, add.Prefix)
		stats := checkFork(t, eng, out.Net, out.Inputs, out.Flows, d, label)
		covered := 0
		for _, f := range eng.base.repFlows {
			if add.Prefix.Contains(f.Dst) {
				covered++
			}
		}
		walked := stats.FlowsTotal - stats.FlowsReused
		t.Logf("%s: %d of %d representatives walked, %d covered", label, walked, stats.FlowsTotal, covered)
		if covered == 0 || covered == stats.FlowsTotal || walked != covered {
			t.Errorf("%s: %d of %d representatives walked, want the %d the new prefix covers", label, walked, stats.FlowsTotal, covered)
		}
	}
}

// TestForkInputRIBWorkPinned pins the RIB work of one input delta at WAN(4) —
// the representative of the first class with members withdrawn, and a prefix
// no input has announced from the first input's device — as exact row counts,
// the way TestForkRIBWorkPinned does for a link.
func TestForkInputRIBWorkPinned(t *testing.T) {
	out := gen.Generate(gen.WAN(4))
	eng := NewEngine(out.Net, Options{})
	base := eng.BaseRun(out.Inputs, out.Flows).Routes.GlobalRIB()
	var d Delta
	for _, c := range eng.base.res.Routes.ECStats.Classes {
		if len(c.Routes) > 1 {
			d.DropInputs = []netmodel.Route{c.Routes[0]}
			break
		}
	}
	add := out.Inputs[0]
	add.Prefix = netip.MustParsePrefix("198.18.0.0/24")
	d.AddInputs = []netmodel.Route{add}
	stats := checkFork(t, eng, out.Net, out.Inputs, out.Flows, d, "WAN(4) input delta")
	inc, _, err := eng.WhatIf(nil, d, 0)
	if err != nil {
		t.Fatal(err)
	}
	copied := copiedBySplice(base, inc.Routes.GlobalRIB(), stats.RIBRowsChanged)
	t.Logf("%d rows total; changed %d, rebuilt %d, copied by splice %d", inc.Routes.GlobalRIB().Len(), stats.RIBRowsChanged, stats.RIBRowsRebuilt, copied)
	if stats.RIBRowsRebuilt > 2*stats.RIBRowsChanged+copied {
		t.Errorf("rebuilt %d rows > 2 × %d changed + %d copied", stats.RIBRowsRebuilt, stats.RIBRowsChanged, copied)
	}
	const wantChanged, wantRebuilt = 2016, 40726
	if stats.RIBRowsChanged != wantChanged || stats.RIBRowsRebuilt != wantRebuilt {
		t.Errorf("RIBRowsChanged/RIBRowsRebuilt = %d/%d, pinned %d/%d", stats.RIBRowsChanged, stats.RIBRowsRebuilt, wantChanged, wantRebuilt)
	}
}
