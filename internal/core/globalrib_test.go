package core

import (
	"fmt"
	"math/rand"
	"net/netip"
	"runtime"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"hoyan/internal/gen"
	"hoyan/internal/netmodel"
)

func keyTies(rows []netmodel.Route) int {
	n := 0
	for i := 1; i < len(rows); i++ {
		if netmodel.CompareRouteKeys(rows[i-1], rows[i]) == 0 && !rows[i-1].Identical(rows[i]) {
			n++
		}
	}
	return n
}

func sameRows(a, b []netmodel.Route) bool {
	return slices.EqualFunc(a, b, netmodel.Route.Identical)
}

// TestGlobalRIBSortedByConstruction: the global RIB, which is never sorted
// as a whole, holds positionally the rows that concatenating the tables in
// arbitrary order, each expanded in place (ExpandRIB on a copy), and sorting
// them all yields; they are in canonical order;
// and another simulation of the same inputs yields them again, although rows
// that tie on the key columns leave the tables in map-iteration order.
func TestGlobalRIBSortedByConstruction(t *testing.T) {
	rnd := rand.New(rand.NewSource(3))
	for k := 1; k <= 3; k++ {
		out := gen.Generate(gen.WAN(k))
		inputs := gen.WithDuplicateInputs(out.Inputs)
		var first []netmodel.Route
		for _, p := range []int{1, 0, 8} {
			res := NewEngine(out.Net, Options{Parallelism: p}).RouteSimulation(inputs)
			got := res.GlobalRIB().Rows()

			tables := res.BGP.Tables()
			rnd.Shuffle(len(tables), func(i, j int) { tables[i], tables[j] = tables[j], tables[i] })
			var concat []netmodel.Route
			for _, tbl := range tables {
				rib := netmodel.UnionRIBs([]*netmodel.RIB{res.BGP.RIB(tbl.Device, tbl.VRF)})
				res.ECStats.ExpandRIB(rib)
				for _, p := range rib.Prefixes() {
					concat = append(concat, rib.Routes(p)...)
				}
			}
			if want := netmodel.NewGlobalRIB(concat).Rows(); !sameRows(got, want) {
				t.Fatalf("WAN(%d) parallelism %d: sorted-by-construction rows differ from concat-and-sort (%d vs %d rows)", k, p, len(got), len(want))
			}
			if !slices.IsSortedFunc(got, netmodel.CompareRoutes) {
				t.Fatalf("WAN(%d) parallelism %d: rows not in CompareRoutes order", k, p)
			}
			if first == nil {
				first = got
			} else if !sameRows(got, first) {
				t.Fatalf("WAN(%d) parallelism %d: rows differ positionally from the first run's", k, p)
			}
		}
		if keyTies(first) == 0 {
			t.Fatalf("WAN(%d): fixture produced no key ties; the tie-break went untested", k)
		}
	}
}

// TestForkMergedGlobalRIBPositional: a fork's global RIB — changed devices'
// tables emitted into the base rows — is positionally the from-scratch
// simulation's, Identical row by row, on a fixture with key ties.
func TestForkMergedGlobalRIBPositional(t *testing.T) {
	out := gen.Generate(gen.WAN(2))
	inputs := gen.WithDuplicateInputs(out.Inputs)
	eng := NewEngine(out.Net, Options{})
	eng.BaseRun(inputs, out.Flows)
	links := out.Net.Topo.Links()
	names := out.Net.DeviceNames()
	deltas := []Delta{
		{LinksDown: []netmodel.LinkID{links[0].ID()}},
		{LinksDown: []netmodel.LinkID{links[len(links)/2].ID()}},
		{NodesDown: []string{names[0]}},
		{NodesDown: []string{names[len(names)-1]}, LinksDown: []netmodel.LinkID{links[1].ID()}},
	}
	for i, d := range deltas {
		scratch := out.Net.Clone()
		applyDelta(scratch, d)
		inc, stats := eng.Fork(scratch, d)
		if stats.Full {
			t.Fatalf("delta %d: fork fell back to a full simulation; the merge went untested", i)
		}
		got := inc.Routes.GlobalRIB().Rows()
		want := NewEngine(scratch, Options{}).RouteSimulation(inputs).GlobalRIB().Rows()
		if !sameRows(got, want) {
			t.Fatalf("delta %d: merged global RIB differs positionally from from-scratch (%d vs %d rows)", i, len(got), len(want))
		}
		if keyTies(got) == 0 {
			t.Fatalf("delta %d: no key ties in the fork's RIB", i)
		}
	}
}

// randomTopoDelta draws a single-link, multi-link or node-down delta.
func randomTopoDelta(rnd *rand.Rand, links []*netmodel.Link, names []string) Delta {
	var d Delta
	switch rnd.Intn(3) {
	case 0:
		d.LinksDown = []netmodel.LinkID{links[rnd.Intn(len(links))].ID()}
	case 1:
		for j := 2 + rnd.Intn(2); j > 0; j-- {
			d.LinksDown = append(d.LinksDown, links[rnd.Intn(len(links))].ID())
		}
	case 2:
		d.NodesDown = []string{names[rnd.Intn(len(names))]}
		if rnd.Intn(2) == 0 {
			d.LinksDown = []netmodel.LinkID{links[rnd.Intn(len(links))].ID()}
		}
	}
	return d
}

// sharedBlocks counts the device blocks view holds by reference to base's.
func sharedBlocks(base, view *netmodel.GlobalRIB) (shared, rowsUnshared int) {
	netmodel.JoinBlocks(base, view, func(b, v []netmodel.Route) {
		if netmodel.SameBlock(b, v) {
			shared++
		} else {
			rowsUnshared += len(v)
		}
	})
	return shared, rowsUnshared
}

// TestForkViewMatchesFlatRIB: a shared fork's global RIB is a view over the
// base's blocks. Against the same fork's RIB built flat from its tables
// (bgp.Result.GlobalRIB, which shares nothing), under random link, multi-link
// and node-down deltas with bases converged at parallelism 1, 0 and 8: Rows()
// is positionally identical, and Len, Equal and Diff against the base — the
// block-wise paths — give what the flat RIB gives, rows and order included.
func TestForkViewMatchesFlatRIB(t *testing.T) {
	rnd := rand.New(rand.NewSource(15))
	for k := 2; k <= 3; k++ {
		out := gen.Generate(gen.WAN(k))
		inputs := gen.WithDuplicateInputs(out.Inputs)
		links, names := out.Net.Topo.Links(), out.Net.DeviceNames()
		for _, p := range []int{1, 0, 8} {
			eng := NewEngine(out.Net, Options{Parallelism: p})
			base := eng.BaseRun(inputs, out.Flows).Routes.GlobalRIB()
			sharedSome := false
			for trial := 0; trial < 6; trial++ {
				d := randomTopoDelta(rnd, links, names)
				label := fmt.Sprintf("WAN(%d) parallelism %d trial %d (%v down, %v down)", k, p, trial, d.LinksDown, d.NodesDown)
				scratch := out.Net.Clone()
				applyDelta(scratch, d)
				inc, stats := eng.Fork(scratch, d)
				if stats.Full {
					t.Fatalf("%s: fork fell back to a full simulation; the view went untested", label)
				}
				view, flat := inc.Routes.GlobalRIB(), inc.Routes.BGP.GlobalRIB()
				if shared, _ := sharedBlocks(base, view); shared > 0 {
					sharedSome = true
				}
				if shared, _ := sharedBlocks(base, flat); shared != 0 {
					t.Fatalf("%s: the flat reference shares %d blocks with the base", label, shared)
				}
				if view.Len() != flat.Len() {
					t.Fatalf("%s: view has %d rows, flat RIB %d", label, view.Len(), flat.Len())
				}
				sameDiff := func(name string, g, o, refG, refO *netmodel.GlobalRIB) {
					gotG, gotO := g.Diff(o)
					wantG, wantO := refG.Diff(refO)
					if !sameRows(gotG, wantG) || !sameRows(gotO, wantO) {
						t.Fatalf("%s: %s on the view = %d/%d rows, on the flat RIB %d/%d, or rows differ",
							label, name, len(gotG), len(gotO), len(wantG), len(wantO))
					}
				}
				sameDiff("base.Diff(fork)", base, view, base, flat)
				sameDiff("fork.Diff(base)", view, base, flat, base)
				if got, want := base.Equal(view), base.Equal(flat); got != want {
					t.Fatalf("%s: base.Equal(view) = %v, base.Equal(flat) = %v", label, got, want)
				}
				if !view.Equal(flat) || !flat.Equal(view) {
					t.Fatalf("%s: view and flat RIB are not Equal", label)
				}
				// Last, because it flattens the view: everything above ran on blocks.
				if !sameRows(view.Rows(), flat.Rows()) {
					t.Fatalf("%s: view rows differ positionally from the flat RIB's", label)
				}
			}
			if !sharedSome {
				t.Fatalf("WAN(%d) parallelism %d: no fork shared a block with the base", k, p)
			}
		}
	}
}

// TestForkViewRowsConcurrent: two goroutines flatten the same fork view at
// once (the race detector watches) and get the same rows.
func TestForkViewRowsConcurrent(t *testing.T) {
	out := gen.Generate(gen.WAN(2))
	eng := NewEngine(out.Net, Options{})
	eng.BaseRun(out.Inputs, out.Flows)
	d := Delta{LinksDown: []netmodel.LinkID{out.Net.Topo.Links()[0].ID()}}
	scratch := out.Net.Clone()
	applyDelta(scratch, d)
	inc, _ := eng.Fork(scratch, d)
	view := inc.Routes.GlobalRIB()
	var wg sync.WaitGroup
	var got [2][]netmodel.Route
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = view.Rows()
		}()
	}
	wg.Wait()
	if len(got[0]) != view.Len() || len(got[1]) != view.Len() || &got[0][0] != &got[1][0] {
		t.Fatalf("concurrent Rows() returned %d and %d rows of %d, or two flattenings", len(got[0]), len(got[1]), view.Len())
	}
}

// TestForkGlobalRIBAllocBoundedByChangedRows pins the cost of a shared
// fork's global RIB to what the failure changed: the rows of the changed
// devices' blocks (plus their tables' sorted prefix lists, built on first
// emission) and a fixed budget per block for the block list and the
// allocator's size-class rounding — not a copy of the whole RIB, which on
// this fixture is several times the bound. Bytes via
// runtime.MemStats: one large allocation is what this guards against, and
// testing.AllocsPerRun would count it as 1.
func TestForkGlobalRIBAllocBoundedByChangedRows(t *testing.T) {
	out := gen.Generate(gen.WAN(4))
	eng := NewEngine(out.Net, Options{})
	base := eng.BaseRun(out.Inputs, out.Flows).Routes.GlobalRIB()
	d := Delta{LinksDown: []netmodel.LinkID{out.Net.Topo.Links()[0].ID()}}
	scratch := out.Net.Clone()
	applyDelta(scratch, d)
	inc, stats := eng.Fork(scratch, d)
	if stats.Full {
		t.Fatal("fork fell back to a full simulation")
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	view := inc.Routes.GlobalRIB()
	runtime.ReadMemStats(&after)
	allocated := after.TotalAlloc - before.TotalAlloc

	shared, changedRows := sharedBlocks(base, view)
	if shared == 0 || changedRows == 0 {
		t.Fatalf("fixture: %d shared blocks, %d changed rows; both must be non-zero", shared, changedRows)
	}
	const perBlock = 1024
	perRow := uint64(unsafe.Sizeof(netmodel.Route{}) + unsafe.Sizeof(netip.Prefix{}))
	bound := uint64(changedRows)*perRow + perBlock*uint64(len(view.Blocks()))
	whole := uint64(view.Len()) * uint64(unsafe.Sizeof(netmodel.Route{}))
	if allocated > bound {
		t.Errorf("GlobalRIB() on a shared fork allocated %d bytes; bound %d (%d changed rows of %d, %d blocks); a flat copy is %d",
			allocated, bound, changedRows, view.Len(), len(view.Blocks()), whole)
	}
	if bound*2 > whole {
		t.Fatalf("fixture: the bound (%d) is not well below a flat copy (%d); pick a link that changes fewer rows", bound, whole)
	}
	t.Logf("allocated %d bytes for %d changed rows of %d (bound %d, flat copy %d)", allocated, changedRows, view.Len(), bound, whole)
}

// TestForkLookupAllocBoundedByItsBlock pins on-read emission at the engine: a
// topology-only fork (link core-0-0--core-0-1 at WAN(4)) whose only reader
// Lookups one route reflector allocates, for its global RIB and that lookup,
// the rows of that device's block and a fixed budget per block — not the
// blocks of every device the failure changed, which on this fixture are
// several times the bound. Bytes via runtime.MemStats, as in
// TestForkGlobalRIBAllocBoundedByChangedRows.
func TestForkLookupAllocBoundedByItsBlock(t *testing.T) {
	out := gen.Generate(gen.WAN(4))
	eng := NewEngine(out.Net, Options{})
	base := eng.BaseRun(out.Inputs, out.Flows).Routes.GlobalRIB()
	var d Delta
	for _, l := range out.Net.Topo.Links() {
		if l.A == "core-0-0" && l.B == "core-0-1" {
			d.LinksDown = []netmodel.LinkID{l.ID()}
		}
	}
	if len(d.LinksDown) != 1 {
		t.Fatal("fixture: no link core-0-0--core-0-1")
	}
	scratch := out.Net.Clone()
	applyDelta(scratch, d)
	inc, stats := eng.Fork(scratch, d)
	if stats.Full {
		t.Fatal("fork fell back to a full simulation")
	}
	const rr = "rr-3-0" // the one route reflector this failure changes
	prefix := base.Block(rr)[0].Prefix

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	view := inc.Routes.GlobalRIB()
	found := 0
	view.Lookup(rr, prefix, func(rows []netmodel.Route) { found += len(rows) })
	runtime.ReadMemStats(&after)
	allocated := after.TotalAlloc - before.TotalAlloc

	rrRows := len(view.Block(rr))
	shared, changedRows := sharedBlocks(base, view)
	if found == 0 || netmodel.SameBlock(base.Block(rr), view.Block(rr)) || shared == 0 {
		t.Fatalf("fixture: %s holds %d rows for %s, shares its base block, or no block is shared (%d); its block must be one the fork changed", rr, found, prefix, shared)
	}
	const perBlock = 1024
	perRow := uint64(unsafe.Sizeof(netmodel.Route{}))
	bound := uint64(rrRows)*perRow + perBlock*uint64(len(view.Blocks()))
	eager := uint64(changedRows) * perRow // every changed block written
	if allocated > bound {
		t.Errorf("GlobalRIB() and one Lookup of %s allocated %d bytes; bound %d (%d rows in its block, %d blocks); writing every changed block is %d (%d rows)",
			rr, allocated, bound, rrRows, len(view.Blocks()), eager, changedRows)
	}
	if bound*2 > eager {
		t.Fatalf("fixture: the bound (%d) is not well below writing every changed block (%d)", bound, eager)
	}
	t.Logf("allocated %d bytes for %s's %d-row block (bound %d); every changed block: %d rows, %d bytes", allocated, rr, rrRows, bound, changedRows, eager)
}

// TestColdTablesAliasGlobalRIB: a cold run writes each row once, into the
// global RIB. Every table it serves — those the forwarder reads, member
// prefixes included — holds each prefix's rows as a stretch of the global
// RIB's backing slice, on WAN(1–4) with route ECs on and off. (A table copies
// a prefix's rows only where a candidate sorts before a best row, which rows
// tying on the key columns, as duplicate inputs make, can bring about.)
func TestColdTablesAliasGlobalRIB(t *testing.T) {
	size := unsafe.Sizeof(netmodel.Route{})
	for k := 1; k <= 4; k++ {
		out := gen.Generate(gen.WAN(k))
		for _, opts := range []Options{{}, {DisableRouteECs: true}} {
			res := NewEngine(out.Net, opts).RouteSimulation(out.Inputs)
			rows := res.GlobalRIB().Rows()
			lo := uintptr(unsafe.Pointer(unsafe.SliceData(rows)))
			hi := lo + uintptr(len(rows))*size
			n := 0
			for _, tb := range res.BGP.Tables() {
				rib := res.RIB(tb.Device, tb.VRF)
				for _, p := range rib.Prefixes() {
					rs := rib.Routes(p)
					if a := uintptr(unsafe.Pointer(unsafe.SliceData(rs))); a < lo || a+uintptr(len(rs))*size > hi {
						t.Fatalf("WAN(%d) %+v: %s/%s %s: rows are a copy, not a stretch of the global RIB", k, opts, tb.Device, tb.VRF, p)
					}
					n += len(rs)
				}
			}
			if n != len(rows) {
				t.Fatalf("WAN(%d) %+v: the tables hold %d rows, the global RIB %d", k, opts, n, len(rows))
			}
		}
	}
}
