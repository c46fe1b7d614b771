package netmodel

import (
	"fmt"
	"math/rand"
	"net/netip"
	"slices"
	"strings"
	"sync"
	"testing"
)

// blockRows draws n rows over the given devices, with provenance varied so
// that rows Diff treats as equal still differ (Diff's choice among duplicates
// is then visible in its output).
func blockRows(rnd *rand.Rand, devices []string, n int) []Route {
	rows := make([]Route, n)
	for i := range rows {
		rows[i] = randRoute(rnd)
		rows[i].Device = devices[rnd.Intn(len(devices))]
		rows[i].IGPCost = uint32(rnd.Intn(3))
		rows[i].Source = []string{"s1", "s2"}[rnd.Intn(2)]
	}
	return rows
}

// refDiff is Diff as it was before the RIB had blocks: one multiset
// subtraction over all rows of both sides.
func refDiff(g, o []Route) (onlyG, onlyO []Route) {
	sig := func(r *Route) string { return string(appendAttrDiffSig(nil, r)) }
	inO, inG := map[string]int{}, map[string]int{}
	for i := range o {
		inO[sig(&o[i])]++
	}
	for i := range g {
		if s := sig(&g[i]); inO[s] > 0 {
			inO[s]--
		} else {
			onlyG = append(onlyG, g[i])
		}
		inG[sig(&g[i])]++
	}
	for i := range o {
		if s := sig(&o[i]); inG[s] > 0 {
			inG[s]--
		} else {
			onlyO = append(onlyO, o[i])
		}
	}
	return onlyG, onlyO
}

func checkBlocks(t *testing.T, label string, g *GlobalRIB) {
	t.Helper()
	n, prev := 0, ""
	for i, b := range g.Blocks() {
		if len(b) == 0 {
			t.Fatalf("%s: block %d is empty", label, i)
		}
		if i > 0 && b[0].Device <= prev {
			t.Fatalf("%s: block %d (%s) does not sort after block %d (%s)", label, i, b[0].Device, i-1, prev)
		}
		prev = b[0].Device
		for j := range b {
			if b[j].Device != prev {
				t.Fatalf("%s: block %d holds devices %s and %s", label, i, prev, b[j].Device)
			}
		}
		if !slices.IsSortedFunc(b, CompareRoutes) {
			t.Fatalf("%s: block %d (%s) is not in canonical order", label, i, prev)
		}
		n += len(b)
	}
	if n != g.Len() {
		t.Fatalf("%s: blocks hold %d rows, Len() is %d", label, n, g.Len())
	}
}

func sameRouteRows(a, b []Route) bool { return slices.EqualFunc(a, b, Route.Identical) }

// TestGlobalRIBBlocksOfFlatRIB: a RIB built from one slice is that slice, cut
// at the device boundaries.
func TestGlobalRIBBlocksOfFlatRIB(t *testing.T) {
	rnd := rand.New(rand.NewSource(1))
	devices := []string{"a", "a1", "b", "c", "c0", "d"}
	g := NewGlobalRIB(blockRows(rnd, devices, 400))
	checkBlocks(t, "flat", g)
	rows := g.Rows()
	at := 0
	for _, b := range g.Blocks() {
		if &b[0] != &rows[at] {
			t.Fatalf("block of %s is not a sub-slice of Rows() at %d", b[0].Device, at)
		}
		at += len(b)
	}
	if empty := NewGlobalRIB(nil); empty.Len() != 0 || len(empty.Blocks()) != 0 || len(empty.Rows()) != 0 {
		t.Fatalf("empty RIB: %d rows, %d blocks", empty.Len(), len(empty.Blocks()))
	}
}

// emitterOf serves fresh — rows in canonical order — as a ReplaceDevices
// emitter: the row count of every replaced device (0 for one fresh has no rows
// of) and an emit that appends that device's rows, counting its calls per
// device in calls when that is not nil.
func emitterOf(replaced map[string]bool, fresh []Route, calls map[string]int) (map[string]int, func(string, []Route) []Route) {
	byDev := map[string][]Route{}
	for _, b := range deviceBlocks(fresh) {
		byDev[b[0].Device] = b
	}
	rows := make(map[string]int, len(replaced))
	for d := range replaced {
		rows[d] = len(byDev[d])
	}
	var mu sync.Mutex
	return rows, func(dev string, dst []Route) []Route {
		if calls != nil {
			mu.Lock()
			calls[dev]++
			mu.Unlock()
		}
		return append(dst, byDev[dev]...)
	}
}

// replaceWith is ReplaceDevices with the replaced devices' rows given flat.
func replaceWith(g *GlobalRIB, replaced map[string]bool, fresh []Route) *GlobalRIB {
	rows, emit := emitterOf(replaced, fresh, nil)
	return g.ReplaceDevices(rows, emit)
}

// TestReplaceDevicesMatchesRebuild drives random replacements — devices
// replaced with new rows, replaced with nothing (purged), replaced although
// absent from the base, and new devices before, between and after the base's
// — and checks the view against a RIB rebuilt from scratch out of the same
// rows. Every reader is checked on a view of its own, so each is the first to
// read the pending blocks: Rows, Blocks, Block, Lookup, JoinBlocks, Len,
// Equal and Diff (against the base and the rebuilt RIB, both ways) all agree
// with the values computed on flat copies that share no block.
func TestReplaceDevicesMatchesRebuild(t *testing.T) {
	rnd := rand.New(rand.NewSource(2))
	devices := []string{"b", "b1", "c", "d", "d0", "e", "f"}
	extra := []string{"a", "c5", "g"} // not in the base
	all := append(append([]string(nil), devices...), extra...)
	prefixes := []string{"10.0.0.0/8", "10.0.0.0/24", "2001:db8::/48", "172.16.0.0/12"}
	for trial := 0; trial < 200; trial++ {
		base := NewGlobalRIB(blockRows(rnd, devices[:2+rnd.Intn(len(devices)-1)], rnd.Intn(300)))
		replaced := map[string]bool{}
		var freshDevs []string
		for _, d := range all {
			switch rnd.Intn(4) {
			case 0:
				replaced[d] = true
				freshDevs = append(freshDevs, d)
			case 1:
				replaced[d] = true // purged
			}
		}
		var fresh []Route
		if len(freshDevs) > 0 {
			fresh = blockRows(rnd, freshDevs, rnd.Intn(120))
			// Keep some rows of the base, so replaced blocks partly match.
			for _, r := range base.Rows() {
				if slices.Contains(freshDevs, r.Device) && rnd.Intn(2) == 0 {
					fresh = append(fresh, r)
				}
			}
			slices.SortFunc(fresh, CompareRoutes)
		}
		label := fmt.Sprintf("trial %d", trial)
		view := func() *GlobalRIB { return replaceWith(base, replaced, fresh) }

		var kept []Route
		for _, r := range base.Rows() {
			if !replaced[r.Device] {
				kept = append(kept, r)
			}
		}
		rebuilt := NewGlobalRIB(append(kept, fresh...))
		want := rebuilt.Rows()

		if v := view(); !sameRouteRows(v.Rows(), want) {
			t.Fatalf("%s: view rows differ positionally from the rebuilt RIB's (%d vs %d)", label, v.Len(), rebuilt.Len())
		}
		if v := view(); v.Len() != rebuilt.Len() {
			t.Fatalf("%s: Len %d, rebuilt %d", label, v.Len(), rebuilt.Len())
		}
		if v := view(); !sameRouteRows(slices.Concat(v.Blocks()...), want) {
			t.Fatalf("%s: Blocks differ from the rebuilt RIB's rows", label)
		}
		checkBlocks(t, label, view())

		// Every kept device's block is the base's own.
		JoinBlocks(base, view(), func(b, v []Route) {
			if b != nil && !replaced[b[0].Device] && !SameBlock(b, v) {
				t.Fatalf("%s: kept device %s does not share the base's block", label, b[0].Device)
			}
			if v != nil && replaced[v[0].Device] && SameBlock(b, v) {
				t.Fatalf("%s: replaced device %s shares the base's block", label, v[0].Device)
			}
		})

		flatBase := NewGlobalRIB(base.Rows())
		for _, c := range []struct {
			name string
			g, o func() *GlobalRIB
		}{
			{"base vs view", func() *GlobalRIB { return base }, view},
			{"view vs base", view, func() *GlobalRIB { return base }},
			{"flat base vs view", func() *GlobalRIB { return flatBase }, view},
			{"view vs rebuilt", view, func() *GlobalRIB { return rebuilt }},
			{"view vs view", view, view},
		} {
			gr, or := c.g().Rows(), c.o().Rows()
			wantG, wantO := refDiff(gr, or)
			gotG, gotO := c.g().Diff(c.o())
			if !sameRouteRows(gotG, wantG) || !sameRouteRows(gotO, wantO) {
				t.Fatalf("%s: %s: Diff = %d/%d rows, whole-RIB subtraction %d/%d, or rows differ", label, c.name, len(gotG), len(gotO), len(wantG), len(wantO))
			}
			wantEq := slices.EqualFunc(gr, or, Route.AttrsEqual)
			if got := c.g().Equal(c.o()); got != wantEq {
				t.Fatalf("%s: %s: Equal = %v, positional comparison %v", label, c.name, got, wantEq)
			}
		}

		for _, d := range all {
			var wantBlock []Route
			for _, r := range want {
				if r.Device == d {
					wantBlock = append(wantBlock, r)
				}
			}
			if got := view().Block(d); !sameRouteRows(got, wantBlock) {
				t.Fatalf("%s: Block(%s) = %d rows, scan finds %d", label, d, len(got), len(wantBlock))
			}
			for _, p := range prefixes {
				prefix := netip.MustParsePrefix(p)
				var wantRows, got []Route
				for _, r := range wantBlock {
					if r.Prefix == prefix {
						wantRows = append(wantRows, r)
					}
				}
				view().Lookup(d, prefix, func(rows []Route) { got = append(got, rows...) })
				if !sameRouteRows(got, wantRows) {
					t.Fatalf("%s: Lookup(%s, %s) = %d rows, scan finds %d", label, d, p, len(got), len(wantRows))
				}
			}
		}
	}
}

// TestReplaceDevicesNothingReplaced: with no device replaced — or only
// devices that have no rows on either side — the result is the receiver.
func TestReplaceDevicesNothingReplaced(t *testing.T) {
	g := NewGlobalRIB(blockRows(rand.New(rand.NewSource(3)), []string{"a", "b"}, 20))
	if g.ReplaceDevices(nil, nil) != g || g.ReplaceDevices(map[string]int{"zz": 0}, nil) != g {
		t.Fatal("ReplaceDevices built a new RIB although nothing changed")
	}
}

// TestReplaceDevicesRejectsMiscountedEmit: an emitter that writes another
// number of rows than the count promised, or rows of another device, panics
// naming the device, on the first read of its block.
func TestReplaceDevicesRejectsMiscountedEmit(t *testing.T) {
	rnd := rand.New(rand.NewSource(4))
	g := NewGlobalRIB(blockRows(rnd, []string{"alpha", "bravo"}, 20))
	bRows := NewGlobalRIB(blockRows(rnd, []string{"bravo"}, 5)).Rows()
	for _, c := range []struct {
		name string
		rows map[string]int
	}{
		{"short", map[string]int{"bravo": len(bRows) + 1}},
		{"long", map[string]int{"bravo": len(bRows) - 1}},
		{"wrong device", map[string]int{"alpha": len(bRows)}},
	} {
		dev := ""
		for d := range c.rows {
			dev = d
		}
		view := g.ReplaceDevices(c.rows, func(string, []Route) []Route { return bRows })
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, dev) {
					t.Fatalf("%s: reading the block panicked with %q; want a panic naming %s", c.name, msg, dev)
				}
			}()
			view.Block(dev)
		}()
	}
}

// TestReplaceDevicesEmitsOnRead pins on-read emission: on a 40-device view
// with ten devices replaced, building the view and its Len emit nothing, a
// Lookup of one replaced device emits that device's block and no other, once
// however often it is read, and reading every block emits each replaced
// device exactly once.
func TestReplaceDevicesEmitsOnRead(t *testing.T) {
	rnd := rand.New(rand.NewSource(6))
	var devices []string
	for i := 0; i < 40; i++ {
		devices = append(devices, fmt.Sprintf("dev-%02d", i))
	}
	base := NewGlobalRIB(blockRows(rnd, devices, 2000))
	replaced := map[string]bool{}
	for i := 0; i < 40; i += 4 {
		replaced[devices[i]] = true
	}
	fresh := NewGlobalRIB(blockRows(rnd, devices, 2000)).Filter(func(r Route) bool { return replaced[r.Device] }).Rows()
	calls := map[string]int{}
	rows, emit := emitterOf(replaced, fresh, calls)
	view := base.ReplaceDevices(rows, emit)
	if n := view.Len(); len(calls) != 0 || n != base.Len()-base.Filter(func(r Route) bool { return replaced[r.Device] }).Len()+len(fresh) {
		t.Fatalf("building the view and Len emitted %v, or Len %d is off", calls, n)
	}
	target := devices[8]
	p := view.Block(target)[0].Prefix
	for i := 0; i < 3; i++ {
		view.Lookup(target, p, func([]Route) {})
	}
	view.Lookup(devices[9], p, func([]Route) {}) // kept: nothing to emit
	if len(calls) != 1 || calls[target] != 1 {
		t.Fatalf("Lookups of %s emitted %v; want that device once and no other", target, calls)
	}
	view.Rows()
	view.Blocks()
	view.Equal(base)
	if len(calls) != len(replaced) {
		t.Fatalf("reading every block emitted %d devices, %d replaced", len(calls), len(replaced))
	}
	for d, n := range calls {
		if n != 1 {
			t.Fatalf("%s emitted %d times", d, n)
		}
	}
}

// TestViewRowsConcurrent: Rows() on a view flattens once; concurrent first
// calls return the same slice (run under -race).
func TestViewRowsConcurrent(t *testing.T) {
	rnd := rand.New(rand.NewSource(5))
	base := NewGlobalRIB(blockRows(rnd, []string{"a", "b", "c"}, 300))
	fresh := NewGlobalRIB(blockRows(rnd, []string{"b"}, 40)).Rows()
	view := replaceWith(base, map[string]bool{"b": true}, fresh)
	var wg sync.WaitGroup
	got := make([][]Route, 4)
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = view.Rows()
		}()
	}
	wg.Wait()
	for i := range got {
		if len(got[i]) != view.Len() || &got[i][0] != &got[0][0] {
			t.Fatalf("goroutine %d got a different flattening", i)
		}
	}
}

// TestViewFirstReadsConcurrent: the first reads of a view's pending blocks
// race — Lookup, Blocks, Rows, Diff and Block at once, several goroutines
// each (run under -race and at several GOMAXPROCS) — and every device is
// emitted once, every reader sees the same block, and the rows are the flat
// rebuild's.
func TestViewFirstReadsConcurrent(t *testing.T) {
	rnd := rand.New(rand.NewSource(7))
	devices := []string{"a", "b", "c", "d", "e", "f"}
	replaced := map[string]bool{"b": true, "d": true, "f": true, "g": true}
	for trial := 0; trial < 20; trial++ {
		base := NewGlobalRIB(blockRows(rnd, devices, 400))
		fresh := NewGlobalRIB(blockRows(rnd, []string{"b", "d", "g"}, 120)).Rows()
		calls := map[string]int{}
		rows, emit := emitterOf(replaced, fresh, calls)
		view := base.ReplaceDevices(rows, emit)
		var kept []Route
		for _, r := range base.Rows() {
			if !replaced[r.Device] {
				kept = append(kept, r)
			}
		}
		want := NewGlobalRIB(append(kept, fresh...)).Rows()

		var wg sync.WaitGroup
		seen := make([][]Route, 8)
		for i := range seen {
			wg.Add(1)
			go func() {
				defer wg.Done()
				switch i % 4 {
				case 0:
					view.Lookup("d", fresh[len(fresh)-1].Prefix, func([]Route) {})
					seen[i] = view.Block("b")
				case 1:
					seen[i] = view.Blocks()[1]
				case 2:
					view.Rows()
					seen[i] = view.Block("b")
				case 3:
					view.Diff(base)
					seen[i] = view.Block("b")
				}
			}()
		}
		wg.Wait()
		for i := range seen {
			if !SameBlock(seen[i], seen[0]) {
				t.Fatalf("trial %d: goroutine %d read another block of b than goroutine 0", trial, i)
			}
		}
		if !sameRouteRows(view.Rows(), want) {
			t.Fatalf("trial %d: rows differ from the flat rebuild", trial)
		}
		if len(calls) != 3 || calls["b"] != 1 || calls["d"] != 1 || calls["g"] != 1 {
			t.Fatalf("trial %d: emitted %v; want b, d and g once each", trial, calls)
		}
	}
}
