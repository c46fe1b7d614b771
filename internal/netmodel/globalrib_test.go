package netmodel

import (
	"fmt"
	"math/rand"
	"net/netip"
	"slices"
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

// TestReplaceDevicesMatchesRebuild drives random replacements — devices
// replaced with new rows, replaced with nothing (purged), replaced although
// absent from the base, and new devices before, between and after the base's
// — and checks the view against a RIB rebuilt from scratch out of the same
// rows: Rows, Len, Equal, Diff (against the base, both ways) and Lookup all
// agree with the values computed on flat copies that share no block.
func TestReplaceDevicesMatchesRebuild(t *testing.T) {
	rnd := rand.New(rand.NewSource(2))
	devices := []string{"b", "b1", "c", "d", "d0", "e", "f"}
	extra := []string{"a", "c5", "g"} // not in the base
	for trial := 0; trial < 200; trial++ {
		base := NewGlobalRIB(blockRows(rnd, devices[:2+rnd.Intn(len(devices)-1)], rnd.Intn(300)))
		replaced := map[string]bool{}
		var freshDevs []string
		for _, d := range append(append([]string(nil), devices...), extra...) {
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

		view := base.ReplaceDevices(replaced, fresh)
		checkBlocks(t, label, view)

		var all []Route
		for _, r := range base.Rows() {
			if !replaced[r.Device] {
				all = append(all, r)
			}
		}
		rebuilt := NewGlobalRIB(append(all, fresh...))
		if !sameRouteRows(view.Rows(), rebuilt.Rows()) {
			t.Fatalf("%s: view rows differ positionally from the rebuilt RIB's (%d vs %d)", label, view.Len(), rebuilt.Len())
		}
		if view.Len() != rebuilt.Len() {
			t.Fatalf("%s: Len %d, rebuilt %d", label, view.Len(), rebuilt.Len())
		}

		// Every kept device's block is the base's own.
		JoinBlocks(base, view, func(b, v []Route) {
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
			g, o *GlobalRIB
		}{
			{"base vs view", base, view}, {"view vs base", view, base},
			{"flat base vs view", flatBase, view}, {"view vs rebuilt", view, rebuilt},
		} {
			wantG, wantO := refDiff(c.g.Rows(), c.o.Rows())
			gotG, gotO := c.g.Diff(c.o)
			if !sameRouteRows(gotG, wantG) || !sameRouteRows(gotO, wantO) {
				t.Fatalf("%s: %s: Diff = %d/%d rows, whole-RIB subtraction %d/%d, or rows differ", label, c.name, len(gotG), len(gotO), len(wantG), len(wantO))
			}
			wantEq := slices.EqualFunc(c.g.Rows(), c.o.Rows(), Route.AttrsEqual)
			if got := c.g.Equal(c.o); got != wantEq {
				t.Fatalf("%s: %s: Equal = %v, positional comparison %v", label, c.name, got, wantEq)
			}
		}

		for _, d := range append(append([]string(nil), devices...), extra...) {
			for _, p := range []string{"10.0.0.0/8", "10.0.0.0/24", "2001:db8::/48", "172.16.0.0/12"} {
				prefix := netip.MustParsePrefix(p)
				var want, got []Route
				for _, r := range rebuilt.Rows() {
					if r.Device == d && r.Prefix == prefix {
						want = append(want, r)
					}
				}
				view.Lookup(d, prefix, func(rows []Route) { got = append(got, rows...) })
				if !sameRouteRows(got, want) {
					t.Fatalf("%s: Lookup(%s, %s) = %d rows, scan finds %d", label, d, p, len(got), len(want))
				}
			}
		}
	}
}

// TestReplaceDevicesNothingReplaced: with no device replaced — or only
// devices that have no rows on either side — the result is the receiver.
func TestReplaceDevicesNothingReplaced(t *testing.T) {
	g := NewGlobalRIB(blockRows(rand.New(rand.NewSource(3)), []string{"a", "b"}, 20))
	if g.ReplaceDevices(nil, nil) != g || g.ReplaceDevices(map[string]bool{"zz": true}, nil) != g {
		t.Fatal("ReplaceDevices built a new RIB although nothing changed")
	}
}

// TestReplaceDevicesRejectsUnreplacedFresh: fresh rows for a device the base
// keeps would give that device two blocks.
func TestReplaceDevicesRejectsUnreplacedFresh(t *testing.T) {
	rnd := rand.New(rand.NewSource(4))
	g := NewGlobalRIB(blockRows(rnd, []string{"a", "b"}, 20))
	fresh := NewGlobalRIB(blockRows(rnd, []string{"b"}, 5)).Rows()
	defer func() {
		if recover() == nil {
			t.Fatal("ReplaceDevices accepted fresh rows for a device it was not told to replace")
		}
	}()
	g.ReplaceDevices(map[string]bool{"a": true}, fresh)
}

// TestViewRowsConcurrent: Rows() on a view flattens once; concurrent first
// calls return the same slice (run under -race).
func TestViewRowsConcurrent(t *testing.T) {
	rnd := rand.New(rand.NewSource(5))
	base := NewGlobalRIB(blockRows(rnd, []string{"a", "b", "c"}, 300))
	fresh := NewGlobalRIB(blockRows(rnd, []string{"b"}, 40)).Rows()
	view := base.ReplaceDevices(map[string]bool{"b": true}, fresh)
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
