package core

import (
	"fmt"
	"math/rand"
	"net/netip"
	"strings"
	"sync"
	"testing"

	"hoyan/internal/gen"
	"hoyan/internal/netmodel"
)

// copiedBySplice counts the rows of view's own blocks that are base rows
// carried over by the splice: the fork's rows of the devices it re-emitted,
// less the changed ones.
func copiedBySplice(base, view *netmodel.GlobalRIB, changed int) int {
	_, unshared := sharedBlocks(base, view)
	return unshared - changed
}

// TestForkPrefixDeltaMatchesScratch: a topology-only fork patches the base's
// expanded tables, LPM indexes and global-RIB blocks at the (table, prefix)
// pairs the warm restart changed. Under random link, multi-link, node-down
// and ISP-link deltas (the last withdraw rows everywhere), with bases
// converged at parallelism 1, 0 and 8, the result must be what a from-scratch
// engine on the failed topology computes: global RIB Equal, paths and link
// loads identical, and on every patched table the carried-forward index must
// answer every flow destination as the index-free scan does.
func TestForkPrefixDeltaMatchesScratch(t *testing.T) {
	rnd := rand.New(rand.NewSource(16))
	for k := 2; k <= 3; k++ {
		out := gen.Generate(gen.WAN(k))
		links, names := out.Net.Topo.Links(), out.Net.DeviceNames()
		var ispLinks []*netmodel.Link
		for _, l := range links {
			if strings.HasPrefix(l.A, "isp-") || strings.HasPrefix(l.B, "isp-") {
				ispLinks = append(ispLinks, l)
			}
		}
		dsts := make(map[netip.Addr]bool)
		for _, fl := range out.Flows {
			dsts[fl.Dst] = true
		}
		for _, p := range []int{1, 0, 8} {
			opts := Options{Parallelism: p}
			eng := NewEngine(out.Net, opts)
			base := eng.BaseRun(out.Inputs, out.Flows).Routes
			patched, changedRows := 0, 0
			for trial := 0; trial < 6; trial++ {
				d := randomTopoDelta(rnd, links, names)
				if trial%3 == 2 {
					d = Delta{LinksDown: []netmodel.LinkID{ispLinks[rnd.Intn(len(ispLinks))].ID()}}
				}
				label := fmt.Sprintf("WAN(%d) parallelism %d trial %d (%v down, %v down)", k, p, trial, d.LinksDown, d.NodesDown)
				scratch := out.Net.Clone()
				applyDelta(scratch, d)
				inc, stats := eng.Fork(scratch, d)
				if stats.Full {
					t.Fatalf("%s: fork fell back to a full simulation", label)
				}
				assertIdentical(t, label, inc, NewEngine(scratch, opts).Run(out.Inputs, out.Flows))

				for _, tb := range inc.Routes.BGP.Tables() {
					rt := inc.Routes.BGP.RIB(tb.Device, tb.VRF)
					if rt == base.BGP.RIB(tb.Device, tb.VRF) {
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
				changedRows += stats.RIBRowsChanged
				copied := copiedBySplice(base.GlobalRIB(), inc.Routes.GlobalRIB(), stats.RIBRowsChanged)
				if copied < 0 || stats.RIBRowsRebuilt > 2*stats.RIBRowsChanged+copied {
					t.Fatalf("%s: %d rows rebuilt for %d changed and %d copied by splice", label, stats.RIBRowsRebuilt, stats.RIBRowsChanged, copied)
				}
			}
			if patched == 0 || changedRows == 0 {
				t.Fatalf("WAN(%d) parallelism %d: %d patched tables, %d changed rows; the patch path went untested", k, p, patched, changedRows)
			}
		}
	}
}

// TestForkRIBWorkPinned pins the RIB work of one topology fork — link
// core-0-0--core-0-1 at WAN(4) — as exact row counts: what the fork rebuilds
// is bounded by what changed (twice: table and block) plus what its re-emitted
// blocks copy from the base, not by the size of the tables it touched.
func TestForkRIBWorkPinned(t *testing.T) {
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
	view := inc.Routes.GlobalRIB()
	copied := copiedBySplice(base, view, stats.RIBRowsChanged)
	onlyBase, onlyFork := base.Diff(view)
	// Rows of the fork without an Identical twin in the base, counted without
	// the fork's own bookkeeping: every one of them must be a changed row.
	differ := 0
	netmodel.JoinBlocks(base, view, func(b, v []netmodel.Route) {
		if netmodel.SameBlock(b, v) {
			return
		}
		twins := make(map[string]int, len(b))
		for _, r := range b {
			twins[string(r.AppendSignature(nil))]++
		}
		for _, r := range v {
			if sig := string(r.AppendSignature(nil)); twins[sig] > 0 {
				twins[sig]--
			} else {
				differ++
			}
		}
	})
	t.Logf("%d rows total; changed %d (%d differ from base), rebuilt %d, copied by splice %d; route delta %d/%d",
		view.Len(), stats.RIBRowsChanged, differ, stats.RIBRowsRebuilt, copied, len(onlyBase), len(onlyFork))
	if differ == 0 || differ > stats.RIBRowsChanged {
		t.Errorf("%d rows differ from base, %d counted as changed", differ, stats.RIBRowsChanged)
	}
	if stats.RIBRowsRebuilt > 2*stats.RIBRowsChanged+copied {
		t.Errorf("rebuilt %d rows > 2 × %d changed + %d copied", stats.RIBRowsRebuilt, stats.RIBRowsChanged, copied)
	}
	const wantChanged, wantRebuilt = 1153, 10913
	if stats.RIBRowsChanged != wantChanged || stats.RIBRowsRebuilt != wantRebuilt {
		t.Errorf("RIBRowsChanged/RIBRowsRebuilt = %d/%d, pinned %d/%d", stats.RIBRowsChanged, stats.RIBRowsRebuilt, wantChanged, wantRebuilt)
	}
}

// TestForkPatchedConcurrent forks one base from several goroutines at once
// under the race detector: the owner index, the adj-RIB-in cells still shared
// with the captured state, the base's expanded tables and their LPM indexes
// are read by all of them while each patches its own clones.
func TestForkPatchedConcurrent(t *testing.T) {
	out := gen.Generate(gen.WAN(2))
	eng := NewEngine(out.Net, Options{})
	eng.BaseRun(out.Inputs, out.Flows)
	links := out.Net.Topo.Links()
	want := make([]string, 8)
	for i := range want {
		d := Delta{LinksDown: []netmodel.LinkID{links[(i*7)%len(links)].ID()}}
		scratch := out.Net.Clone()
		applyDelta(scratch, d)
		want[i] = resultDigest(NewEngine(scratch, Options{}).Run(out.Inputs, out.Flows))
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range want {
				i = (i + 2*w) % len(want)
				d := Delta{LinksDown: []netmodel.LinkID{links[(i*7)%len(links)].ID()}}
				scratch := out.Net.Clone()
				applyDelta(scratch, d)
				res, _ := eng.Fork(scratch, d)
				if got := resultDigest(res); got != want[i] {
					t.Errorf("worker %d scenario %d: concurrent fork differs from a from-scratch engine", w, i)
				}
			}
		}()
	}
	wg.Wait()
}
