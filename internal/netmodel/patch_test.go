package netmodel

import (
	"math/rand"
	"net/netip"
	"slices"
	"testing"
)

// randTable fills a table with random prefixes of a few lengths (nested, so
// longest-match has something to choose between) holding one to three rows,
// some of them without a best row.
func randTable(rnd *rand.Rand, n int, masked bool) *RIB {
	t := NewRIB("A", DefaultVRF)
	for i := 0; i < n; i++ {
		p := randPrefix(rnd, masked)
		t.Replace(p, randPrefixRows(rnd, p))
	}
	return t
}

func randPrefix(rnd *rand.Rand, masked bool) netip.Prefix {
	bits := []int{8, 16, 20, 24, 32}[rnd.Intn(5)]
	p := netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(rnd.Intn(3)), byte(rnd.Intn(4) << 4), byte(rnd.Intn(3))}), bits)
	if masked {
		p = p.Masked()
	}
	return p
}

// randPrefixRows draws rows for one prefix; the table forces their location.
func randPrefixRows(rnd *rand.Rand, p netip.Prefix) []Route {
	rows := make([]Route, 1+rnd.Intn(3))
	for i := range rows {
		rows[i] = Route{Prefix: p, Protocol: ProtoBGP, RouteType: RouteType(rnd.Intn(2)), MED: uint32(rnd.Intn(1000)),
			NextHop: netip.AddrFrom4([4]byte{192, 0, 2, byte(rnd.Intn(6))})}
	}
	return rows
}

// TestPatchedTableMatchesRebuilt: a ShallowClone whose rows were replaced at a
// few prefixes (changed, withdrawn, added, best rows lost), then given the
// base's LPM index patched at those prefixes and emitted by splicing them
// into the base's sorted rows, must answer LongestMatch as the index-free
// scan does and emit exactly what AppendSorted emits. With unmasked prefixes
// in play the index cannot be patched entry by entry and must be left to the
// lazy whole-table build, checked against a table built from scratch.
func TestPatchedTableMatchesRebuilt(t *testing.T) {
	rnd := rand.New(rand.NewSource(16))
	patchedIndexes := 0
	for trial := 0; trial < 200; trial++ {
		masked := trial%4 != 3
		base := randTable(rnd, 5+rnd.Intn(40), masked)
		if trial%5 != 4 {
			base.LongestMatch(netip.MustParseAddr("10.0.0.1")) // builds the index; otherwise nothing to carry
		}
		baseRows := base.All()

		fork := base.ShallowClone()
		var changed []netip.Prefix
		for n := rnd.Intn(6); n > 0; n-- {
			p := randPrefix(rnd, masked)
			if ps := base.Prefixes(); rnd.Intn(3) > 0 && len(ps) > 0 {
				p = ps[rnd.Intn(len(ps))]
			}
			if slices.Contains(changed, p) {
				continue
			}
			changed = append(changed, p)
			if rnd.Intn(4) == 0 {
				fork.Replace(p, nil)
			} else {
				fork.Replace(p, randPrefixRows(rnd, p))
			}
		}
		fork.PatchLPM(base, changed)
		if ix := fork.lpm.Load(); ix != nil {
			if ix.under == nil || !masked {
				t.Fatalf("trial %d: PatchLPM installed an index that is not a patch, or patched unmasked prefixes", trial)
			}
			patchedIndexes++
		}

		rebuilt := fork.ShallowClone() // builds its own index from scratch
		for i := 0; i < 60; i++ {
			addr := netip.AddrFrom4([4]byte{10, byte(rnd.Intn(4)), byte(rnd.Intn(4) << 4), byte(rnd.Intn(4))})
			gp, gb, gok := fork.LongestMatch(addr)
			wp, wb, wok := rebuilt.LongestMatch(addr)
			if masked { // the scan picks among colliding unmasked prefixes in map order
				wp, wb, wok = fork.LongestMatchScan(addr)
			}
			if gok != wok || gp != wp || !slices.EqualFunc(gb, wb, Route.Identical) {
				t.Fatalf("trial %d: LongestMatch(%s) = %v %v %v, reference %v %v %v (changed %v)", trial, addr, gp, gb, gok, wp, wb, wok, changed)
			}
		}
		if got, want := fork.AppendSpliced(nil, baseRows, changed), fork.All(); !slices.EqualFunc(got, want, Route.Identical) {
			t.Fatalf("trial %d: AppendSpliced emitted %d rows, AppendSorted %d, or they differ (changed %v)", trial, len(got), len(want), changed)
		}
		if !slices.EqualFunc(base.All(), baseRows, Route.Identical) {
			t.Fatalf("trial %d: patching the clone modified the base", trial)
		}
	}
	if patchedIndexes == 0 {
		t.Fatal("no trial carried an index forward; the patch went untested")
	}
}
