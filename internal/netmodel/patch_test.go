package netmodel

import (
	"fmt"
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
		rows[i] = Route{Prefix: p, Protocol: ProtoBGP, RouteType: RouteType(rnd.Intn(2)), Attrs: &Attrs{MED: uint32(rnd.Intn(1000))},
			NextHop: netip.AddrFrom4([4]byte{192, 0, 2, byte(rnd.Intn(6))})}
	}
	return rows
}

// sameMatch checks t's LongestMatch at addr against its LongestMatchScan.
func sameMatch(t *RIB, addr netip.Addr) error {
	gp, gb, gok := t.LongestMatch(addr)
	wp, wb, wok := t.LongestMatchScan(addr)
	if gok != wok || gp != wp || !slices.EqualFunc(gb, wb, Route.Identical) {
		return fmt.Errorf("LongestMatch(%s) = %v %v %v, scan %v %v %v", addr, gp, gb, gok, wp, wb, wok)
	}
	return nil
}

// TestPatchedTableMatchesRebuilt: an Overlay of a table whose rows were
// replaced at a few prefixes (changed, withdrawn, added, best rows lost) —
// what a fork builds — must answer LongestMatch as the scan does, as a table
// rebuilt from its rows does, and emit by splicing the changed prefixes into
// the base's sorted rows exactly what AppendSorted emits. A quarter of the
// tables hold unmasked prefixes, which collide on one network.
func TestPatchedTableMatchesRebuilt(t *testing.T) {
	rnd := rand.New(rand.NewSource(16))
	for trial := 0; trial < 200; trial++ {
		masked := trial%4 != 3
		base := randTable(rnd, 5+rnd.Intn(40), masked)
		baseRows := base.AppendSorted(nil)

		fork := base.Overlay()
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

		rebuilt := fork.ShallowClone()
		for i := 0; i < 60; i++ {
			addr := netip.AddrFrom4([4]byte{10, byte(rnd.Intn(4)), byte(rnd.Intn(4) << 4), byte(rnd.Intn(4))})
			for _, tb := range []*RIB{fork, rebuilt, base} {
				if err := sameMatch(tb, addr); err != nil {
					t.Fatalf("trial %d: %v (changed %v)", trial, err, changed)
				}
			}
			gp, gb, _ := fork.LongestMatch(addr)
			wp, wb, _ := rebuilt.LongestMatch(addr)
			if gp != wp || !slices.EqualFunc(gb, wb, Route.Identical) {
				t.Fatalf("trial %d: LongestMatch(%s) = %v %v, rebuilt table %v %v (changed %v)", trial, addr, gp, gb, wp, wb, changed)
			}
		}
		if got, want := fork.AppendSpliced(nil, baseRows, changed), fork.AppendSorted(nil); !slices.EqualFunc(got, want, Route.Identical) {
			t.Fatalf("trial %d: AppendSpliced emitted %d rows, AppendSorted %d, or they differ (changed %v)", trial, len(got), len(want), changed)
		}
		if !slices.EqualFunc(base.AppendSorted(nil), baseRows, Route.Identical) {
			t.Fatalf("trial %d: writing the fork modified the base", trial)
		}
	}
}
