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

// refTables is the per-row loop NewRIBSetFromSorted replaced (the set's old
// row-by-row insert through RIB.Add), kept as its reference: each row
// appended to its table's prefix slice in input order.
func refTables(rows []Route) map[[2]string]*RIB {
	m := make(map[[2]string]*RIB)
	for _, r := range rows {
		k := [2]string{r.Device, r.VRF}
		t, ok := m[k]
		if !ok {
			t = NewRIB(r.Device, r.VRF)
			m[k] = t
		}
		t.byPrefix[r.Prefix] = append(t.byPrefix[r.Prefix], r)
	}
	return m
}

func sortedTableKeys(m map[[2]string]*RIB) [][2]string {
	keys := make([][2]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b [2]string) int {
		if c := strings.Compare(a[0], b[0]); c != 0 {
			return c
		}
		return strings.Compare(a[1], b[1])
	})
	return keys
}

// lastAddr returns the highest address p covers.
func lastAddr(p netip.Prefix) netip.Addr {
	b := p.Masked().Addr().AsSlice()
	for i := p.Bits(); i < len(b)*8; i++ {
		b[i/8] |= 0x80 >> (i % 8)
	}
	a, _ := netip.AddrFromSlice(b)
	return a
}

func sortedClone(rows []Route) []Route {
	out := slices.Clone(rows)
	slices.SortFunc(out, CompareRoutes)
	return out
}

// TestRIBSetMatchesPerRowLoop: a set built by reference over the canonical
// merge of 1–5 canonical segments (prefixes shared across segments, duplicate
// rows within and across them, two VRFs, devices absent) holds, table by
// table, what the per-row loop built from the segments in file order: the
// same prefixes, the same rows per prefix as a multiset, the same
// longest-prefix matches. Looking tables up leaves the input rows untouched.
func TestRIBSetMatchesPerRowLoop(t *testing.T) {
	rnd := rand.New(rand.NewSource(21))
	probes := []netip.Addr{netip.MustParseAddr("10.0.0.77"), netip.MustParseAddr("10.0.1.255"),
		netip.MustParseAddr("10.200.0.1"), netip.MustParseAddr("192.168.3.4"), netip.MustParseAddr("172.16.0.1"),
		netip.MustParseAddr("2001:db8::42"), netip.MustParseAddr("2001:db8:1::1"), netip.MustParseAddr("fe80::1")}
	for trial := 0; trial < 200; trial++ {
		segs := make([][]Route, 1+rnd.Intn(5))
		var pool, fileOrder []Route
		for i := range segs {
			for n := rnd.Intn(40); n > 0; n-- {
				r := randRoute(rnd)
				if len(pool) > 0 && rnd.Intn(4) == 0 {
					r = pool[rnd.Intn(len(pool))] // a duplicate, of this segment's rows or another's
				}
				pool = append(pool, r)
				segs[i] = append(segs[i], r)
			}
			slices.SortFunc(segs[i], CompareRoutes)
			fileOrder = append(fileOrder, segs[i]...)
		}
		rows := segs[0]
		if len(segs) > 1 {
			rows = MergeSortedRoutes(segs)
		}
		before := slices.Clone(rows)

		set := NewRIBSetFromSorted(rows)
		ref := refTables(fileOrder)
		if set.Tables() != len(ref) || set.TablesBuilt() != 0 {
			t.Fatalf("trial %d: %d tables (%d built before any lookup), reference %d", trial, set.Tables(), set.TablesBuilt(), len(ref))
		}
		for _, dev := range []string{"d0", "d1", "d10", "d2", "edge-a"} {
			for _, vrf := range []string{DefaultVRF, "vrf1", "vrf-absent"} {
				got := set.RIB(dev, vrf)
				want, ok := ref[[2]string{dev, vrf}]
				if !ok {
					if got.Len() != 0 || got.Device != dev || got.VRF != vrf {
						t.Fatalf("trial %d: absent table %s/%s = %s/%s with %d rows", trial, dev, vrf, got.Device, got.VRF, got.Len())
					}
					continue
				}
				if got.Device != dev || got.VRF != vrf || got.Len() != want.Len() {
					t.Fatalf("trial %d: table %s/%s = %s/%s with %d rows, reference %d", trial, dev, vrf, got.Device, got.VRF, got.Len(), want.Len())
				}
				if !slices.Equal(got.Prefixes(), want.Prefixes()) {
					t.Fatalf("trial %d: %s/%s prefixes %v, reference %v", trial, dev, vrf, got.Prefixes(), want.Prefixes())
				}
				addrs := slices.Clone(probes)
				for _, p := range want.Prefixes() {
					assertSameRows(t, fmt.Sprintf("trial %d: %s/%s %s", trial, dev, vrf, p), sortedClone(got.Routes(p)), sortedClone(want.Routes(p)))
					addrs = append(addrs, p.Masked().Addr(), lastAddr(p))
				}
				for _, a := range addrs {
					gp, gb, gok := got.LongestMatch(a)
					wp, wb, wok := want.LongestMatchScan(a)
					if gok != wok || gp != wp || !slices.EqualFunc(gb, wb, Route.Identical) {
						t.Fatalf("trial %d: %s/%s LongestMatch(%s) = %v %v %v, reference scan %v %v %v", trial, dev, vrf, a, gp, gb, gok, wp, wb, wok)
					}
				}
			}
		}
		if set.TablesBuilt() != len(ref) {
			t.Fatalf("trial %d: %d tables built after looking each up, want %d", trial, set.TablesBuilt(), len(ref))
		}
		assertSameRows(t, fmt.Sprintf("trial %d: input rows after lookups", trial), rows, before)
	}
}

// TestRIBSetConcurrentFirstLookup: goroutines racing to look one table up
// first build it once and all get the same *RIB (run under -race).
func TestRIBSetConcurrentFirstLookup(t *testing.T) {
	var rows []Route
	for i := 0; i < 64; i++ {
		rows = append(rows,
			mkRoute("A", DefaultVRF, fmt.Sprintf("10.%d.0.0/16", i), "1.1.1.1", RouteBest),
			mkRoute("B", DefaultVRF, fmt.Sprintf("10.%d.0.0/16", i), "2.2.2.2", RouteBest))
	}
	slices.SortFunc(rows, CompareRoutes)
	set := NewRIBSetFromSorted(rows)

	start := make(chan struct{})
	got := make([]*RIB, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			got[i] = set.RIB("A", DefaultVRF)
			got[i].LongestMatch(netip.MustParseAddr("10.7.1.1"))
		}(i)
	}
	close(start)
	wg.Wait()
	for i, rib := range got {
		if rib != got[0] {
			t.Fatalf("goroutine %d got a different *RIB", i)
		}
	}
	if got[0].Len() != 64 || set.TablesBuilt() != 1 {
		t.Fatalf("table holds %d rows, %d tables built; want 64 and 1", got[0].Len(), set.TablesBuilt())
	}
}

// TestRIBSetRejectsUncanonicalRows: rows whose table or prefix runs are split
// would silently lose rows in a map built by reference; the set panics.
func TestRIBSetRejectsUncanonicalRows(t *testing.T) {
	a1 := mkRoute("A", DefaultVRF, "10.0.0.0/8", "1.1.1.1", RouteBest)
	a2 := mkRoute("A", DefaultVRF, "10.1.0.0/16", "1.1.1.1", RouteBest)
	b := mkRoute("B", DefaultVRF, "10.0.0.0/8", "1.1.1.1", RouteBest)
	for name, build := range map[string]func(){
		"table split":  func() { NewRIBSetFromSorted([]Route{a1, b, a2}) },
		"prefix split": func() { NewRIBSetFromSorted([]Route{a1, a2, a1}).RIB("A", DefaultVRF) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			build()
		}()
	}
}
