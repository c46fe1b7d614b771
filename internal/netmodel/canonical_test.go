package netmodel

import (
	"bytes"
	"cmp"
	"math/rand"
	"net/netip"
	"slices"
	"strings"
	"testing"
)

// randRoute draws a row from domains small enough that key ties (rows equal
// under CompareRouteKeys that differ in attributes) and fully identical rows
// are both common: device names that prefix each other, two VRFs, IPv4 and
// IPv6 prefixes sharing addresses at different lengths.
func randRoute(rnd *rand.Rand) Route {
	devs := []string{"d1", "d10", "d2", "edge-a"}
	vrfs := []string{DefaultVRF, "vrf1"}
	prefixes := []string{"10.0.0.0/8", "10.0.0.0/24", "10.0.1.0/24", "192.168.0.0/16", "2001:db8::/32", "2001:db8::/48", "::/0"}
	hops := []string{"1.1.1.1", "1.1.1.2", "2001:db8::1"}
	r := Route{
		Device:    devs[rnd.Intn(len(devs))],
		VRF:       vrfs[rnd.Intn(len(vrfs))],
		Prefix:    netip.MustParsePrefix(prefixes[rnd.Intn(len(prefixes))]),
		Protocol:  []Protocol{ProtoBGP, ProtoStatic}[rnd.Intn(2)],
		NextHop:   netip.MustParseAddr(hops[rnd.Intn(len(hops))]),
		RouteType: []RouteType{RouteBest, RouteCandidate}[rnd.Intn(2)],
		Peer:      []string{"", "p1"}[rnd.Intn(2)],
	}
	a := Attrs{MED: uint32(rnd.Intn(2)), LocalPref: 100}
	for c := 0; c < rnd.Intn(3); c++ {
		a.Communities = a.Communities.Add(NewCommunity(65000, uint16(rnd.Intn(3))))
	}
	for i := 0; i < rnd.Intn(3); i++ {
		a.ASPath = a.ASPath.Prepend(ASN(65100 + rnd.Intn(2)))
	}
	r.SetAttrs(&a)
	return r
}

// refCompare is the canonical order written out independently of
// CompareRoutes: the key columns, then the signature bytes.
func refCompare(a, b Route) int {
	if c := strings.Compare(a.Device, b.Device); c != 0 {
		return c
	}
	if c := strings.Compare(a.VRF, b.VRF); c != 0 {
		return c
	}
	if c := a.Prefix.Addr().Compare(b.Prefix.Addr()); c != 0 {
		return c
	}
	if c := a.Prefix.Bits() - b.Prefix.Bits(); c != 0 {
		return c
	}
	if c := int(a.Protocol) - int(b.Protocol); c != 0 {
		return c
	}
	if c := a.NextHop.Compare(b.NextHop); c != 0 {
		return c
	}
	if c := int(a.RouteType) - int(b.RouteType); c != 0 {
		return c
	}
	if c := strings.Compare(a.Peer, b.Peer); c != 0 {
		return c
	}
	return bytes.Compare(a.AppendSignature(nil), b.AppendSignature(nil))
}

// refGlobalRows is the concat-and-sort construction the sorted-by-construction
// paths replaced, kept here as their reference.
func refGlobalRows(rows []Route) []Route {
	out := slices.Clone(rows)
	slices.SortFunc(out, refCompare)
	return out
}

func assertSameRows(t *testing.T, label string, got, want []Route) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", label, len(got), len(want))
	}
	for i := range got {
		if !got[i].Identical(want[i]) {
			t.Fatalf("%s: row %d = %v, want %v", label, i, got[i], want[i])
		}
	}
}

// TestCompareRoutesTotalOrder: the canonical order is total — only Identical
// rows compare equal — and breaks key ties by signature bytes.
func TestCompareRoutesTotalOrder(t *testing.T) {
	rnd := rand.New(rand.NewSource(11))
	ties := 0
	for i := 0; i < 20000; i++ {
		a, b := randRoute(rnd), randRoute(rnd)
		got := CompareRoutes(a, b)
		if cmp.Compare(got, 0) != cmp.Compare(refCompare(a, b), 0) {
			t.Fatalf("CompareRoutes(%v, %v) = %d, reference %d", a, b, got, refCompare(a, b))
		}
		if cmp.Compare(got, 0) != cmp.Compare(0, CompareRoutes(b, a)) {
			t.Fatalf("CompareRoutes not antisymmetric on %v, %v", a, b)
		}
		if (got == 0) != a.Identical(b) {
			t.Fatalf("CompareRoutes(%v, %v) = %d but Identical = %v", a, b, got, a.Identical(b))
		}
		if CompareRouteKeys(a, b) == 0 && got != 0 {
			ties++
		}
	}
	if ties == 0 {
		t.Fatal("fixture produced no key ties; the tie-break went untested")
	}
}

// TestAppendSortedMatchesFullSort: for randomized table sets (key ties,
// duplicates, IPv4+IPv6, several VRFs, empty tables), emitting each table
// through AppendSorted in (device, VRF) order, under one Emission of them all,
// yields positionally the rows a
// full sort of the concatenation yields, in CompareRoutes order.
func TestAppendSortedMatchesFullSort(t *testing.T) {
	rnd := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		var all []Route
		for n := rnd.Intn(60); n > 0; n-- {
			all = append(all, randRoute(rnd))
		}
		tables := refTables(all)
		tables[[2]string{"d0", DefaultVRF}] = NewRIB("d0", DefaultVRF) // an empty table
		keys := sortedTableKeys(tables)
		ribs := make([]*RIB, len(keys))
		for i, k := range keys {
			ribs[i] = tables[k]
		}
		em := NewEmission(ribs, nil)
		var got []Route
		for _, t := range ribs {
			got = t.AppendSorted(got, em)
		}
		assertSameRows(t, "AppendSorted over tables", got, refGlobalRows(all))
		assertSameRows(t, "NewGlobalRIB", NewGlobalRIB(all).Rows(), got)
		if !slices.IsSortedFunc(got, CompareRoutes) {
			t.Fatalf("trial %d: rows not in CompareRoutes order", trial)
		}
	}
}

// FuzzMergeSortedRoutes: merging sorted segments reproduces the full sort of
// their concatenation, whether segments hold disjoint devices (long runs),
// interleave row by row, or repeat each other's rows
// (fleet route subtasks), and dropping adjacent Identical rows afterwards
// equals sort-then-dedupe.
func FuzzMergeSortedRoutes(f *testing.F) {
	for seed := int64(0); seed < 40; seed++ {
		f.Add(seed, uint8(1+seed%6), uint8(seed*7%90), seed%3 == 0)
	}
	f.Fuzz(func(t *testing.T, seed int64, nseg, rowsPerSeg uint8, disjoint bool) {
		rnd := rand.New(rand.NewSource(seed))
		segs := make([][]Route, nseg%8)
		var all []Route
		for i := range segs {
			for n := rnd.Intn(int(rowsPerSeg) + 1); n > 0; n-- {
				r := randRoute(rnd)
				if disjoint {
					r.Device += string(rune('a' + i))
				} else if len(all) > 0 && rnd.Intn(4) == 0 {
					r = all[rnd.Intn(len(all))] // a row another segment (or this one) holds too
				}
				segs[i] = append(segs[i], r)
				all = append(all, r)
			}
			slices.SortFunc(segs[i], CompareRoutes)
		}
		want := refGlobalRows(all)
		got := MergeSortedRoutes(segs)
		assertSameRows(t, "merge", got, want)

		seen := make(map[string]bool)
		var deduped []Route
		for _, r := range want {
			if sig := string(r.AppendSignature(nil)); !seen[sig] {
				seen[sig] = true
				deduped = append(deduped, r)
			}
		}
		assertSameRows(t, "merge + adjacent dedupe", slices.CompactFunc(got, Route.Identical), deduped)
	})
}

// appendSorted emits t alone, unexpanded: its canonical rows.
func appendSorted(dst []Route, t *RIB) []Route {
	return t.AppendSorted(dst, NewEmission([]*RIB{t}, nil))
}
