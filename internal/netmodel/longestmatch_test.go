package netmodel

import (
	"fmt"
	"math/rand"
	"net/netip"
	"slices"
	"testing"
)

// lpmPool is the fixed prefix pool FuzzLongestMatch draws keys from: both
// families, masked and unmasked keys, lengths from /0 to /32 and /128, and
// nested prefixes so that a lookup has lengths to fall back through.
func lpmPool() []netip.Prefix {
	var pool []netip.Prefix
	for _, s := range []string{
		"0.0.0.0/0", "10.0.0.0/8", "10.0.0.0/16", "10.0.0.0/24", "10.0.0.1/24", "10.0.0.2/24",
		"10.0.0.1/32", "10.0.0.2/32", "10.1.0.0/16", "10.1.2.3/16", "10.1.2.0/24", "10.255.255.255/32",
		"10.7.0.0/8", "192.168.1.0/24", "192.168.1.128/25", "192.168.1.129/25",
		"::/0", "2001:db8::/32", "2001:db8::/48", "2001:db8::1/48", "2001:db8::1/128", "2001:db8::2/128",
		"2001:db8:0:1::/64", "2001:db8::5/64", "::ffff:10.0.0.0/104", "fe80::/10", "2001:db8:ffff::/47",
	} {
		pool = append(pool, netip.MustParsePrefix(s))
	}
	return pool
}

// lpmAddrs are the addresses FuzzLongestMatch looks up: the first and last
// address of every pool prefix and a few no prefix but /0 covers.
func lpmAddrs(pool []netip.Prefix) []netip.Addr {
	addrs := []netip.Addr{netip.MustParseAddr("11.0.0.1"), netip.MustParseAddr("3fff::1"), netip.MustParseAddr("10.0.0.3")}
	for _, p := range pool {
		addrs = append(addrs, p.Masked().Addr(), lastAddr(p))
	}
	return addrs
}

// collidingTable holds the unmasked collision: 10.0.0.0/24 without a best
// row, 10.0.0.1/24 and 10.0.0.2/24 with one each, so a lookup in 10.0.0.0/24
// must take 10.0.0.1/24.
func collidingTable() *RIB {
	t := NewRIB("A", DefaultVRF)
	for _, c := range []struct {
		p  string
		rt RouteType
	}{{"10.0.0.0/24", RouteCandidate}, {"10.0.0.1/24", RouteBest}, {"10.0.0.2/24", RouteBest}} {
		r := mkRoute("A", DefaultVRF, c.p, "192.0.2.1", c.rt)
		t.Replace(r.Prefix, []Route{r})
	}
	return t
}

// checkMatches checks LongestMatch against the scan at every address on each
// table.
func checkMatches(label string, addrs []netip.Addr, tables ...*RIB) error {
	for i, t := range tables {
		for _, a := range addrs {
			if err := sameMatch(t, a); err != nil {
				return fmt.Errorf("%s, table %d: %w", label, i, err)
			}
		}
	}
	return nil
}

// FuzzLongestMatch decodes three Replace/delete sequences from bytes — each
// pair picks an operation and a pool prefix — and applies the first to a
// plain table holding the colliding /24s, the second to an Overlay of it and
// the third to an overlay of that overlay. After every step LongestMatch must
// equal the scan on the table written and on the frozen ones below it.
func FuzzLongestMatch(f *testing.F) {
	f.Add([]byte{0, 3, 1, 4, 0, 20, 1, 3, 0, 5, 1, 16})
	f.Add([]byte{1, 4, 1, 5, 0, 0, 1, 3, 2, 4, 0, 17, 1, 18, 0, 22})
	f.Add([]byte{0, 0, 0, 16, 1, 0, 1, 16, 0, 7, 1, 11, 0, 24, 1, 25, 0, 26})
	pool := lpmPool()
	addrs := lpmAddrs(pool)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 300 {
			return
		}
		tables := []*RIB{collidingTable()}
		if err := checkMatches("start", addrs, tables...); err != nil {
			t.Fatal(err)
		}
		steps := len(data) / 2
		for i := 0; i < steps; i++ {
			if stage := 3 * i / steps; stage >= len(tables) {
				tables = append(tables, tables[len(tables)-1].Overlay())
			}
			op, p := data[2*i], pool[int(data[2*i+1])%len(pool)]
			rows := randPrefixRows(rand.New(rand.NewSource(int64(op)<<8|int64(data[2*i+1]))), p)
			if op%2 == 1 {
				rows = nil
			}
			tables[len(tables)-1].Replace(p, rows)
			if err := checkMatches(fmt.Sprintf("step %d (op %d at %s)", i, op%2, p), addrs, tables...); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// TestLongestMatchAllocs pins a lookup at zero allocations on a plain table,
// an overlay and a RIBSet table: forwarding looks up every flow at every hop,
// and the probe reads the table's own map, so it has nothing to build. Each
// is built twice: with every prefix's ECMP best rows adjacent in canonical
// order, and interleaved, a candidate's next hop between the two best rows'
// — the layout a table stores them in puts the best rows first either way.
func TestLongestMatchAllocs(t *testing.T) {
	for _, layout := range []struct {
		name string
		nhs  [3]string // best, then ECMP best or candidate, then the other
		rts  [3]RouteType
	}{
		{"adjacent", [3]string{"192.0.2.1", "192.0.2.2", "192.0.2.3"}, [3]RouteType{RouteBest, RouteBest, RouteCandidate}},
		{"interleaved", [3]string{"192.0.2.1", "192.0.2.2", "192.0.2.3"}, [3]RouteType{RouteBest, RouteCandidate, RouteBest}},
	} {
		var rows []Route
		for i := 0; i < 32; i++ {
			for _, s := range []string{"10.%d.0.0/16", "10.%d.1.0/24", "10.%d.1.128/25"} {
				p := fmt.Sprintf(s, i)
				for j := range layout.nhs {
					rows = append(rows, mkRoute("A", DefaultVRF, p, layout.nhs[j], layout.rts[j]))
				}
			}
		}
		rows = append(rows, mkRoute("A", DefaultVRF, "0.0.0.0/0", "192.0.2.9", RouteBest))
		slices.SortFunc(rows, CompareRoutes)
		plain := NewRIB("A", DefaultVRF)
		for lo, hi := 0, 0; lo < len(rows); lo = hi {
			for hi = lo; hi < len(rows) && rows[hi].Prefix == rows[lo].Prefix; hi++ {
			}
			plain.Replace(rows[lo].Prefix, rows[lo:hi])
		}
		overlay := plain.Overlay()
		overlay.Replace(netip.MustParsePrefix("10.3.1.0/24"), nil)
		overlay.Replace(netip.MustParsePrefix("10.4.2.0/24"), []Route{mkRoute("A", DefaultVRF, "10.4.2.0/24", "192.0.2.5", RouteBest)})
		set := NewRIBSetFromSorted(rows).RIB("A", DefaultVRF)
		addrs := []netip.Addr{
			netip.MustParseAddr("10.3.1.200"), // /25
			netip.MustParseAddr("10.3.1.7"),   // /24, or /16 where the overlay deleted it
			netip.MustParseAddr("10.4.2.1"),   // /16, or the overlay's /24
			netip.MustParseAddr("11.0.0.1"),   // /0
			netip.MustParseAddr("2001:db8::1"),
		}
		for name, tb := range map[string]*RIB{"plain": plain, "overlay": overlay, "RIBSet": set} {
			name = layout.name + " " + name
			if err := checkMatches(name, addrs, tb); err != nil {
				t.Fatal(err)
			}
			if _, best, _ := tb.LongestMatch(addrs[0]); len(best) != 2 {
				t.Fatalf("%s: %d best rows for %s, want the ECMP pair", name, len(best), addrs[0])
			}
			if n := testing.AllocsPerRun(100, func() {
				for _, a := range addrs {
					tb.LongestMatch(a)
				}
			}); n != 0 {
				t.Errorf("%s table: %.1f allocations per %d lookups, want 0", name, n, len(addrs))
			}
		}
	}
}

// covers reports whether t's length and alias records hold every key t has.
func covers(t *RIB) error {
	var err error
	t.each(func(p netip.Prefix, _ []Route) {
		lens := t.lens
		if lens.add(p); lens != t.lens {
			err = fmt.Errorf("length record lacks /%d of %s", p.Bits(), p)
		}
		if net := p.Masked(); net != p && !slices.Contains(t.aliases.Get(net), p) {
			err = fmt.Errorf("alias record lacks %s at %s", p, net)
		}
	})
	return err
}

// TestLongestMatchLensSuperset: the records LongestMatch probes by hold every
// key of a table after deletes (which never clear them), through Overlay and
// its writes, and UnionRIBs of one table or several, and an overlay's writes leave the
// records of the table under it as they were.
func TestLongestMatchLensSuperset(t *testing.T) {
	pool := lpmPool()
	rnd := rand.New(rand.NewSource(37))
	base := NewRIB("A", DefaultVRF)
	for _, p := range pool {
		base.Replace(p, randPrefixRows(rnd, p))
	}
	full := base.lens
	for _, p := range pool[:len(pool)/2] {
		base.Replace(p, nil)
	}
	if base.lens != full {
		t.Fatal("a delete cleared the length record")
	}
	if !slices.Contains(base.aliases.Get(netip.MustParsePrefix("10.0.0.0/24")), netip.MustParsePrefix("10.0.0.1/24")) {
		t.Fatal("a delete cleared the alias record")
	}
	o := base.Overlay()
	aliasesBefore := len(base.aliases.Get(netip.MustParsePrefix("10.0.0.0/24")))
	for _, s := range []string{"172.16.0.0/12", "10.0.0.3/24", "2001:db8::7/127"} {
		p := netip.MustParsePrefix(s)
		o.Replace(p, randPrefixRows(rnd, p))
	}
	if base.lens != full || len(base.aliases.Get(netip.MustParsePrefix("10.0.0.0/24"))) != aliasesBefore {
		t.Fatal("writing an overlay changed the records of the table under it")
	}
	half := NewRIB("A", DefaultVRF)
	for _, p := range pool[:len(pool)/2] { // those base deleted: disjoint from o's keys
		half.Replace(p, randPrefixRows(rnd, p))
	}
	for name, tb := range map[string]*RIB{
		"base": base, "overlay": o, "overlay of overlay": o.Overlay(),
		"clone": UnionRIBs([]*RIB{base}), "clone of overlay": UnionRIBs([]*RIB{o}),
		"union": UnionRIBs([]*RIB{o, half}),
	} {
		if err := covers(tb); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if err := checkMatches(name, lpmAddrs(pool), tb); err != nil {
			t.Error(err)
		}
	}
}
