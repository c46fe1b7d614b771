package netmodel

import (
	"fmt"
	"maps"
	"math/rand"
	"net/netip"
	"reflect"
	"slices"
	"sync"
	"testing"
)

// overlayPair is one table branched two ways: o, an Overlay of under, and
// ref, a ShallowClone of it. Every operation goes to both; under must not move.
// The same operations go to two Layers laid over maps drawn from under's
// rows, each against a plain map (layerPair).
type overlayPair struct {
	under  *RIB
	snap   map[netip.Prefix][]Route // deep copy of under's rows
	sorted []netip.Prefix           // under.Prefixes() before any branch
	o, ref *RIB
	str    *layerPair[string]
	flag   *layerPair[bool]
}

// strOf and flagOf draw a layer value from rows, the zero value included.
func strOf(rows []Route) string {
	if len(rows) == 0 || rows[0].Attr().MED%3 == 0 {
		return ""
	}
	return fmt.Sprint(rows[0].Attr().MED)
}

func flagOf(rows []Route) bool { return len(rows) > 0 && rows[0].RouteType == RouteBest }

func newOverlayPair(under *RIB) *overlayPair {
	snap := make(map[netip.Prefix][]Route, under.byPrefix.OwnLen())
	under.each(func(p netip.Prefix, rows []Route) { snap[p] = slices.Clone(rows) })
	return &overlayPair{under: under, snap: snap, sorted: slices.Clone(under.Prefixes()), o: under.Overlay(), ref: under.ShallowClone(),
		str: newLayerPair(snap, strOf), flag: newLayerPair(snap, flagOf)}
}

// apply runs one operation on both tables: op%4 is 0 a Replace, 1 a delete,
// 2 a ReplaceOwned and 3 a re-branch (Overlay of the overlay, ShallowClone of
// the clone). On the layers they are a Set, a Delete, a Set of the zero
// value and an Over of the Over.
func (pr *overlayPair) apply(op byte, p netip.Prefix, rows []Route) {
	pr.str.apply(op, p, strOf(rows))
	pr.flag.apply(op, p, flagOf(rows))
	switch op % 4 {
	case 0:
		pr.o.Replace(p, rows)
		pr.ref.Replace(p, rows)
	case 1:
		pr.o.Replace(p, nil)
		pr.ref.Replace(p, nil)
	case 2:
		pr.o.ReplaceOwned(p, slices.Clone(rows))
		pr.ref.ReplaceOwned(p, slices.Clone(rows))
	case 3:
		pr.o, pr.ref = pr.o.Overlay(), pr.ref.ShallowClone()
		if pr.o.under != pr.under {
			panic("overlay of an overlay does not read through to the same table")
		}
	}
}

// layerPair is a Layer laid over a frozen plain one, under, and the plain map
// it must read as, ref. Every operation goes to both; under must not move.
type layerPair[V comparable] struct {
	under Layer[netip.Prefix, V]
	snap  map[netip.Prefix]V
	l     Layer[netip.Prefix, V]
	ref   map[netip.Prefix]V
	// written holds every key an operation named.
	written map[netip.Prefix]bool
	// branched is the layer the last Over was taken of, which must go on
	// reading as branchedRef however the new one is written.
	branched    *Layer[netip.Prefix, V]
	branchedRef map[netip.Prefix]V
}

func newLayerPair[V comparable](rows map[netip.Prefix][]Route, val func([]Route) V) *layerPair[V] {
	lp := &layerPair[V]{under: NewLayer[netip.Prefix, V](len(rows)), snap: make(map[netip.Prefix]V), ref: make(map[netip.Prefix]V), written: make(map[netip.Prefix]bool)}
	for p, rs := range rows {
		lp.under.Set(p, val(rs))
		lp.snap[p], lp.ref[p] = val(rs), val(rs)
	}
	lp.l = lp.under.Over()
	return lp
}

func (lp *layerPair[V]) apply(op byte, p netip.Prefix, v V) {
	var zero V
	lp.written[p] = true
	switch op % 4 {
	case 0:
		lp.l.Set(p, v)
		lp.ref[p] = v
	case 1:
		lp.l.Delete(p)
		delete(lp.ref, p)
	case 2:
		lp.l.Set(p, zero) // hides under's entry, zero or not
		lp.ref[p] = zero
	case 3:
		old := lp.l
		lp.branched, lp.branchedRef = &old, maps.Clone(lp.ref)
		lp.l = lp.l.Over()
		if reflect.ValueOf(lp.l.under).UnsafePointer() != reflect.ValueOf(lp.under.own).UnsafePointer() {
			panic("layer over a layer does not read through to the same map")
		}
	}
}

// check compares every read of the layer with the plain map's: Get and Lookup
// at pool and under's keys, and All, which visits each key once. Its own
// entries are at most the keys written, and under holds what it held.
func (lp *layerPair[V]) check(label string, pool []netip.Prefix) error {
	var zero V
	keys := slices.Clone(pool)
	for p := range lp.snap {
		keys = append(keys, p)
	}
	for _, p := range keys {
		v, mine := lp.l.Lookup(p)
		if v != lp.ref[p] || lp.l.Get(p) != v {
			return fmt.Errorf("%s: layer Get(%s) = %v, plain map %v", label, p, v, lp.ref[p])
		}
		if !mine && v != lp.snap[p] {
			return fmt.Errorf("%s: layer Lookup(%s) = %v not its own, under holds %v", label, p, v, lp.snap[p])
		}
	}
	seen := make(map[netip.Prefix]V)
	var twice error
	lp.l.All(func(p netip.Prefix, v V) {
		if _, dup := seen[p]; dup {
			twice = fmt.Errorf("%s: layer All visits %s twice", label, p)
		}
		seen[p] = v
	})
	if twice != nil {
		return twice
	}
	for p, v := range lp.ref {
		if got, ok := seen[p]; !ok || got != v {
			return fmt.Errorf("%s: layer All gives %s %v (visited %v), plain map %v", label, p, got, ok, v)
		}
	}
	for p, v := range seen {
		if _, ok := lp.ref[p]; !ok && v != zero {
			return fmt.Errorf("%s: layer All gives %s %v, which the plain map lacks", label, p, v)
		}
	}
	if lp.l.OwnLen() > len(lp.written) || lp.l.Bound() < len(lp.ref) {
		return fmt.Errorf("%s: layer holds %d own entries for %d keys written, bound %d for %d entries", label, lp.l.OwnLen(), len(lp.written), lp.l.Bound(), len(lp.ref))
	}
	if !maps.Equal(lp.under.own, lp.snap) {
		return fmt.Errorf("%s: writing the layer changed the one under it", label)
	}
	for _, p := range keys {
		if lp.branched != nil && lp.branched.Get(p) != lp.branchedRef[p] {
			return fmt.Errorf("%s: writing a layer changed the one it was branched from at %s", label, p)
		}
	}
	return nil
}

// check compares every reader of the overlay with the clone's, longest match
// against the scan at addrs, and under with its snapshot.
func (pr *overlayPair) check(label string, pool []netip.Prefix, addrs []netip.Addr) error {
	o, ref := pr.o, pr.ref
	if err := pr.str.check(label, pool); err != nil {
		return err
	}
	if err := pr.flag.check(label, pool); err != nil {
		return err
	}
	if got, want := o.Prefixes(), ref.Prefixes(); !slices.Equal(got, want) {
		return fmt.Errorf("%s: Prefixes = %v, clone %v", label, got, want)
	}
	if o.Len() != ref.Len() {
		return fmt.Errorf("%s: Len = %d, clone %d", label, o.Len(), ref.Len())
	}
	for _, p := range slices.Concat(pool, pr.sorted) {
		if !slices.EqualFunc(o.Routes(p), ref.Routes(p), Route.Identical) || !slices.EqualFunc(o.Best(p), ref.Best(p), Route.Identical) {
			return fmt.Errorf("%s: Routes/Best(%s) = %v, clone %v", label, p, o.Routes(p), ref.Routes(p))
		}
	}
	if got, want := o.AppendSorted(nil), ref.AppendSorted(nil); !slices.EqualFunc(got, want, Route.Identical) {
		return fmt.Errorf("%s: AppendSorted emitted %d rows, clone %d, or they differ", label, len(got), len(want))
	}
	for _, a := range addrs {
		gp, gb, gok := o.LongestMatch(a)
		wp, wb, wok := ref.LongestMatchScan(a)
		sp, sb, sok := o.LongestMatchScan(a)
		if gok != wok || gp != wp || !slices.EqualFunc(gb, wb, Route.Identical) ||
			sok != wok || sp != wp || !slices.EqualFunc(sb, wb, Route.Identical) {
			return fmt.Errorf("%s: LongestMatch(%s) = %v %v, overlay scan %v %v, clone scan %v %v", label, a, gp, gok, sp, sok, wp, wok)
		}
	}
	return pr.checkUnder(label)
}

func (pr *overlayPair) checkUnder(label string) error {
	if !reflect.DeepEqual(pr.under.byPrefix.own, pr.snap) || !slices.Equal(pr.under.Prefixes(), pr.sorted) {
		return fmt.Errorf("%s: writing the overlay changed the table under it", label)
	}
	return nil
}

// checkMatch checks longest match against the scan at addrs on the overlay,
// on an overlay of it and on the table under it — what a fork, a fork of that
// fork and the base answer their flows with — and under with its snapshot.
func (pr *overlayPair) checkMatch(label string, addrs []netip.Addr) error {
	for _, t := range []*RIB{pr.o, pr.o.Overlay(), pr.under} {
		for _, a := range addrs {
			if err := sameMatch(t, a); err != nil {
				return fmt.Errorf("%s: %s/%s: %w", label, t.Device, t.VRF, err)
			}
		}
	}
	return pr.checkUnder(label)
}

func randAddrs(rnd *rand.Rand, n int) []netip.Addr {
	out := make([]netip.Addr, n)
	for i := range out {
		out[i] = netip.AddrFrom4([4]byte{10, byte(rnd.Intn(4)), byte(rnd.Intn(4) << 4), byte(rnd.Intn(4))})
	}
	return out
}

// TestOverlayMatchesShallowClone: 200 random sequences of replaces, deletes,
// new prefixes, deletes of new prefixes and re-branches, applied to an
// Overlay and to a ShallowClone of one table, leave every reader agreeing —
// Routes, Best, Prefixes, Len, AppendSorted, LongestMatch against the scan,
// on masked tables and on a quarter with unmasked prefixes — and the table
// under the overlay as it was. The string and bool Layers fed the same
// operations read as their plain maps.
func TestOverlayMatchesShallowClone(t *testing.T) {
	rnd := rand.New(rand.NewSource(21))
	for trial := 0; trial < 200; trial++ {
		masked := trial%4 != 3
		under := randTable(rnd, rnd.Intn(30), masked)
		if trial%3 == 0 {
			under.Prefixes() // a memo the overlay may share
		}
		pr := newOverlayPair(under)
		var pool []netip.Prefix
		for i := 0; i < 6; i++ {
			pool = append(pool, randPrefix(rnd, masked))
		}
		addrs := randAddrs(rnd, 40)
		for step, n := 0, rnd.Intn(20); step < n; step++ {
			p := pool[rnd.Intn(len(pool))]
			if ps := under.Prefixes(); rnd.Intn(2) == 0 && len(ps) > 0 {
				p = ps[rnd.Intn(len(ps))]
			}
			op := byte(rnd.Intn(4))
			if op == 3 && rnd.Intn(3) > 0 {
				op = byte(rnd.Intn(3)) // re-branch less often
			}
			pr.apply(op, p, randPrefixRows(rnd, p))
			if err := pr.check(fmt.Sprintf("trial %d step %d (op %d at %s)", trial, step, op, p), pool, addrs); err != nil {
				t.Fatal(err)
			}
		}
		if err := pr.checkMatch(fmt.Sprintf("trial %d", trial), addrs); err != nil {
			t.Fatal(err)
		}
	}
}

// TestOverlaysShareUnderConcurrently: eight overlays of one table written and
// read at once — each its own random sequence, LongestMatch probing through
// to the shared table, Prefixes memoizing — while the table under them is
// read too (run under -race): every overlay matches its clone, and the table
// is unchanged.
func TestOverlaysShareUnderConcurrently(t *testing.T) {
	rnd := rand.New(rand.NewSource(22))
	for trial := 0; trial < 10; trial++ {
		under := randTable(rnd, 40, true)
		pairs := make([]*overlayPair, 8)
		seeds := make([]int64, len(pairs))
		for i := range pairs {
			pairs[i] = newOverlayPair(under)
			seeds[i] = rnd.Int63()
		}
		var wg sync.WaitGroup
		for i, pr := range pairs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				r := rand.New(rand.NewSource(seeds[i]))
				addrs := randAddrs(r, 20)
				ps := under.Prefixes()
				for step := 0; step < 12; step++ {
					p := randPrefix(r, true)
					if r.Intn(2) == 0 {
						p = ps[r.Intn(len(ps))]
					}
					pr.apply(byte(r.Intn(4)), p, randPrefixRows(r, p))
					under.LongestMatch(addrs[step])
					if err := pr.check(fmt.Sprintf("trial %d overlay %d step %d", trial, i, step), nil, addrs); err != nil {
						t.Error(err)
						return
					}
				}
				if err := pr.checkMatch(fmt.Sprintf("trial %d overlay %d", trial, i), addrs); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
	}
}

// FuzzOverlayRIB decodes an operation sequence from bytes — the first byte
// sizes the table under, each later pair picks an operation and a prefix of a
// fixed pool, its odd prefixes unmasked — and checks the overlay against a
// ShallowClone after every step.
func FuzzOverlayRIB(f *testing.F) {
	f.Add([]byte{5, 0, 1, 1, 2, 3, 0, 2, 7})
	f.Add([]byte{12, 1, 0, 1, 0, 0, 0, 3, 3, 1, 5, 2, 11, 0, 20})
	f.Add([]byte{0, 0, 4, 1, 4, 0, 4, 3, 0, 1, 4})
	pool := make([]netip.Prefix, 24)
	prnd := rand.New(rand.NewSource(23))
	for i := range pool {
		pool[i] = randPrefix(prnd, i%2 == 0)
	}
	addrs := randAddrs(prnd, 32)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 256 {
			return
		}
		under := NewRIB("A", DefaultVRF)
		for i := 0; i < int(data[0])%len(pool); i++ {
			p := pool[i]
			under.Replace(p, randPrefixRows(rand.New(rand.NewSource(int64(i))), p))
		}
		pr := newOverlayPair(under)
		for i := 1; i+1 < len(data); i += 2 {
			op, p := data[i], pool[int(data[i+1])%len(pool)]
			pr.apply(op, p, randPrefixRows(rand.New(rand.NewSource(int64(op)<<8|int64(data[i+1]))), p))
			if err := pr.check(fmt.Sprintf("step %d (op %d at %s)", i/2, op%4, p), pool, addrs); err != nil {
				t.Fatal(err)
			}
		}
		if err := pr.checkMatch("end", addrs); err != nil {
			t.Fatal(err)
		}
	})
}
