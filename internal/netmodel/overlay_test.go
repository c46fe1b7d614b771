package netmodel

import (
	"fmt"
	"math/rand"
	"net/netip"
	"reflect"
	"slices"
	"sync"
	"testing"
)

// overlayPair is one table branched two ways: o, an Overlay of under, and
// ref, a ShallowClone of it. Every operation goes to both; under must not move.
type overlayPair struct {
	under  *RIB
	snap   map[netip.Prefix][]Route // deep copy of under's rows
	sorted []netip.Prefix           // under.Prefixes() before any branch
	o, ref *RIB
}

func newOverlayPair(under *RIB) *overlayPair {
	snap := make(map[netip.Prefix][]Route, len(under.byPrefix))
	for p, rows := range under.byPrefix {
		snap[p] = slices.Clone(rows)
	}
	return &overlayPair{under: under, snap: snap, sorted: slices.Clone(under.Prefixes()), o: under.Overlay(), ref: under.ShallowClone()}
}

// apply runs one operation on both tables: op%4 is 0 a Replace, 1 a delete,
// 2 a ReplaceOwned and 3 a re-branch (Overlay of the overlay, ShallowClone of
// the clone).
func (pr *overlayPair) apply(op byte, p netip.Prefix, rows []Route) {
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

// check compares every reader of the overlay with the clone's, longest match
// against the index-free scan at addrs, and under with its snapshot.
func (pr *overlayPair) check(label string, pool []netip.Prefix, addrs []netip.Addr) error {
	o, ref := pr.o, pr.ref
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
	if !reflect.DeepEqual(pr.under.byPrefix, pr.snap) || !slices.Equal(pr.under.Prefixes(), pr.sorted) {
		return fmt.Errorf("%s: writing the overlay changed the table under it", label)
	}
	return nil
}

// checkPatch gives the overlay under's index patched at every prefix it
// writes, and checks longest match against the clone's scan again.
func (pr *overlayPair) checkPatch(label string, addrs []netip.Addr) error {
	pr.under.LongestMatch(netip.IPv4Unspecified()) // an index to carry forward
	var written []netip.Prefix
	for p := range pr.o.byPrefix {
		written = append(written, p)
	}
	pr.o.PatchLPM(pr.under, written)
	if ix := pr.o.lpm.Load(); ix == nil || ix.under == nil {
		return fmt.Errorf("%s: PatchLPM left no patched index", label)
	}
	for _, a := range addrs {
		gp, gb, gok := pr.o.LongestMatch(a)
		wp, wb, wok := pr.ref.LongestMatchScan(a)
		if gok != wok || gp != wp || !slices.EqualFunc(gb, wb, Route.Identical) {
			return fmt.Errorf("%s: patched LongestMatch(%s) = %v %v, clone scan %v %v", label, a, gp, gok, wp, wok)
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
// Routes, Best, Prefixes, Len, AppendSorted, LongestMatch (built and patched)
// against the scan — and the table under the overlay as it was.
func TestOverlayMatchesShallowClone(t *testing.T) {
	rnd := rand.New(rand.NewSource(21))
	for trial := 0; trial < 200; trial++ {
		under := randTable(rnd, rnd.Intn(30), true)
		if trial%3 == 0 {
			under.Prefixes() // a memo the overlay may share
		}
		pr := newOverlayPair(under)
		var pool []netip.Prefix
		for i := 0; i < 6; i++ {
			pool = append(pool, randPrefix(rnd, true))
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
		if err := pr.checkPatch(fmt.Sprintf("trial %d", trial), addrs); err != nil {
			t.Fatal(err)
		}
	}
}

// TestOverlaysShareUnderConcurrently: eight overlays of one table written and
// read at once — each its own random sequence, LongestMatch building and
// patching indexes, Prefixes memoizing — while the table under them is read
// too (run under -race): every overlay matches its clone, and the table is
// unchanged.
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
				if err := pr.checkPatch(fmt.Sprintf("trial %d overlay %d", trial, i), addrs); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
	}
}

// FuzzOverlayRIB decodes an operation sequence from bytes — the first byte
// sizes the table under, each later pair picks an operation and a prefix of a
// fixed pool — and checks the overlay against a ShallowClone after every step.
func FuzzOverlayRIB(f *testing.F) {
	f.Add([]byte{5, 0, 1, 1, 2, 3, 0, 2, 7})
	f.Add([]byte{12, 1, 0, 1, 0, 0, 0, 3, 3, 1, 5, 2, 11, 0, 20})
	f.Add([]byte{0, 0, 4, 1, 4, 0, 4, 3, 0, 1, 4})
	pool := make([]netip.Prefix, 24)
	prnd := rand.New(rand.NewSource(23))
	for i := range pool {
		pool[i] = randPrefix(prnd, true)
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
		if err := pr.checkPatch("end", addrs); err != nil {
			t.Fatal(err)
		}
	})
}
