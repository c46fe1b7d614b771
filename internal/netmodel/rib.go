package netmodel

import (
	"cmp"
	"encoding/binary"
	"math/bits"
	"net/netip"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// RIB is the routing table of a single (device, vrf) pair: all candidate and
// best routes keyed by prefix.
//
// A table is either plain, holding every row itself, or an overlay (Overlay):
// its prefix map is a Layer over the map of a frozen plain table, under, and
// holds only the overlay's own writes.
type RIB struct {
	Device string
	VRF    string
	// byPrefix holds route rows per prefix in deterministic order. A plain
	// table holds no prefix without rows; in an overlay, an own entry without
	// rows hides a prefix under holds.
	byPrefix Layer[netip.Prefix, []Route]
	// under is the table an overlay reads through to; nil in a plain table. It
	// is always plain (overlays stay one level deep) and never written while
	// an overlay reads it.
	under *RIB
	// keysMoved counts, in an overlay, the prefixes it holds and under lacks
	// plus those under holds and it deletes: zero means under's key set.
	keysMoved int
	// lens and aliases are what LongestMatch probes by. lens records every
	// prefix length the table has held a key at; aliases, per masked network,
	// the keys at it that are not their own masked network (10.0.0.1/24 at
	// 10.0.0.0/24), sorted. Both only grow: a delete leaves them a superset of
	// the keys, which costs a lookup a wasted probe and nothing else. An
	// overlay starts from under's and writes its own copies.
	lens    prefixLens
	aliases Layer[netip.Prefix, []netip.Prefix]
	// sorted memoizes Prefixes(). Only a mutation that changes the key set
	// (a new prefix or a delete) clears it, so the aggregate refreshes of a
	// fixpoint round and every emitter of a converged table share one sort.
	// Atomic because concurrent forks read base tables.
	// An overlay whose key set is under's uses under's instead.
	sorted atomic.Pointer[[]netip.Prefix]
}

// NewRIB creates an empty RIB for device/vrf.
func NewRIB(device, vrf string) *RIB {
	return NewRIBSized(device, vrf, 0)
}

// NewRIBSized is NewRIB with a capacity hint for the expected number of
// prefixes, avoiding incremental map growth when the caller already knows
// roughly how many prefixes the table will hold.
func NewRIBSized(device, vrf string, hint int) *RIB {
	return &RIB{Device: device, VRF: vrf, byPrefix: NewLayer[netip.Prefix, []Route](hint)}
}

// Grow gives the table room for n more prefixes, rehashing its prefix map
// once instead of doubling it as they are inserted: a plain table's, or the
// own map of an overlay about to take n writes.
func (t *RIB) Grow(n int) { t.byPrefix.Grow(n) }

// rows is the one read of a single prefix's rows.
func (t *RIB) rows(p netip.Prefix) []Route { return t.byPrefix.Get(p) }

// each calls fn once per prefix the table holds, with its rows, in no
// particular order.
func (t *RIB) each(fn func(p netip.Prefix, rows []Route)) {
	t.byPrefix.All(func(p netip.Prefix, rs []Route) {
		if len(rs) > 0 {
			fn(p, rs)
		}
	})
}

// Replace substitutes all rows for prefix with rs, which may be shared with
// other tables and their readers: rs is installed as it is when it already
// has the table's layout (its device and VRF, bestFirst), and as a copy
// moved into it otherwise. Nobody may modify rs afterwards.
func (t *RIB) Replace(prefix netip.Prefix, rs []Route) {
	if !slices.ContainsFunc(rs, func(r Route) bool { return r.Device != t.Device || r.VRF != t.VRF }) && bestFirst(rs) {
		t.install(prefix, rs)
		return
	}
	rows := make([]Route, len(rs))
	copy(rows, rs)
	t.ReplaceOwned(prefix, rows)
}

// ReplaceOwned is Replace for callers that hand over ownership of rs: the
// slice is installed in place (Device/VRF forced, best rows moved first,
// bestFirst) instead of being copied. The caller must not retain or modify rs
// afterwards. This is the allocation-free install path of the indexed BGP
// decision loop.
func (t *RIB) ReplaceOwned(prefix netip.Prefix, rs []Route) {
	for i := range rs {
		rs[i].Device, rs[i].VRF = t.Device, t.VRF
	}
	orderBest(rs)
	t.install(prefix, rs)
}

// install writes p's rows, which have the table's layout.
func (t *RIB) install(prefix netip.Prefix, rs []Route) {
	if t.under == nil {
		n := t.byPrefix.OwnLen()
		t.put(prefix, rs)
		t.invalidate(t.byPrefix.OwnLen() != n)
		return
	}
	was, is := len(t.rows(prefix)) > 0, len(rs) > 0
	t.put(prefix, rs)
	if is != was {
		if below := len(t.under.rows(prefix)) > 0; is != below {
			t.keysMoved++
		} else {
			t.keysMoved--
		}
	}
	t.invalidate(is != was)
}

// put writes p's rows, which are bestFirst; no rows delete p. It is the one
// insert of a key, so the one place LongestMatch's records learn of it.
func (t *RIB) put(p netip.Prefix, rs []Route) {
	if len(rs) == 0 {
		t.byPrefix.Delete(p)
		return
	}
	t.byPrefix.Set(p, rs)
	if !p.IsValid() {
		return
	}
	t.lens.add(p)
	if net := p.Masked(); net != p {
		as := t.aliases.Get(net)
		if i, found := slices.BinarySearchFunc(as, p, comparePrefix); !found {
			t.aliases.Set(net, slices.Insert(slices.Clip(as), i, p)) // under's slice stays as it was
		}
	}
}

// Overlay returns a table that reads through to t and stores only its own
// writes, so branching a converged table costs what the branch changes, not
// a copy of its prefix map. t must not be written while the overlay is in
// use; any number of overlays may read it at once. The overlay of an overlay
// reads through to the same plain table and copies only the other's writes.
func (t *RIB) Overlay() *RIB {
	under := t.under
	if under == nil {
		under = t
	}
	return &RIB{Device: t.Device, VRF: t.VRF, byPrefix: t.byPrefix.Over(), under: under, keysMoved: t.keysMoved,
		lens: t.lens, aliases: t.aliases.Over()}
}

// Changed returns the prefixes whose rows t's own writes moved off the table
// it overlays — those whose own rows are not Identical, in stored order, to
// under's — or nil when there are none. In a plain table that is every
// prefix. It costs O(own writes).
func (t *RIB) Changed() map[netip.Prefix]bool {
	var out map[netip.Prefix]bool
	for p, rs := range t.byPrefix.own {
		if t.under != nil && slices.EqualFunc(rs, t.under.rows(p), Route.Identical) {
			continue
		}
		if out == nil {
			out = make(map[netip.Prefix]bool, t.byPrefix.OwnLen())
		}
		out[p] = true
	}
	return out
}

// ShallowClone returns a plain RIB with a fresh prefix map sharing the row
// slices. Safe as long as every writer installs fresh slices (Replace does).
// It copies every prefix; a branch that rewrites only some takes an Overlay.
func (t *RIB) ShallowClone() *RIB {
	cp := UnionRIBs([]*RIB{t})
	if t.under == nil {
		cp.sorted.Store(t.sorted.Load()) // same key set
	}
	return cp
}

// UnionRIBs returns one table holding every part's prefixes, sharing their
// row slices like ShallowClone. The parts are tables of the same (device,
// VRF) over disjoint prefix sets: the per-unit results of the parallel BGP
// fixpoint.
func UnionRIBs(parts []*RIB) *RIB {
	n := 0
	for _, t := range parts {
		n += t.byPrefix.Bound()
	}
	out := NewRIBSized(parts[0].Device, parts[0].VRF, n)
	for _, t := range parts {
		t.each(out.put)
	}
	return out
}

// Routes returns the rows for prefix, best rows first (shared slice; callers
// must not modify).
func (t *RIB) Routes(prefix netip.Prefix) []Route {
	return t.rows(prefix)
}

// Best returns the best (selected) routes for prefix; multiple rows when
// ECMP applies.
func (t *RIB) Best(prefix netip.Prefix) []Route {
	var out []Route
	for _, r := range t.rows(prefix) {
		if r.RouteType == RouteBest {
			out = append(out, r)
		}
	}
	return out
}

// Prefixes returns all prefixes in deterministic order. The slice is
// memoized and shared; callers must not modify it. An overlay with under's
// key set returns under's.
func (t *RIB) Prefixes() []netip.Prefix {
	if t.under != nil && t.keysMoved == 0 {
		return t.under.Prefixes()
	}
	if memo := t.sorted.Load(); memo != nil {
		return *memo
	}
	out := make([]netip.Prefix, 0, t.byPrefix.Bound())
	t.each(func(p netip.Prefix, _ []Route) { out = append(out, p) })
	slices.SortFunc(out, comparePrefix)
	t.sorted.Store(&out)
	return out
}

// Len returns the total number of route rows.
func (t *RIB) Len() int {
	n := 0
	t.each(func(_ netip.Prefix, rs []Route) { n += len(rs) })
	return n
}

// All returns every row in canonical order.
func (t *RIB) All() []Route {
	return t.AppendSorted(make([]Route, 0, t.Len()))
}

// AppendSorted appends every row of the table to dst in canonical
// (CompareRoutes) order and returns the extended slice: prefixes in order,
// and within a prefix only that prefix's few rows are sorted, in place in
// dst. It is the one emitter behind every global RIB: tables hold disjoint
// (device, VRF) blocks, so appending them in (device, VRF) order yields a
// globally sorted RIB with no sort over the whole.
func (t *RIB) AppendSorted(dst []Route) []Route {
	for _, p := range t.Prefixes() {
		start := len(dst)
		dst = append(dst, t.rows(p)...)
		slices.SortFunc(dst[start:], CompareRoutes)
	}
	return dst
}

// AppendSpliced appends what AppendSorted would, given base: the canonical
// rows of a table that differs from t at most at the (distinct) changed
// prefixes. Every other prefix's rows are copied from base a run at a time;
// only the changed ones are looked up and sorted.
func (t *RIB) AppendSpliced(dst, base []Route, changed []netip.Prefix) []Route {
	changed = slices.Clone(changed)
	slices.SortFunc(changed, comparePrefix)
	for _, p := range changed {
		n := sort.Search(len(base), func(i int) bool { return comparePrefix(base[i].Prefix, p) >= 0 })
		dst = append(dst, base[:n]...)
		for base = base[n:]; len(base) > 0 && base[0].Prefix == p; {
			base = base[1:]
		}
		start := len(dst)
		dst = append(dst, t.rows(p)...)
		slices.SortFunc(dst[start:], CompareRoutes)
	}
	return append(dst, base...)
}

// invalidate drops the memoized sorted prefix list when a write changed the
// key set. The nil check matters: during route simulation every decision
// writes the RIB and nothing sorts it, so skipping the atomic store (and its
// write barrier) on an already-nil memo keeps the hot install path cheap.
func (t *RIB) invalidate(keysChanged bool) {
	if keysChanged && t.sorted.Load() != nil {
		t.sorted.Store(nil)
	}
}

// bestFirst reports whether rs holds its RouteBest rows first and in
// CompareRoutes order: the layout every table stores a prefix's rows in, so a
// lookup's best rows are a prefix of them (bestRows). The other rows keep the
// order they were installed in.
func bestFirst(rs []Route) bool {
	n := 0
	for n < len(rs) && rs[n].RouteType == RouteBest {
		if n > 0 && compareRoutePtr(&rs[n-1], &rs[n]) > 0 {
			return false
		}
		n++
	}
	for _, r := range rs[n:] {
		if r.RouteType == RouteBest {
			return false
		}
	}
	return true
}

// orderBest puts rs in the bestFirst layout in place: the best rows move to
// the front in CompareRoutes order, the others keep their relative order. A
// decision installs ECMP rows in preference order, and a route-EC expansion
// appends a representative's rows to a member's own, so either can leave
// best rows apart or out of order.
func orderBest(rs []Route) {
	if bestFirst(rs) {
		return
	}
	slices.SortStableFunc(rs, func(a, b Route) int {
		switch ab, bb := a.RouteType == RouteBest, b.RouteType == RouteBest; {
		case ab && bb:
			return CompareRoutes(a, b)
		case ab:
			return -1
		case bb:
			return 1
		}
		return 0
	})
}

// bestRows returns the RouteBest rows of one prefix's bestFirst rows, in
// CompareRoutes order: their leading run.
func bestRows(rows []Route) []Route {
	n := 0
	for n < len(rows) && rows[n].RouteType == RouteBest {
		n++
	}
	return rows[:n:n]
}

// prefixLens is a set of prefix lengths per address family: bit b of v4 for
// an IPv4 /b, bit b%64 of v6[b/64] for an IPv6 /b.
type prefixLens struct {
	v4 uint64
	v6 [3]uint64
}

func (l *prefixLens) add(p netip.Prefix) {
	if b := p.Bits(); p.Addr().Is4() {
		l.v4 |= 1 << b
	} else {
		l.v6[b/64] |= 1 << (b % 64)
	}
}

// LongestMatch returns the best routes of the longest prefix covering addr,
// together with the matched prefix. ok is false if no prefix covers addr.
// It probes the table's own prefix map at every length the table has held a
// key at, longest first: the first network there with best rows is the
// match. Where keys that are not their own masked network collide with it
// (10.0.0.0/24, 10.0.0.1/24), the lexically smallest with best rows wins.
// The returned slice is shared and must not be modified by the caller.
func (t *RIB) LongestMatch(addr netip.Addr) (prefix netip.Prefix, best []Route, ok bool) {
	switch {
	case addr.Is4():
		return t.probe(addr, t.lens.v4, 0)
	case addr.Is6():
		for w := len(t.lens.v6) - 1; w >= 0; w-- {
			if prefix, best, ok = t.probe(addr, t.lens.v6[w], 64*w); ok {
				return prefix, best, ok
			}
		}
	}
	return netip.Prefix{}, nil, false
}

// probe is LongestMatch over the lengths base+i for each bit i set in lens.
func (t *RIB) probe(addr netip.Addr, lens uint64, base int) (netip.Prefix, []Route, bool) {
	for lens != 0 {
		i := 63 - bits.LeadingZeros64(lens)
		lens &^= 1 << i
		net := netip.PrefixFrom(addr, base+i).Masked()
		if best := bestRows(t.rows(net)); len(best) > 0 {
			return net, best, true
		}
		if t.aliases.Bound() == 0 {
			continue
		}
		for _, p := range t.aliases.Get(net) {
			if best := bestRows(t.rows(p)); len(best) > 0 {
				return p, best, true
			}
		}
	}
	return netip.Prefix{}, nil, false
}

// LongestMatchScan is the probe-free longest-prefix match: a full scan over
// every prefix, taking among covering prefixes of one length the lexically
// smallest with best rows. It is the reference the tests check LongestMatch
// against.
func (t *RIB) LongestMatchScan(addr netip.Addr) (prefix netip.Prefix, best []Route, ok bool) {
	t.each(func(p netip.Prefix, rows []Route) {
		if !p.Contains(addr) || ok && (p.Bits() < prefix.Bits() || p.Bits() == prefix.Bits() && comparePrefix(p, prefix) > 0) {
			return
		}
		var sel []Route
		for _, r := range rows {
			if r.RouteType == RouteBest {
				sel = append(sel, r)
			}
		}
		if len(sel) > 0 {
			prefix, best, ok = p, sel, true
		}
	})
	slices.SortFunc(best, CompareRoutes)
	return prefix, best, ok
}

// GlobalRIB is the paper's global RIB abstraction: all routes from all
// routers collected into a single table with device and vrf columns.
//
// It is held as a sequence of per-device blocks. CompareRoutes orders by
// device first, so a RIB's rows group into one run per device and the runs,
// concatenated in device order, are the canonical row order. A cold RIB is
// one backing slice cut at the device boundaries; a what-if fork's RIB
// (ReplaceDevices) references its base's blocks for the devices the change
// left alone and writes the blocks of the devices it touched only when they
// are first read. Consumers that compare two RIBs (Diff, Equal, serve's
// digest) skip the blocks both reference — SameBlock — so they cost O(rows of
// the devices that differ), and a consumer that looks up a few devices
// (Lookup, Block) has only those devices' blocks written.
type GlobalRIB struct {
	// blocks: one non-empty run per device, devices strictly ascending, each
	// run in CompareRoutes order. A block left to its emitter is nil here
	// until Blocks fills it in; read it through block.
	blocks [][]Route
	// pending is nil, or per block the emission of a block ReplaceDevices
	// replaced (nil for a block held from the start).
	pending []*pendingBlock
	n       int // rows over all blocks

	// fill makes Blocks write every pending block into blocks, once.
	fill sync.Once
	// rows is the concatenation of blocks: the backing slice itself when the
	// RIB was built from one (set at construction), otherwise copied together
	// by the first Rows call.
	flatten sync.Once
	rows    []Route
}

// pendingBlock is one device's block of a ReplaceDevices view, written by its
// emitter on the first read of it, by whichever reader comes first.
type pendingBlock struct {
	device string
	n      int
	emit   func(device string, dst []Route) []Route
	once   sync.Once
	rows   []Route
}

// get returns the block, emitting it on the first call. An emitter that
// breaks its count or writes another device's rows panics, naming the device.
func (b *pendingBlock) get() []Route {
	b.once.Do(func() {
		rows := b.emit(b.device, make([]Route, 0, b.n))
		if len(rows) != b.n {
			panic("netmodel: ReplaceDevices: emitter wrote " + strconv.Itoa(len(rows)) + " rows for " + b.device + ", " + strconv.Itoa(b.n) + " promised")
		}
		if rows[0].Device != b.device || rows[b.n-1].Device != b.device {
			panic("netmodel: ReplaceDevices: emitter wrote rows of another device into the block of " + b.device)
		}
		b.rows = rows
	})
	return b.rows
}

// NewGlobalRIB builds a global RIB from rows in any order: they are copied
// and sorted into canonical order. Producers that emit rows in canonical
// order already use NewGlobalRIBFromSorted.
func NewGlobalRIB(rows []Route) *GlobalRIB {
	out := append([]Route(nil), rows...)
	slices.SortFunc(out, CompareRoutes)
	return NewGlobalRIBFromSorted(out)
}

// NewGlobalRIBFromSorted wraps rows already in CompareRoutes order, without
// copying or re-sorting. Callers must not modify rows afterwards.
func NewGlobalRIBFromSorted(rows []Route) *GlobalRIB {
	return &GlobalRIB{blocks: deviceBlocks(rows), n: len(rows), rows: rows}
}

// deviceBlocks cuts rows, sorted by device, into one sub-slice per device.
// Each boundary is found by binary search, so a RIB of n rows over d devices
// costs d·log n device comparisons, not n.
func deviceBlocks(rows []Route) [][]Route {
	var blocks [][]Route
	for len(rows) > 0 {
		dev := rows[0].Device
		end := sort.Search(len(rows), func(i int) bool { return rows[i].Device != dev })
		blocks = append(blocks, rows[:end:end])
		rows = rows[end:]
	}
	return blocks
}

// pendingAt returns block i's pending emission, nil for a block held from
// the start.
func (g *GlobalRIB) pendingAt(i int) *pendingBlock {
	if g.pending == nil {
		return nil
	}
	return g.pending[i]
}

// device returns block i's device; a pending block is not written for it.
func (g *GlobalRIB) device(i int) string {
	if p := g.pendingAt(i); p != nil {
		return p.device
	}
	return g.blocks[i][0].Device
}

// blockLen returns block i's row count; a pending block is not written for it.
func (g *GlobalRIB) blockLen(i int) int {
	if p := g.pendingAt(i); p != nil {
		return p.n
	}
	return len(g.blocks[i])
}

// block returns block i, writing it first when it is pending.
func (g *GlobalRIB) block(i int) []Route {
	if p := g.pendingAt(i); p != nil {
		return p.get()
	}
	return g.blocks[i]
}

// ReplaceDevices returns the RIB that holds, for every device in rows, the
// block emit writes for it, and g's block for every other device. rows gives
// each replaced device's row count; a count of 0 drops the device (devices g
// does not know are fine). The result references g's blocks for the devices
// it keeps and writes none of its own: a replaced device's block is emitted
// on the first read of it — Block, Lookup, Blocks, JoinBlocks, Diff, Equal,
// Rows, Filter — at most once, while Len comes from the counts. emit(device,
// dst) appends exactly rows[device] rows of that device to dst, in
// CompareRoutes order, and returns dst; it may run concurrently for distinct
// devices, whenever a reader first asks, so it must read only state that
// stays unchanged for the life of the result. It panics, naming the device,
// when the count is not met.
func (g *GlobalRIB) ReplaceDevices(rows map[string]int, emit func(device string, dst []Route) []Route) *GlobalRIB {
	fresh := make([]string, 0, len(rows))
	for dev, n := range rows {
		if n > 0 {
			fresh = append(fresh, dev)
		}
	}
	slices.Sort(fresh)
	out := &GlobalRIB{
		blocks:  make([][]Route, 0, len(g.blocks)+len(fresh)),
		pending: make([]*pendingBlock, 0, len(g.blocks)+len(fresh)),
	}
	add := func(b []Route, p *pendingBlock, n int) {
		out.blocks = append(out.blocks, b)
		out.pending = append(out.pending, p)
		out.n += n
	}
	added := len(fresh)
	addFresh := func(dev string) {
		add(nil, &pendingBlock{device: dev, n: rows[dev], emit: emit}, rows[dev])
	}
	for i := range g.blocks {
		dev := g.device(i)
		for ; len(fresh) > 0 && fresh[0] < dev; fresh = fresh[1:] {
			addFresh(fresh[0])
		}
		if _, replaced := rows[dev]; replaced {
			continue // its fresh block, if any, sorts before g's next device
		}
		if p := g.pendingAt(i); p != nil {
			add(nil, p, p.n) // still pending: shared, emitted once for both
		} else {
			add(g.blocks[i], nil, len(g.blocks[i]))
		}
	}
	for _, dev := range fresh {
		addFresh(dev)
	}
	if added == 0 && len(out.blocks) == len(g.blocks) {
		return g // nothing replaced had rows on either side
	}
	return out
}

// Blocks returns the per-device blocks in device order: each is one device's
// rows in canonical order and is never empty. It writes every pending block.
// Callers must not modify them.
func (g *GlobalRIB) Blocks() [][]Route {
	if g.pending != nil {
		g.fill.Do(func() {
			for i, p := range g.pending {
				if p != nil {
					g.blocks[i] = p.get()
				}
			}
		})
	}
	return g.blocks
}

// SameBlock reports whether a and b are the same stretch of the same backing
// slice, which is how a fork's RIB holds the blocks it shares with its base:
// rows behind a true result need no comparing. Nil blocks are never the same.
func SameBlock(a, b []Route) bool {
	return len(a) > 0 && len(a) == len(b) && &a[0] == &b[0]
}

// JoinBlocks walks both RIBs' blocks in device order and calls fn once per
// device present in either, with the device's block on each side (nil where
// the device has no rows).
func JoinBlocks(g, o *GlobalRIB, fn func(gb, ob []Route)) {
	gi, oi := 0, 0
	for gi < len(g.blocks) || oi < len(o.blocks) {
		var c int
		switch {
		case oi == len(o.blocks):
			c = -1
		case gi == len(g.blocks):
			c = 1
		default:
			c = strings.Compare(g.device(gi), o.device(oi))
		}
		var gb, ob []Route
		if c <= 0 {
			gb = g.block(gi)
			gi++
		}
		if c >= 0 {
			ob = o.block(oi)
			oi++
		}
		fn(gb, ob)
	}
}

// Block returns device's block (nil when it has no rows), found by binary
// search and written if it is pending. Callers must not modify it.
func (g *GlobalRIB) Block(device string) []Route {
	i, ok := sort.Find(len(g.blocks), func(i int) int { return strings.Compare(device, g.device(i)) })
	if !ok {
		return nil
	}
	return g.block(i)
}

// Lookup calls fn with device's rows for prefix, one call per VRF that holds
// the prefix, each a run in canonical order. The device's block and the
// prefix's place in each VRF are found by binary search; no other row is read
// and no other pending block written.
func (g *GlobalRIB) Lookup(device string, prefix netip.Prefix, fn func(rows []Route)) {
	for b := g.Block(device); len(b) > 0; {
		vrf := b[0].VRF
		end := sort.Search(len(b), func(i int) bool { return b[i].VRF != vrf })
		lo := sort.Search(end, func(i int) bool { return comparePrefix(b[i].Prefix, prefix) >= 0 })
		hi := lo
		for hi < end && b[hi].Prefix == prefix {
			hi++
		}
		if hi > lo {
			fn(b[lo:hi])
		}
		b = b[end:]
	}
}

// MergeSortedRoutes merges route slices — each already in CompareRoutes
// order — into one sorted slice, exactly the rows NewGlobalRIB would
// produce from their concatenation at a fraction of the comparisons. Rows
// are copied a run at a time: the longest stretch of the smallest-headed
// segment that stays below every other head. Runs are whole device blocks
// when segments hold disjoint devices and per-table prefix ranges when they
// interleave (fleet route subtasks).
// Rows equal across segments are all kept, adjacent.
func MergeSortedRoutes(segs [][]Route) []Route {
	n, live := 0, 0
	for _, s := range segs {
		n += len(s)
		if len(s) > 0 {
			live++
		}
	}
	out := make([]Route, 0, n)
	if live <= 1 {
		for _, s := range segs {
			out = append(out, s...)
		}
		return out
	}
	idx := make([]int, len(segs))
	for len(out) < n {
		// Pick the segment with the smallest head, remembering the runner-up
		// head as the bound below which the winner's run is copied whole.
		best, second := -1, -1
		for i, s := range segs {
			if idx[i] >= len(s) {
				continue
			}
			switch {
			case best < 0:
				best = i
			case compareRoutePtr(&s[idx[i]], &segs[best][idx[best]]) < 0:
				best, second = i, best
			case second < 0 || compareRoutePtr(&s[idx[i]], &segs[second][idx[second]]) < 0:
				second = i
			}
		}
		s := segs[best]
		j := idx[best] + 1
		if second >= 0 {
			bound := &segs[second][idx[second]]
			for j < len(s) && compareRoutePtr(&s[j], bound) < 0 {
				j++
			}
		} else {
			j = len(s)
		}
		out = append(out, s[idx[best]:j]...)
		idx[best] = j
	}
	return out
}

// Rows returns all rows in deterministic order. Callers must not modify the
// returned slice. A RIB built from one slice returns that slice; a RIB made
// by ReplaceDevices copies its blocks together on the first call (safe to
// call concurrently) and returns the same copy from then on — consumers on a
// what-if's hot path read Blocks, Lookup, Diff or Equal instead.
func (g *GlobalRIB) Rows() []Route {
	g.flatten.Do(func() {
		if g.rows != nil || g.n == 0 {
			return
		}
		rows := make([]Route, 0, g.n)
		for i := range g.blocks {
			rows = append(rows, g.block(i)...)
		}
		g.rows = rows
	})
	return g.rows
}

// Len returns the number of rows.
func (g *GlobalRIB) Len() int { return g.n }

// Filter returns a new global RIB with only the rows where keep returns true.
func (g *GlobalRIB) Filter(keep func(Route) bool) *GlobalRIB {
	var rows []Route
	for i := range g.blocks {
		for _, r := range g.block(i) {
			if keep(r) {
				rows = append(rows, r)
			}
		}
	}
	return NewGlobalRIBFromSorted(rows)
}

// Equal reports whether two global RIBs contain exactly the same rows with
// identical attributes. Both are in canonical order and AttrsEqual compares
// the device, so equal RIBs have equal block boundaries: RIBs whose devices
// or block lengths differ are unequal without a row read, blocks compare
// pairwise, and a block both RIBs reference is equal without being read.
func (g *GlobalRIB) Equal(o *GlobalRIB) bool {
	if g.n != o.n || len(g.blocks) != len(o.blocks) {
		return false
	}
	for i := range g.blocks {
		if g.device(i) != o.device(i) || g.blockLen(i) != o.blockLen(i) {
			return false
		}
	}
	for i := range g.blocks {
		gb, ob := g.block(i), o.block(i)
		if SameBlock(gb, ob) {
			continue
		}
		for j := range gb {
			if !gb[j].AttrsEqual(ob[j]) {
				return false
			}
		}
	}
	return true
}

// Diff returns rows present in g but not o, and rows present in o but not g,
// comparing full attributes. Used for counterexamples and diagnosis. The
// comparison deliberately excludes provenance fields (Peer, Source, IGPCost,
// ViaSR): a simulated route and a monitored route that agree on the
// key and BGP attributes must not diff.
//
// The device is part of what is compared, so the multiset subtraction splits
// exactly into one subtraction per device, and walking the devices in order
// keeps both outputs in their RIB's row order. A block both RIBs reference
// subtracts to nothing and is skipped unread — a what-if fork diffed against
// its base pays only for the devices the failure changed.
func (g *GlobalRIB) Diff(o *GlobalRIB) (onlyG, onlyO []Route) {
	JoinBlocks(g, o, func(gb, ob []Route) {
		switch {
		case SameBlock(gb, ob):
		case ob == nil:
			onlyG = append(onlyG, gb...)
		case gb == nil:
			onlyO = append(onlyO, ob...)
		default:
			onlyG, onlyO = diffBlock(gb, ob, onlyG, onlyO)
		}
	})
	return onlyG, onlyO
}

// diffBlock appends to onlyG the rows of gb that ob lacks and to onlyO the
// rows of ob that gb lacks, counting duplicates. Both are one device's rows in
// canonical order and rows of different (VRF, prefix) runs never match, so the
// blocks are merge-joined run by run: a run only one side holds goes out
// whole, a pair whose rows are pairwise AttrsEqual — the fields Diff compares
// — is skipped, and only an unequal pair pays for signatures. Rows a what-if
// changed in IGP cost alone therefore cost one comparison each.
func diffBlock(gb, ob, onlyG, onlyO []Route) ([]Route, []Route) {
	cutRun := func(b []Route) (run, rest []Route) {
		n := 1
		for n < len(b) && b[n].Prefix == b[0].Prefix && b[n].VRF == b[0].VRF {
			n++
		}
		return b[:n], b[n:]
	}
	for len(gb) > 0 || len(ob) > 0 {
		var c int
		switch {
		case len(ob) == 0:
			c = -1
		case len(gb) == 0:
			c = 1
		default:
			c = cmp.Or(strings.Compare(gb[0].VRF, ob[0].VRF), comparePrefix(gb[0].Prefix, ob[0].Prefix))
		}
		var gRun, oRun []Route
		if c <= 0 {
			gRun, gb = cutRun(gb)
		}
		if c >= 0 {
			oRun, ob = cutRun(ob)
		}
		switch {
		case oRun == nil:
			onlyG = append(onlyG, gRun...)
		case gRun == nil:
			onlyO = append(onlyO, oRun...)
		case !slices.EqualFunc(gRun, oRun, Route.AttrsEqual):
			onlyG, onlyO = subtractRuns(gRun, oRun, onlyG, onlyO)
		}
	}
	return onlyG, onlyO
}

// subtractRuns is the multiset subtraction behind diffBlock, both ways.
func subtractRuns(gb, ob, onlyG, onlyO []Route) ([]Route, []Route) {
	// One binary signature per row, computed once; the multiset subtraction
	// below is then pure map traffic.
	sigsOf := func(rows []Route) []string {
		out := make([]string, len(rows))
		buf := GetSigBuf()
		defer PutSigBuf(buf)
		for i := range rows {
			*buf = appendAttrDiffSig((*buf)[:0], &rows[i])
			out[i] = string(*buf)
		}
		return out
	}
	gSigs, oSigs := sigsOf(gb), sigsOf(ob)
	inO := make(map[string]int, len(ob))
	for _, s := range oSigs {
		inO[s]++
	}
	for i, s := range gSigs {
		if inO[s] > 0 {
			inO[s]--
		} else {
			onlyG = append(onlyG, gb[i])
		}
	}
	inG := make(map[string]int, len(gb))
	for _, s := range gSigs {
		inG[s]++
	}
	for i, s := range oSigs {
		if inG[s] > 0 {
			inG[s]--
		} else {
			onlyO = append(onlyO, ob[i])
		}
	}
	return onlyG, onlyO
}

// appendAttrDiffSig encodes the fields Diff compares — the route key plus the
// full attribute set — into a compact binary signature.
func appendAttrDiffSig(dst []byte, r *Route) []byte {
	dst = sigStr(dst, r.Device)
	dst = sigStr(dst, r.VRF)
	dst = sigPrefix(dst, r.Prefix)
	dst = append(dst, byte(r.Protocol))
	dst = sigAddr(dst, r.NextHop)
	a := r.Attr()
	cs := a.Communities.All()
	dst = binary.AppendUvarint(dst, uint64(len(cs)))
	for _, c := range cs {
		dst = binary.AppendUvarint(dst, uint64(c))
	}
	dst = binary.AppendUvarint(dst, uint64(len(a.ASPath.Seq)))
	for _, asn := range a.ASPath.Seq {
		dst = binary.AppendUvarint(dst, uint64(asn))
	}
	dst = binary.AppendUvarint(dst, uint64(len(a.ASPath.Set)))
	for _, asn := range a.ASPath.Set {
		dst = binary.AppendUvarint(dst, uint64(asn))
	}
	dst = append(dst, byte(a.Origin), byte(r.RouteType))
	dst = binary.AppendUvarint(dst, uint64(a.LocalPref))
	dst = binary.AppendUvarint(dst, uint64(a.MED))
	dst = binary.AppendUvarint(dst, uint64(a.Weight))
	dst = binary.AppendUvarint(dst, uint64(a.Preference))
	return dst
}

// RIBSet is route rows seen as per-(device, vrf) RIBs: the form traffic
// simulation consumes when RIBs are loaded from distributed result files.
//
// It holds the rows by reference. Construction only cuts them into one run
// per table; a table's prefix map is built on the first RIB call that asks
// for it, and each prefix's rows are a sub-slice of the run (copied only
// where its best rows are not first, ribFromSorted), so a table the
// forwarder never visits costs nothing.
type RIBSet struct {
	m     map[[2]string]*lazyRIB
	built atomic.Int64
}

// lazyRIB is one table of a RIBSet: its canonical run of rows, and the RIB
// over them once someone has looked it up.
type lazyRIB struct {
	rows []Route
	once sync.Once
	rib  *RIB
}

// NewRIBSetFromSorted wraps rows already in CompareRoutes order (a global
// RIB's rows, or a merge of such — MergeSortedRoutes). The set references
// rows: callers must not modify them while the set is in use.
func NewRIBSetFromSorted(rows []Route) *RIBSet {
	s := &RIBSet{m: make(map[[2]string]*lazyRIB)}
	for len(rows) > 0 {
		dev, vrf := rows[0].Device, rows[0].VRF
		end := sort.Search(len(rows), func(i int) bool { return rows[i].Device != dev || rows[i].VRF != vrf })
		k := [2]string{dev, vrf}
		if _, dup := s.m[k]; dup {
			panic("netmodel: NewRIBSetFromSorted: rows not in canonical order (table " + dev + "/" + vrf + " split)")
		}
		s.m[k] = &lazyRIB{rows: rows[:end:end]}
		rows = rows[end:]
	}
	return s
}

// RIB returns the table for (device, vrf), or an empty RIB. The first call
// for a table builds its prefix map; concurrent first calls build it once and
// all return the same *RIB.
func (s *RIBSet) RIB(device, vrf string) *RIB {
	t, ok := s.m[[2]string{device, vrf}]
	if !ok {
		return NewRIB(device, vrf)
	}
	t.once.Do(func() {
		t.rib = ribFromSorted(device, vrf, t.rows)
		s.built.Add(1)
	})
	return t.rib
}

// Tables returns the number of (device, VRF) tables the set holds.
func (s *RIBSet) Tables() int { return len(s.m) }

// TablesBuilt returns how many of them have been looked up, and so built.
func (s *RIBSet) TablesBuilt() int { return int(s.built.Load()) }

// ribFromSorted builds a table over one (device, VRF) run in canonical order:
// each prefix's rows are contiguous, so each becomes a capacity-clipped
// sub-slice of rows, or a bestFirst copy of it where a best row sorts after
// a candidate (ECMP next hops around another candidate's).
func ribFromSorted(device, vrf string, rows []Route) *RIB {
	n := 0
	for i := range rows {
		if i == 0 || rows[i].Prefix != rows[i-1].Prefix {
			n++
		}
	}
	t := NewRIBSized(device, vrf, n)
	for lo := 0; lo < len(rows); {
		p := rows[lo].Prefix
		hi := lo + 1
		for hi < len(rows) && rows[hi].Prefix == p {
			hi++
		}
		rs := rows[lo:hi:hi]
		if !bestFirst(rs) {
			rs = slices.Clone(rs)
			orderBest(rs)
		}
		t.put(p, rs)
		lo = hi
	}
	if t.byPrefix.OwnLen() != n {
		panic("netmodel: RIBSet: rows of " + device + "/" + vrf + " not in canonical order (prefix split)")
	}
	return t
}
