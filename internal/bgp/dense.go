package bgp

import (
	"net/netip"
	"slices"
	"strings"

	"hoyan/internal/config"
	"hoyan/internal/netmodel"
	"hoyan/internal/policy"
	"hoyan/internal/vsb"
)

// This file holds the dense-ID bookkeeping behind the fixpoint:
// tables and prefixes are interned into small integers the first time the
// simulation touches them, and everything the decision loop derives purely
// from configuration — device pointer, vendor profile, policy environment,
// session list with resolved export policies, leak targets, aggregates — is
// computed once per table and cached in a tableInfo instead of being looked
// up per message or per prefix. The dirty set — the one seeding fills, cold
// or warm, and the one each round refills — is a bitset over (table ID,
// prefix ID) rather than nested maps, so a fixpoint round allocates nothing
// for bookkeeping.
//
// None of this is captured: a State holds the table records (simulate.go),
// which stay keyed by tableKey, and the dense IDs are rebuilt per sim.

// sessInfo is one session of a table's VRF (its policies were resolved when
// the session graph was built).
type sessInfo struct {
	sess *session
	// toTID1 is the interned ID (plus one; 0 = not yet resolved) of the
	// remote table this session advertises into. Resolved lazily on first
	// advertisement — newTableInfo must not intern other tables, since the
	// intern of the table being built is still in progress.
	toTID1 int32
}

// tableInfo caches everything about a (device, vrf) table that is static for
// the lifetime of one sim.
type tableInfo struct {
	k        tableKey
	dev      *config.Device // nil when the device is unknown
	devID    netmodel.DevID
	prof     vsb.Profile
	env      policy.Env
	maxPaths int

	// Advertisement caches.
	advertise bool // false for policy-isolated devices (VSB)
	isRR      bool
	sessions  []sessInfo // sessions in this table's VRF only

	// VRF-leak caches (leakTargets empty when the table never leaks).
	leakTargets []string
	leakTIDs    []int32 // interned target-table IDs plus one (lazy, like toTID1)
	leakEdge    edge    // what the targets receive over: from "leak:<vrf>", no import policy
	leakPolicy  string  // export policy of the source VRF ("" for global)

	// Aggregates configured in this table's VRF.
	aggs []config.Aggregate
}

// tidOf interns a table key, building its tableInfo on first sight.
func (s *sim) tidOf(k tableKey) int32 {
	if id, ok := s.tids[k]; ok {
		return id
	}
	if s.tids == nil {
		s.tids = make(map[tableKey]int32)
	}
	id := int32(len(s.tinfo))
	s.tids[k] = id
	s.tinfo = append(s.tinfo, s.newTableInfo(k))
	s.dirtyMark = append(s.dirtyMark, nil)
	s.dirtyPids = append(s.dirtyPids, nil)
	return id
}

// pidOf interns a prefix.
func (s *sim) pidOf(p netip.Prefix) int32 {
	if id, ok := s.pids[p]; ok {
		return id
	}
	if s.pids == nil {
		s.pids = make(map[netip.Prefix]int32)
	}
	id := int32(len(s.pfxs))
	s.pids[p] = id
	s.pfxs = append(s.pfxs, p)
	s.lastAddrs = append(s.lastAddrs, netmodel.LastAddr(p))
	return id
}

func (s *sim) newTableInfo(k tableKey) *tableInfo {
	ti := &tableInfo{k: k, devID: netmodel.NoDev, maxPaths: 1}
	d := s.net.Devices[k.dev]
	ti.dev = d
	if d == nil {
		return ti
	}
	ti.devID, _ = s.topoIdx.DevID(k.dev)
	ti.prof = s.profileOf(k.dev)
	ti.env = s.envOf(d)
	if d.MaxPaths > 1 {
		ti.maxPaths = d.MaxPaths
	}
	sessions := s.sessions[k.dev]
	for _, sess := range sessions {
		if sess.nb.RRClient {
			ti.isRR = true
			break
		}
	}
	ti.advertise = !(d.Isolated && ti.prof.IsolationViaPolicy)
	for _, sess := range sessions {
		if sess.vrf == k.vrf {
			ti.sessions = append(ti.sessions, sessInfo{sess: sess})
		}
	}
	// Leak header: the export RT set and targets of the source table are pure
	// configuration.
	if len(d.VRFs) > 0 {
		var exportRTs []string
		if k.vrf == netmodel.DefaultVRF {
			exportRTs = []string{GlobalRT}
		} else if v := d.VRFs[k.vrf]; v != nil {
			exportRTs = v.ExportRTs
			ti.leakPolicy = v.ExportPolicy
		}
		if len(exportRTs) > 0 {
			ti.leakTargets = leakTargets(d, k.vrf, exportRTs)
			ti.leakEdge = edge{from: "leak:" + k.vrf, ok: true, leak: true}
		}
	}
	for _, a := range d.Aggregates {
		if a.VRF == k.vrf {
			ti.aggs = append(ti.aggs, a)
		}
	}
	return ti
}

// markDirty records (table, prefix) as needing a decision next round.
func (s *sim) markDirty(tid, pid int32) {
	mark := s.dirtyMark[tid]
	if int(pid) >= len(mark) {
		// Grown by append: seeding marks while it interns, one prefix at a time.
		mark = append(mark, make([]bool, len(s.pfxs)-len(mark))...)
		s.dirtyMark[tid] = mark
	}
	if mark[pid] {
		return
	}
	mark[pid] = true
	if len(s.dirtyPids[tid]) == 0 {
		s.dirtyTids = append(s.dirtyTids, tid)
	}
	s.dirtyPids[tid] = append(s.dirtyPids[tid], pid)
}

// markTable dirties every prefix table k has any state for.
func (s *sim) markTable(k tableKey) {
	t := s.tables[k]
	if t == nil {
		return
	}
	tid := s.tidOf(k)
	t.locals.All(func(p netip.Prefix, _ []cand) { s.markDirty(tid, s.pidOf(p)) })
	t.adjIn.All(func(p netip.Prefix, _ map[string][]cand) { s.markDirty(tid, s.pidOf(p)) })
	if t.rib != nil {
		for _, p := range t.rib.Prefixes() {
			s.markDirty(tid, s.pidOf(p))
		}
	}
}

// markAdopted dirties every prefix of the records seeding adopted whole.
func (s *sim) markAdopted() {
	for _, k := range s.adopted {
		s.markTable(k)
	}
	s.adopted = nil
}

// tableRank returns rank[tid] = position of the table in (device, vrf)
// lexical order. Rebuilt only when a new table was interned since the last
// call.
func (s *sim) tableRank() []int32 {
	if len(s.tidRank) == len(s.tinfo) {
		return s.tidRank
	}
	order := make([]int32, len(s.tinfo))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int {
		ka, kb := s.tinfo[a].k, s.tinfo[b].k
		if ka.dev != kb.dev {
			return strings.Compare(ka.dev, kb.dev)
		}
		return strings.Compare(ka.vrf, kb.vrf)
	})
	rank := make([]int32, len(order))
	for i, id := range order {
		rank[id] = int32(i)
	}
	s.tidRank = rank
	return rank
}

// scratch is the reusable working memory of one sim's loop: the decision
// buffers, the candidate/row arenas and the round buffers.
type scratch struct {
	// Decision scratch reused across decide calls. Each is fully consumed
	// before its next reuse: decide's outputs feed advertise within the same
	// prefix iteration.
	candScratch  []cand
	unresScratch []cand
	bestScratch  []cand
	sortScratch  []cand
	ordScratch   []int32
	fromScratch  []string
	sigScratch   []byte

	// round holds the messages of one round and the routes they carry. A
	// warm restart borrows it from its State (State.rounds).
	round roundBufs
	// chunksMade counts the round-buffer chunks the sim allocated.
	chunksMade int

	// candArena backs the adj-RIB-in candidate slices deliver installs
	// (see takeCands; grow-only, never reset).
	candArena []cand
	candUsed  int

	// rowsArena likewise backs the RIB row slices decide carves
	// (see takeRows; grow-only, never reset).
	rowsArena []netmodel.Route
	rowsUsed  int
}

// roundBufs is what one fixpoint round sends: its messages, and the routes
// they advertise. A round fills both from their first chunk; deliver drains
// them before the next round refills them, so they are reused round over
// round and a run allocates its busiest round's worth once.
type roundBufs struct {
	msgs chunks[msg]
	advs chunks[netmodel.Route]
}

// Chunk sizes of a chunk list, in items: a list starts with a small chunk, so
// a run that sends little allocates little, and each new chunk doubles the
// last up to the cap.
const (
	chunkMin = 64
	chunkMax = 8192
)

// chunks is a list of fixed-capacity buffers filled in order: growing it
// never copies what it holds, and a reset keeps every chunk for refilling.
type chunks[T any] struct {
	bufs [][]T // bufs[:cur+1] hold the items since the last reset
	cur  int
}

// room returns the chunk to fill with n more items, moving on to the next
// chunk when the current one lacks room and allocating one (counted in made)
// when there is none, or when it is too small for n.
func (c *chunks[T]) room(n int, made *int) []T {
	if len(c.bufs) > 0 {
		if b := c.bufs[c.cur]; cap(b)-len(b) >= n {
			return b
		}
		c.cur++
	}
	if c.cur < len(c.bufs) && cap(c.bufs[c.cur]) >= n {
		return c.bufs[c.cur]
	}
	size := chunkMin
	if c.cur > 0 {
		size = min(2*cap(c.bufs[c.cur-1]), chunkMax)
	}
	b := make([]T, 0, max(size, n))
	*made++
	if c.cur < len(c.bufs) {
		c.bufs[c.cur] = b
	} else {
		c.bufs = append(c.bufs, b)
	}
	return b
}

// push appends v.
func (c *chunks[T]) push(v T, made *int) {
	b := c.room(1, made)
	c.bufs[c.cur] = append(b, v)
}

// take carves a zero-length, capacity-n slice for the caller to append to.
func (c *chunks[T]) take(n int, made *int) []T {
	b := c.room(n, made)
	c.bufs[c.cur] = b[:len(b)+n]
	return b[len(b) : len(b) : len(b)+n]
}

// filled returns the chunks holding the items since the last reset.
func (c *chunks[T]) filled() [][]T {
	return c.bufs[:min(c.cur+1, len(c.bufs))]
}

// len returns the number of items since the last reset.
func (c *chunks[T]) len() int {
	n := 0
	for _, b := range c.filled() {
		n += len(b)
	}
	return n
}

// each calls fn on every item since the last reset, in order.
func (c *chunks[T]) each(fn func(*T)) {
	for _, b := range c.filled() {
		for i := range b {
			fn(&b[i])
		}
	}
}

// reset empties the list and keeps its chunks.
func (c *chunks[T]) reset() {
	for i, b := range c.filled() {
		c.bufs[i] = b[:0]
	}
	c.cur = 0
}

// clear resets the list and zeroes every chunk.
func (c *chunks[T]) clear() {
	for i, b := range c.bufs {
		clear(b[:cap(b)])
		c.bufs[i] = b[:0]
	}
	c.cur = 0
}

// send appends one message to the round.
func (sc *scratch) send(m msg) {
	sc.round.msgs.push(m, &sc.chunksMade)
}

// takeRows carves an exact-capacity row slice for one decision out of the
// grow-only row arena. Rows are adopted by the RIB (ReplaceOwned),
// so like the candidate arena this one is never reset — it only amortizes
// allocation count.
func (sc *scratch) takeRows(n int) []netmodel.Route {
	const chunk = 1024
	if n > chunk/4 {
		return make([]netmodel.Route, 0, n)
	}
	if sc.rowsUsed+n > len(sc.rowsArena) {
		sc.rowsArena = make([]netmodel.Route, chunk)
		sc.rowsUsed = 0
	}
	out := sc.rowsArena[sc.rowsUsed : sc.rowsUsed : sc.rowsUsed+n]
	sc.rowsUsed += n
	return out
}

// takeAdv carves a zero-length, capacity-n route slice for one message out
// of the round's advertised routes. Messages built in one round are fully
// consumed by deliver before the next round resets them, so the chunks are
// reused round over round instead of being reallocated per session.
func (sc *scratch) takeAdv(n int) []netmodel.Route {
	return sc.round.advs.take(n, &sc.chunksMade)
}

// takeCands carves a zero-length, capacity-n candidate slice out of the
// grow-only arena backing adj-RIB-in entries. Unlike the
// advertisement arena, this one is never reset: installed slices stay live
// in adjIn (and in captured States), so the arena exists purely to turn
// thousands of small per-message allocations into a few chunk allocations.
func (sc *scratch) takeCands(n int) []cand {
	const chunk = 1024
	if n > chunk/4 {
		return make([]cand, 0, n)
	}
	if sc.candUsed+n > len(sc.candArena) {
		sc.candArena = make([]cand, chunk)
		sc.candUsed = 0
	}
	out := sc.candArena[sc.candUsed : sc.candUsed : sc.candUsed+n]
	sc.candUsed += n
	return out
}

// giveBackCands returns the tail of the most recent takeCands carve when the
// caller ended up installing nothing (all routes rejected).
func (sc *scratch) giveBackCands(n int) {
	if n <= chunkGiveBackMax && sc.candUsed >= n {
		sc.candUsed -= n
	}
}

// chunkGiveBackMax mirrors the direct-allocation threshold in takeCands:
// larger carves were not taken from the arena, so there is nothing to return.
const chunkGiveBackMax = 1024 / 4

// leak sends the intra-device VRF-leaking messages after the best set of
// (table, prefix) changed. Leaked routes travel over the table's leak edge,
// from the pseudo-peer "leak:<source-vrf>", so the fixpoint naturally
// cascades, and so the re-leaking VSB can recognize already-leaked routes.
// The export RT set, targets and source policy name were resolved at intern
// time, and advertisement slices come from the round's routes. pid is the
// prefix's interned ID, stamped on the outgoing messages.
func (s *sim) leak(ti *tableInfo, pid int32, best []cand) {
	if len(ti.leakTargets) == 0 {
		return
	}
	if ti.leakTIDs == nil {
		ti.leakTIDs = make([]int32, len(ti.leakTargets))
	}
	d, prof, env := ti.dev, ti.prof, ti.env
	for idx, target := range ti.leakTargets {
		if ti.leakTIDs[idx] == 0 {
			ti.leakTIDs[idx] = s.tidOf(tableKey{ti.k.dev, target}) + 1
		}
		var adv []netmodel.Route
		for _, c := range best {
			r := c.route
			if r.Protocol != netmodel.ProtoBGP && r.Protocol != netmodel.ProtoAggregate {
				continue // only BGP routes participate in VPNv4 leaking
			}
			// VSB: a route that itself arrived via a leak is only re-leaked
			// on vendors with the re-leaking behaviour.
			if strings.HasPrefix(r.Peer, "leak:") && !prof.ReLeakRoutes {
				continue
			}
			// Export policy of the source VRF. VSB: whether it also applies
			// to global routes leaked into VPNv4.
			polName := ti.leakPolicy
			if ti.k.vrf == netmodel.DefaultVRF {
				if tv := d.VRFs[target]; tv != nil && prof.VRFExportPolicyOnGlobalLeak {
					polName = tv.ExportPolicy
				} else {
					polName = ""
				}
			}
			if polName != "" {
				rm, ok := d.RouteMaps[polName]
				if !ok {
					if !prof.AcceptOnUndefinedPolicy {
						continue
					}
				} else {
					var disp policy.Disposition
					r, disp = env.Apply(rm, r, netip.Addr{}, d.ASN)
					if disp == policy.Reject {
						continue
					}
				}
			}
			r.RouteType = netmodel.RouteCandidate
			if adv == nil {
				adv = s.takeAdv(len(best))
			}
			adv = append(adv, r)
		}
		s.send(msg{routes: adv, edge: &ti.leakEdge, tid: ti.leakTIDs[idx] - 1, pid: pid})
	}
}

// updateAggregates re-evaluates every aggregate of the table that covers the
// just-decided prefix (the VRF's aggregates were filtered at intern time).
// When an aggregate activates, deactivates, or changes its AS path, the
// aggregate's own prefix is marked dirty by a refresh message to itself. tid
// is ti's own ID — the refresh messages target the same table.
func (s *sim) updateAggregates(ti *tableInfo, tid int32, p netip.Prefix) {
	if len(ti.aggs) == 0 {
		return
	}
	k := ti.k
	t := s.own(k)
	for _, a := range ti.aggs {
		if a.Prefix == p || a.Prefix.Bits() >= p.Bits() || !a.Prefix.Contains(p.Addr()) {
			continue
		}
		changed := s.refreshAggregate(k, t, a)
		if changed {
			// Rerun the decision for the aggregate prefix via a refresh
			// message carrying no routes: delivery just marks it dirty
			// (the local candidate set was already updated in place).
			s.send(msg{edge: refreshEdge, tid: tid, pid: s.pidOf(a.Prefix)})
			// Suppression state may have flipped: force re-advertisement of
			// every covered prefix (summary-only withdraws specifics).
			if a.SummaryOnly {
				if t.rib != nil {
					for _, cp := range t.rib.Prefixes() {
						if cp != a.Prefix && cp.Bits() > a.Prefix.Bits() && a.Prefix.Contains(cp.Addr()) {
							t.lastAdv.Set(cp, "") // no routes' signature: re-advertise
							s.send(msg{edge: refreshEdge, tid: tid, pid: s.pidOf(cp)})
						}
					}
				}
			}
		}
	}
}
