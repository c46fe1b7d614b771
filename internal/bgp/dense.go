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

// sessInfo is one session of a table's VRF with its export policy resolved
// up front (exportPolicy is deterministic per run).
type sessInfo struct {
	sess *session
	pol  *policy.RouteMap
	ok   bool
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
	leakFrom    string
	leakPolicy  string // export policy of the source VRF ("" for global)

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
		if sess.vrf != k.vrf {
			continue
		}
		pol, ok := s.exportPolicy(d, sess.nb, sess.remote, ti.prof)
		ti.sessions = append(ti.sessions, sessInfo{sess: sess, pol: pol, ok: ok})
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
			ti.leakFrom = "leak:" + k.vrf
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
// buffers and the advertisement/candidate/row arenas.
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

	// advArena backs msg route slices for one round (see takeAdv).
	advArena []netmodel.Route
	advUsed  int

	// candArena backs the adj-RIB-in candidate slices deliver installs
	// (see takeCands; grow-only, never reset).
	candArena []cand
	candUsed  int

	// rowsArena likewise backs the RIB row slices decide carves
	// (see takeRows; grow-only, never reset).
	rowsArena []netmodel.Route
	rowsUsed  int
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

// takeAdv carves a zero-length, capacity-n route slice out of the per-round
// advertisement arena. Messages built in one round are fully
// consumed by deliver before the next decideAndAdvertise call resets the
// arena, so the backing array is reused round over round instead of being
// reallocated per session.
func (sc *scratch) takeAdv(n int) []netmodel.Route {
	if sc.advUsed+n > len(sc.advArena) {
		size := 2 * (sc.advUsed + n)
		if size < 256 {
			size = 256
		}
		// The old block stays referenced by this round's earlier messages and
		// is collected once they are delivered.
		sc.advArena = make([]netmodel.Route, size)
		sc.advUsed = 0
	}
	out := sc.advArena[sc.advUsed : sc.advUsed : sc.advUsed+n]
	sc.advUsed += n
	return out
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

// leakInto generates the intra-device VRF-leaking messages after the best set
// of (table, prefix) changed. Leaked routes travel as messages from the
// pseudo-peer "leak:<source-vrf>" so the fixpoint naturally cascades, and so
// the re-leaking VSB can recognize already-leaked routes. The export RT set,
// targets and source policy name were resolved at intern time, and
// advertisement slices come from the per-round arena. pid is p's interned ID,
// stamped on the outgoing messages so delivery skips the prefix hash.
func (s *sim) leakInto(out []msg, ti *tableInfo, p netip.Prefix, pid int32, best []cand) []msg {
	if len(ti.leakTargets) == 0 {
		return out
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
		out = append(out, msg{
			to: ti.k.dev, vrf: target, from: ti.leakFrom, prefix: p, routes: adv,
			tid: ti.leakTIDs[idx] - 1, pid: pid,
		})
	}
	return out
}

// updateAggregatesInto re-evaluates every aggregate of the table that covers
// the just-decided prefix (the VRF's aggregates were filtered at intern
// time). When an aggregate activates, deactivates, or changes its AS path,
// the aggregate's own prefix is marked dirty by a synthetic self-message. tid
// is ti's own ID — the refresh messages target the same table.
func (s *sim) updateAggregatesInto(out []msg, ti *tableInfo, tid int32, p netip.Prefix) []msg {
	if len(ti.aggs) == 0 {
		return out
	}
	k := ti.k
	t := s.own(k)
	for _, a := range ti.aggs {
		if a.Prefix == p || a.Prefix.Bits() >= p.Bits() || !a.Prefix.Contains(p.Addr()) {
			continue
		}
		changed := s.refreshAggregate(k, t, a)
		if changed {
			// Rerun the decision for the aggregate prefix via an internal
			// "message" carrying no routes: delivery just marks it dirty
			// (the local candidate set was already updated in place).
			out = append(out, msg{
				to: k.dev, vrf: k.vrf, from: "agg:refresh", prefix: a.Prefix,
				tid: tid, pid: s.pidOf(a.Prefix),
			})
			// Suppression state may have flipped: force re-advertisement of
			// every covered prefix (summary-only withdraws specifics).
			if a.SummaryOnly {
				if t.rib != nil {
					for _, cp := range t.rib.Prefixes() {
						if cp != a.Prefix && cp.Bits() > a.Prefix.Bits() && a.Prefix.Contains(cp.Addr()) {
							t.lastAdv.Set(cp, "") // no routes' signature: re-advertise
							out = append(out, msg{
								to: k.dev, vrf: k.vrf, from: "agg:refresh", prefix: cp,
								tid: tid, pid: s.pidOf(cp),
							})
						}
					}
				}
			}
		}
	}
	return out
}
