package bgp

import (
	"context"
	"maps"
	"net/netip"
	"slices"
	"sync"

	"hoyan/internal/config"
	"hoyan/internal/isis"
	"hoyan/internal/netmodel"
)

// State is a converged simulation captured for warm-started re-simulation:
// the session graph and every table's record (simulate.go), as of the
// fixpoint.
//
// The records are frozen (table.shared): warm restarts read them concurrently
// and privatize a record before their first write to it (sim.own). They share
// candidate/route slices with whoever else read the base result; that is safe
// because the simulation only ever installs fresh slices (deliver, decide,
// refreshAggregate) and never mutates stored ones. The RIBs are shallow clones
// taken before the engine expands representative prefixes in place, so a
// State stays pristine however the corresponding Result is post-processed.
type State struct {
	opts     Options
	sessions map[string][]*session
	tables   map[tableKey]*table

	// msgBufs lends warm restarts their round message buffer (sim.msgScratch,
	// a *[]msg), so a fork does not grow one from scratch. A buffer comes back
	// cleared: it pins no routes while pooled.
	msgBufs sync.Pool

	// units holds the captured work units of a multi-unit run until the first
	// warm restart unions them into tables and builds the owner index
	// (merge): a one-shot audit never pays for a State it does not use.
	units []*State
	merge sync.Once
}

// Delta tells Resimulate what changed relative to the base run. The network
// passed to Resimulate must already reflect the new topology; configurations
// must be unchanged (callers with config deltas re-simulate from scratch).
type Delta struct {
	// DistChanged maps each device whose IGP view changed to the set of
	// destinations whose distance from it differs (including appearing or
	// disappearing). Next-hop resolution reads the IGP only as
	// dist(device, AddrOwner(nextHop)), so a prefix of such a device's table
	// is re-decided only when one of its candidates' owners is in the set.
	DistChanged map[string]map[string]bool
	// ChangedLinks are links whose Up state flipped. Their endpoints'
	// tables are re-decided (resolution consults adjacent links directly).
	ChangedLinks []netmodel.LinkID
	// NodesDown are devices that went down: their tables are purged and their
	// advertisements withdrawn everywhere.
	NodesDown []string
}

// ResimStats reports how much work a warm restart performed.
type ResimStats struct {
	// TablesDirty is the number of (device, vrf) tables seeded dirty.
	TablesDirty int
	// TablesTotal is the number of tables in the base state.
	TablesTotal int
	// Rounds is the number of fixpoint rounds the warm restart ran.
	Rounds int
	// ChangedPrefixes holds, per table, the prefixes whose rows differ from
	// the base state: each decision compares the rows it installs with the
	// base table's (O(decisions), not O(tables)). A table listed here was
	// written by the restart: it is the restart's own Overlay of the State's
	// table, so writing it never reaches the State, though its unwritten
	// prefixes read the State's rows. Any other table of the result may be the
	// State's own, or such an overlay. A purged device's tables are in
	// neither.
	ChangedPrefixes map[Table]map[netip.Prefix]bool
}

// SimulateWithState runs a full simulation and captures its converged state
// for later warm restarts.
func SimulateWithState(net *config.Network, igp *isis.Result, inputs []netmodel.Route, opts Options) (*Result, *State) {
	res, sims := simulate(net, igp, inputs, opts)
	units := make([]*State, len(sims))
	for i, u := range sims {
		units[i] = u.capture()
	}
	if len(units) == 1 {
		// The result hands out this sim's RIBs, which callers expand in
		// place; the records keep pristine clones.
		for _, t := range units[0].tables {
			if t.rib != nil {
				t.rib = t.rib.ShallowClone()
			}
		}
		return res, units[0]
	}
	// A multi-unit result holds unions of the units' tables, so the units'
	// own stay pristine.
	return res, &State{opts: units[0].opts, sessions: units[0].sessions, units: units}
}

// capture freezes the sim's converged records as a State.
func (s *sim) capture() *State {
	// A captured State never retains the originating run's context: a later
	// warm restart must not observe a long-cancelled deadline. ResimulateCtx
	// installs the restart's own context instead.
	opts := s.opts
	opts.Ctx = nil
	for _, t := range s.tables {
		t.shared = true
	}
	return &State{opts: opts, sessions: s.sessions, tables: s.tables}
}

// Resimulate re-runs the fixpoint warm-started from the captured state: it
// withdraws candidates whose sessions died, re-originates and diffs local
// candidates (covering input-route changes), and seeds the dirty-set loop
// with only the tables the delta can touch. Unchanged tables keep their base
// RIB rows verbatim.
//
// Byte-identity with a from-scratch simulation follows from the fixpoint
// being deterministic per table: a table's converged content is a function of
// its local candidates, its peers' final exports, and the resolution
// environment (IGP costs, adjacent links, address ownership). Every way any
// of those can change under a topology/input delta seeds that table dirty
// here, and changed decisions always re-advertise (the advertisement
// signature, appendAdvSignature, covers all exported fields), so changes
// cascade exactly as they would from scratch.
func (st *State) Resimulate(net *config.Network, igp *isis.Result, inputs []netmodel.Route, d Delta) (*Result, *ResimStats) {
	return st.ResimulateCtx(nil, net, igp, inputs, d)
}

// ResimulateCtx is Resimulate with a cancellation context: the warm-started
// fixpoint polls ctx between rounds and bails out early once it is done. The
// caller must discard the (incomplete) result whenever ctx.Err() != nil. A nil
// ctx disables polling. The restart is one sequential fixpoint: forks scale
// across scenarios and queries instead.
func (st *State) ResimulateCtx(ctx context.Context, net *config.Network, igp *isis.Result, inputs []netmodel.Route, d Delta) (*Result, *ResimStats) {
	st.merge.Do(func() {
		st.mergeUnits()
		st.indexOwners(net)
	})
	s := st.warmSim(ctx, net, igp)
	st.seedChanges(s, inputs, d)
	st.seedResolution(s, d)
	stats := &ResimStats{TablesDirty: len(s.dirtyTids)}
	for _, t := range st.tables {
		if t.rib != nil {
			stats.TablesTotal++
		}
	}
	buf, _ := st.msgBufs.Get().(*[]msg)
	if buf == nil {
		buf = new([]msg)
	}
	s.msgScratch = *buf
	res := s.runDense()
	*buf = s.msgScratch[:0]
	clear((*buf)[:cap(*buf)])
	st.msgBufs.Put(buf)
	stats.Rounds = res.Rounds

	// Many seeded-dirty tables re-decide to exactly their base rows; what is
	// left in the records' changed sets is what the downstream stages
	// (expansion, global-RIB emission, flow re-forwarding) have to redo.
	stats.ChangedPrefixes = make(map[Table]map[netip.Prefix]bool)
	for k, t := range s.tables {
		if len(t.changed) > 0 {
			stats.ChangedPrefixes[Table{k.dev, k.vrf}] = t.changed
		}
	}
	return res, stats
}

// warmSim returns a simulation over net that holds the captured records
// copy-on-write: only the map of them is copied here; each record stays the
// State's until the first write to it privatizes it (sim.own), and an
// adj-RIB-in cell until its own first write (table.ownFroms). Warm restarts
// typically write a small fraction of the tables, and few prefixes of those.
func (st *State) warmSim(ctx context.Context, net *config.Network, igp *isis.Result) *sim {
	opts := st.opts
	opts.Ctx = ctx
	s := newSim(net, igp, opts)
	s.tables = maps.Clone(st.tables)
	s.warm = true
	return s
}

// seedChanges applies to s what the delta does to the captured state itself —
// purged devices, the session graph, the originated candidates — dirtying
// every (table, prefix) it writes.
func (st *State) seedChanges(s *sim, inputs []netmodel.Route, d Delta) {
	// 1. Purge every table of a downed device; its peers learn of the loss
	// through the session diff below.
	down := make(map[string]bool, len(d.NodesDown))
	for _, n := range d.NodesDown {
		down[n] = true
	}
	if len(down) > 0 {
		for k := range s.tables {
			if down[k.dev] {
				delete(s.tables, k)
			}
		}
	}

	// 2. Diff the session graph. Configurations are unchanged, so a session
	// is identified by (local, remote, vrf): a removed session withdraws the
	// sender's candidates at the receiver; an added session forces the local
	// side to re-advertise its entire table.
	type sessID struct{ local, remote, vrf string }
	baseSess := make(map[sessID]bool)
	for local, ss := range st.sessions {
		for _, sess := range ss {
			baseSess[sessID{local, sess.remote, sess.vrf}] = true
		}
	}
	newSess := make(map[sessID]bool)
	for local, ss := range s.sessions {
		for _, sess := range ss {
			id := sessID{local, sess.remote, sess.vrf}
			newSess[id] = true
			if !baseSess[id] {
				// Added: the local side must (re-)advertise everything it has
				// in this vrf. Clearing lastAdv forces the re-advertisement
				// even where the decision is unchanged.
				k := tableKey{sess.local, sess.vrf}
				if t := s.tables[k]; t != nil && t.lastAdv != nil {
					s.own(k).lastAdv = nil
				}
				s.markTable(k)
			}
		}
	}
	for id := range baseSess {
		if newSess[id] {
			continue
		}
		// Removed: the receiver drops everything it learned over it.
		k := tableKey{id.remote, id.vrf}
		t := s.tables[k]
		if t == nil {
			continue // table already purged, or nothing to drop
		}
		tid := s.tidOf(k)
		for p, byFrom := range t.adjIn {
			if _, ok := byFrom[id.local]; !ok {
				continue
			}
			fresh := make(map[string][]cand, len(byFrom)-1)
			for from, cs := range byFrom {
				if from != id.local {
					fresh[from] = cs
				}
			}
			if len(fresh) == 0 {
				delete(s.own(k).adjIn, p)
			} else {
				s.own(k).adjIn[p] = fresh
			}
			s.markDirty(tid, s.pidOf(p))
		}
	}

	// 3. Re-originate local candidates on the new network and diff against
	// the captured ones: input-route changes, direct/redistributed routes
	// that appear or vanish with topology state. Aggregate candidates are
	// maintained by the fixpoint itself and carried over unchanged.
	fresh := s.sibling()
	fresh.originateLocals(inputs)
	diff := func(k tableKey, old, now map[netip.Prefix][]cand) {
		prefixes := make(map[netip.Prefix]bool, len(old)+len(now))
		for p := range old {
			prefixes[p] = true
		}
		for p := range now {
			prefixes[p] = true
		}
		for p := range prefixes {
			oldPlain, oldAggs := splitAggregates(old[p])
			newPlain := now[p]
			if candsEqual(oldPlain, newPlain) {
				continue
			}
			merged := make([]cand, 0, len(newPlain)+len(oldAggs))
			merged = append(merged, newPlain...)
			merged = append(merged, oldAggs...)
			m := s.localsOf(k)
			if len(merged) == 0 {
				delete(m, p)
			} else {
				m[p] = merged
			}
			s.markDirty(s.tidOf(k), s.pidOf(p))
		}
	}
	for k, t := range s.tables {
		var now map[netip.Prefix][]cand
		if f := fresh.tables[k]; f != nil {
			now = f.locals
		}
		diff(k, t.locals, now)
	}
	for k, f := range fresh.tables {
		if _, seen := s.tables[k]; !seen && !down[k.dev] {
			diff(k, nil, f.locals)
		}
	}
}

// seedResolution dirties what the delta leaves as it was but may resolve
// differently. Endpoints of flipped links re-decide everything: resolution
// consults their adjacent links and direct subnets without going through the
// IGP (FindLink, onDirectSubnet). Any other device with a changed IGP view
// re-decides only the prefixes holding a candidate whose next-hop owner's
// distance changed — resolution reads the IGP solely as dist(dev, owner), so
// no other prefix can resolve differently.
func (st *State) seedResolution(s *sim, d Delta) {
	endpoints := make(map[string]bool, 2*len(d.ChangedLinks))
	for _, id := range d.ChangedLinks {
		endpoints[id.A] = true
		endpoints[id.B] = true
	}
	if len(endpoints) == 0 && len(d.DistChanged) == 0 {
		return
	}
	for k := range s.tables {
		if endpoints[k.dev] {
			s.markTable(k)
		} else if cd := d.DistChanged[k.dev]; len(cd) > 0 {
			st.markDistAffected(s, k, cd)
		}
	}
}

// noteInstall records, in a warm restart, whether the rows a decision just
// installed for p in record t differ from the captured state's. A prefix
// decided again in a later round is judged again, so the set reflects the
// final rows.
func (s *sim) noteInstall(t *table, p netip.Prefix, rows []netmodel.Route) {
	if !s.warm {
		return
	}
	var base []netmodel.Route
	if t.base != nil {
		base = t.base.Routes(p)
	}
	if slices.EqualFunc(rows, base, netmodel.Route.Identical) {
		delete(t.changed, p)
		return
	}
	if t.changed == nil {
		t.changed = make(map[netip.Prefix]bool)
	}
	t.changed[p] = true
}

// indexOwners builds every record's owners from its captured candidates.
// Resolution reads the IGP only as dist(table's device, owner of the next
// hop): local non-static candidates resolve trivially; next hops owned by the
// device itself cost 0 either way; unknown owners resolve through direct
// subnets, which only adjacency changes (endpoint marking) affect. Address
// ownership survives up/down toggles, so any network a Delta describes gives
// this index.
func (st *State) indexOwners(net *config.Network) {
	for k, t := range st.tables {
		add := func(p netip.Prefix, cs []cand) {
			for _, c := range cs {
				if c.local && c.route.Protocol != netmodel.ProtoStatic {
					continue
				}
				owner := net.Topo.AddrOwner(c.route.NextHop)
				if owner == "" || owner == k.dev {
					continue
				}
				if t.owners == nil {
					t.owners = make(map[string][]netip.Prefix)
				}
				if ps := t.owners[owner]; len(ps) == 0 || ps[len(ps)-1] != p {
					t.owners[owner] = append(ps, p)
				}
			}
		}
		for p, cs := range t.locals {
			add(p, cs)
		}
		for p, byFrom := range t.adjIn {
			for _, cs := range byFrom {
				add(p, cs)
			}
		}
	}
}

// markDistAffected dirties in s the prefixes of table k holding a candidate
// whose resolution depends on a distance in cd. It reads the captured
// candidates: wherever seedChanges edited a prefix's candidates, that prefix
// is dirty anyway.
func (st *State) markDistAffected(s *sim, k tableKey, cd map[string]bool) {
	t := st.tables[k]
	if t == nil {
		return
	}
	for owner, ps := range t.owners {
		if cd[owner] {
			tid := s.tidOf(k)
			for _, p := range ps {
				s.markDirty(tid, s.pidOf(p))
			}
		}
	}
}

// splitAggregates separates a local candidate slice into plain candidates and
// fixpoint-maintained aggregate candidates (which always sit at the end).
func splitAggregates(cs []cand) (plain, aggs []cand) {
	for _, c := range cs {
		if c.route.Protocol == netmodel.ProtoAggregate {
			aggs = append(aggs, c)
		} else {
			plain = append(plain, c)
		}
	}
	return plain, aggs
}

func candsEqual(a, b []cand) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !candEqual(a[i], b[i]) {
			return false
		}
	}
	return true
}

func candEqual(a, b cand) bool {
	if a.ebgp != b.ebgp || a.local != b.local || a.direct32 != b.direct32 {
		return false
	}
	ra, rb := a.route, b.route
	return ra.AttrsEqual(rb) && ra.Peer == rb.Peer && ra.Source == rb.Source &&
		ra.IGPCost == rb.IGPCost && ra.ViaSR == rb.ViaSR
}

// own returns table k's record ready for writing: created when the sim has
// none, replaced by a private clone when it is still a captured State's. Every
// write path to per-table state goes through it, so a warm restart clones
// exactly the tables it touches. Only the record's outer maps are copied, and
// the RIB not even that: the clone's RIB is an Overlay of the State's, which
// stays its base, so it holds only the prefixes the restart decides. The
// adj-RIB-in cells stay shared until ownFroms clones the one being written,
// and the leaf candidate/route slices for good — the fixpoint only installs
// fresh slices, so shared leaves are never written through either side.
func (s *sim) own(k tableKey) *table {
	t := s.tables[k]
	switch {
	case t == nil:
		t = &table{}
	case t.shared:
		c := &table{
			adjIn: maps.Clone(t.adjIn), locals: maps.Clone(t.locals),
			lastAdv: maps.Clone(t.lastAdv), aggOn: maps.Clone(t.aggOn),
			base: t.rib, privIn: make(map[netip.Prefix]bool),
		}
		if t.rib != nil {
			c.rib = t.rib.Overlay()
		}
		t = c
	default:
		return t
	}
	s.tables[k] = t
	return t
}

// ownFroms returns the record's adj-RIB-in cell for p, nil when there is
// none, safe to write; the record is one own returned. In a warm restart the
// cell is the captured State's until its first write clones it here:
// copy-on-write costs O(cells written), not O(cells of every table touched).
func (t *table) ownFroms(p netip.Prefix) map[string][]cand {
	byFrom := t.adjIn[p]
	if byFrom == nil || t.privIn == nil || t.privIn[p] {
		return byFrom
	}
	t.privIn[p] = true
	byFrom = maps.Clone(byFrom)
	t.adjIn[p] = byFrom
	return byFrom
}
