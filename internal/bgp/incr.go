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
// the session graph, the input routes it originated and every table's record
// (simulate.go), as of the fixpoint. A cold run restarts the empty State.
//
// The records are frozen (table.shared): warm restarts read them concurrently
// and, before their first write to one, overlay it with a record of their own
// (sim.own) that holds only what they write. They share candidate/route
// slices with whoever else read the base result; that is safe because the
// simulation only ever installs fresh slices (deliver, decide,
// refreshAggregate) and never mutates stored ones. The RIBs are shallow clones
// taken before the engine expands representative prefixes in place, so a
// State stays pristine however the corresponding Result is post-processed.
type State struct {
	opts     Options
	sessions map[string][]*session
	tables   map[tableKey]*table
	// inputs are the input routes of the captured run, which a restart
	// compares its own with per device (reached).
	inputs []netmodel.Route
	// originated holds the devices the captured run originated at, those up
	// when it was captured; a restart originates at every other up device
	// (reached). The empty State's is nil, so its restart is the cold run.
	originated map[string]bool
	// carried is the captured run's carried set (sim.carried), which its warm
	// restarts size their new tables by. Read-only once captured.
	carried map[netip.Prefix]bool

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

// Delta tells ResimulateCtx what changed relative to the base run. The network
// passed to it must already reflect the new topology and configurations.
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
	// Purged are the devices whose tables are purged and whose sessions are
	// withdrawn: those that went down and those whose configuration changed.
	// A purged device that is up restarts like a device coming up, which needs
	// no entry: the restart originates at it (reached), and its sessions come
	// up through the session diff.
	Purged []string
}

// ResimStats reports how much work a warm restart performed.
type ResimStats struct {
	// TablesDirty is the number of (device, vrf) tables seeded dirty.
	TablesDirty int
	// TablesTotal is the number of tables in the base state.
	TablesTotal int
	// ChangedPrefixes holds, per table, the prefixes whose rows differ from
	// the base state, read off the RIBs of the records the restart owns
	// (netmodel.RIB.Changed): in an Overlay of the State's table, the own
	// writes not Identical to the State's rows; in a table new to the restart,
	// every prefix. It costs O(cells written), not O(tables). A table listed
	// here is the restart's own, so writing it never reaches the State; any
	// other may be the State's own. A purged device's tables are in neither.
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
	// A multi-unit result holds unions of the units' tables, so the units'
	// own stay pristine.
	st := &State{opts: units[0].opts, sessions: units[0].sessions, units: units}
	if len(units) == 1 {
		// The result hands out this sim's RIBs, which callers expand in
		// place; the records keep pristine clones.
		st = units[0]
		for _, t := range st.tables {
			if t.rib != nil {
				t.rib = t.rib.ShallowClone()
			}
		}
	}
	st.inputs = slices.Clone(inputs)
	st.originated = (&State{}).reached(net, nil, Delta{}) // every up device
	return res, st
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
	return &State{opts: opts, sessions: s.sessions, tables: s.tables, carried: s.carried}
}

// ResimulateCtx re-runs the fixpoint warm-started from the captured state
// (restart): it withdraws candidates whose sessions died, re-originates and
// diffs the local candidates of the devices the delta reaches (reached), and
// seeds the dirty-set loop with only the tables the delta can touch.
// Unchanged tables keep their base RIB rows verbatim. The restart is one
// sequential fixpoint: forks scale across scenarios and queries instead.
//
// Byte-identity with a from-scratch simulation follows from the fixpoint
// being deterministic per table: a table's converged content is a function of
// its local candidates, its peers' final exports, and the resolution
// environment (IGP costs, adjacent links, address ownership). Every way any
// of those can change under a topology/input delta seeds that table dirty
// here, and changed decisions always re-advertise (the advertisement
// signature, appendAdvSignature, covers all exported fields), so changes
// cascade exactly as they would from scratch.
//
// The fixpoint polls ctx between rounds and bails out early once it is done;
// the caller must then discard the (incomplete) result. A nil ctx disables
// polling.
func (st *State) ResimulateCtx(ctx context.Context, net *config.Network, igp *isis.Result, inputs []netmodel.Route, d Delta) (*Result, *ResimStats) {
	s := st.restart(ctx, net, igp, inputs, d)
	s.markAdopted() // before counting: a device coming up adopts its tables
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

	// Many seeded-dirty tables re-decide to exactly their base rows; what
	// differs is what the downstream stages (expansion, global-RIB emission,
	// flow re-forwarding) have to redo.
	stats.ChangedPrefixes = make(map[Table]map[netip.Prefix]bool)
	for k, t := range s.tables {
		if t.shared || t.rib == nil {
			continue
		}
		if ps := t.rib.Changed(); ps != nil {
			stats.ChangedPrefixes[Table{k.dev, k.vrf}] = ps
		}
	}
	return res, stats
}

// restart returns a simulation over net seeded from st, for both runs: it holds
// the State's records copy-on-write (only the map of them is copied; sim.own
// overlays a record on its first write), and its dirty set holds every
// (table, prefix) the delta can change (seedChanges, seedResolution) but those
// of the records it adopted whole, which the run marks where it starts
// (markAdopted). The restart of the empty State reaches every up device and
// adopts every record it originates: it is the cold run.
func (st *State) restart(ctx context.Context, net *config.Network, igp *isis.Result, inputs []netmodel.Route, d Delta) *sim {
	st.merge.Do(func() {
		st.mergeUnits()
		st.indexOwners(net)
	})
	opts := st.opts
	opts.Ctx = ctx
	s := newSim(net, igp, opts)
	if st.tables != nil {
		s.tables = maps.Clone(st.tables)
	}
	s.carried = st.carried
	st.seedChanges(s, inputs, d)
	st.seedResolution(s, d)
	return s
}

// seedChanges applies to s what the delta does to the captured state itself —
// purged devices, the session graph, the originated candidates — dirtying
// every (table, prefix) it writes.
func (st *State) seedChanges(s *sim, inputs []netmodel.Route, d Delta) {
	// 1. Purge every table of a purged device; its peers learn of the loss
	// through the session diff below.
	purged := make(map[string]bool, len(d.Purged))
	for _, n := range d.Purged {
		purged[n] = true
	}
	for k := range s.tables {
		if purged[k.dev] {
			delete(s.tables, k)
		}
	}

	// 2. Diff the session graph: a removed session withdraws the sender's
	// candidates at the receiver; an added session forces the local side to
	// re-advertise its entire table. With no record there is nothing to
	// withdraw or re-advertise: the empty State's restart skips this.
	if len(s.tables) > 0 {
		st.diffSessions(s, purged)
	}

	// 3. Re-originate local candidates at the devices the delta reaches and
	// diff against the captured ones; a fresh record with no counterpart is
	// adopted whole. Aggregate candidates are maintained by the fixpoint
	// itself and carried over unchanged. The cold run collects the carried
	// prefixes as it originates; a warm restart keeps its State's.
	reached := st.reached(s.net, inputs, d)
	if len(reached) == 0 {
		return
	}
	fresh := s.sibling()
	if st.originated == nil {
		fresh.carried = make(map[netip.Prefix]bool)
		s.carried = fresh.carried
	}
	fresh.originateLocals(inputs, reached)
	diff := func(k tableKey, old, now *table) {
		prefixes := make(map[netip.Prefix]bool, now.locals.OwnLen())
		mark := func(p netip.Prefix, _ []cand) { prefixes[p] = true }
		old.locals.All(mark)
		now.locals.All(mark)
		for p := range prefixes {
			oldPlain, oldAggs := splitAggregates(old.locals.Get(p))
			newPlain := now.locals.Get(p)
			if candsSame(oldPlain, newPlain) {
				continue
			}
			s.own(k).setLocals(p, slices.Concat(newPlain, oldAggs))
			s.markDirty(s.tidOf(k), s.pidOf(p))
		}
	}
	for k, t := range s.tables {
		if reached[k.dev] && fresh.tables[k] == nil {
			diff(k, t, &table{})
		}
	}
	for k, f := range fresh.tables {
		if old := s.tables[k]; old != nil {
			diff(k, old, f)
			continue
		}
		s.tables[k] = f
		s.adopted = append(s.adopted, k)
	}
}

// diffSessions withdraws, in s, what the State's sessions missing from s's
// graph delivered, and makes the local side of every session new to s
// re-advertise its table. A session is identified by (local, remote, vrf),
// except one with a purged end: it is removed, and added again when s's
// configurations still establish it, since its policies may have changed.
func (st *State) diffSessions(s *sim, purged map[string]bool) {
	type sessID struct{ local, remote, vrf string }
	restarted := func(id sessID) bool { return purged[id.local] || purged[id.remote] }
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
			if !baseSess[id] || restarted(id) {
				// Added: the local side must (re-)advertise everything it has
				// in this vrf. Hiding the State's signatures (readvertise)
				// forces the re-advertisement even where the decision is
				// unchanged; the restart has advertised nothing yet.
				k := tableKey{sess.local, sess.vrf}
				if t := s.tables[k]; t != nil && !t.readvertise {
					s.own(k).readvertise = true
				}
				s.markTable(k)
			}
		}
	}
	for id := range baseSess {
		if newSess[id] && !restarted(id) {
			continue
		}
		// Removed: the receiver drops everything it learned over it.
		k := tableKey{id.remote, id.vrf}
		t := s.tables[k]
		if t == nil {
			continue // table already purged, or nothing to drop
		}
		tid := s.tidOf(k)
		t.adjIn.All(func(p netip.Prefix, byFrom map[string][]cand) {
			if _, ok := byFrom[id.local]; ok {
				delete(s.own(k).ownFroms(p), id.local)
				s.markDirty(tid, s.pidOf(p))
			}
		})
	}
}

// reached returns the devices whose local candidates the restart must
// originate: every up device the State did not originate at (each device, for
// the empty State; a device coming up, for a captured one) or that it purges,
// those whose input routes differ from the captured ones, compared per device
// and in order, and — when the topology or a configuration changed at all —
// those redistributing IS-IS routes. Networks, statics and direct routes
// depend on configuration alone.
func (st *State) reached(net *config.Network, inputs []netmodel.Route, d Delta) map[string]bool {
	out := make(map[string]bool)
	for name := range net.Devices {
		if n := net.Topo.Node(name); n != nil && n.Up && (!st.originated[name] || slices.Contains(d.Purged, name)) {
			out[name] = true
		}
	}
	if !slices.EqualFunc(inputs, st.inputs, netmodel.Route.Identical) {
		was, now := inputsByDevice(st.inputs, out), inputsByDevice(inputs, out)
		for _, side := range []map[string][]netmodel.Route{was, now} {
			for dev := range side {
				if !slices.EqualFunc(was[dev], now[dev], netmodel.Route.Identical) {
					out[dev] = true
				}
			}
		}
	}
	if len(d.ChangedLinks) > 0 || len(d.Purged) > 0 || len(d.DistChanged) > 0 {
		for name, dev := range net.Devices {
			for _, rd := range dev.Redistributes {
				if rd.From == netmodel.ProtoISIS {
					out[name] = true
				}
			}
		}
	}
	return out
}

// inputsByDevice groups input routes by injection device, in order, leaving
// out the devices already reached: those need no comparison.
func inputsByDevice(rs []netmodel.Route, reached map[string]bool) map[string][]netmodel.Route {
	out := make(map[string][]netmodel.Route)
	for _, r := range rs {
		if !reached[r.Device] {
			out[r.Device] = append(out[r.Device], r)
		}
	}
	return out
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
		t.locals.All(add)
		t.adjIn.All(func(p netip.Prefix, byFrom map[string][]cand) {
			for _, cs := range byFrom {
				add(p, cs)
			}
		})
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

// own returns table k's record ready for writing: created when the sim has
// none, laid over the State's when that is all it has. Every write path to
// per-table state goes through it, so a warm restart allocates a record for
// exactly the tables it touches, and copies no map: the overlay's prefix maps
// are Layers over the State's, empty until the restart writes them, and its
// RIB is an Overlay of the State's. The leaf candidate/route slices stay
// shared for good — the fixpoint only installs fresh slices, so they are
// never written through either side.
func (s *sim) own(k tableKey) *table {
	t := s.tables[k]
	switch {
	case t == nil:
		t = &table{}
	case t.shared:
		o := &table{adjIn: t.adjIn.Over(), locals: t.locals.Over(), lastAdv: t.lastAdv.Over(), aggOn: t.aggOn.Over(), overlay: true}
		if t.rib != nil {
			o.rib = t.rib.Overlay()
		}
		t = o
	default:
		return t
	}
	s.tables[k] = t
	return t
}

// ownFroms returns the record's adj-RIB-in cell for p, created when there is
// none, safe to write; the record is one own returned. A cell the record
// holds itself is private by construction; in an overlay, the State's cell is
// copied into it on its first write: copy-on-write costs O(cells written),
// not O(cells of every table touched).
func (t *table) ownFroms(p netip.Prefix) map[string][]cand {
	byFrom, mine := t.adjIn.Lookup(p)
	if mine && byFrom != nil {
		return byFrom
	}
	if byFrom = maps.Clone(byFrom); byFrom == nil {
		byFrom = make(map[string][]cand, 1)
	}
	t.adjIn.Set(p, byFrom)
	return byFrom
}

// advOf returns the signature the record last advertised for p. Once
// readvertise is set, it reads the State's signature only to tell whether
// the State advertised p at all: if so it returns a value no signature
// matches, so the next decision re-advertises, and an empty one withdraws
// what the State advertised.
func (t *table) advOf(p netip.Prefix) string {
	sig, mine := t.lastAdv.Lookup(p)
	if mine || sig == "" || !t.readvertise {
		return sig
	}
	return "\xff" // a signature is empty or far longer (appendAdvSignature)
}

// setLocals installs the record's local candidates for p; an empty slice
// removes p.
func (t *table) setLocals(p netip.Prefix, cs []cand) {
	if len(cs) == 0 {
		t.locals.Delete(p)
	} else {
		t.locals.Set(p, cs)
	}
}
