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
// the session graph, adj-RIB-ins, local candidates, per-table RIBs, and the
// advertisement-suppression bookkeeping, all as of the fixpoint.
//
// The captured maps own their structure but share candidate/route slices with
// whoever else read the base result; that is safe because the simulation only
// ever installs fresh slices (deliver, decide, refreshAggregate) and never
// mutates stored ones. The RIBs are shallow clones taken before the engine
// expands representative prefixes in place, so a State stays pristine however
// the corresponding Result is post-processed.
type State struct {
	opts     Options
	sessions map[string][]*session
	adjIn    map[tableKey]map[netip.Prefix]map[string][]cand
	locals   map[tableKey]map[netip.Prefix][]cand
	ribs     map[tableKey]*netmodel.RIB
	lastAdv  map[tableKey]map[netip.Prefix]string
	aggOn    map[tableKey]map[netip.Prefix]bool

	// owners indexes, per table, the prefixes holding a candidate whose next
	// hop resolves through the IGP, by the device owning that next hop: a
	// changed distance dirties its prefixes by lookup (markDistAffected).
	owners map[tableKey]map[string][]netip.Prefix

	// units holds the captured work units of a multi-unit run until the first
	// warm restart unions them into the maps above and builds owners (merge):
	// a one-shot audit never pays for a State it does not use.
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
	// written by the restart and never aliases the State; any other table of
	// the result may. A purged device's tables are in neither.
	ChangedPrefixes map[Table]map[netip.Prefix]bool
	// ChangedDevices is every device whose table content differs from the
	// base state: the devices of ChangedPrefixes plus the purged ones.
	ChangedDevices map[string]bool
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
		// The result hands out this sim's tables, which callers expand in
		// place; the State keeps pristine clones.
		units[0].ribs = cloneRIBs(units[0].ribs)
		return res, units[0]
	}
	// A multi-unit result holds unions of the units' tables, so the units'
	// own stay pristine.
	return res, &State{opts: units[0].opts, sessions: units[0].sessions, units: units}
}

// capture wraps the sim's converged maps as a State.
func (s *sim) capture() *State {
	// A captured State never retains the originating run's context: a later
	// warm restart must not observe a long-cancelled deadline. ResimulateCtx
	// installs the restart's own context instead.
	opts := s.opts
	opts.Ctx = nil
	return &State{
		opts: opts, sessions: s.sessions,
		adjIn: s.adjIn, locals: s.locals, ribs: s.ribs, lastAdv: s.lastAdv, aggOn: s.aggOn,
	}
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
// here, and changed decisions always re-advertise (advSignature covers all
// exported fields), so changes cascade exactly as they would from scratch.
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
	dirty := make(dirtySet)
	purged := st.seedChanges(s, inputs, d, dirty)
	st.seedResolution(s, d, dirty)
	stats := &ResimStats{TablesTotal: len(st.ribs), ChangedDevices: purged}
	stats.TablesDirty = len(dirty)
	res := s.run(dirty)
	stats.Rounds = res.Rounds

	// Many seeded-dirty tables re-decide to exactly their base rows; what is
	// left in s.changed is what the downstream stages (expansion, global-RIB
	// emission, flow re-forwarding) have to redo.
	stats.ChangedPrefixes = make(map[Table]map[netip.Prefix]bool, len(s.changed))
	for k, ps := range s.changed {
		if len(ps) > 0 {
			stats.ChangedPrefixes[Table{k.dev, k.vrf}] = ps
			stats.ChangedDevices[k.dev] = true
		}
	}
	return res, stats
}

// warmSim returns a simulation over net that holds the captured state
// copy-on-write: only the outer maps are copied here; each table's inner maps
// stay shared with the State until the first write to that table privatizes
// them (sim.own), and an adj-RIB-in cell until its own first write
// (sim.ownFroms). Warm restarts typically write a small fraction of the
// tables, and few prefixes of those.
func (st *State) warmSim(ctx context.Context, net *config.Network, igp *isis.Result) *sim {
	opts := st.opts
	opts.Ctx = ctx
	s := newSim(net, igp, opts)
	s.adjIn = maps.Clone(st.adjIn)
	s.locals = maps.Clone(st.locals)
	s.ribs = maps.Clone(st.ribs)
	s.lastAdv = maps.Clone(st.lastAdv)
	s.aggOn = maps.Clone(st.aggOn)
	s.shared = make(map[tableKey]bool, len(st.ribs))
	for _, k := range s.tableKeys() {
		s.shared[k] = true
	}
	s.privIn = make(map[tableKey]map[netip.Prefix]bool)
	s.baseRIBs = st.ribs
	s.changed = make(map[tableKey]map[netip.Prefix]bool)
	return s
}

// dirtySet is the seed of a fixpoint: the (table, prefix) pairs to decide.
type dirtySet map[tableKey]map[netip.Prefix]bool

func (ds dirtySet) mark(k tableKey, p netip.Prefix) {
	if ds[k] == nil {
		ds[k] = make(map[netip.Prefix]bool)
	}
	ds[k][p] = true
}

// markTable dirties every prefix the table has any state for.
func (ds dirtySet) markTable(s *sim, k tableKey) {
	for p := range s.locals[k] {
		ds.mark(k, p)
	}
	for p := range s.adjIn[k] {
		ds.mark(k, p)
	}
	if rib := s.ribs[k]; rib != nil {
		for _, p := range rib.Prefixes() {
			ds.mark(k, p)
		}
	}
}

// seedChanges applies to s what the delta does to the captured state itself —
// purged devices, the session graph, the originated candidates — dirtying
// every (table, prefix) it writes. It returns the purged devices.
func (st *State) seedChanges(s *sim, inputs []netmodel.Route, d Delta, dirty dirtySet) map[string]bool {
	// 1. Purge every table of a downed device; its peers learn of the loss
	// through the session diff below.
	down := make(map[string]bool, len(d.NodesDown))
	for _, n := range d.NodesDown {
		down[n] = true
	}
	if len(down) > 0 {
		for _, k := range s.tableKeys() {
			if !down[k.dev] {
				continue
			}
			delete(s.adjIn, k)
			delete(s.locals, k)
			delete(s.ribs, k)
			delete(s.lastAdv, k)
			delete(s.aggOn, k)
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
				delete(s.lastAdv, k)
				dirty.markTable(s, k)
			}
		}
	}
	for id := range baseSess {
		if newSess[id] {
			continue
		}
		// Removed: the receiver drops everything it learned over it.
		k := tableKey{id.remote, id.vrf}
		if down[k.dev] {
			continue // table already purged
		}
		s.own(k)
		for p, byFrom := range s.adjIn[k] {
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
				delete(s.adjIn[k], p)
			} else {
				s.adjIn[k][p] = fresh
			}
			dirty.mark(k, p)
		}
	}

	// 3. Re-originate local candidates on the new network and diff against
	// the captured ones: input-route changes, direct/redistributed routes
	// that appear or vanish with topology state. Aggregate candidates are
	// maintained by the fixpoint itself and carried over unchanged.
	fresh := s.sibling()
	fresh.originateLocals(inputs)
	for _, k := range unionKeys(s.locals, fresh.locals) {
		if down[k.dev] {
			continue
		}
		prefixes := make(map[netip.Prefix]bool)
		for p := range s.locals[k] {
			prefixes[p] = true
		}
		for p := range fresh.locals[k] {
			prefixes[p] = true
		}
		for p := range prefixes {
			oldAll := s.locals[k][p]
			oldPlain, oldAggs := splitAggregates(oldAll)
			newPlain := fresh.locals[k][p]
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
			dirty.mark(k, p)
		}
	}
	return down
}

// seedResolution dirties what the delta leaves as it was but may resolve
// differently. Endpoints of flipped links re-decide everything: resolution
// consults their adjacent links and direct subnets without going through the
// IGP (FindLink, onDirectSubnet). Any other device with a changed IGP view
// re-decides only the prefixes holding a candidate whose next-hop owner's
// distance changed — resolution reads the IGP solely as dist(dev, owner), so
// no other prefix can resolve differently.
func (st *State) seedResolution(s *sim, d Delta, dirty dirtySet) {
	endpoints := make(map[string]bool, 2*len(d.ChangedLinks))
	for _, id := range d.ChangedLinks {
		endpoints[id.A] = true
		endpoints[id.B] = true
	}
	if len(endpoints) == 0 && len(d.DistChanged) == 0 {
		return
	}
	for _, k := range s.tableKeys() {
		if endpoints[k.dev] {
			dirty.markTable(s, k)
		} else if cd := d.DistChanged[k.dev]; len(cd) > 0 {
			st.markDistAffected(k, cd, dirty)
		}
	}
}

// noteInstall records, in a warm restart, whether the rows a decision just
// installed for (k, p) differ from the captured state's. A prefix decided
// again in a later round is judged again, so the set reflects the final rows.
func (s *sim) noteInstall(k tableKey, p netip.Prefix, rows []netmodel.Route) {
	if s.changed == nil {
		return
	}
	var base []netmodel.Route
	if t := s.baseRIBs[k]; t != nil {
		base = t.Routes(p)
	}
	if slices.EqualFunc(rows, base, netmodel.Route.Identical) {
		delete(s.changed[k], p)
		return
	}
	if s.changed[k] == nil {
		s.changed[k] = make(map[netip.Prefix]bool)
	}
	s.changed[k][p] = true
}

// indexOwners builds owners from the captured candidates. Resolution reads
// the IGP only as dist(table's device, owner of the next hop): local
// non-static candidates resolve trivially; next hops owned by the device
// itself cost 0 either way; unknown owners resolve through direct subnets,
// which only adjacency changes (endpoint marking) affect. Address ownership
// survives up/down toggles, so any network a Delta describes gives this index.
func (st *State) indexOwners(net *config.Network) {
	st.owners = make(map[tableKey]map[string][]netip.Prefix)
	add := func(k tableKey, p netip.Prefix, cs []cand) {
		for _, c := range cs {
			if c.local && c.route.Protocol != netmodel.ProtoStatic {
				continue
			}
			owner := net.Topo.AddrOwner(c.route.NextHop)
			if owner == "" || owner == k.dev {
				continue
			}
			m := st.owners[k]
			if m == nil {
				m = make(map[string][]netip.Prefix)
				st.owners[k] = m
			}
			if ps := m[owner]; len(ps) == 0 || ps[len(ps)-1] != p {
				m[owner] = append(ps, p)
			}
		}
	}
	for k, m := range st.locals {
		for p, cs := range m {
			add(k, p, cs)
		}
	}
	for k, m := range st.adjIn {
		for p, byFrom := range m {
			for _, cs := range byFrom {
				add(k, p, cs)
			}
		}
	}
}

// markDistAffected dirties the prefixes of table k holding a candidate whose
// resolution depends on a distance in cd. It reads the captured candidates:
// wherever seedChanges edited a prefix's candidates, that prefix is dirty
// anyway.
func (st *State) markDistAffected(k tableKey, cd map[string]bool, dirty dirtySet) {
	for owner, ps := range st.owners[k] {
		if cd[owner] {
			for _, p := range ps {
				dirty.mark(k, p)
			}
		}
	}
}

// tableKeys returns every table the simulation has any state for.
func (s *sim) tableKeys() []tableKey {
	seen := make(map[tableKey]bool)
	for k := range s.locals {
		seen[k] = true
	}
	for k := range s.adjIn {
		seen[k] = true
	}
	for k := range s.ribs {
		seen[k] = true
	}
	for k := range s.lastAdv {
		seen[k] = true
	}
	for k := range s.aggOn {
		seen[k] = true
	}
	out := make([]tableKey, 0, len(seen))
	for k := range seen {
		out = append(out, k)
	}
	return out
}

func unionKeys(a, b map[tableKey]map[netip.Prefix][]cand) []tableKey {
	seen := make(map[tableKey]bool, len(a)+len(b))
	for k := range a {
		seen[k] = true
	}
	for k := range b {
		seen[k] = true
	}
	out := make([]tableKey, 0, len(seen))
	for k := range seen {
		out = append(out, k)
	}
	return out
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

// own privatizes table k's inner maps when they are still shared with a
// captured State. Every write path to per-table state calls it first, so a
// warm restart clones exactly the tables it touches. Only the table's outer
// maps are copied: the adj-RIB-in cells stay shared until ownFroms clones the
// one being written, and the leaf candidate/route slices for good — the
// fixpoint only installs fresh slices, so shared leaves are never written
// through either side.
func (s *sim) own(k tableKey) {
	if !s.shared[k] {
		return
	}
	delete(s.shared, k)
	if m, ok := s.adjIn[k]; ok {
		s.adjIn[k] = maps.Clone(m)
	}
	if m, ok := s.locals[k]; ok {
		s.locals[k] = maps.Clone(m)
	}
	if t, ok := s.ribs[k]; ok {
		s.ribs[k] = t.ShallowClone()
	}
	if m, ok := s.lastAdv[k]; ok {
		s.lastAdv[k] = maps.Clone(m)
	}
	if m, ok := s.aggOn[k]; ok {
		s.aggOn[k] = maps.Clone(m)
	}
}

// ownFroms returns byFrom — table k's adj-RIB-in cell for p, nil when there
// is none — safe to write; the caller has run own(k). In a warm restart the
// cell is the captured State's until its first write clones it here:
// copy-on-write costs O(cells written), not O(cells of every table touched).
func (s *sim) ownFroms(k tableKey, p netip.Prefix, byFrom map[string][]cand) map[string][]cand {
	if byFrom == nil || s.shared == nil || s.privIn[k][p] {
		return byFrom
	}
	if s.privIn[k] == nil {
		s.privIn[k] = make(map[netip.Prefix]bool)
	}
	s.privIn[k][p] = true
	byFrom = maps.Clone(byFrom)
	s.adjIn[k][p] = byFrom
	return byFrom
}

func cloneRIBs(m map[tableKey]*netmodel.RIB) map[tableKey]*netmodel.RIB {
	out := make(map[tableKey]*netmodel.RIB, len(m))
	for k, rib := range m {
		out[k] = rib.ShallowClone()
	}
	return out
}
