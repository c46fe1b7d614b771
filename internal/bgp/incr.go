package bgp

import (
	"context"
	"net/netip"
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

	// units holds the captured work units of a multi-unit run until the first
	// warm restart unions them into the maps above (merge): a one-shot audit
	// never pays for a State it does not use.
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
	// ChangedDevices is every device whose table content actually differs
	// from the base state (purged or re-decided to different rows).
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
// across scenarios, shards and queries instead.
func (st *State) ResimulateCtx(ctx context.Context, net *config.Network, igp *isis.Result, inputs []netmodel.Route, d Delta) (*Result, *ResimStats) {
	st.merge.Do(st.mergeUnits)
	opts := st.opts
	opts.Ctx = ctx
	s := newSim(net, igp, opts)
	// Copy-on-write: only the outer maps are copied here; each table's inner
	// maps stay shared with the captured state until the first write to that
	// table privatizes them (sim.own). Warm restarts typically write a small
	// fraction of the tables, so this skips most of the cloning work.
	s.adjIn = outerCopy(st.adjIn)
	s.locals = outerCopy(st.locals)
	s.ribs = outerCopy(st.ribs)
	s.lastAdv = outerCopy(st.lastAdv)
	s.aggOn = outerCopy(st.aggOn)
	s.shared = make(map[tableKey]bool, len(st.ribs))
	for _, k := range s.tableKeys() {
		s.shared[k] = true
	}

	changed := make(map[string]bool)
	s.dirtyDevs = changed

	dirty := make(map[tableKey]map[netip.Prefix]bool)
	mark := func(k tableKey, p netip.Prefix) {
		if dirty[k] == nil {
			dirty[k] = make(map[netip.Prefix]bool)
		}
		dirty[k][p] = true
	}
	// markTable dirties every prefix the table has any state for.
	markTable := func(k tableKey) {
		for p := range s.locals[k] {
			mark(k, p)
		}
		for p := range s.adjIn[k] {
			mark(k, p)
		}
		if rib := s.ribs[k]; rib != nil {
			for _, p := range rib.Prefixes() {
				mark(k, p)
			}
		}
	}

	stats := &ResimStats{TablesTotal: len(st.ribs)}

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
			changed[k.dev] = true
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
				markTable(k)
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
			mark(k, p)
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
			mark(k, p)
		}
	}

	// 4. Tables whose next-hop resolution environment changed. Endpoints of
	// flipped links re-decide everything: resolution consults their adjacent
	// links and direct subnets without going through the IGP (FindLink,
	// onDirectSubnet). Any other device with a changed IGP view re-decides
	// only the prefixes holding a candidate whose next-hop owner's distance
	// changed — resolution reads the IGP solely as dist(dev, owner), so no
	// other prefix can resolve differently.
	endpoints := make(map[string]bool, 2*len(d.ChangedLinks))
	for _, id := range d.ChangedLinks {
		endpoints[id.A] = true
		endpoints[id.B] = true
	}
	if len(endpoints) > 0 || len(d.DistChanged) > 0 {
		for _, k := range s.tableKeys() {
			if endpoints[k.dev] {
				markTable(k)
				continue
			}
			if cd := d.DistChanged[k.dev]; len(cd) > 0 {
				s.markDistAffected(k, cd, mark)
			}
		}
	}

	stats.TablesDirty = len(dirty)
	res := s.run(dirty)
	stats.Rounds = res.Rounds

	// Many seeded-dirty tables re-decide to exactly their base rows. Shrink
	// the changed set to devices whose content actually differs, so the
	// downstream stages (expansion, global-RIB merge, flow re-forwarding)
	// reuse base state for the rest.
	sKeys := ribKeysByDev(s.ribs, changed)
	stKeys := ribKeysByDev(st.ribs, changed)
	for dev := range changed {
		a, b := sKeys[dev], stKeys[dev]
		if len(a) != len(b) {
			continue
		}
		same := true
		for _, k := range a {
			base, ok := st.ribs[k]
			if !ok || !s.ribs[k].EqualContent(base) {
				same = false
				break
			}
		}
		if same {
			delete(changed, dev)
		}
	}
	// Callers post-process changed devices' tables in place (prefix
	// expansion), so none of them may still alias the captured state.
	for _, k := range s.tableKeys() {
		if changed[k.dev] {
			s.own(k)
		}
	}
	stats.ChangedDevices = changed
	return res, stats
}

// markDistAffected dirties the prefixes of table k that hold at least one
// candidate whose resolution depends on a changed distance. Local non-static
// candidates resolve trivially; next hops owned by the device itself cost 0
// either way; unknown owners resolve through direct subnets, which only
// adjacency changes (handled by endpoint marking) can affect.
func (s *sim) markDistAffected(k tableKey, cd map[string]bool, mark func(tableKey, netip.Prefix)) {
	affects := func(cs []cand) bool {
		for _, c := range cs {
			if c.local && c.route.Protocol != netmodel.ProtoStatic {
				continue
			}
			nh := c.route.NextHop
			if !nh.IsValid() {
				continue
			}
			owner := s.net.Topo.AddrOwner(nh)
			if owner == "" || owner == k.dev {
				continue
			}
			if cd[owner] {
				return true
			}
		}
		return false
	}
	for p, cs := range s.locals[k] {
		if affects(cs) {
			mark(k, p)
		}
	}
	for p, byFrom := range s.adjIn[k] {
		for _, cs := range byFrom {
			if affects(cs) {
				mark(k, p)
				break
			}
		}
	}
}

// ribKeysByDev indexes table keys by device, restricted to devices in want.
func ribKeysByDev(m map[tableKey]*netmodel.RIB, want map[string]bool) map[string][]tableKey {
	out := make(map[string][]tableKey, len(want))
	for k := range m {
		if want[k.dev] {
			out[k.dev] = append(out[k.dev], k)
		}
	}
	return out
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

// outerCopy copies only the per-table map; the inner values stay shared until
// sim.own privatizes a table.
func outerCopy[V any](m map[tableKey]V) map[tableKey]V {
	out := make(map[tableKey]V, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// own privatizes table k's inner maps when they are still shared with a
// captured State. Every write path to per-table state calls it first, so a
// warm restart clones exactly the tables it touches. The cloned structure
// stops at the leaf candidate/route slices: the fixpoint only installs fresh
// slices, so shared leaves are never written through either side.
func (s *sim) own(k tableKey) {
	if !s.shared[k] {
		return
	}
	delete(s.shared, k)
	if m, ok := s.adjIn[k]; ok {
		cp := make(map[netip.Prefix]map[string][]cand, len(m))
		for p, byFrom := range m {
			fp := make(map[string][]cand, len(byFrom))
			for from, cs := range byFrom {
				fp[from] = cs
			}
			cp[p] = fp
		}
		s.adjIn[k] = cp
	}
	if m, ok := s.locals[k]; ok {
		cp := make(map[netip.Prefix][]cand, len(m))
		for p, cs := range m {
			cp[p] = cs
		}
		s.locals[k] = cp
	}
	if t, ok := s.ribs[k]; ok {
		s.ribs[k] = t.ShallowClone()
	}
	if m, ok := s.lastAdv[k]; ok {
		cp := make(map[netip.Prefix]string, len(m))
		for p, sig := range m {
			cp[p] = sig
		}
		s.lastAdv[k] = cp
	}
	if m, ok := s.aggOn[k]; ok {
		cp := make(map[netip.Prefix]bool, len(m))
		for p, on := range m {
			cp[p] = on
		}
		s.aggOn[k] = cp
	}
}

func cloneRIBs(m map[tableKey]*netmodel.RIB) map[tableKey]*netmodel.RIB {
	out := make(map[tableKey]*netmodel.RIB, len(m))
	for k, rib := range m {
		out[k] = rib.ShallowClone()
	}
	return out
}
