package bgp

import (
	"context"
	"net/netip"
	"slices"
	"strings"

	"hoyan/internal/config"
	"hoyan/internal/isis"
	"hoyan/internal/netmodel"
	"hoyan/internal/par"
	"hoyan/internal/policy"
	"hoyan/internal/vsb"
)

// Options configures a simulation run.
type Options struct {
	// Profiles supplies the vendor-specific behaviours per vendor. Defaults
	// to vsb.Defaults(). The accuracy-diagnosis framework passes mutated
	// profiles here to model a flawed Hoyan implementation.
	Profiles vsb.Profiles

	// MaxRounds bounds the fixpoint iteration (the production WAN converges
	// within 20 rounds; §3.1).
	MaxRounds int

	// FlawedASPathRegex injects the §5.3 AS-path regex implementation bug.
	FlawedASPathRegex bool

	// UseTEMetric makes next-hop resolution price a direct link by its TE
	// metric where the IGP has no distance to the next hop's owner (decision.go
	// resolve). The IGP result passed to Simulate must already reflect it.
	UseTEMetric bool

	// Parallelism bounds the workers of a cold run, following the
	// engine-wide par convention (0 means runtime.GOMAXPROCS(0) workers, 1 is
	// the sequential reference path, n > 1 uses n workers): the originated
	// prefixes are split into independence groups, packed into work units,
	// and each unit runs its own sequential fixpoint (units.go). It also
	// bounds Result.GlobalRIB's table fill. Results are byte-identical at
	// every setting. Warm restarts (State.ResimulateCtx) always run one
	// sequential fixpoint.
	Parallelism int

	// Ctx, when non-nil, is polled between fixpoint rounds and periodically
	// inside the decision loop; once it is done the simulation bails out
	// early and the (incomplete) result must be discarded by the caller.
	// Captured States never retain it.
	Ctx context.Context
}

func (o Options) withDefaults() Options {
	if o.Profiles == nil {
		o.Profiles = vsb.Defaults()
	}
	if o.MaxRounds == 0 {
		o.MaxRounds = 64
	}
	return o
}

// Result is the outcome of a BGP simulation: the RIBs of every (device, vrf)
// table, plus convergence metadata.
type Result struct {
	ribs      map[tableKey]*netmodel.RIB
	Rounds    int
	Converged bool
	// Messages counts total route advertisements processed (workload metric).
	Messages int
	// Par reports how the run was split into concurrently running work units
	// (all zero when one sequential fixpoint ran).
	Par ParStats
	// parallelism is the Options.Parallelism of the run; GlobalRIB fills
	// tables under the same bound.
	parallelism int
}

// ParStats counts the work units of one multi-unit run. The field names date
// from the per-round striping this replaced and are read by the benchmark and
// the telemetry series: Stripes is the number of units run, ParallelRounds
// the fixpoint rounds executed inside them (summed), and Sum/MaxStripePairs
// the (table, prefix) decisions made by all units / by the busiest one, so
// Max·Stripes/Sum is the worst unit over the mean unit.
type ParStats struct {
	ParallelRounds int
	Stripes        int
	MaxStripePairs int
	SumStripePairs int
}

type tableKey struct {
	dev string
	vrf string
}

// Table names one (device, VRF) routing table.
type Table = struct{ Device, VRF string }

// RIB returns the routing table of (device, vrf), or an empty RIB.
func (r *Result) RIB(device, vrf string) *netmodel.RIB {
	if t, ok := r.ribs[tableKey{device, vrf}]; ok {
		return t
	}
	return netmodel.NewRIB(device, vrf)
}

// Tables returns all (device, vrf) pairs with a non-empty RIB, sorted.
func (r *Result) Tables() []Table {
	keys := make([]tableKey, 0, len(r.ribs))
	for k := range r.ribs {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b tableKey) int {
		if a.dev != b.dev {
			return strings.Compare(a.dev, b.dev)
		}
		return strings.Compare(a.vrf, b.vrf)
	})
	out := make([]Table, len(keys))
	for i, k := range keys {
		out[i] = Table{k.dev, k.vrf}
	}
	return out
}

// SetRIB installs a table, replacing any existing one. The incremental
// engine uses it to share unchanged, already-expanded tables with the base
// result instead of re-expanding them per fork.
func (r *Result) SetRIB(device, vrf string, t *netmodel.RIB) {
	r.ribs[tableKey{device, vrf}] = t
}

// GlobalRIB flattens every table into the paper's global RIB abstraction,
// sorted by construction: tables are disjoint (device, VRF) blocks, so each
// is emitted in canonical order (netmodel.RIB.AppendSorted) at its
// precomputed offset of one exact-size slice, with no sort over the whole.
// Tables fill concurrently, bounded by the Parallelism of the run.
func (r *Result) GlobalRIB() *netmodel.GlobalRIB {
	tables := r.Tables()
	ribs := make([]*netmodel.RIB, len(tables))
	offs := make([]int, len(tables)+1)
	for i, t := range tables {
		ribs[i] = r.ribs[tableKey{t.Device, t.VRF}]
		offs[i+1] = offs[i] + ribs[i].Len()
	}
	rows := make([]netmodel.Route, offs[len(tables)])
	par.ForEach(r.parallelism, len(ribs), func(i int) {
		ribs[i].AppendSorted(rows[offs[i]:offs[i]:offs[i+1]])
	})
	return netmodel.NewGlobalRIBFromSorted(rows)
}

// cand is one candidate route in a device table's adj-RIB-in.
type cand struct {
	route    netmodel.Route // Device/VRF = local table; Peer = source
	ebgp     bool           // learned over eBGP (or injected input)
	local    bool           // locally originated (network/redistribute/aggregate/static)
	direct32 bool           // /32 host route from direct redistribution
	igpCost  uint32         // filled during decision
	viaSR    bool
	resolved bool
}

// msg is one advertisement (or withdrawal, when routes is empty) delivered
// to a device table.
type msg struct {
	to       string
	vrf      string
	from     string // sending device, or "leak:<vrf>" for intra-device leaks
	prefix   netip.Prefix
	routes   []netmodel.Route
	ebgp     bool
	fromAddr netip.Addr

	// tid/pid are the interned destination-table and prefix IDs, filled at
	// the advertisement site so delivery needs no map hashing.
	tid int32
	pid int32
}

// table is everything the fixpoint keeps for one (device, VRF) table: its
// adj-RIB-in (prefix → sender → candidates), its local candidates, its RIB,
// the signature of its last advertisement per prefix (suppressing redundant
// re-advertisements is what reaches the fixpoint) and whether each of its
// aggregates is active. The other fields are warm-restart bookkeeping.
//
// A warm restart's record overlays the State's (sim.own): each of its four
// prefix maps is a netmodel.Layer over the State's, holding only the
// restart's own writes, and its RIB is an Overlay of the State's.
type table struct {
	adjIn   netmodel.Layer[netip.Prefix, map[string][]cand]
	locals  netmodel.Layer[netip.Prefix, []cand]
	rib     *netmodel.RIB
	lastAdv netmodel.Layer[netip.Prefix, string]
	aggOn   netmodel.Layer[netip.Prefix, bool]

	// shared marks a record a captured State holds. Any number of warm
	// restarts read it at once, so none may write it: sim.own overlays it
	// with a record of the restart's own first.
	shared bool

	// overlay marks a record own laid over a State's. readvertise, set when a
	// session of the table came up, hides the State's advertisement
	// signatures so every prefix re-advertises (advOf).
	overlay     bool
	readvertise bool

	// owners, in a State's record, indexes the prefixes holding a candidate
	// whose next hop resolves through the IGP by the device owning that next
	// hop: a changed distance dirties its prefixes by lookup
	// (markDistAffected). Built on the first warm restart (indexOwners).
	owners map[string][]netip.Prefix
}

type sim struct {
	net  *config.Network
	igp  *isis.Result
	opts Options

	sessions map[string][]*session
	tables   map[tableKey]*table

	// carried holds the prefixes BGP can carry in this run: those of its BGP
	// candidates (inputs, network statements, redistributed routes) and of
	// the configured aggregates. Interface subnets, host routes, loopbacks
	// and unredistributed statics stay in their own table, so a default-VRF
	// table holds at most these plus its own locals (tableHint). The cold
	// restart collects them while it originates, a unit holds its groups'
	// share (splitUnits), and a warm restart reads its State's.
	carried map[netip.Prefix]bool

	// adopted lists the records seeding adopted whole. They are marked dirty
	// where the run starts (markAdopted), so a cold run split into units never
	// interns them in the sim that only seeded them.
	adopted []tableKey

	messages int

	// topoIdx is the dense-ID topology index backing the decision loop. The
	// IGP result was computed against this same index (newSim checks), so
	// resolve looks its costs up by dense ID.
	topoIdx *netmodel.TopoIndex

	// msgScratch is the round-global message buffer reused across rounds; a
	// returned batch is fully drained by deliver before the next
	// decideAndAdvertise call refills it. A warm restart borrows it from its
	// State (State.msgBufs).
	msgScratch []msg

	// scratch holds the decision buffers and arenas of the loop.
	scratch

	// decided counts the (table, prefix) decisions made.
	decided int

	// Dense table/prefix interning (dense.go): every
	// (device, vrf) table and every prefix the run touches gets a small
	// integer ID; per-table configuration derivations are cached in tinfo;
	// the round-local dirty set is a per-table bitset over prefix IDs. All of
	// this is sim-local — captured States never see it.
	tids      map[tableKey]int32
	tinfo     []*tableInfo
	tidRank   []int32 // lexical (dev, vrf) rank per tid; rebuilt on growth
	pids      map[netip.Prefix]int32
	pfxs      []netip.Prefix
	lastAddrs []netip.Addr // LastAddr per pid, for dirty-prefix ordering
	dirtyMark [][]bool
	dirtyPids [][]int32
	dirtyTids []int32
}

// Simulate runs the BGP fixpoint over the network with the given IGP result
// and input routes, returning per-table RIBs.
func Simulate(net *config.Network, igp *isis.Result, inputs []netmodel.Route, opts Options) *Result {
	res, _ := simulate(net, igp, inputs, opts)
	return res
}

// simulate is the cold run behind Simulate and SimulateWithState: the
// restart of the empty State, whose originated prefixes are split into work
// units (units.go) when more than one worker may run them. It returns the
// converged simulations next to the result: one, or the units.
func simulate(net *config.Network, igp *isis.Result, inputs []netmodel.Route, opts Options) (*Result, []*sim) {
	s := (&State{opts: opts}).restart(opts.Ctx, net, igp, inputs, Delta{})
	if units := s.splitUnits(par.Workers(s.opts.Parallelism)); len(units) > 1 {
		return runUnits(units), units
	}
	return s.runDense(), []*sim{s}
}

// newSim builds an empty simulation with its session graph. It panics when igp
// was computed on a topology other than net's: its dense IDs would name other
// devices.
func newSim(net *config.Network, igp *isis.Result, opts Options) *sim {
	s := &sim{net: net, igp: igp, opts: opts.withDefaults(), topoIdx: net.Topo.Index()}
	if igp == nil || igp.EdgeIndex() != s.topoIdx {
		panic("bgp: the IGP result was computed on another topology than the network's")
	}
	s.sessions = buildSessions(net, igp, func(dev string) bool {
		return !s.profileOf(dev).IsolationViaPolicy
	})
	return s.sibling()
}

// sibling returns an empty simulation over the same read-only inputs:
// network, IGP result, options, session graph and topology index.
func (s *sim) sibling() *sim {
	return &sim{
		net: s.net, igp: s.igp, opts: s.opts,
		sessions: s.sessions, topoIdx: s.topoIdx,
		tables: make(map[tableKey]*table),
	}
}

// ctxDone reports whether the caller's context (if any) has been cancelled;
// the fixpoint loops poll it between rounds and the decision loop polls it
// periodically so deadline-exceeded queries stop burning CPU promptly.
func (s *sim) ctxDone() bool {
	return s.opts.Ctx != nil && s.opts.Ctx.Err() != nil
}

// runDense iterates the fixpoint from the seeded dirty set, with the adopted
// records marked, until convergence or MaxRounds. The result gets a map of its
// own over the tables' RIBs: callers install tables there (SetRIB) that must
// never reach a record.
func (s *sim) runDense() *Result {
	s.markAdopted()
	rounds := 0
	converged := false
	pending := s.decideAndAdvertise()
	for rounds = 0; rounds < s.opts.MaxRounds; rounds++ {
		if len(pending) == 0 {
			converged = true
			break
		}
		if s.ctxDone() {
			break
		}
		s.deliver(pending)
		pending = s.decideAndAdvertise()
	}
	ribs := make(map[tableKey]*netmodel.RIB, len(s.tables))
	for k, t := range s.tables {
		if t.rib != nil {
			ribs[k] = t.rib
		}
	}
	return &Result{ribs: ribs, Rounds: rounds, Converged: converged, Messages: s.messages, parallelism: s.opts.Parallelism}
}

func (s *sim) profileOf(dev string) vsb.Profile {
	d := s.net.Devices[dev]
	if d == nil {
		return s.opts.Profiles.For("")
	}
	return s.opts.Profiles.For(d.Vendor)
}

func (s *sim) envOf(d *config.Device) policy.Env {
	return d.PolicyEnv(policy.Env{
		Profile:           s.profileOf(d.Name),
		FlawedASPathRegex: s.opts.FlawedASPathRegex,
	})
}

// localsOf returns table k's local candidates for originating into: in a sim
// no State backs, every local candidate of the table.
func (s *sim) localsOf(k tableKey) *netmodel.Layer[netip.Prefix, []cand] {
	return &s.own(k).locals
}

// addLocal appends c to the local candidates of its prefix in m.
func addLocal(m *netmodel.Layer[netip.Prefix, []cand], c cand) {
	m.Set(c.route.Prefix, append(m.Get(c.route.Prefix), c))
}

// tableHint is the number of prefixes table k's maps are presized for: a
// default-VRF table holds at most the carried prefixes plus its own locals.
// Non-default VRFs carry only their leaked and local slice, where a presize
// wastes more than it saves; an overlay holds only what the restart writes.
func (s *sim) tableHint(k tableKey, t *table) int {
	if k.vrf != netmodel.DefaultVRF || t.overlay {
		return 0
	}
	return len(s.carried) + t.locals.OwnLen()
}

// carry records p as carried when the sim collects what it carries (a non-nil
// carried set).
func (s *sim) carry(p netip.Prefix) {
	if s.carried != nil {
		s.carried[p] = true
	}
}

// originateLocals seeds the simulation: input routes, network statements,
// static/direct/IS-IS redistribution, per Table 5 VSBs. A non-nil reached
// limits it to the devices in that set (State.reached). It adds the prefixes
// BGP can carry to the sim's carried set, when it has one.
func (s *sim) originateLocals(inputs []netmodel.Route, reached map[string]bool) {
	// Input routes: pre-built by the input-route building service; they are
	// installed at their injection device as externally-learned candidates.
	for _, r := range inputs {
		d := s.net.Devices[r.Device]
		if d == nil || reached != nil && !reached[r.Device] {
			continue
		}
		if node := s.net.Topo.Node(r.Device); node == nil || !node.Up {
			continue
		}
		vrf := r.VRF
		if vrf == "" {
			vrf = netmodel.DefaultVRF
		}
		k := tableKey{r.Device, vrf}
		r.VRF = vrf
		if r.Source == "" {
			r.Source = r.Device
		}
		r.Peer = "input"
		if r.Protocol != netmodel.ProtoBGP {
			r.Protocol = netmodel.ProtoBGP
		}
		if r.Preference == 0 {
			r.Preference = s.profileOf(r.Device).EBGPPreference
		}
		addLocal(s.localsOf(k), cand{route: r, ebgp: true})
		s.carry(r.Prefix)
	}

	for _, name := range s.net.DeviceNames() {
		d := s.net.Devices[name]
		if node := s.net.Topo.Node(name); node == nil || !node.Up || reached != nil && !reached[name] {
			continue
		}
		prof := s.profileOf(name)
		k := tableKey{name, netmodel.DefaultVRF}
		m := s.localsOf(k)

		// network statements originate local prefixes.
		for _, p := range d.Networks {
			r := netmodel.Route{
				Device: name, VRF: netmodel.DefaultVRF, Prefix: p,
				Protocol: netmodel.ProtoBGP, NextHop: d.Loopback,
				LocalPref: 100, Origin: netmodel.OriginIGP,
				Source: name, Peer: "network",
			}
			addLocal(m, cand{route: r, local: true})
			s.carry(p)
		}

		// Redistribution.
		for _, rd := range d.Redistributes {
			for _, c := range s.redistributed(d, rd, prof) {
				addLocal(m, c)
				s.carry(c.route.Prefix)
			}
		}

		// Aggregates are originated by the fixpoint, once a contributor is
		// installed (refreshAggregate).
		for _, a := range d.Aggregates {
			s.carry(a.Prefix)
		}

		// Static routes live in their VRF's table even without
		// redistribution (they affect forwarding); modelled as RIB locals
		// with their own protocol so BGP does not advertise them unless
		// redistributed.
		for _, st := range d.Statics {
			vrf := st.VRF
			if vrf == "" {
				vrf = netmodel.DefaultVRF
			}
			sk := tableKey{name, vrf}
			r := netmodel.Route{
				Device: name, VRF: vrf, Prefix: st.Prefix,
				Protocol: netmodel.ProtoStatic, NextHop: st.NextHop,
				Preference: st.Preference, Source: name, Peer: "static",
			}
			addLocal(s.localsOf(sk), cand{route: r, local: true})
		}

		// Direct (connected) routes.
		for _, c := range s.directRoutes(d, prof, false) {
			addLocal(m, c)
		}
	}
}

// redistributed computes the BGP candidates produced by one redistribution
// statement.
func (s *sim) redistributed(d *config.Device, rd config.Redistribution, prof vsb.Profile) []cand {
	var srcRoutes []cand
	switch rd.From {
	case netmodel.ProtoStatic:
		for _, st := range d.Statics {
			if st.VRF != "" && st.VRF != netmodel.DefaultVRF {
				continue
			}
			srcRoutes = append(srcRoutes, cand{route: netmodel.Route{
				Device: d.Name, VRF: netmodel.DefaultVRF, Prefix: st.Prefix,
				Protocol: netmodel.ProtoStatic, NextHop: st.NextHop,
			}})
		}
	case netmodel.ProtoDirect:
		srcRoutes = s.directRoutes(d, prof, true)
	case netmodel.ProtoISIS:
		for _, r := range s.igp.Routes(s.net.Topo, d.Name) {
			srcRoutes = append(srcRoutes, cand{route: r})
		}
	}
	env := s.envOf(d)
	var out []cand
	for _, c := range srcRoutes {
		r := c.route
		r.Protocol = netmodel.ProtoBGP
		r.LocalPref = 100
		r.Origin = netmodel.OriginIncomplete
		// VSB: default weight on redistribution.
		r.Weight = prof.RedistributionWeight
		r.Source = d.Name
		r.Peer = "redistribute:" + rd.From.String()
		if rd.Policy != "" {
			rm, ok := d.RouteMaps[rd.Policy]
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
		out = append(out, cand{route: r, local: true, direct32: c.direct32})
	}
	return out
}

// directRoutes returns the connected routes of a device: the interface
// subnets plus, per the Table 5 VSB, the extra /32 host route produced by a
// non-/32 direct connection.
func (s *sim) directRoutes(d *config.Device, prof vsb.Profile, forRedist bool) []cand {
	var out []cand
	names := make([]string, 0, len(d.Interfaces))
	for n := range d.Interfaces {
		names = append(names, n)
	}
	slices.Sort(names)
	for _, n := range names {
		i := d.Interfaces[n]
		if !i.Addr.IsValid() {
			continue
		}
		subnet := i.Addr.Masked()
		out = append(out, cand{local: true, route: netmodel.Route{
			Device: d.Name, VRF: netmodel.DefaultVRF, Prefix: subnet,
			Protocol: netmodel.ProtoDirect, NextHop: i.Addr.Addr(),
			Source: d.Name, Peer: "direct",
		}})
		// VSB: a non-/32 direct route also produces a /32 host route;
		// whether it can be redistributed is vendor-specific.
		if i.Addr.Bits() < i.Addr.Addr().BitLen() {
			if !forRedist || prof.RedistributeDirect32 {
				host, err := i.Addr.Addr().Prefix(i.Addr.Addr().BitLen())
				if err == nil {
					out = append(out, cand{local: true, direct32: true, route: netmodel.Route{
						Device: d.Name, VRF: netmodel.DefaultVRF, Prefix: host,
						Protocol: netmodel.ProtoDirect, NextHop: i.Addr.Addr(),
						Source: d.Name, Peer: "direct",
					}})
				}
			}
		}
	}
	if d.Loopback.IsValid() {
		if lo, err := d.Loopback.Prefix(d.Loopback.BitLen()); err == nil {
			out = append(out, cand{local: true, route: netmodel.Route{
				Device: d.Name, VRF: netmodel.DefaultVRF, Prefix: lo,
				Protocol: netmodel.ProtoDirect, NextHop: d.Loopback,
				Source: d.Name, Peer: "direct",
			}})
		}
	}
	return out
}

// deliver processes a batch of messages: ingress policy, loop prevention,
// adj-RIB-in update. The accepted slice is sized exactly once per message,
// withdrawals allocate nothing, the per-device profile/env/session lookups
// come from the interned tableInfo, and the import policy is resolved once
// per message instead of once per route.
func (s *sim) deliver(msgs []msg) {
	for i := range msgs {
		m := &msgs[i]
		s.messages++
		ti := s.tinfo[m.tid]
		if ti.dev == nil {
			continue
		}
		s.commitDelivery(m, ti, s.acceptedFor(m, ti))
	}
}

// acceptedFor computes the candidate set one message installs into its
// table's adj-RIB-in cell: import policy, AS-loop prevention, session-type
// defaults.
func (s *sim) acceptedFor(m *msg, ti *tableInfo) []cand {
	if len(m.routes) == 0 {
		return nil
	}
	d, prof := ti.dev, ti.prof
	// The import policy depends only on the session, not the route.
	var pol *policy.RouteMap
	ok := true
	if !strings.HasPrefix(m.from, "leak:") {
		nb := s.neighborConfigFor(d, m.from, m.vrf)
		pol, ok = s.importPolicy(d, nb, m.from, prof, m.ebgp)
	}
	if !ok {
		return nil
	}
	accepted := s.takeCands(len(m.routes))
	for _, r := range m.routes {
		r.Device, r.VRF = m.to, m.vrf
		r.Peer = m.from
		// eBGP AS-loop prevention.
		if m.ebgp && r.ASPath.Contains(d.ASN) {
			continue
		}
		// Session-type defaults, applied before the import policy
		// so the policy can override them.
		if m.ebgp {
			r.LocalPref = 100
			r.Preference = prof.EBGPPreference
		} else if r.Preference == 0 {
			r.Preference = prof.IBGPPreference
		}
		r.Weight = 0
		r.IGPCost = 0
		r.RouteType = netmodel.RouteCandidate

		if pol != nil {
			var disp policy.Disposition
			r, disp = ti.env.Apply(pol, r, m.fromAddr, d.ASN)
			if disp == policy.Reject {
				continue
			}
		}
		accepted = append(accepted, cand{route: r, ebgp: m.ebgp})
	}
	return accepted
}

// commitDelivery installs one message's acceptance result into the
// adj-RIB-in and marks the (table, prefix) dirty when the cell changed;
// unused candidate-arena tails go back to the arena.
func (s *sim) commitDelivery(m *msg, ti *tableInfo, accepted []cand) {
	k := ti.k
	// A message that does not change the adj-RIB-in cell leaves the
	// decision inputs untouched: re-deciding would reproduce the same
	// rows and signature, so the (table, prefix) is not marked dirty.
	// The one exception is the synthetic "agg:refresh" signal, whose
	// whole purpose is to force a re-decision after the local candidate
	// set was mutated in place.
	changed := m.from == "agg:refresh"
	if len(accepted) == 0 {
		if cap(accepted) > 0 {
			s.giveBackCands(cap(accepted))
		}
		// Withdrawal: only touch cells that already exist.
		if t := s.tables[k]; t != nil {
			if _, had := t.adjIn.Get(m.prefix)[m.from]; had {
				delete(s.own(k).ownFroms(m.prefix), m.from)
				changed = true
			}
		}
	} else {
		t := s.own(k)
		if t.adjIn.OwnLen() == 0 {
			t.adjIn.Grow(s.tableHint(k, t))
		}
		if old, had := t.adjIn.Get(m.prefix)[m.from]; !had || !candsSame(old, accepted) {
			t.ownFroms(m.prefix)[m.from] = accepted
			changed = true
		} else {
			s.giveBackCands(cap(accepted))
		}
	}
	if changed {
		s.markDirty(m.tid, m.pid)
	}
}

// candsSame reports whether two candidate slices hold identical candidates:
// the same flags and Identical routes, in order. Resolution state is filled
// on scratch copies during decide, so stored candidates carry nothing else;
// a delivered cell's carry only the route and the ebgp flag.
func candsSame(a, b []cand) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := &a[i], &b[i]
		if x.ebgp != y.ebgp || x.local != y.local || x.direct32 != y.direct32 || !x.route.Identical(y.route) {
			return false
		}
	}
	return true
}

// neighborConfigFor finds the local neighbor configuration matching an
// incoming message's sender.
func (s *sim) neighborConfigFor(d *config.Device, from, vrf string) *config.Neighbor {
	for _, sess := range s.sessions[d.Name] {
		if sess.remote == from && sess.vrf == vrf {
			return sess.nb
		}
	}
	return nil
}

// importPolicy resolves the import policy for a session under the missing-
// and undefined-policy VSBs. pol == nil with ok == true means "accept
// unfiltered".
func (s *sim) importPolicy(d *config.Device, nb *config.Neighbor, remote string, prof vsb.Profile, ebgp bool) (*policy.RouteMap, bool) {
	name := ""
	if nb != nil {
		name = nb.ImportPolicy
		if name == "" && nb.VRF != netmodel.DefaultVRF && prof.SubViewInheritsOptions {
			// VSB: sub-view (VRF address family) sessions inherit the global
			// session's policy bindings on inheriting vendors.
			if g := s.globalSessionNeighbor(d.Name, remote); g != nil {
				name = g.ImportPolicy
			}
		}
	}
	if name == "" {
		// VSB: missing policy. iBGP updates are always accepted.
		if ebgp && !prof.AcceptOnMissingPolicy {
			return nil, false
		}
		return nil, true
	}
	rm, ok := d.RouteMaps[name]
	if !ok {
		// VSB: undefined policy.
		return nil, prof.AcceptOnUndefinedPolicy
	}
	return rm, true
}

// globalSessionNeighbor finds the default-VRF session from dev to the same
// remote device, for the sub-view inheritance VSB.
func (s *sim) globalSessionNeighbor(dev, remote string) *config.Neighbor {
	for _, sess := range s.sessions[dev] {
		if sess.remote == remote && sess.vrf == netmodel.DefaultVRF {
			return sess.nb
		}
	}
	return nil
}

// exportPolicy mirrors importPolicy for the egress direction; a missing
// export policy always advertises.
func (s *sim) exportPolicy(d *config.Device, nb *config.Neighbor, remote string, prof vsb.Profile) (*policy.RouteMap, bool) {
	name := ""
	if nb != nil {
		name = nb.ExportPolicy
		if name == "" && nb.VRF != netmodel.DefaultVRF && prof.SubViewInheritsOptions {
			if g := s.globalSessionNeighbor(d.Name, remote); g != nil {
				name = g.ExportPolicy
			}
		}
	}
	if name == "" {
		return nil, true
	}
	rm, ok := d.RouteMaps[name]
	if !ok {
		return nil, prof.AcceptOnUndefinedPolicy
	}
	return rm, true
}
