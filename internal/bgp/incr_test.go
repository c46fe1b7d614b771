package bgp

import (
	"fmt"
	"maps"
	"math/rand"
	"net/netip"
	"reflect"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"hoyan/internal/config"
	"hoyan/internal/gen"
	"hoyan/internal/isis"
	"hoyan/internal/netmodel"
)

// dirtyPairs reads the sim's dense dirty set back as (table, prefix) pairs.
func (s *sim) dirtyPairs() map[tableKey]map[netip.Prefix]bool {
	out := make(map[tableKey]map[netip.Prefix]bool, len(s.dirtyTids))
	for _, tid := range s.dirtyTids {
		ps := make(map[netip.Prefix]bool, len(s.dirtyPids[tid]))
		for _, pid := range s.dirtyPids[tid] {
			ps[s.pfxs[pid]] = true
		}
		out[s.tinfo[tid].k] = ps
	}
	return out
}

// scanDistAffected is the whole-table scan the owner index replaced, kept
// verbatim as its reference: it reads the restart's own (already edited)
// candidates where the index reads the captured ones, and dirties in s.
func scanDistAffected(s *sim, k tableKey, cd map[string]bool) {
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
	t := s.tables[k]
	if t == nil {
		return
	}
	t.locals.All(func(p netip.Prefix, cs []cand) {
		if affects(cs) {
			s.markDirty(s.tidOf(k), s.pidOf(p))
		}
	})
	t.adjIn.All(func(p netip.Prefix, byFrom map[string][]cand) {
		for _, cs := range byFrom {
			if affects(cs) {
				s.markDirty(s.tidOf(k), s.pidOf(p))
				break
			}
		}
	})
}

// topoDelta fails the given links and nodes on a clone of net and returns the
// clone, its IGP result and the bgp.Delta core.Fork would hand ResimulateCtx.
func topoDelta(net *config.Network, igp *isis.Result, links []netmodel.LinkID, nodes []string) (*config.Network, *isis.Result, Delta) {
	net2 := net.Clone()
	for _, id := range links {
		net2.Topo.SetLinkUp(id, false)
	}
	for _, n := range nodes {
		net2.Topo.SetNodeUp(n, false)
	}
	igp2, touched, _ := isis.Recompute(net2.Topo, igp, isis.Delta{Links: links, NodesDown: nodes}, isis.Options{})
	d := Delta{DistChanged: make(map[string]map[string]bool), ChangedLinks: links, Purged: nodes}
	for src, hit := range touched {
		if dc, _ := isis.Diff(igp, igp2, src); hit && len(dc) > 0 {
			d.DistChanged[src] = dc
		}
	}
	return net2, igp2, d
}

// seedBothWays seeds a warm restart twice from the same state and delta: with
// the owner index, as ResimulateCtx does, and with the scan in its place — a
// restart told only the flipped links and downed nodes (the endpoints it marks
// are the scan's too), then the scan over the tables whose IGP view moved.
func seedBothWays(st *State, net *config.Network, igp *isis.Result, inputs []netmodel.Route, d Delta) (indexed, scanned map[tableKey]map[netip.Prefix]bool) {
	indexed = st.restart(nil, net, igp, inputs, d).dirtyPairs()
	s := st.restart(nil, net, igp, inputs, Delta{ChangedLinks: d.ChangedLinks, Purged: d.Purged})
	endpoints := make(map[string]bool)
	for _, id := range d.ChangedLinks {
		endpoints[id.A], endpoints[id.B] = true, true
	}
	for k := range s.tables {
		if cd := d.DistChanged[k.dev]; len(cd) > 0 && !endpoints[k.dev] {
			scanDistAffected(s, k, cd)
		}
	}
	return indexed, s.dirtyPairs()
}

// TestOwnerIndexDirtiesWhatTheScanDid: on 50 random link, multi-link and
// node-down deltas the restart seeded through the next-hop owner index holds
// exactly the (table, prefix) pairs the candidate scan seeded — same tables
// dirty, same prefixes in each — and the warm result still equals a
// from-scratch run and is a stable state.
func TestOwnerIndexDirtiesWhatTheScanDid(t *testing.T) {
	out := gen.Generate(gen.WAN(2))
	igp := isis.Compute(out.Net.Topo, isis.Options{})
	_, st := SimulateWithState(out.Net, igp, out.Inputs, Options{})
	rnd := rand.New(rand.NewSource(16))
	links, names := out.Net.Topo.Links(), out.Net.Topo.NodeNames()
	distMarked := 0
	for trial := 0; trial < 50; trial++ {
		var down []netmodel.LinkID
		var nodes []string
		switch trial % 3 {
		case 0:
			down = []netmodel.LinkID{links[rnd.Intn(len(links))].ID()}
		case 1:
			down = []netmodel.LinkID{links[rnd.Intn(len(links))].ID(), links[rnd.Intn(len(links))].ID()}
		case 2:
			nodes = []string{names[rnd.Intn(len(names))]}
		}
		net2, igp2, d := topoDelta(out.Net, igp, down, nodes)
		indexed, scanned := seedBothWays(st, net2, igp2, out.Inputs, d)
		if !reflect.DeepEqual(indexed, scanned) {
			t.Fatalf("trial %d (%v, %v down): index seeds %d tables, scan %d, or their prefixes differ", trial, down, nodes, len(indexed), len(scanned))
		}
		res, stats := st.ResimulateCtx(nil, net2, igp2, out.Inputs, d)
		if stats.TablesDirty != len(scanned) {
			t.Fatalf("trial %d: TablesDirty = %d, the scan seeds %d", trial, stats.TablesDirty, len(scanned))
		}
		if ref := Simulate(net2, igp2, out.Inputs, Options{Parallelism: 1}); !res.GlobalRIB().Equal(ref.GlobalRIB()) {
			t.Fatalf("trial %d (%v, %v down): warm restart differs from a from-scratch run", trial, down, nodes)
		}
		mustCheck(t, fmt.Sprintf("trial %d, warm restart", trial), net2, igp2, out.Inputs, res)
		s := st.restart(nil, out.Net, igp, out.Inputs, Delta{}) // nothing dirty
		for k, cd := range d.DistChanged {
			for tk := range st.tables {
				if tk.dev == k {
					st.markDistAffected(s, tk, cd)
				}
			}
		}
		for _, ps := range s.dirtyPairs() {
			distMarked += len(ps)
		}
	}
	if distMarked == 0 {
		t.Fatal("no delta moved a distance some candidate resolves through; the index went untested")
	}
}

// TestDistAffectedWorkPinned pins the work of the distance step for link
// core-0-0--core-0-1 at WAN(4): the prefixes markDistAffected dirties are
// exactly those holding a candidate whose next-hop owner's distance changed —
// counted here by brute force over every candidate — not the prefixes of the
// tables whose IGP view moved.
func TestDistAffectedWorkPinned(t *testing.T) {
	out := gen.Generate(gen.WAN(4))
	igp := isis.Compute(out.Net.Topo, isis.Options{})
	_, st := SimulateWithState(out.Net, igp, out.Inputs, Options{Parallelism: 1})
	link := out.Net.Topo.FindLink("core-0-0", "core-0-1")
	if link == nil {
		t.Fatal("fixture: no link core-0-0--core-0-1")
	}
	_, _, d := topoDelta(out.Net, igp, []netmodel.LinkID{link.ID()}, nil)
	// Restarts with nothing changed: both dirty sets start empty.
	byIndex, byScan := st.restart(nil, out.Net, igp, out.Inputs, Delta{}), st.restart(nil, out.Net, igp, out.Inputs, Delta{})

	marked, brute, inTables := 0, 0, 0
	for k, tbl := range st.tables {
		cd := d.DistChanged[k.dev]
		if len(cd) == 0 {
			continue
		}
		st.markDistAffected(byIndex, k, cd)
		scanDistAffected(byScan, k, cd)
		seen := make(map[netip.Prefix]bool)
		tbl.locals.All(func(p netip.Prefix, _ []cand) { seen[p] = true })
		tbl.adjIn.All(func(p netip.Prefix, _ map[string][]cand) { seen[p] = true })
		inTables += len(seen)
	}
	indexed, scanned := byIndex.dirtyPairs(), byScan.dirtyPairs()
	for k := range st.tables {
		if !reflect.DeepEqual(indexed[k], scanned[k]) {
			t.Fatalf("table %v: index marks %d prefixes, brute force finds %d", k, len(indexed[k]), len(scanned[k]))
		}
		marked += len(indexed[k])
		brute += len(scanned[k])
	}
	t.Logf("%d prefixes marked of %d in the %d tables whose IGP view moved", marked, inTables, len(d.DistChanged))
	const want = 1153
	if marked != brute || marked != want {
		t.Errorf("markDistAffected dirtied %d prefixes, brute force %d, pinned %d", marked, brute, want)
	}
}

// TestRoundBuffersAllocOnce pins the round buffers' size and reuse: a message
// is at most 48 bytes (its routes, an edge and two interned IDs, where it
// held the strings and addresses they stand for in 144), and a warm restart
// refills the chunks its State lent it, so a second identical restart on the
// same State allocates no message or advertisement chunk.
func TestRoundBuffersAllocOnce(t *testing.T) {
	if n := unsafe.Sizeof(msg{}); n > 48 {
		t.Errorf("a message is %d bytes, want at most 48", n)
	}
	out := gen.Generate(gen.WAN(2))
	igp := isis.Compute(out.Net.Topo, isis.Options{})
	_, st := SimulateWithState(out.Net, igp, out.Inputs, Options{Parallelism: 1})
	link := out.Net.Topo.FindLink("core-0-0", "core-0-1")
	if link == nil {
		t.Fatal("fixture: no link core-0-0--core-0-1")
	}
	net2, igp2, d := topoDelta(out.Net, igp, []netmodel.LinkID{link.ID()}, nil)
	var made [2]int
	for i := range made {
		_, _, s := st.resimulate(nil, net2, igp2, out.Inputs, d)
		made[i] = s.chunksMade
	}
	if made[0] == 0 || made[1] != 0 {
		t.Errorf("round-buffer chunks allocated by two identical restarts: %v, want some by the first and none by the second", made)
	}
}

// restartSim runs a warm restart as ResimulateCtx does and returns its sim,
// whose records the caller may inspect.
func restartSim(st *State, net *config.Network, igp *isis.Result, inputs []netmodel.Route, d Delta) (*sim, *Result) {
	s := st.restart(nil, net, igp, inputs, d)
	return s, s.runDense()
}

// flat reads a layer back as a plain map.
func flat[V any](l *netmodel.Layer[netip.Prefix, V]) map[netip.Prefix]V {
	out := make(map[netip.Prefix]V)
	l.All(func(p netip.Prefix, v V) { out[p] = v })
	return out
}

// overlayEntries counts the own entries of the four prefix layers across the
// sim's overlay records, and the entries of the State's records under them.
func overlayEntries(st *State, s *sim) (own, under int) {
	n := func(t *table) int {
		return t.adjIn.OwnLen() + t.locals.OwnLen() + t.lastAdv.OwnLen() + t.aggOn.OwnLen()
	}
	for k, t := range s.tables {
		if t.overlay {
			own += n(t)
			under += n(st.tables[k])
		}
	}
	return own, under
}

// TestOverlayWorkPinned pins what the warm restart for link
// core-0-0--core-0-1 at WAN(4) writes: it re-originates at no device, and its
// overlay records hold a pinned number of entries, a small fraction of the
// State's records under them. An input delta that changes one route of one
// device and takes every route of another away reaches exactly those two. The
// empty State reaches every device, and a restart that brings one device
// back up reaches exactly that one.
func TestOverlayWorkPinned(t *testing.T) {
	out := gen.Generate(gen.WAN(4))
	igp := isis.Compute(out.Net.Topo, isis.Options{})
	_, st := SimulateWithState(out.Net, igp, out.Inputs, Options{Parallelism: 1})
	every := make(map[string]bool)
	for name := range out.Net.Devices {
		every[name] = true
	}
	if got := (&State{}).reached(out.Net, out.Inputs, Delta{}); !maps.Equal(got, every) {
		t.Errorf("the empty State reaches %d devices, want all %d", len(got), len(every))
	}
	link := out.Net.Topo.FindLink("core-0-0", "core-0-1")
	if link == nil {
		t.Fatal("fixture: no link core-0-0--core-0-1")
	}
	net2, igp2, d := topoDelta(out.Net, igp, []netmodel.LinkID{link.ID()}, nil)
	if r := st.reached(net2, out.Inputs, d); len(r) != 0 {
		t.Errorf("link fork reaches %v, want no device", r)
	}
	s, res := restartSim(st, net2, igp2, out.Inputs, d)
	own, under := overlayEntries(st, s)
	t.Logf("overlay records hold %d entries over %d in the State's", own, under)
	const want = 1153
	if own != want || 10*own > under {
		t.Errorf("overlay records hold %d entries over the State's %d, pinned %d", own, under, want)
	}
	if ref := Simulate(net2, igp2, out.Inputs, Options{}); !res.GlobalRIB().Equal(ref.GlobalRIB()) {
		t.Error("link fork differs from a from-scratch run")
	}

	changed, vanished := out.Inputs[0].Device, ""
	for _, r := range out.Inputs {
		if r.Device != changed {
			vanished = r.Device
			break
		}
	}
	var inputs2 []netmodel.Route
	for i, r := range out.Inputs {
		if r.Device == vanished {
			continue
		}
		if i == 0 {
			a := *r.Attr()
			a.MED++
			r.SetAttrs(&a)
		}
		inputs2 = append(inputs2, r)
	}
	got := st.reached(out.Net, inputs2, Delta{})
	if wantR := map[string]bool{changed: true, vanished: true}; !maps.Equal(got, wantR) {
		t.Errorf("input fork reaches %v, want %v", got, wantR)
	}
	if _, res := restartSim(st, out.Net, igp, inputs2, Delta{}); !res.GlobalRIB().Equal(Simulate(out.Net, igp, inputs2, Options{}).GlobalRIB()) {
		t.Error("input fork differs from a from-scratch run")
	}

	// The device holding the first input is down in the base, with the same
	// inputs, and comes back up.
	downNet, downIGP, _ := topoDelta(out.Net, igp, nil, []string{changed})
	_, downSt := SimulateWithState(downNet, downIGP, out.Inputs, Options{Parallelism: 1})
	up := Delta{DistChanged: make(map[string]map[string]bool)}
	for _, src := range out.Net.Topo.NodeNames() {
		if dc, _ := isis.Diff(downIGP, igp, src); len(dc) > 0 {
			up.DistChanged[src] = dc
		}
	}
	if got := downSt.reached(out.Net, out.Inputs, up); !maps.Equal(got, map[string]bool{changed: true}) {
		t.Errorf("bringing %s up reaches %v, want only it", changed, got)
	}
	if _, res := restartSim(downSt, out.Net, igp, out.Inputs, up); !res.GlobalRIB().Equal(Simulate(out.Net, igp, out.Inputs, Options{}).GlobalRIB()) {
		t.Errorf("bringing %s up differs from a from-scratch run", changed)
	}
	// The device's tables are adopted whole, and TablesDirty counts them.
	seeded := downSt.restart(nil, out.Net, igp, out.Inputs, up)
	before := len(seeded.dirtyTids)
	seeded.markAdopted()
	_, stats := downSt.ResimulateCtx(nil, out.Net, igp, out.Inputs, up)
	if len(seeded.dirtyTids) == before || stats.TablesDirty != len(seeded.dirtyTids) {
		t.Errorf("bringing %s up: %d tables dirty before its adopted tables are marked, %d after; TablesDirty %d",
			changed, before, len(seeded.dirtyTids), stats.TablesDirty)
	}
}

// recordSnap is a deep copy of what a State's record holds, with the RIB as
// its rows (a RIB's lazily built caches are not content).
type recordSnap struct {
	adjIn   map[netip.Prefix]map[string][]cand
	locals  map[netip.Prefix][]cand
	rows    map[netip.Prefix][]netmodel.Route
	lastAdv map[netip.Prefix]string
	aggOn   map[netip.Prefix]bool
	owners  map[string][]netip.Prefix
	shared  bool
	// warm is set when the record carries restart bookkeeping.
	warm bool
}

// snapshotState deep-copies every record of a merged State, keyed by table
// and by record pointer, so replacing a record is a difference too.
func snapshotState(st *State) map[tableKey]map[*table]recordSnap {
	out := make(map[tableKey]map[*table]recordSnap, len(st.tables))
	for k, t := range st.tables {
		r := recordSnap{
			adjIn: make(map[netip.Prefix]map[string][]cand), locals: make(map[netip.Prefix][]cand),
			rows: make(map[netip.Prefix][]netmodel.Route), lastAdv: flat(&t.lastAdv), aggOn: flat(&t.aggOn),
			owners: make(map[string][]netip.Prefix), shared: t.shared,
			warm: t.overlay || t.readvertise,
		}
		t.adjIn.All(func(p netip.Prefix, byFrom map[string][]cand) {
			r.adjIn[p] = make(map[string][]cand, len(byFrom))
			for from, cs := range byFrom {
				r.adjIn[p][from] = slices.Clone(cs)
			}
		})
		t.locals.All(func(p netip.Prefix, cs []cand) { r.locals[p] = slices.Clone(cs) })
		if t.rib != nil {
			for _, p := range t.rib.Prefixes() {
				r.rows[p] = slices.Clone(t.rib.Routes(p))
			}
		}
		for o, ps := range t.owners {
			r.owners[o] = slices.Clone(ps)
		}
		out[k] = map[*table]recordSnap{t: r}
	}
	return out
}

// TestConcurrentRestartsLeaveStateIntact: eight warm restarts at once, each
// with its own random link, node or input delta, leave every record of the
// State — merged from several units at parallelism 2 — exactly as a deep
// snapshot taken before them, and each matches a from-scratch run.
func TestConcurrentRestartsLeaveStateIntact(t *testing.T) {
	out := gen.Generate(gen.WAN(1))
	igp := isis.Compute(out.Net.Topo, isis.Options{})
	links, names := out.Net.Topo.Links(), out.Net.Topo.NodeNames()
	for _, p := range []int{1, 2} {
		_, st := SimulateWithState(out.Net, igp, out.Inputs, Options{Parallelism: p})
		if (st.units != nil) != (p > 1) {
			t.Fatalf("parallelism %d: state holds %d units", p, len(st.units))
		}
		st.ResimulateCtx(nil, out.Net, igp, out.Inputs, Delta{}) // merge and index first
		before := snapshotState(st)

		type job struct {
			net    *config.Network
			igp    *isis.Result
			inputs []netmodel.Route
			d      Delta
		}
		rnd := rand.New(rand.NewSource(int64(p)))
		jobs := make([]job, 8)
		for i := range jobs {
			switch i % 3 {
			case 0:
				net2, igp2, d := topoDelta(out.Net, igp, []netmodel.LinkID{links[rnd.Intn(len(links))].ID(), links[rnd.Intn(len(links))].ID()}, nil)
				jobs[i] = job{net2, igp2, out.Inputs, d}
			case 1:
				net2, igp2, d := topoDelta(out.Net, igp, nil, []string{names[rnd.Intn(len(names))]})
				jobs[i] = job{net2, igp2, out.Inputs, d}
			case 2:
				var in []netmodel.Route
				for _, r := range out.Inputs {
					if rnd.Intn(4) > 0 {
						in = append(in, r)
					}
				}
				jobs[i] = job{out.Net, igp, in, Delta{}}
			}
		}
		var wg sync.WaitGroup
		for i, j := range jobs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				res, _ := st.ResimulateCtx(nil, j.net, j.igp, j.inputs, j.d)
				if ref := Simulate(j.net, j.igp, j.inputs, Options{Parallelism: 1}); !res.GlobalRIB().Equal(ref.GlobalRIB()) {
					t.Errorf("parallelism %d, restart %d: differs from a from-scratch run", p, i)
				}
			}()
		}
		wg.Wait()
		if after := snapshotState(st); !reflect.DeepEqual(after, before) {
			for k, b := range before {
				if !reflect.DeepEqual(after[k], b) {
					t.Errorf("parallelism %d: restarts wrote through to the State's record of %v", p, k)
				}
			}
			t.Fatalf("parallelism %d: State changed under concurrent restarts (%d tables before, %d after)", p, len(before), len(after))
		}
	}
}

// TestEmptyDeltaPrivatizesNothing: a restart with nothing changed seeds no
// table, changes no prefix or device, and hands out the State's own RIBs —
// no record was cloned.
func TestEmptyDeltaPrivatizesNothing(t *testing.T) {
	out := gen.Generate(gen.WAN(1))
	igp := isis.Compute(out.Net.Topo, isis.Options{})
	for _, p := range []int{1, 2} {
		_, st := SimulateWithState(out.Net, igp, out.Inputs, Options{Parallelism: p})
		res, stats := st.ResimulateCtx(nil, out.Net, igp, out.Inputs, Delta{})
		if stats.TablesDirty != 0 || res.Rounds != 0 || len(stats.ChangedPrefixes) != 0 {
			t.Errorf("parallelism %d: empty delta seeded %d tables, ran %d rounds, changed %d tables",
				p, stats.TablesDirty, res.Rounds, len(stats.ChangedPrefixes))
		}
		if stats.TablesTotal == 0 || len(res.ribs) != stats.TablesTotal {
			t.Errorf("parallelism %d: result holds %d tables, the State %d", p, len(res.ribs), stats.TablesTotal)
		}
		for k, rib := range res.ribs {
			if st.tables[k] == nil || rib != st.tables[k].rib {
				t.Fatalf("parallelism %d: table %v is not the State's own RIB", p, k)
			}
		}
	}
}

// changedExact checks a restart's ChangedPrefixes against its rows and the
// State's. A table the State holds and the restart did not purge lists a
// prefix iff the restart's rows there are not Identical, in stored order, to
// the State's. A table new to the restart (none in the State, or one of a
// purged device back up) lists every prefix it holds, and a table the restart
// dropped (a purged device that is down) is listed nowhere.
func changedExact(st *State, d Delta, res *Result, stats *ResimStats) error {
	for tb := range stats.ChangedPrefixes {
		if res.ribs[tableKey{tb.Device, tb.VRF}] == nil {
			return fmt.Errorf("table %v is listed but not in the result", tb)
		}
	}
	for k, rib := range res.ribs {
		var base *netmodel.RIB
		if old := st.tables[k]; old != nil && !slices.Contains(d.Purged, k.dev) {
			base = old.rib
		}
		prefixes := make(map[netip.Prefix]bool)
		for _, p := range rib.Prefixes() {
			prefixes[p] = true
		}
		if base != nil {
			for _, p := range base.Prefixes() {
				prefixes[p] = true
			}
		}
		listed := stats.ChangedPrefixes[Table{k.dev, k.vrf}]
		for p := range listed {
			if !prefixes[p] {
				return fmt.Errorf("table %v lists %s, which neither it nor the State's holds", k, p)
			}
		}
		for p := range prefixes {
			var was []netmodel.Route
			if base != nil {
				was = base.Routes(p)
			}
			if want := !slices.EqualFunc(rib.Routes(p), was, netmodel.Route.Identical); listed[p] != want {
				return fmt.Errorf("table %v (new %v): %s listed %v, want %v", k, base == nil, p, listed[p], want)
			}
		}
	}
	return nil
}

// TestChangedPrefixesExact: over link-down, node-down, node-up, input and
// configuration (Purged) deltas, at WAN(2) and WAN(3) and base parallelism 1
// and 0, a restart's ChangedPrefixes lists exactly the (table, prefix) pairs
// whose rows moved off the State's (changedExact), and the restart equals a
// from-scratch run.
func TestChangedPrefixesExact(t *testing.T) {
	for _, scale := range []int{2, 3} {
		out := gen.Generate(gen.WAN(scale))
		igp := isis.Compute(out.Net.Topo, isis.Options{})
		links, names := out.Net.Topo.Links(), out.Net.Topo.NodeNames()
		node := names[len(names)/2]
		downNet, downIGP, _ := topoDelta(out.Net, igp, nil, []string{node})
		up := Delta{DistChanged: make(map[string]map[string]bool)}
		for _, src := range out.Net.Topo.NodeNames() {
			if dc, _ := isis.Diff(downIGP, igp, src); len(dc) > 0 {
				up.DistChanged[src] = dc
			}
		}
		var inputs2 []netmodel.Route
		for i, r := range out.Inputs {
			if r.Device == out.Inputs[len(out.Inputs)-1].Device {
				continue // every input of one device withdrawn
			}
			if i == 0 {
				a := *r.Attr()
				a.MED++
				r.SetAttrs(&a)
			}
			inputs2 = append(inputs2, r)
		}
		// A configuration change: the device holding the first input loses
		// its first network statement, or is restarted as it is.
		cfgNet, cfgDev := out.Net.Clone(), out.Inputs[0].Device
		if dev := cfgNet.Devices[cfgDev]; len(dev.Networks) > 0 {
			dev.Networks = dev.Networks[1:]
		}
		cfgIGP := isis.Compute(cfgNet.Topo, isis.Options{})
		for _, par := range []int{1, 0} {
			_, st := SimulateWithState(out.Net, igp, out.Inputs, Options{Parallelism: par})
			_, downSt := SimulateWithState(downNet, downIGP, out.Inputs, Options{Parallelism: par})
			type fork struct {
				name   string
				st     *State
				net    *config.Network
				igp    *isis.Result
				inputs []netmodel.Route
				d      Delta
			}
			var forks []fork
			for _, ids := range [][]netmodel.LinkID{{links[0].ID()}, {links[len(links)/3].ID(), links[len(links)/2].ID()}} {
				net2, igp2, d := topoDelta(out.Net, igp, ids, nil)
				forks = append(forks, fork{fmt.Sprintf("links %v down", ids), st, net2, igp2, out.Inputs, d})
			}
			net2, igp2, d := topoDelta(out.Net, igp, nil, []string{node})
			forks = append(forks,
				fork{node + " down", st, net2, igp2, out.Inputs, d},
				fork{node + " up", downSt, out.Net, igp, out.Inputs, up},
				fork{"inputs", st, out.Net, igp, inputs2, Delta{}},
				fork{cfgDev + " reconfigured", st, cfgNet, cfgIGP, out.Inputs, Delta{Purged: []string{cfgDev}}},
			)
			for _, f := range forks {
				label := fmt.Sprintf("WAN(%d), parallelism %d, %s", scale, par, f.name)
				res, stats := f.st.ResimulateCtx(nil, f.net, f.igp, f.inputs, f.d)
				if err := changedExact(f.st, f.d, res, stats); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if len(stats.ChangedPrefixes) == 0 {
					t.Errorf("%s: nothing changed", label)
				}
				if ref := Simulate(f.net, f.igp, f.inputs, Options{Parallelism: 1}); !res.GlobalRIB().Equal(ref.GlobalRIB()) {
					t.Fatalf("%s: differs from a from-scratch run", label)
				}
			}
		}
	}
}
