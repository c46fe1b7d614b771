package bgp

import (
	"fmt"
	"math/rand"
	"net/netip"
	"reflect"
	"testing"

	"hoyan/internal/config"
	"hoyan/internal/gen"
	"hoyan/internal/isis"
	"hoyan/internal/netmodel"
)

// scanDistAffected is the whole-table scan the owner index replaced, kept
// verbatim as its reference: it reads the restart's own (already edited)
// candidates where the index reads the captured ones.
func scanDistAffected(s *sim, k tableKey, cd map[string]bool, dirty dirtySet) {
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
			dirty.mark(k, p)
		}
	}
	for p, byFrom := range s.adjIn[k] {
		for _, cs := range byFrom {
			if affects(cs) {
				dirty.mark(k, p)
				break
			}
		}
	}
}

// topoDelta fails the given links and nodes on a clone of net and returns the
// clone, its IGP result and the bgp.Delta core.Fork would hand Resimulate.
func topoDelta(net *config.Network, igp *isis.Result, links []netmodel.LinkID, nodes []string) (*config.Network, *isis.Result, Delta) {
	net2 := net.Clone()
	for _, id := range links {
		net2.Topo.SetLinkUp(id, false)
	}
	for _, n := range nodes {
		net2.Topo.SetNodeUp(n, false)
	}
	igp2, touched, _ := isis.Recompute(net2.Topo, igp, isis.Delta{Links: links, NodesDown: nodes}, isis.Options{})
	d := Delta{DistChanged: make(map[string]map[string]bool), ChangedLinks: links, NodesDown: nodes}
	for src, hit := range touched {
		if dc, _ := isis.Diff(igp, igp2, src); hit && len(dc) > 0 {
			d.DistChanged[src] = dc
		}
	}
	return net2, igp2, d
}

// seedBothWays seeds a warm restart twice from the same state and delta: with
// the owner index, as ResimulateCtx does, and with the scan in its place.
func seedBothWays(st *State, net *config.Network, igp *isis.Result, inputs []netmodel.Route, d Delta) (indexed, scanned dirtySet) {
	st.merge.Do(func() {
		st.mergeUnits()
		st.indexOwners(net)
	})
	indexed = make(dirtySet)
	s := st.warmSim(nil, net, igp)
	st.seedChanges(s, inputs, d, indexed)
	st.seedResolution(s, d, indexed)

	scanned = make(dirtySet)
	s = st.warmSim(nil, net, igp)
	st.seedChanges(s, inputs, d, scanned)
	endpoints := make(map[string]bool)
	for _, id := range d.ChangedLinks {
		endpoints[id.A], endpoints[id.B] = true, true
	}
	for _, k := range s.tableKeys() {
		if endpoints[k.dev] {
			scanned.markTable(s, k)
		} else if cd := d.DistChanged[k.dev]; len(cd) > 0 {
			scanDistAffected(s, k, cd, scanned)
		}
	}
	return indexed, scanned
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
		res, stats := st.Resimulate(net2, igp2, out.Inputs, d)
		if stats.TablesDirty != len(scanned) {
			t.Fatalf("trial %d: TablesDirty = %d, the scan seeds %d", trial, stats.TablesDirty, len(scanned))
		}
		if ref := Simulate(net2, igp2, out.Inputs, Options{Parallelism: 1}); !res.GlobalRIB().Equal(ref.GlobalRIB()) {
			t.Fatalf("trial %d (%v, %v down): warm restart differs from a from-scratch run", trial, down, nodes)
		}
		mustCheck(t, fmt.Sprintf("trial %d, warm restart", trial), net2, igp2, out.Inputs, res)
		for k, cd := range d.DistChanged {
			for tk := range st.owners {
				if tk.dev == k {
					marks := make(dirtySet)
					st.markDistAffected(tk, cd, marks)
					distMarked += len(marks[tk])
				}
			}
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
	net2, igp2, d := topoDelta(out.Net, igp, []netmodel.LinkID{link.ID()}, nil)
	st.merge.Do(func() { st.indexOwners(net2) })
	s := st.warmSim(nil, net2, igp2)

	marked, brute, inTables := 0, 0, 0
	for k := range st.ribs {
		cd := d.DistChanged[k.dev]
		if len(cd) == 0 {
			continue
		}
		byIndex, byScan := make(dirtySet), make(dirtySet)
		st.markDistAffected(k, cd, byIndex)
		scanDistAffected(s, k, cd, byScan)
		if !reflect.DeepEqual(byIndex, byScan) {
			t.Fatalf("table %v: index marks %d prefixes, brute force finds %d", k, len(byIndex[k]), len(byScan[k]))
		}
		marked += len(byIndex[k])
		brute += len(byScan[k])
		seen := make(map[netip.Prefix]bool)
		for p := range st.locals[k] {
			seen[p] = true
		}
		for p := range st.adjIn[k] {
			seen[p] = true
		}
		inTables += len(seen)
	}
	t.Logf("%d prefixes marked of %d in the %d tables whose IGP view moved", marked, inTables, len(d.DistChanged))
	const want = 1153
	if marked != brute || marked != want {
		t.Errorf("markDistAffected dirtied %d prefixes, brute force %d, pinned %d", marked, brute, want)
	}
}
