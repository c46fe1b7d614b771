package netmodel

import (
	"net/netip"
	"slices"
	"strings"
)

// Dense integer identifiers for the index-based core. IDs are assigned when
// a TopoIndex is built and are valid only against that index; they never
// appear in engine results, wire blobs, or intent evaluation, which stay
// string-keyed.
//
// The assignment order is part of the engine's determinism contract:
//
//   - DevID ascends in lexical device-name order, so comparing two DevIDs
//     numerically is exactly comparing the device names.
//   - LinkIdx ascends in lexical LinkID.String() order, so comparing two
//     LinkIdx values is exactly comparing the canonical link identifiers.
//   - CSR adjacency rows are sorted by (neighbor DevID, LinkIdx), which is
//     exactly Topology.Neighbors' (neighbor name, link string) order.
//
// Every hot path that used to sort strings can therefore sort the integer
// IDs instead and produce byte-identical output.
type (
	// DevID densely identifies a device.
	DevID int32
	// LinkIdx densely identifies a link.
	LinkIdx int32
)

// NoDev is the invalid device ID (address not owned, name unknown).
const NoDev DevID = -1

// TopoIndex is the CSR (compressed sparse row) view of a Topology: dense
// device/link IDs with two-way name tables, a flat adjacency array, and the
// address-ownership table. It is built lazily by Topology.Index, cached, and
// invalidated by structural mutations (add/remove of nodes or links).
// Up/down toggles do NOT invalidate it: the index stores live *Node / *Link
// pointers, so traversals read the current Up state through them.
type TopoIndex struct {
	devNames []string // DevID -> name, ascending
	devIDs   map[string]DevID
	nodes    []*Node // DevID -> live node
	links    []*Link // LinkIdx -> live link, in LinkID.String() order
	linkIDs  []LinkID
	linkIdx  map[LinkID]LinkIdx
	// insOrder maps a LinkIdx back to the link's position in the topology's
	// insertion-order slice, for the few callers that must replicate
	// first-match-in-insertion-order semantics.
	insOrder []int32

	// CSR adjacency: the edges leaving device d occupy positions
	// off[d]..off[d+1] in the adj* arrays, sorted by (neighbor, link).
	// Every link is present regardless of Up state; traversals skip dead
	// edges via the live pointers.
	off      []int32
	adjDev   []DevID
	adjLink  []LinkIdx
	adjFromA []bool // row device is the link's A side

	// owner is Topology.AddrOwner as IDs: interface addresses in link
	// insertion order (first writer wins), then loopbacks (sorted names,
	// first owner wins) overriding.
	owner map[netip.Addr]DevID
}

// NumDevices returns the number of interned devices.
func (ix *TopoIndex) NumDevices() int { return len(ix.devNames) }

// NumLinks returns the number of interned links.
func (ix *TopoIndex) NumLinks() int { return len(ix.links) }

// NumEdges returns the number of CSR edge positions (two per link whose
// endpoints are both devices).
func (ix *TopoIndex) NumEdges() int { return len(ix.adjDev) }

// DevID returns the dense ID of a device name.
func (ix *TopoIndex) DevID(name string) (DevID, bool) {
	id, ok := ix.devIDs[name]
	return id, ok
}

// DevName returns the device name for an ID (IDs come from this index, so
// the bounds always hold for well-formed callers).
func (ix *TopoIndex) DevName(id DevID) string { return ix.devNames[id] }

// Node returns the live node for an ID.
func (ix *TopoIndex) Node(id DevID) *Node { return ix.nodes[id] }

// LinkIDAt returns the canonical LinkID at a dense index without
// re-materializing it.
func (ix *TopoIndex) LinkIDAt(i LinkIdx) LinkID { return ix.linkIDs[i] }

// InsertionOrder returns the link's position in Topology.Links order.
func (ix *TopoIndex) InsertionOrder(i LinkIdx) int32 { return ix.insOrder[i] }

// EdgeRange returns the CSR positions of the edges leaving device d.
func (ix *TopoIndex) EdgeRange(d DevID) (lo, hi int32) { return ix.off[d], ix.off[d+1] }

// EdgeDev returns the neighbor device of the edge at CSR position pos.
func (ix *TopoIndex) EdgeDev(pos int32) DevID { return ix.adjDev[pos] }

// EdgeLinkIdx returns the link index of the edge at CSR position pos.
func (ix *TopoIndex) EdgeLinkIdx(pos int32) LinkIdx { return ix.adjLink[pos] }

// EdgeLink returns the live link of the edge at CSR position pos.
func (ix *TopoIndex) EdgeLink(pos int32) *Link { return ix.links[ix.adjLink[pos]] }

// EdgeFromA reports whether the row device is the A side of the edge's link.
func (ix *TopoIndex) EdgeFromA(pos int32) bool { return ix.adjFromA[pos] }

// EdgeCost returns the directed metric of the edge at pos (same semantics as
// Link.DirCost, read through the live link).
func (ix *TopoIndex) EdgeCost(pos int32) uint32 {
	l := ix.links[ix.adjLink[pos]]
	cost, te := l.CostBA, l.TEBA
	if ix.adjFromA[pos] {
		cost, te = l.CostAB, l.TEAB
	}
	if te != 0 {
		return te
	}
	return cost
}

// EdgeUp reports whether the edge at pos is traversable: its link is up and
// the neighbor node is up. (The row device's own Up state is the caller's
// concern, mirroring Topology.Neighbors.)
func (ix *TopoIndex) EdgeUp(pos int32) bool {
	return ix.links[ix.adjLink[pos]].Up && ix.nodes[ix.adjDev[pos]].Up
}

// AddrOwnerID returns the DevID owning addr (loopback or link interface), or
// NoDev. Same ownership rules as Topology.AddrOwner.
func (ix *TopoIndex) AddrOwnerID(addr netip.Addr) DevID {
	if id, ok := ix.owner[addr]; ok {
		return id
	}
	return NoDev
}

// Changes compares other, a topology derived anew, with ix. links are those
// added, removed, or changed in anything but their Up flag; readdressed
// names, for every address whose owner differs, the device owning it in each
// ("" where nobody does). same reports that no link changed and the devices
// are ix's: ix's dense IDs and edge positions then name other's.
func (ix *TopoIndex) Changes(other *TopoIndex) (links []LinkID, readdressed map[string]bool, same bool) {
	for i, id := range ix.linkIDs {
		was := *ix.links[i]
		j, ok := other.linkIdx[id]
		if ok {
			was.Up = other.links[j].Up
		}
		if !ok || was != *other.links[j] {
			links = append(links, id)
		}
	}
	for _, id := range other.linkIDs {
		if _, ok := ix.linkIdx[id]; !ok {
			links = append(links, id)
		}
	}
	readdressed = make(map[string]bool)
	for _, x := range []*TopoIndex{ix, other} {
		for a := range x.owner {
			if was, is := ix.ownerName(a), other.ownerName(a); was != is {
				readdressed[was], readdressed[is] = true, true
			}
		}
	}
	return links, readdressed, len(links) == 0 && slices.Equal(ix.devNames, other.devNames)
}

// ownerName is the name of the device owning addr, or "".
func (ix *TopoIndex) ownerName(addr netip.Addr) string {
	if id := ix.AddrOwnerID(addr); id != NoDev {
		return ix.devNames[id]
	}
	return ""
}

// Index returns the topology's CSR index, building it on first use. The
// index is safe for concurrent readers; structural mutations invalidate it
// (and Up/down toggles deliberately do not — see TopoIndex).
func (t *Topology) Index() *TopoIndex {
	t.idxMu.RLock()
	ix := t.topoIdx
	t.idxMu.RUnlock()
	if ix == nil {
		ix = t.buildIndex()
	}
	return ix
}

func (t *Topology) buildIndex() *TopoIndex {
	t.idxMu.Lock()
	defer t.idxMu.Unlock()
	if t.topoIdx != nil {
		return t.topoIdx
	}
	ix := &TopoIndex{
		devIDs:  make(map[string]DevID, len(t.nodes)),
		linkIdx: make(map[LinkID]LinkIdx, len(t.links)),
		owner:   make(map[netip.Addr]DevID, len(t.nodes)+2*len(t.links)),
	}

	// Devices in sorted-name order: DevID order == name order.
	ix.devNames = make([]string, 0, len(t.nodes))
	for name := range t.nodes {
		ix.devNames = append(ix.devNames, name)
	}
	slices.Sort(ix.devNames)
	ix.nodes = make([]*Node, len(ix.devNames))
	for i, name := range ix.devNames {
		ix.devIDs[name] = DevID(i)
		ix.nodes[i] = t.nodes[name]
	}

	// Links in canonical-string order: LinkIdx order == LinkID.String() order.
	type linkEnt struct {
		l   *Link
		key string
		ins int32
	}
	ents := make([]linkEnt, len(t.links))
	for i, l := range t.links {
		ents[i] = linkEnt{l: l, key: l.ID().String(), ins: int32(i)}
	}
	slices.SortStableFunc(ents, func(a, b linkEnt) int { return strings.Compare(a.key, b.key) })
	ix.links = make([]*Link, len(ents))
	ix.linkIDs = make([]LinkID, len(ents))
	ix.insOrder = make([]int32, len(ents))
	for i, e := range ents {
		ix.links[i] = e.l
		ix.linkIDs[i] = e.l.ID()
		ix.insOrder[i] = e.ins
		ix.linkIdx[e.l.ID()] = LinkIdx(i)
	}

	// CSR adjacency. Each link contributes one directed edge per endpoint
	// that exists in the node table. Building per-device rows then sorting by
	// (neighbor, link) reproduces Topology.Neighbors' ordering numerically.
	type edge struct {
		dev   DevID
		nb    DevID
		link  LinkIdx
		fromA bool
	}
	var edges []edge
	for li, l := range ix.links {
		a, aok := ix.devIDs[l.A]
		b, bok := ix.devIDs[l.B]
		if !aok || !bok {
			continue
		}
		edges = append(edges, edge{dev: a, nb: b, link: LinkIdx(li), fromA: true})
		edges = append(edges, edge{dev: b, nb: a, link: LinkIdx(li), fromA: false})
	}
	slices.SortFunc(edges, func(x, y edge) int {
		if x.dev != y.dev {
			return int(x.dev) - int(y.dev)
		}
		if x.nb != y.nb {
			return int(x.nb) - int(y.nb)
		}
		return int(x.link) - int(y.link)
	})
	n := len(ix.devNames)
	ix.off = make([]int32, n+1)
	ix.adjDev = make([]DevID, len(edges))
	ix.adjLink = make([]LinkIdx, len(edges))
	ix.adjFromA = make([]bool, len(edges))
	for i, e := range edges {
		ix.adjDev[i] = e.nb
		ix.adjLink[i] = e.link
		ix.adjFromA[i] = e.fromA
		ix.off[e.dev+1]++
	}
	for d := 0; d < n; d++ {
		ix.off[d+1] += ix.off[d]
	}

	// Address ownership: link addresses in insertion order with
	// first-writer-wins, then loopbacks (sorted names, first seen wins)
	// overriding link addresses.
	for _, l := range t.links {
		if l.AAddr.IsValid() {
			if a, ok := ix.devIDs[l.A]; ok {
				if _, seen := ix.owner[l.AAddr]; !seen {
					ix.owner[l.AAddr] = a
				}
			}
		}
		if l.BAddr.IsValid() {
			if b, ok := ix.devIDs[l.B]; ok {
				if _, seen := ix.owner[l.BAddr]; !seen {
					ix.owner[l.BAddr] = b
				}
			}
		}
	}
	loSeen := make(map[netip.Addr]bool, n)
	for i, name := range ix.devNames {
		if lo := t.nodes[name].Loopback; lo.IsValid() && !loSeen[lo] {
			loSeen[lo] = true
			ix.owner[lo] = DevID(i)
		}
	}

	t.topoIdx = ix
	return ix
}
