package netmodel

import (
	"net/netip"
	"slices"
	"strings"
	"sync"
)

// Node is a router in the topology graph. Routing configuration lives in the
// config package; the topology holds only what link-state protocols and
// traffic simulation need.
type Node struct {
	Name     string
	Loopback netip.Addr
	Up       bool // false when the router has failed or is under maintenance
}

// Link is a bidirectional adjacency between two routers. Costs may be
// asymmetric (CostAB for A→B, CostBA for B→A).
type Link struct {
	A, B      string // device names; A < B lexically for canonical form
	AIface    string
	BIface    string
	ANet      netip.Prefix // interface subnet on A's side
	BNet      netip.Prefix
	AAddr     netip.Addr // interface address on A
	BAddr     netip.Addr
	CostAB    uint32
	CostBA    uint32
	TEAB      uint32  // IS-IS TE metric A→B; 0 means "use CostAB"
	TEBA      uint32  // IS-IS TE metric B→A; 0 means "use CostBA"
	Bandwidth float64 // bits per second
	Up        bool
}

// DirCost returns the metric of the directed edge leaving from. Where a TE
// metric is configured for that direction it is used instead of the base IGP
// cost (IS-IS for traffic engineering, RFC 5305).
func (l Link) DirCost(from string) uint32 {
	cost, te := l.CostBA, l.TEBA
	if from == l.A {
		cost, te = l.CostAB, l.TEAB
	}
	if te != 0 {
		return te
	}
	return cost
}

// LinkID canonically identifies a link by its endpoints and interfaces.
type LinkID struct {
	A, B           string
	AIface, BIface string
}

// ID returns the canonical identifier of the link.
func (l Link) ID() LinkID {
	return LinkID{A: l.A, B: l.B, AIface: l.AIface, BIface: l.BIface}
}

func (id LinkID) String() string {
	return id.A + "[" + id.AIface + "]--" + id.B + "[" + id.BIface + "]"
}

// Topology is the physical graph of the network.
type Topology struct {
	nodes map[string]*Node
	links []*Link
	// byDevice indexes links touching each device.
	byDevice map[string][]*Link

	// idxMu guards topoIdx, the lazily built index behind Index and
	// AddrOwner. Up/down toggles never move addresses or change the graph
	// shape, so it survives SetLinkUp/SetNodeUp; structural mutations
	// invalidate it.
	idxMu   sync.RWMutex
	topoIdx *TopoIndex
}

// NewTopology creates an empty topology.
func NewTopology() *Topology {
	return &Topology{nodes: make(map[string]*Node), byDevice: make(map[string][]*Link)}
}

// AddNode registers a router. Adding an existing name replaces the node.
func (t *Topology) AddNode(n Node) {
	n.Up = true
	cp := n
	t.nodes[n.Name] = &cp
	t.invalidateIndex()
}

// Node returns the named router, or nil.
func (t *Topology) Node(name string) *Node { return t.nodes[name] }

// Nodes returns all routers sorted by name.
func (t *Topology) Nodes() []*Node {
	out := make([]*Node, 0, len(t.nodes))
	for _, n := range t.nodes {
		out = append(out, n)
	}
	slices.SortFunc(out, func(a, b *Node) int { return strings.Compare(a.Name, b.Name) })
	return out
}

// NodeNames returns all router names sorted.
func (t *Topology) NodeNames() []string {
	out := make([]string, 0, len(t.nodes))
	for name := range t.nodes {
		out = append(out, name)
	}
	slices.Sort(out)
	return out
}

// Canonical returns the link with its endpoints ordered so A < B.
func (l Link) Canonical() Link {
	if l.B < l.A {
		l.A, l.B = l.B, l.A
		l.AIface, l.BIface = l.BIface, l.AIface
		l.ANet, l.BNet = l.BNet, l.ANet
		l.AAddr, l.BAddr = l.BAddr, l.AAddr
		l.CostAB, l.CostBA = l.CostBA, l.CostAB
		l.TEAB, l.TEBA = l.TEBA, l.TEAB
	}
	return l
}

// AddLink registers a link. The endpoints are normalized so A < B.
func (t *Topology) AddLink(l Link) *Link {
	l = l.Canonical()
	l.Up = true
	cp := l
	t.links = append(t.links, &cp)
	t.byDevice[cp.A] = append(t.byDevice[cp.A], &cp)
	t.byDevice[cp.B] = append(t.byDevice[cp.B], &cp)
	t.invalidateIndex()
	return &cp
}

// Link returns the link with the given ID, or nil. The lookup goes through
// the CSR index (links are queried per forwarded branch, so the linear scan
// used to dominate traffic simulation).
func (t *Topology) Link(id LinkID) *Link {
	ix := t.Index()
	if i, ok := ix.linkIdx[id]; ok {
		return ix.links[i]
	}
	return nil
}

// FindLink returns the first up link between the two devices, or nil.
func (t *Topology) FindLink(a, b string) *Link {
	if b < a {
		a, b = b, a
	}
	for _, l := range t.byDevice[a] {
		if l.A == a && l.B == b && l.Up {
			return l
		}
	}
	return nil
}

// Links returns all links in insertion order.
func (t *Topology) Links() []*Link { return t.links }

// Bandwidths maps every link to its capacity in bits per second, the form
// load intents read. Up/down toggles never change it, so one map serves a
// base state and every what-if derived from it.
func (t *Topology) Bandwidths() map[LinkID]float64 {
	out := make(map[LinkID]float64, len(t.links))
	for _, l := range t.links {
		out[l.ID()] = l.Bandwidth
	}
	return out
}

// LinksOf returns the links touching device.
func (t *Topology) LinksOf(device string) []*Link { return t.byDevice[device] }

// Clone returns a deep copy, so change plans can be applied to a copy of the
// base topology without disturbing it.
func (t *Topology) Clone() *Topology {
	out := NewTopology()
	for _, n := range t.nodes {
		cp := *n
		out.nodes[n.Name] = &cp
	}
	for _, l := range t.links {
		cp := *l
		out.links = append(out.links, &cp)
		out.byDevice[cp.A] = append(out.byDevice[cp.A], &cp)
		out.byDevice[cp.B] = append(out.byDevice[cp.B], &cp)
	}
	return out
}

// SetNodeUp marks a router up or down (k-failure analysis, maintenance).
func (t *Topology) SetNodeUp(name string, up bool) bool {
	n := t.nodes[name]
	if n == nil {
		return false
	}
	n.Up = up
	return true
}

// SetLinkUp marks a link up or down.
func (t *Topology) SetLinkUp(id LinkID, up bool) bool {
	l := t.Link(id)
	if l == nil {
		return false
	}
	l.Up = up
	return true
}

// AddrOwner returns the device owning addr on one of its link interfaces or
// loopback, or "" if none: the index's owner (TopoIndex.AddrOwnerID), so
// loopbacks take precedence over link addresses. Safe for concurrent
// readers.
func (t *Topology) AddrOwner(addr netip.Addr) string {
	return t.Index().ownerName(addr)
}

func (t *Topology) invalidateIndex() {
	t.idxMu.Lock()
	t.topoIdx = nil
	t.idxMu.Unlock()
}
