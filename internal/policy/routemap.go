package policy

import (
	"net/netip"

	"hoyan/internal/netmodel"
	"hoyan/internal/vsb"
	"slices"
)

// Action is the disposition of a route-map node.
type Action uint8

// Node actions. ActionUnset triggers the no-explicit-permit/deny VSB.
const (
	ActionUnset Action = iota
	ActionPermit
	ActionDeny
)

// MatchKind selects what a match clause inspects.
type MatchKind uint8

// Match kinds.
const (
	MatchPrefixList MatchKind = iota
	MatchCommunityList
	MatchASPathList
	MatchPeerAddr // matches the advertising peer address (for per-peer nodes)
	MatchProtocol // matches the source protocol (for redistribution policy)
)

// Match is one match clause of a route-map node. All clauses of a node must
// match for the node to apply.
type Match struct {
	Kind     MatchKind
	ListName string            // for the three list kinds
	Addr     netip.Addr        // for MatchPeerAddr
	Protocol netmodel.Protocol // for MatchProtocol
}

// SetKind selects what a set clause modifies.
type SetKind uint8

// Set kinds.
const (
	SetLocalPref SetKind = iota
	SetMED
	SetWeight
	SetPreference
	SetCommunity    // replace the whole community set
	AddCommunity    // additive
	DeleteCommunity // remove one community
	SetNextHop
	PrependASPath // prepend ASN n times
	ReplaceASPath // overwrite the AS path (triggers the own-ASN VSB)
)

// Set is one set clause of a route-map node.
type Set struct {
	Kind        SetKind
	Value       uint32                // numeric sets and prepend count
	Communities netmodel.CommunitySet // for SetCommunity
	Community   netmodel.Community    // for Add/DeleteCommunity
	NextHop     netip.Addr
	ASN         netmodel.ASN    // for PrependASPath
	ASPath      netmodel.ASPath // for ReplaceASPath
}

// Node is one numbered entry of a route map.
type Node struct {
	Seq     int
	Action  Action
	Matches []Match
	Sets    []Set
}

// RouteMap is a named ordered policy. Nodes are evaluated in Seq order; the
// first node whose matches all succeed decides the route's fate.
type RouteMap struct {
	Name  string
	Nodes []*Node
}

// SortNodes orders the nodes by sequence number (parsers may insert nodes
// out of order; change plans may delete/insert nodes).
func (rm *RouteMap) SortNodes() {
	slices.SortFunc(rm.Nodes, func(a, b *Node) int { return a.Seq - b.Seq })
}

// Node returns the node with the given sequence number, or nil.
func (rm *RouteMap) Node(seq int) *Node {
	for _, n := range rm.Nodes {
		if n.Seq == seq {
			return n
		}
	}
	return nil
}

// DeleteNode removes the node with the given sequence number; it reports
// whether a node was removed.
func (rm *RouteMap) DeleteNode(seq int) bool {
	for i, n := range rm.Nodes {
		if n.Seq == seq {
			rm.Nodes = append(rm.Nodes[:i], rm.Nodes[i+1:]...)
			return true
		}
	}
	return false
}

// Clone returns a deep copy of the route map.
func (rm *RouteMap) Clone() *RouteMap {
	out := &RouteMap{Name: rm.Name}
	for _, n := range rm.Nodes {
		cp := &Node{Seq: n.Seq, Action: n.Action}
		cp.Matches = append([]Match(nil), n.Matches...)
		cp.Sets = append([]Set(nil), n.Sets...)
		out.Nodes = append(out.Nodes, cp)
	}
	return out
}

// Env carries the filter definitions and vendor semantics a route map is
// evaluated under.
type Env struct {
	Profile        vsb.Profile
	PrefixLists    map[string]*PrefixList
	CommunityLists map[string]*CommunityList
	ASPathLists    map[string]*ASPathList
}

// Disposition is the outcome of applying a policy to a route.
type Disposition uint8

// Dispositions.
const (
	Accept Disposition = iota
	Reject
)

// matches reports whether the route satisfies one match clause. Undefined
// filters are resolved per the UndefinedFilterMatchesAll VSB.
func (e Env) matches(m Match, r *netmodel.Route, peer netip.Addr) bool {
	switch m.Kind {
	case MatchPrefixList:
		l, ok := e.PrefixLists[m.ListName]
		if !ok {
			return e.Profile.UndefinedFilterMatchesAll
		}
		return l.Match(r.Prefix, e.Profile)
	case MatchCommunityList:
		l, ok := e.CommunityLists[m.ListName]
		if !ok {
			return e.Profile.UndefinedFilterMatchesAll
		}
		return l.Match(r.Attr().Communities)
	case MatchASPathList:
		l, ok := e.ASPathLists[m.ListName]
		if !ok {
			return e.Profile.UndefinedFilterMatchesAll
		}
		return l.Match(r.Attr().ASPath.String())
	case MatchPeerAddr:
		return m.Addr == peer
	case MatchProtocol:
		return m.Protocol == r.Protocol
	}
	return false
}

// apply executes the node's set clauses on a copy of the route. ownASN is
// the evaluating device's ASN, needed for the AS-path overwrite VSB. The
// attribute sets collect on a copy of the route's set, installed at the end:
// the route gets a new set only when its attributes changed.
func (e Env) apply(n *Node, r netmodel.Route, ownASN netmodel.ASN) netmodel.Route {
	a := *r.Attr()
	for _, s := range n.Sets {
		switch s.Kind {
		case SetLocalPref:
			a.LocalPref = s.Value
		case SetMED:
			a.MED = s.Value
		case SetWeight:
			a.Weight = s.Value
		case SetPreference:
			a.Preference = s.Value
		case SetCommunity:
			a.Communities = s.Communities
		case AddCommunity:
			a.Communities = a.Communities.Add(s.Community)
		case DeleteCommunity:
			a.Communities = a.Communities.Remove(s.Community)
		case SetNextHop:
			r.NextHop = s.NextHop
		case PrependASPath:
			for i := uint32(0); i < s.Value; i++ {
				a.ASPath = a.ASPath.Prepend(s.ASN)
			}
		case ReplaceASPath:
			a.ASPath = netmodel.ASPath{
				Seq: append([]netmodel.ASN(nil), s.ASPath.Seq...),
				Set: append([]netmodel.ASN(nil), s.ASPath.Set...),
			}
			// VSB: some vendors re-add the device's own ASN after a policy
			// overwrites the AS path.
			if e.Profile.AddOwnASNAfterPolicyOverwrite && ownASN != 0 {
				a.ASPath = a.ASPath.Prepend(ownASN)
			}
		}
	}
	r.SetAttrs(&a)
	return r
}

// Apply evaluates the route map on route r advertised by peer, under env's
// vendor semantics. It returns the (possibly rewritten) route and the
// disposition.
//
// Nodes are walked in sequence order; the first fully-matching node applies
// its sets and its action decides. VSBs involved:
//   - a matching node without an explicit action: PermitOnNoAction;
//   - no node matches: AcceptOnNoMatch (the "default route policy").
func (e Env) Apply(rm *RouteMap, r netmodel.Route, peer netip.Addr, ownASN netmodel.ASN) (netmodel.Route, Disposition) {
	for _, n := range rm.Nodes {
		all := true
		for _, m := range n.Matches {
			if !e.matches(m, &r, peer) {
				all = false
				break
			}
		}
		if !all {
			continue
		}
		switch n.Action {
		case ActionPermit:
			return e.apply(n, r, ownASN), Accept
		case ActionDeny:
			return r, Reject
		default: // ActionUnset: VSB decides
			if e.Profile.PermitOnNoAction {
				return e.apply(n, r, ownASN), Accept
			}
			return r, Reject
		}
	}
	if e.Profile.AcceptOnNoMatch {
		return r, Accept
	}
	return r, Reject
}
