// Package netmodel defines the core data model shared by every Hoyan
// subsystem: route attributes, routes, RIBs, the global RIB abstraction used
// by RCL, network topology, and traffic flows.
//
// The model deliberately mirrors the vocabulary of the paper: a route is a
// row in a (global) RIB with device and vrf columns (Figure 6); the topology
// is the graph the IGP runs SPF over; a flow is a 5-tuple with a traffic
// volume as collected by NetFlow/sFlow.
package netmodel

import (
	"encoding/json"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// ASN is a BGP autonomous system number.
type ASN uint32

// Community is a standard 32-bit BGP community, conventionally written
// "upper:lower" (e.g. "100:1").
type Community uint32

// NewCommunity builds a community from its upper and lower 16-bit halves.
func NewCommunity(hi, lo uint16) Community {
	return Community(uint32(hi)<<16 | uint32(lo))
}

// ParseCommunity parses the conventional "hi:lo" notation.
func ParseCommunity(s string) (Community, error) {
	hi, lo, ok := strings.Cut(s, ":")
	if !ok {
		return 0, fmt.Errorf("netmodel: community %q: want hi:lo", s)
	}
	h, err := strconv.ParseUint(hi, 10, 16)
	if err != nil {
		return 0, fmt.Errorf("netmodel: community %q: %v", s, err)
	}
	l, err := strconv.ParseUint(lo, 10, 16)
	if err != nil {
		return 0, fmt.Errorf("netmodel: community %q: %v", s, err)
	}
	return NewCommunity(uint16(h), uint16(l)), nil
}

// MustCommunity is ParseCommunity that panics on error; for tests and tables.
func MustCommunity(s string) Community {
	c, err := ParseCommunity(s)
	if err != nil {
		panic(err)
	}
	return c
}

func (c Community) String() string {
	return fmt.Sprintf("%d:%d", uint32(c)>>16, uint32(c)&0xffff)
}

// CommunitySet is a sorted, duplicate-free set of communities. The zero value
// is the empty set.
type CommunitySet struct {
	cs []Community
}

// NewCommunitySet builds a set from the given communities.
func NewCommunitySet(cs ...Community) CommunitySet {
	var s CommunitySet
	for _, c := range cs {
		s = s.Add(c)
	}
	return s
}

// ParseCommunitySet parses a comma-separated list of hi:lo communities.
func ParseCommunitySet(s string) (CommunitySet, error) {
	var set CommunitySet
	if strings.TrimSpace(s) == "" {
		return set, nil
	}
	for _, part := range strings.Split(s, ",") {
		c, err := ParseCommunity(strings.TrimSpace(part))
		if err != nil {
			return CommunitySet{}, err
		}
		set = set.Add(c)
	}
	return set, nil
}

// Add returns a new set that also contains c.
func (s CommunitySet) Add(c Community) CommunitySet {
	i := sort.Search(len(s.cs), func(i int) bool { return s.cs[i] >= c })
	if i < len(s.cs) && s.cs[i] == c {
		return s
	}
	out := make([]Community, 0, len(s.cs)+1)
	out = append(out, s.cs[:i]...)
	out = append(out, c)
	out = append(out, s.cs[i:]...)
	return CommunitySet{cs: out}
}

// Remove returns a new set without c.
func (s CommunitySet) Remove(c Community) CommunitySet {
	i := sort.Search(len(s.cs), func(i int) bool { return s.cs[i] >= c })
	if i >= len(s.cs) || s.cs[i] != c {
		return s
	}
	out := make([]Community, 0, len(s.cs)-1)
	out = append(out, s.cs[:i]...)
	out = append(out, s.cs[i+1:]...)
	return CommunitySet{cs: out}
}

// Contains reports whether c is in the set.
func (s CommunitySet) Contains(c Community) bool {
	i := sort.Search(len(s.cs), func(i int) bool { return s.cs[i] >= c })
	return i < len(s.cs) && s.cs[i] == c
}

// Len returns the number of communities in the set.
func (s CommunitySet) Len() int { return len(s.cs) }

// All returns the communities in sorted order. The caller must not modify
// the returned slice.
func (s CommunitySet) All() []Community { return s.cs }

// Equal reports whether the two sets have identical contents.
func (s CommunitySet) Equal(t CommunitySet) bool {
	if len(s.cs) != len(t.cs) {
		return false
	}
	for i := range s.cs {
		if s.cs[i] != t.cs[i] {
			return false
		}
	}
	return true
}

// Strings returns the communities formatted as "hi:lo", sorted.
func (s CommunitySet) Strings() []string {
	out := make([]string, len(s.cs))
	for i, c := range s.cs {
		out[i] = c.String()
	}
	return out
}

func (s CommunitySet) String() string { return strings.Join(s.Strings(), ",") }

// MarshalJSON encodes the set as its "hi:lo,..." text form, for the wire
// format of the distributed simulation framework.
func (s CommunitySet) MarshalJSON() ([]byte, error) {
	return json.Marshal(s.String())
}

// UnmarshalJSON decodes the text form produced by MarshalJSON.
func (s *CommunitySet) UnmarshalJSON(b []byte) error {
	var txt string
	if err := json.Unmarshal(b, &txt); err != nil {
		return err
	}
	set, err := ParseCommunitySet(txt)
	if err != nil {
		return err
	}
	*s = set
	return nil
}

// ASPath is a BGP AS path consisting of an ordered AS_SEQUENCE and an
// optional unordered AS_SET (produced by route aggregation).
type ASPath struct {
	Seq []ASN
	Set []ASN
}

// PrependASPath returns p with asn prepended to the sequence.
func (p ASPath) Prepend(asn ASN) ASPath {
	seq := make([]ASN, 0, len(p.Seq)+1)
	seq = append(seq, asn)
	seq = append(seq, p.Seq...)
	return ASPath{Seq: seq, Set: append([]ASN(nil), p.Set...)}
}

// Contains reports whether asn appears anywhere in the path (sequence or
// set); used for AS-loop prevention.
func (p ASPath) Contains(asn ASN) bool {
	for _, a := range p.Seq {
		if a == asn {
			return true
		}
	}
	for _, a := range p.Set {
		if a == asn {
			return true
		}
	}
	return false
}

// Len returns the AS-path length used in best-path selection: each sequence
// element counts 1 and a non-empty AS_SET counts 1 in total (RFC 4271).
func (p ASPath) Len() int {
	n := len(p.Seq)
	if len(p.Set) > 0 {
		n++
	}
	return n
}

// Equal reports whether two paths are identical (set compared as a sorted
// multiset).
func (p ASPath) Equal(q ASPath) bool {
	if len(p.Seq) != len(q.Seq) || len(p.Set) != len(q.Set) {
		return false
	}
	if !slices.Equal(p.Seq, q.Seq) {
		return false
	}
	if slices.Equal(p.Set, q.Set) {
		return true
	}
	ps := append([]ASN(nil), p.Set...)
	qs := append([]ASN(nil), q.Set...)
	slices.Sort(ps)
	slices.Sort(qs)
	for i := range ps {
		if ps[i] != qs[i] {
			return false
		}
	}
	return true
}

// String renders the path in the conventional "65001 65002 {1,2}" form.
func (p ASPath) String() string {
	var b strings.Builder
	for i, a := range p.Seq {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d", a)
	}
	if len(p.Set) > 0 {
		if len(p.Seq) > 0 {
			b.WriteByte(' ')
		}
		b.WriteByte('{')
		set := append([]ASN(nil), p.Set...)
		slices.Sort(set)
		for i, a := range set {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%d", a)
		}
		b.WriteByte('}')
	}
	return b.String()
}

// Origin is the BGP origin attribute. Lower is preferred.
type Origin uint8

// Origin values in preference order.
const (
	OriginIGP Origin = iota
	OriginEGP
	OriginIncomplete
)

func (o Origin) String() string {
	switch o {
	case OriginIGP:
		return "igp"
	case OriginEGP:
		return "egp"
	case OriginIncomplete:
		return "incomplete"
	}
	return fmt.Sprintf("origin(%d)", uint8(o))
}

// Protocol identifies the protocol that produced a route.
type Protocol uint8

// Protocols known to the simulator.
const (
	ProtoBGP Protocol = iota
	ProtoISIS
	ProtoStatic
	ProtoDirect
	ProtoAggregate
)

func (p Protocol) String() string {
	switch p {
	case ProtoBGP:
		return "bgp"
	case ProtoISIS:
		return "isis"
	case ProtoStatic:
		return "static"
	case ProtoDirect:
		return "direct"
	case ProtoAggregate:
		return "aggregate"
	}
	return fmt.Sprintf("proto(%d)", uint8(p))
}

// RouteType classifies a route within its RIB.
type RouteType uint8

// Route types. Best routes are the selected (possibly multipath) routes used
// for forwarding; candidates are installed but not selected.
const (
	RouteCandidate RouteType = iota
	RouteBest
)

func (t RouteType) String() string {
	switch t {
	case RouteBest:
		return "BEST"
	case RouteCandidate:
		return "CANDIDATE"
	}
	return fmt.Sprintf("routetype(%d)", uint8(t))
}
