package config

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"hoyan/internal/netmodel"
	"hoyan/internal/policy"
)

// op is a model operation a statement form is bound to. Both dialects share
// every op; a dialect only spells it.
type op uint8

const (
	opHostname op = iota
	opVendor
	opASN
	opRouterID
	opLoopback
	opISIS
	opIsolate
	opInterface
	opVRF
	opBGP
	opNode
	opPrefixList
	opPrefixList6
	opCommunityList
	opASPathList
	opACL
	opStatic
	opSRPolicy
	opPBR
	opIfAddr
	opISISCost
	opTECost
	opBandwidth
	opACLIn
	opACLOut
	opIfPBR
	opISISInInterface
	opRD
	opImportRT
	opExportRT
	opVRFExportPolicy
	opMaxPaths
	opNetwork
	opRemoteAS
	opImportPolicy
	opExportPolicy
	opRRClient
	opNextHopSelf
	opUpdateSource
	opAddPaths
	opAggregate
	opRedistribute
	opMatchPrefixList
	opMatchCommunity
	opMatchASPath
	opMatchProtocol
	opMatchPeer
	opLocalPref
	opMED
	opWeight
	opPreference
	opSetCommunity
	opAddCommunity
	opDeleteCommunity
	opNextHop
	opPrepend
	opReplaceASPath
	opNoIsolate
	opNoRouteMap
	opNoNode
	opNoNeighbor
	opNoImportPolicy
	opNoExportPolicy
	opNoStatic
	opNoPrefixList
	opNoCommunityList
	opNoACL
	opNoAggregate
	opNoSRPolicy
	opNoPBR
	opNoNetwork
	numOps
)

// parser is one CLI session over a device: the section the last header line
// opened is where the next line's section forms apply.
type parser struct {
	dl    *dialect
	d     *Device
	sec   scope
	iface *Interface
	vrf   *VRF
	node  *policy.Node
	m     matcher // reused line to line
}

func (p *parser) reset() { p.sec, p.iface, p.vrf, p.node = scopeTop, nil, nil, nil }

// apply holds what each op does to the device with a matched line's
// bindings. An error is a line that matched but names nothing to act on.
var apply [numOps]func(p *parser, a args) error

func init() {
	set := func(f func(*Device, args)) func(*parser, args) error {
		return func(p *parser, a args) error { f(p.d, a); return nil }
	}
	iface := func(f func(*Interface, args)) func(*parser, args) error {
		return func(p *parser, a args) error { f(p.iface, a); return nil }
	}
	vrf := func(f func(*VRF, args)) func(*parser, args) error {
		return func(p *parser, a args) error { f(p.vrf, a); return nil }
	}
	nb := func(f func(*Neighbor, args)) func(*parser, args) error {
		return func(p *parser, a args) error { f(p.neighbor(a), a); return nil }
	}
	match := func(kind policy.MatchKind, f func(*policy.Match, args)) func(*parser, args) error {
		return func(p *parser, a args) error {
			m := policy.Match{Kind: kind}
			if f != nil {
				f(&m, a)
			} else {
				m.ListName = a.str("list")
			}
			p.node.Matches = append(p.node.Matches, m)
			return nil
		}
	}
	sets := func(kind policy.SetKind, f func(*policy.Set, args)) func(*parser, args) error {
		return func(p *parser, a args) error {
			st := policy.Set{Kind: kind}
			f(&st, a)
			p.node.Sets = append(p.node.Sets, st)
			return nil
		}
	}
	value := func(st *policy.Set, a args) { st.Value = a.uint("v") }

	apply = [numOps]func(*parser, args) error{
		opHostname: set(func(d *Device, a args) { d.Name = a.str("name") }),
		opVendor: func(p *parser, a args) error {
			if v := a.str("vendor"); v != p.dl.name {
				return fmt.Errorf("vendor %s, but the text is parsed as %s", v, p.dl.name)
			}
			return nil
		},
		opASN:      set(func(d *Device, a args) { d.ASN = netmodel.ASN(a.uint("as")) }),
		opRouterID: set(func(d *Device, a args) { d.RouterID = a.addr("addr") }),
		opLoopback: set(func(d *Device, a args) { d.Loopback = a.addr("addr") }),
		opISIS:     set(func(d *Device, a args) { d.ISISEnabled = true }),
		opIsolate:  set(func(d *Device, a args) { d.Isolated = true }),
		opInterface: func(p *parser, a args) error {
			name := a.str("name")
			if p.iface = p.d.Interfaces[name]; p.iface == nil {
				p.iface = &Interface{Name: name}
				p.d.Interfaces[name] = p.iface
			}
			p.sec = scopeIface
			return nil
		},
		opVRF: func(p *parser, a args) error {
			name := a.str("name")
			if p.vrf = p.d.VRFs[name]; p.vrf == nil {
				p.vrf = &VRF{Name: name}
				p.d.VRFs[name] = p.vrf
			}
			p.sec = scopeVRF
			return nil
		},
		opBGP: func(p *parser, a args) error { p.sec = scopeBGP; return nil },
		opNode: func(p *parser, a args) error {
			name, seq := a.str("name"), a.int("seq")
			rm := p.d.RouteMaps[name]
			if rm == nil {
				rm = &policy.RouteMap{Name: name}
				p.d.RouteMaps[name] = rm
			}
			if p.node = rm.Node(seq); p.node == nil {
				p.node = &policy.Node{Seq: seq}
				rm.Nodes = append(rm.Nodes, p.node)
				rm.SortNodes()
			}
			p.node.Action = policy.ActionUnset
			if a.has("action") {
				p.node.Action = policy.ActionDeny
				if a.str("action") == "permit" {
					p.node.Action = policy.ActionPermit
				}
			}
			p.sec = scopeNode
			return nil
		},
		opPrefixList:  prefixListEntry(policy.FamilyIPv4),
		opPrefixList6: prefixListEntry(policy.FamilyIPv6),
		opCommunityList: set(func(d *Device, a args) {
			l := d.CommunityLists[a.str("list")]
			if l == nil {
				l = &policy.CommunityList{Name: a.str("list")}
				d.CommunityLists[l.Name] = l
			}
			l.Entries = append(l.Entries, policy.CommunityEntry{Permit: permit(a), Community: a.comm("comm")})
		}),
		opASPathList: set(func(d *Device, a args) {
			l := d.ASPathLists[a.str("list")]
			if l == nil {
				l = &policy.ASPathList{Name: a.str("list")}
				d.ASPathLists[l.Name] = l
			}
			l.Entries = append(l.Entries, policy.ASPathEntry{Permit: permit(a), Regex: strings.Trim(a.str("regex"), `"`)})
		}),
		opACL: set(func(d *Device, a args) {
			l := d.ACLs[a.str("acl")]
			if l == nil {
				l = &policy.ACL{Name: a.str("acl")}
				d.ACLs[l.Name] = l
			}
			e := aclClause(a)
			e.Permit = permit(a)
			l.Entries = append(l.Entries, e)
		}),
		opStatic: func(p *parser, a args) error {
			st := StaticRoute{VRF: vrfOf(a), Prefix: a.prefix("prefix"), NextHop: a.addr("nh"), Preference: p.dl.staticPref}
			if a.has("v") {
				st.Preference = a.uint("v")
			}
			p.d.Statics = append(p.d.Statics, st)
			return nil
		},
		opSRPolicy: set(func(d *Device, a args) {
			segs, _ := a.get("segments")
			sp := &SRPolicy{Name: a.str("name"), Endpoint: a.addr("addr"), Color: a.uint("color"), Segments: append([]string(nil), segs...)}
			for i, old := range d.SRPolicies {
				if old.Name == sp.Name { // a re-declaration replaces
					d.SRPolicies[i] = sp
					return
				}
			}
			d.SRPolicies = append(d.SRPolicies, sp)
		}),
		opPBR: set(func(d *Device, a args) {
			e := aclClause(a)
			e.Permit = true
			name := a.str("name")
			d.PBRPolicies[name] = append(d.PBRPolicies[name], PBRRule{Name: name, Match: e, NextHop: a.addr("nh")})
		}),

		opIfAddr:    iface(func(i *Interface, a args) { i.Addr = a.prefix("prefix") }),
		opISISCost:  iface(func(i *Interface, a args) { i.ISISCost = a.uint("cost") }),
		opTECost:    iface(func(i *Interface, a args) { i.TECost = a.uint("cost") }),
		opBandwidth: iface(func(i *Interface, a args) { i.Bandwidth, _ = parseFloat(a.str("bw")) }),
		opACLIn:     iface(func(i *Interface, a args) { i.ACLIn = a.str("acl") }),
		opACLOut:    iface(func(i *Interface, a args) { i.ACLOut = a.str("acl") }),
		opIfPBR:     iface(func(i *Interface, a args) { i.PBR = a.str("name") }),
		opISISInInterface: func(*parser, args) error {
			return errors.New("isis enable inside an interface")
		},

		opRD:              vrf(func(v *VRF, a args) { v.RD = a.str("rd") }),
		opImportRT:        vrf(func(v *VRF, a args) { v.ImportRTs = append(v.ImportRTs, a.str("rt")) }),
		opExportRT:        vrf(func(v *VRF, a args) { v.ExportRTs = append(v.ExportRTs, a.str("rt")) }),
		opVRFExportPolicy: vrf(func(v *VRF, a args) { v.ExportPolicy = a.str("policy") }),

		opMaxPaths:     set(func(d *Device, a args) { d.MaxPaths = a.int("paths") }),
		opNetwork:      set(func(d *Device, a args) { d.Networks = append(d.Networks, a.prefix("prefix")) }),
		opRemoteAS:     nb(func(n *Neighbor, a args) { n.RemoteAS = netmodel.ASN(a.uint("as")) }),
		opImportPolicy: nb(func(n *Neighbor, a args) { n.ImportPolicy = a.str("policy") }),
		opExportPolicy: nb(func(n *Neighbor, a args) { n.ExportPolicy = a.str("policy") }),
		opRRClient:     nb(func(n *Neighbor, a args) { n.RRClient = true }),
		opNextHopSelf:  nb(func(n *Neighbor, a args) { n.NextHopSelf = true }),
		opUpdateSource: nb(func(n *Neighbor, a args) { n.UpdateSource = true }),
		opAddPaths:     nb(func(n *Neighbor, a args) { n.AddPaths = a.int("paths") }),
		opAggregate: set(func(d *Device, a args) {
			d.Aggregates = append(d.Aggregates, Aggregate{VRF: vrfOf(a), Prefix: a.prefix("prefix"),
				ASSet: a.has("as-set"), SummaryOnly: a.has("summary-only")})
		}),
		opRedistribute: set(func(d *Device, a args) {
			from, _ := protoFromString(a.str("proto"))
			d.Redistributes = append(d.Redistributes, Redistribution{From: from, Policy: a.str("policy")})
		}),

		opMatchPrefixList: match(policy.MatchPrefixList, nil),
		opMatchCommunity:  match(policy.MatchCommunityList, nil),
		opMatchASPath:     match(policy.MatchASPathList, nil),
		opMatchProtocol: match(policy.MatchProtocol, func(m *policy.Match, a args) {
			m.Protocol, _ = protoFromString(a.str("proto"))
		}),
		opMatchPeer:    match(policy.MatchPeerAddr, func(m *policy.Match, a args) { m.Addr = a.addr("peer") }),
		opLocalPref:    sets(policy.SetLocalPref, value),
		opMED:          sets(policy.SetMED, value),
		opWeight:       sets(policy.SetWeight, value),
		opPreference:   sets(policy.SetPreference, value),
		opNextHop:      sets(policy.SetNextHop, func(st *policy.Set, a args) { st.NextHop = a.addr("nh") }),
		opAddCommunity: sets(policy.AddCommunity, func(st *policy.Set, a args) { st.Community = a.comm("comm") }),
		opDeleteCommunity: sets(policy.DeleteCommunity, func(st *policy.Set, a args) {
			st.Community = a.comm("comm")
		}),
		opSetCommunity: sets(policy.SetCommunity, func(st *policy.Set, a args) {
			ws, _ := a.get("comm")
			for _, w := range ws {
				c, _ := netmodel.ParseCommunity(w)
				st.Communities = st.Communities.Add(c)
			}
		}),
		opPrepend: sets(policy.PrependASPath, func(st *policy.Set, a args) {
			st.ASN, st.Value = netmodel.ASN(a.uint("asn")), 1
			if a.has("count") {
				st.Value = a.uint("count")
			}
		}),
		opReplaceASPath: sets(policy.ReplaceASPath, func(st *policy.Set, a args) {
			ws, _ := a.get("asn")
			for _, w := range ws {
				n, _ := strconv.ParseUint(w, 10, 32)
				st.ASPath.Seq = append(st.ASPath.Seq, netmodel.ASN(n))
			}
		}),

		opNoIsolate: set(func(d *Device, a args) { d.Isolated = false }),
		opNoRouteMap: set(func(d *Device, a args) {
			delete(d.RouteMaps, a.str("name"))
		}),
		opNoNode: func(p *parser, a args) error {
			rm := p.d.RouteMaps[a.str("name")]
			if rm == nil {
				return errors.New("no such route map")
			}
			if !rm.DeleteNode(a.int("seq")) {
				return errors.New("no such node")
			}
			return nil
		},
		opNoNeighbor: func(p *parser, a args) error {
			if !p.d.RemoveNeighbor(a.addr("peer"), vrfOf(a)) {
				return errors.New("no such neighbor")
			}
			return nil
		},
		opNoImportPolicy: unbind(func(n *Neighbor) { n.ImportPolicy = "" }),
		opNoExportPolicy: unbind(func(n *Neighbor) { n.ExportPolicy = "" }),
		opNoStatic: func(p *parser, a args) error {
			pr, nh, vrf := a.prefix("prefix"), a.addr("nh"), vrfOf(a)
			return p.remove(len(p.d.Statics), func(i int) bool {
				st := p.d.Statics[i]
				return st.Prefix == pr && st.NextHop == nh && st.VRF == vrf
			}, func(i int) { p.d.Statics = append(p.d.Statics[:i], p.d.Statics[i+1:]...) }, "static route")
		},
		opNoPrefixList:    set(func(d *Device, a args) { delete(d.PrefixLists, a.str("list")) }),
		opNoCommunityList: set(func(d *Device, a args) { delete(d.CommunityLists, a.str("list")) }),
		opNoACL:           set(func(d *Device, a args) { delete(d.ACLs, a.str("acl")) }),
		opNoPBR:           set(func(d *Device, a args) { delete(d.PBRPolicies, a.str("name")) }),
		opNoAggregate: func(p *parser, a args) error {
			pr := a.prefix("prefix")
			return p.remove(len(p.d.Aggregates), func(i int) bool { return p.d.Aggregates[i].Prefix == pr },
				func(i int) { p.d.Aggregates = append(p.d.Aggregates[:i], p.d.Aggregates[i+1:]...) }, "aggregate")
		},
		opNoSRPolicy: func(p *parser, a args) error {
			name := a.str("name")
			return p.remove(len(p.d.SRPolicies), func(i int) bool { return p.d.SRPolicies[i].Name == name },
				func(i int) { p.d.SRPolicies = append(p.d.SRPolicies[:i], p.d.SRPolicies[i+1:]...) }, "sr-policy")
		},
		opNoNetwork: func(p *parser, a args) error {
			pr := a.prefix("prefix")
			return p.remove(len(p.d.Networks), func(i int) bool { return p.d.Networks[i] == pr },
				func(i int) { p.d.Networks = append(p.d.Networks[:i], p.d.Networks[i+1:]...) }, "network")
		},
	}
}

// remove deletes the first of n items that is, or fails naming what.
func (p *parser) remove(n int, is func(int) bool, del func(int), what string) error {
	for i := range n {
		if is(i) {
			del(i)
			return nil
		}
	}
	return errors.New("no such " + what)
}

// neighbor is the session a neighbor line configures, created on first use.
func (p *parser) neighbor(a args) *Neighbor {
	addr, vrf := a.addr("peer"), vrfOf(a)
	n := p.d.Neighbor(addr, vrf)
	if n == nil {
		n = &Neighbor{Addr: addr, VRF: vrf}
		p.d.Neighbors = append(p.d.Neighbors, n)
	}
	return n
}

func unbind(f func(*Neighbor)) func(*parser, args) error {
	return func(p *parser, a args) error {
		n := p.d.Neighbor(a.addr("peer"), netmodel.DefaultVRF)
		if n == nil {
			return errors.New("no such neighbor")
		}
		f(n)
		return nil
	}
}

// prefixListEntry appends to the named list, which takes the family of the
// form that declared it first: "ip ip-prefix" with IPv6 entries is the
// Figure 10(b) misconfiguration, kept as written.
func prefixListEntry(fam policy.Family) func(*parser, args) error {
	return func(p *parser, a args) error {
		l := p.d.PrefixLists[a.str("list")]
		if l == nil {
			l = &policy.PrefixList{Name: a.str("list"), Family: fam}
			p.d.PrefixLists[l.Name] = l
		}
		l.Entries = append(l.Entries, policy.PrefixEntry{Permit: permit(a), Prefix: a.prefix("prefix"), Ge: a.int("ge"), Le: a.int("le")})
		return nil
	}
}

func permit(a args) bool { return a.str("action") == "permit" }

func vrfOf(a args) string {
	if a.has("vrf") {
		return a.str("vrf")
	}
	return netmodel.DefaultVRF
}

// aclClause reads the ACL match options (proto, src, dst, sport, dport).
func aclClause(a args) policy.ACLEntry {
	var e policy.ACLEntry
	switch p := a.str("ipproto"); p {
	case "tcp":
		e.Proto = netmodel.ProtoTCP
	case "udp":
		e.Proto = netmodel.ProtoUDP
	default:
		n, _ := strconv.ParseUint(p, 10, 8)
		e.Proto = netmodel.IPProto(n)
	}
	e.Src, e.Dst = a.prefix("src"), a.prefix("dst")
	e.SrcPortLo, e.SrcPortHi, _ = parsePortRange(a.str("sport"))
	e.DstPortLo, e.DstPortHi, _ = parsePortRange(a.str("dport"))
	return e
}

func parsePortRange(s string) (lo, hi uint16, err error) {
	loS, hiS, ok := strings.Cut(s, "-")
	if !ok {
		hiS = loS
	}
	l, err := strconv.ParseUint(loS, 10, 16)
	if err != nil {
		return 0, 0, fmt.Errorf("bad port %q", s)
	}
	h, err := strconv.ParseUint(hiS, 10, 16)
	if err != nil {
		return 0, 0, fmt.Errorf("bad port %q", s)
	}
	return uint16(l), uint16(h), nil
}

func parseFloat(s string) (float64, error) {
	var f float64
	_, err := fmt.Sscanf(s, "%g", &f)
	return f, err
}

func protoFromString(s string) (netmodel.Protocol, error) {
	switch s {
	case "static":
		return netmodel.ProtoStatic, nil
	case "direct":
		return netmodel.ProtoDirect, nil
	case "isis":
		return netmodel.ProtoISIS, nil
	case "bgp":
		return netmodel.ProtoBGP, nil
	case "aggregate":
		return netmodel.ProtoAggregate, nil
	}
	return 0, fmt.Errorf("unknown protocol %q", s)
}
