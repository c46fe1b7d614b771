package config

import (
	"fmt"
	"net/netip"
	"strings"

	"hoyan/internal/netmodel"
	"hoyan/internal/policy"
)

// betaParser parses the vendor-beta dialect (VRP-flavoured): sections end at
// "#" or the next top-level command; removal uses a leading "undo ".
//
// The dialect distinguishes "ip ip-prefix" (IPv4) from "ip ipv6-prefix"
// (IPv6) filter declarations — the distinction behind the Figure 10(b)
// incident.
type betaParser struct {
	d *Device

	curIface *Interface
	curVRF   *VRF
	inBGP    bool
	curNode  *policy.Node
}

func (p *betaParser) resetSection() {
	p.curIface, p.curVRF, p.curNode = nil, nil, nil
	p.inBGP = false
}

// ParseBeta parses a full vendor-beta configuration text.
func ParseBeta(name, text string) (*Device, error) {
	d := NewDevice(name, "beta")
	p := &betaParser{d: d}
	lines := splitLines(text)
	d.Lines = len(lines)
	for _, l := range lines {
		if err := p.line(l.n, l.text); err != nil {
			return nil, err
		}
	}
	for _, rm := range d.RouteMaps {
		rm.SortNodes()
	}
	return d, nil
}

func (p *betaParser) line(lineNo int, s string) error {
	f := strings.Fields(s)
	if len(f) == 0 {
		return nil
	}
	if f[0] == "#" {
		p.resetSection()
		return nil
	}
	if f[0] == "undo" {
		return p.undoCommand(lineNo, s, f[1:])
	}
	d := p.d
	fail := func(reason string) error { return parseErr(d.Name, lineNo, s, reason) }

	switch f[0] {
	case "sysname":
		if len(f) != 2 {
			return fail("sysname NAME")
		}
		d.Name = f[1]
		p.resetSection()
		return nil
	case "vendor":
		p.resetSection()
		return nil
	case "as-number":
		if len(f) != 2 {
			return fail("as-number N")
		}
		n, err := parseUint32(f[1])
		if err != nil {
			return fail("bad as-number")
		}
		d.ASN = netmodel.ASN(n)
		p.resetSection()
		return nil
	case "router-id":
		if len(f) != 2 {
			return fail("router-id ADDR")
		}
		a, err := netip.ParseAddr(f[1])
		if err != nil {
			return fail("bad router-id")
		}
		d.RouterID = a
		p.resetSection()
		return nil
	case "loopback":
		if len(f) != 2 {
			return fail("loopback ADDR")
		}
		a, err := netip.ParseAddr(f[1])
		if err != nil {
			return fail("bad loopback")
		}
		d.Loopback = a
		p.resetSection()
		return nil
	case "isis":
		if p.curIface != nil {
			return p.ifaceLine(lineNo, s, f)
		}
		if len(f) == 2 && f[1] == "enable" {
			d.ISISEnabled = true
			p.resetSection()
			return nil
		}
		return fail("isis enable")
	case "isolate":
		d.Isolated = true
		p.resetSection()
		return nil
	case "interface":
		if len(f) != 2 {
			return fail("interface NAME")
		}
		p.resetSection()
		i, ok := d.Interfaces[f[1]]
		if !ok {
			i = &Interface{Name: f[1]}
			d.Interfaces[f[1]] = i
		}
		p.curIface = i
		return nil
	case "bgp":
		p.resetSection()
		p.inBGP = true
		return nil
	case "route-policy":
		// route-policy NAME permit|deny node N
		p.resetSection()
		if len(f) != 5 || f[3] != "node" {
			return fail("route-policy NAME permit|deny node N")
		}
		permit, ok := permitDeny(f[2])
		if !ok {
			return fail("want permit|deny")
		}
		seq, err := parseInt(f[4])
		if err != nil {
			return fail("bad node number")
		}
		rm, ok := d.RouteMaps[f[1]]
		if !ok {
			rm = &policy.RouteMap{Name: f[1]}
			d.RouteMaps[f[1]] = rm
		}
		node := rm.Node(seq)
		if node == nil {
			node = &policy.Node{Seq: seq}
			rm.Nodes = append(rm.Nodes, node)
			rm.SortNodes()
		}
		if permit {
			node.Action = policy.ActionPermit
		} else {
			node.Action = policy.ActionDeny
		}
		p.curNode = node
		return nil
	case "if-match":
		return p.ifMatchLine(lineNo, s, f)
	case "apply":
		return p.applyLine(lineNo, s, f)
	case "ip":
		return p.ipLine(lineNo, s, f)
	case "acl":
		p.resetSection()
		return p.aclLine(lineNo, s, f)
	case "sr-policy":
		p.resetSection()
		return p.srPolicyLine(lineNo, s, f)
	case "policy-based-route":
		p.resetSection()
		return p.pbrLine(lineNo, s, f)
	case "maximum", "peer", "aggregate", "import-route", "network":
		if !p.inBGP {
			return fail(f[0] + " outside bgp")
		}
		return p.bgpLine(lineNo, s, f)
	}
	if p.curIface != nil {
		return p.ifaceLine(lineNo, s, f)
	}
	if p.curVRF != nil {
		return p.vrfLine(lineNo, s, f)
	}
	return fail("unknown command")
}

func (p *betaParser) ifaceLine(lineNo int, s string, f []string) error {
	d, i := p.d, p.curIface
	fail := func(reason string) error { return parseErr(d.Name, lineNo, s, reason) }
	switch {
	case f[0] == "ip" && len(f) == 3 && f[1] == "address":
		pr, err := netip.ParsePrefix(f[2])
		if err != nil {
			return fail("bad address")
		}
		i.Addr = pr
	case f[0] == "isis" && len(f) == 3 && f[1] == "cost":
		c, err := parseUint32(f[2])
		if err != nil {
			return fail("bad cost")
		}
		i.ISISCost = c
	case f[0] == "isis" && len(f) == 3 && f[1] == "te-cost":
		c, err := parseUint32(f[2])
		if err != nil {
			return fail("bad te-cost")
		}
		i.TECost = c
	case f[0] == "bandwidth" && len(f) == 2:
		var bw float64
		if _, err := fmt.Sscanf(f[1], "%g", &bw); err != nil {
			return fail("bad bandwidth")
		}
		i.Bandwidth = bw
	case f[0] == "traffic-filter" && len(f) == 4 && f[2] == "acl":
		switch f[1] {
		case "inbound":
			i.ACLIn = f[3]
		case "outbound":
			i.ACLOut = f[3]
		default:
			return fail("want inbound|outbound")
		}
	case f[0] == "pbr" && len(f) == 2:
		i.PBR = f[1]
	default:
		return fail("unknown interface command")
	}
	return nil
}

func (p *betaParser) vrfLine(lineNo int, s string, f []string) error {
	d, v := p.d, p.curVRF
	fail := func(reason string) error { return parseErr(d.Name, lineNo, s, reason) }
	switch {
	case f[0] == "rd" && len(f) == 2:
		v.RD = f[1]
	case f[0] == "vpn-target" && len(f) == 3:
		switch f[2] {
		case "import":
			v.ImportRTs = append(v.ImportRTs, f[1])
		case "export":
			v.ExportRTs = append(v.ExportRTs, f[1])
		default:
			return fail("want import|export")
		}
	case f[0] == "export" && len(f) == 3 && f[1] == "route-policy":
		v.ExportPolicy = f[2]
	default:
		return fail("unknown vpn-instance command")
	}
	return nil
}

func (p *betaParser) bgpLine(lineNo int, s string, f []string) error {
	d := p.d
	fail := func(reason string) error { return parseErr(d.Name, lineNo, s, reason) }
	switch f[0] {
	case "maximum":
		// maximum load-balancing N
		if len(f) != 3 || f[1] != "load-balancing" {
			return fail("maximum load-balancing N")
		}
		n, err := parseInt(f[2])
		if err != nil {
			return fail("bad count")
		}
		d.MaxPaths = n
	case "network":
		if len(f) != 2 {
			return fail("network PREFIX")
		}
		pr, err := netip.ParsePrefix(f[1])
		if err != nil {
			return fail("bad prefix")
		}
		d.Networks = append(d.Networks, pr)
	case "peer":
		return p.peerLine(lineNo, s, f)
	case "aggregate":
		// aggregate PREFIX [as-set] [summary-only] [vpn-instance NAME]
		if len(f) < 2 {
			return fail("aggregate PREFIX")
		}
		pr, err := netip.ParsePrefix(f[1])
		if err != nil {
			return fail("bad prefix")
		}
		agg := Aggregate{VRF: netmodel.DefaultVRF, Prefix: pr}
		rest := f[2:]
		for i := 0; i < len(rest); i++ {
			switch rest[i] {
			case "as-set":
				agg.ASSet = true
			case "summary-only":
				agg.SummaryOnly = true
			case "vpn-instance":
				if i+1 >= len(rest) {
					return fail("vpn-instance NAME")
				}
				agg.VRF = rest[i+1]
				i++
			default:
				return fail("unknown aggregate token")
			}
		}
		d.Aggregates = append(d.Aggregates, agg)
	case "import-route":
		if len(f) < 2 {
			return fail("import-route PROTO")
		}
		proto, err := protoFromString(f[1])
		if err != nil {
			return fail(err.Error())
		}
		r := Redistribution{From: proto}
		if len(f) == 4 && f[2] == "route-policy" {
			r.Policy = f[3]
		} else if len(f) != 2 {
			return fail("import-route PROTO [route-policy NAME]")
		}
		d.Redistributes = append(d.Redistributes, r)
	}
	return nil
}

func (p *betaParser) peerLine(lineNo int, s string, f []string) error {
	d := p.d
	fail := func(reason string) error { return parseErr(d.Name, lineNo, s, reason) }
	if len(f) < 3 {
		return fail("peer ADDR CMD")
	}
	addr, err := netip.ParseAddr(f[1])
	if err != nil {
		return fail("bad peer address")
	}
	vrf := netmodel.DefaultVRF
	rest := f[2:]
	if len(rest) >= 2 && rest[len(rest)-2] == "vpn-instance" {
		vrf = rest[len(rest)-1]
		rest = rest[:len(rest)-2]
	}
	nb := d.Neighbor(addr, vrf)
	ensure := func() *Neighbor {
		if nb == nil {
			nb = &Neighbor{Addr: addr, VRF: vrf}
			d.Neighbors = append(d.Neighbors, nb)
		}
		return nb
	}
	switch rest[0] {
	case "as-number":
		if len(rest) != 2 {
			return fail("as-number N")
		}
		n, err := parseUint32(rest[1])
		if err != nil {
			return fail("bad as-number")
		}
		ensure().RemoteAS = netmodel.ASN(n)
	case "route-policy":
		if len(rest) != 3 {
			return fail("route-policy NAME import|export")
		}
		switch rest[2] {
		case "import":
			ensure().ImportPolicy = rest[1]
		case "export":
			ensure().ExportPolicy = rest[1]
		default:
			return fail("want import|export")
		}
	case "reflect-client":
		ensure().RRClient = true
	case "next-hop-local":
		ensure().NextHopSelf = true
	case "connect-interface":
		ensure().UpdateSource = true
	case "add-paths":
		if len(rest) != 2 {
			return fail("add-paths N")
		}
		n, err := parseInt(rest[1])
		if err != nil {
			return fail("bad add-paths")
		}
		ensure().AddPaths = n
	default:
		return fail("unknown peer command")
	}
	return nil
}

func (p *betaParser) ifMatchLine(lineNo int, s string, f []string) error {
	d := p.d
	fail := func(reason string) error { return parseErr(d.Name, lineNo, s, reason) }
	if p.curNode == nil {
		return fail("if-match outside route-policy")
	}
	if len(f) < 3 {
		return fail("if-match KIND NAME")
	}
	switch f[1] {
	case "ip-prefix", "ipv6-prefix":
		p.curNode.Matches = append(p.curNode.Matches, policy.Match{Kind: policy.MatchPrefixList, ListName: f[2]})
	case "community-filter":
		p.curNode.Matches = append(p.curNode.Matches, policy.Match{Kind: policy.MatchCommunityList, ListName: f[2]})
	case "as-path-filter":
		p.curNode.Matches = append(p.curNode.Matches, policy.Match{Kind: policy.MatchASPathList, ListName: f[2]})
	case "protocol":
		proto, err := protoFromString(f[2])
		if err != nil {
			return fail(err.Error())
		}
		p.curNode.Matches = append(p.curNode.Matches, policy.Match{Kind: policy.MatchProtocol, Protocol: proto})
	case "peer":
		a, err := netip.ParseAddr(f[2])
		if err != nil {
			return fail("bad peer address")
		}
		p.curNode.Matches = append(p.curNode.Matches, policy.Match{Kind: policy.MatchPeerAddr, Addr: a})
	default:
		return fail("unknown if-match kind")
	}
	return nil
}

func (p *betaParser) applyLine(lineNo int, s string, f []string) error {
	d := p.d
	fail := func(reason string) error { return parseErr(d.Name, lineNo, s, reason) }
	if p.curNode == nil {
		return fail("apply outside route-policy")
	}
	add := func(st policy.Set) { p.curNode.Sets = append(p.curNode.Sets, st) }
	if len(f) < 3 {
		return fail("apply KIND VALUE")
	}
	switch f[1] {
	case "local-preference", "cost", "preference":
		v, err := parseUint32(f[2])
		if err != nil {
			return fail("bad value")
		}
		kind := map[string]policy.SetKind{
			"local-preference": policy.SetLocalPref,
			"cost":             policy.SetMED,
			"preference":       policy.SetPreference,
		}[f[1]]
		add(policy.Set{Kind: kind, Value: v})
	case "community":
		// apply community C additive | apply community delete C | apply community C1 C2 ...
		if f[2] == "delete" {
			if len(f) != 4 {
				return fail("apply community delete C")
			}
			c, err := netmodel.ParseCommunity(f[3])
			if err != nil {
				return fail("bad community")
			}
			add(policy.Set{Kind: policy.DeleteCommunity, Community: c})
			return nil
		}
		if f[len(f)-1] == "additive" {
			if len(f) != 4 {
				return fail("apply community C additive")
			}
			c, err := netmodel.ParseCommunity(f[2])
			if err != nil {
				return fail("bad community")
			}
			add(policy.Set{Kind: policy.AddCommunity, Community: c})
			return nil
		}
		var cs netmodel.CommunitySet
		for _, tok := range f[2:] {
			c, err := netmodel.ParseCommunity(tok)
			if err != nil {
				return fail("bad community")
			}
			cs = cs.Add(c)
		}
		add(policy.Set{Kind: policy.SetCommunity, Communities: cs})
	case "ip-address":
		if len(f) != 4 || f[2] != "next-hop" {
			return fail("apply ip-address next-hop A")
		}
		a, err := netip.ParseAddr(f[3])
		if err != nil {
			return fail("bad next hop")
		}
		add(policy.Set{Kind: policy.SetNextHop, NextHop: a})
	case "as-path":
		// apply as-path ASN [COUNT] additive | apply as-path ASN... overwrite
		last := f[len(f)-1]
		switch last {
		case "additive":
			asn, err := parseUint32(f[2])
			if err != nil {
				return fail("bad asn")
			}
			count := uint32(1)
			if len(f) == 5 {
				if count, err = parseUint32(f[3]); err != nil {
					return fail("bad count")
				}
			}
			add(policy.Set{Kind: policy.PrependASPath, ASN: netmodel.ASN(asn), Value: count})
		case "overwrite":
			var seq []netmodel.ASN
			for _, tok := range f[2 : len(f)-1] {
				n, err := parseUint32(tok)
				if err != nil {
					return fail("bad asn")
				}
				seq = append(seq, netmodel.ASN(n))
			}
			add(policy.Set{Kind: policy.ReplaceASPath, ASPath: netmodel.ASPath{Seq: seq}})
		default:
			return fail("apply as-path must end with additive|overwrite")
		}
	default:
		return fail("unknown apply kind")
	}
	return nil
}

// ipLine handles beta top-level "ip ..." commands.
func (p *betaParser) ipLine(lineNo int, s string, f []string) error {
	d := p.d
	fail := func(reason string) error { return parseErr(d.Name, lineNo, s, reason) }
	if p.curIface != nil && len(f) >= 2 && f[1] == "address" {
		return p.ifaceLine(lineNo, s, f)
	}
	if len(f) >= 2 && f[1] == "vpn-instance" {
		if len(f) != 3 {
			return fail("ip vpn-instance NAME")
		}
		p.resetSection()
		v, ok := d.VRFs[f[2]]
		if !ok {
			v = &VRF{Name: f[2]}
			d.VRFs[f[2]] = v
		}
		p.curVRF = v
		return nil
	}
	p.resetSection()
	if len(f) < 3 {
		return fail("incomplete ip command")
	}
	switch f[1] {
	case "ip-prefix", "ipv6-prefix":
		// ip ip-prefix NAME index N permit|deny PREFIX [greater-equal N] [less-equal N]
		//
		// The declared family follows the command keyword, NOT the prefixes
		// inside: declaring IPv6 prefixes under "ip-prefix" is exactly the
		// Figure 10(b) misconfiguration.
		family := policy.FamilyIPv4
		if f[1] == "ipv6-prefix" {
			family = policy.FamilyIPv6
		}
		if len(f) < 7 || f[3] != "index" {
			return fail("ip " + f[1] + " NAME index N permit|deny PREFIX")
		}
		name := f[2]
		permit, ok := permitDeny(f[5])
		if !ok {
			return fail("want permit|deny")
		}
		pr, err := netip.ParsePrefix(f[6])
		if err != nil {
			return fail("bad prefix")
		}
		ge, le, err := parseGeLe(f[7:], "greater-equal", "less-equal")
		if err != nil {
			return fail(err.Error())
		}
		l, ok := d.PrefixLists[name]
		if !ok {
			l = &policy.PrefixList{Name: name, Family: family}
			d.PrefixLists[name] = l
		}
		l.Entries = append(l.Entries, policy.PrefixEntry{Permit: permit, Prefix: pr, Ge: ge, Le: le})
	case "community-filter":
		if len(f) != 5 {
			return fail("ip community-filter NAME permit|deny C")
		}
		name := f[2]
		permit, ok := permitDeny(f[3])
		if !ok {
			return fail("want permit|deny")
		}
		c, err := netmodel.ParseCommunity(f[4])
		if err != nil {
			return fail("bad community")
		}
		l, ok := d.CommunityLists[name]
		if !ok {
			l = &policy.CommunityList{Name: name}
			d.CommunityLists[name] = l
		}
		l.Entries = append(l.Entries, policy.CommunityEntry{Permit: permit, Community: c})
	case "as-path-filter":
		if len(f) < 5 {
			return fail("ip as-path-filter NAME permit|deny REGEX")
		}
		name := f[2]
		permit, ok := permitDeny(f[3])
		if !ok {
			return fail("want permit|deny")
		}
		regex := strings.Trim(strings.Join(f[4:], " "), `"`)
		l, ok := d.ASPathLists[name]
		if !ok {
			l = &policy.ASPathList{Name: name}
			d.ASPathLists[name] = l
		}
		l.Entries = append(l.Entries, policy.ASPathEntry{Permit: permit, Regex: regex})
	case "route-static":
		// ip route-static PREFIX NEXTHOP [preference N] [vpn-instance NAME]
		if len(f) < 4 {
			return fail("ip route-static PREFIX NEXTHOP")
		}
		pr, err := netip.ParsePrefix(f[2])
		if err != nil {
			return fail("bad prefix")
		}
		nh, err := netip.ParseAddr(f[3])
		if err != nil {
			return fail("bad next hop")
		}
		st := StaticRoute{VRF: netmodel.DefaultVRF, Prefix: pr, NextHop: nh, Preference: 60}
		rest := f[4:]
		for i := 0; i < len(rest); i += 2 {
			if i+1 >= len(rest) {
				return fail("dangling option")
			}
			switch rest[i] {
			case "preference":
				v, err := parseUint32(rest[i+1])
				if err != nil {
					return fail("bad preference")
				}
				st.Preference = v
			case "vpn-instance":
				st.VRF = rest[i+1]
			default:
				return fail("unknown static option")
			}
		}
		d.Statics = append(d.Statics, st)
	default:
		return fail("unknown ip command")
	}
	return nil
}

func (p *betaParser) aclLine(lineNo int, s string, f []string) error {
	d := p.d
	fail := func(reason string) error { return parseErr(d.Name, lineNo, s, reason) }
	// acl NAME rule permit|deny [clauses]
	if len(f) < 4 || f[2] != "rule" {
		return fail("acl NAME rule permit|deny ...")
	}
	name := f[1]
	permit, ok := permitDeny(f[3])
	if !ok {
		return fail("want permit|deny")
	}
	e, err := parseACLClause(f[4:])
	if err != nil {
		return fail(err.Error())
	}
	e.Permit = permit
	a, ok := d.ACLs[name]
	if !ok {
		a = &policy.ACL{Name: name}
		d.ACLs[name] = a
	}
	a.Entries = append(a.Entries, e)
	return nil
}

func (p *betaParser) srPolicyLine(lineNo int, s string, f []string) error {
	d := p.d
	fail := func(reason string) error { return parseErr(d.Name, lineNo, s, reason) }
	if len(f) < 6 || f[2] != "endpoint" || f[4] != "color" {
		return fail("sr-policy NAME endpoint ADDR color N [segments ...]")
	}
	ep, err := netip.ParseAddr(f[3])
	if err != nil {
		return fail("bad endpoint")
	}
	color, err := parseUint32(f[5])
	if err != nil {
		return fail("bad color")
	}
	sp := &SRPolicy{Name: f[1], Endpoint: ep, Color: color}
	if len(f) > 6 {
		if f[6] != "segments" {
			return fail("want segments")
		}
		sp.Segments = append(sp.Segments, f[7:]...)
	}
	for i, old := range d.SRPolicies {
		if old.Name == sp.Name {
			d.SRPolicies[i] = sp
			return nil
		}
	}
	d.SRPolicies = append(d.SRPolicies, sp)
	return nil
}

func (p *betaParser) pbrLine(lineNo int, s string, f []string) error {
	d := p.d
	fail := func(reason string) error { return parseErr(d.Name, lineNo, s, reason) }
	if len(f) < 4 {
		return fail("policy-based-route NAME ... next-hop ADDR")
	}
	name := f[1]
	if f[len(f)-2] != "next-hop" {
		return fail("policy-based-route must end with next-hop ADDR")
	}
	nh, err := netip.ParseAddr(f[len(f)-1])
	if err != nil {
		return fail("bad next-hop")
	}
	e, err := parseACLClause(f[2 : len(f)-2])
	if err != nil {
		return fail(err.Error())
	}
	e.Permit = true
	d.PBRPolicies[name] = append(d.PBRPolicies[name], PBRRule{Name: name, Match: e, NextHop: nh})
	return nil
}

func (p *betaParser) undoCommand(lineNo int, s string, f []string) error {
	d := p.d
	fail := func(reason string) error { return parseErr(d.Name, lineNo, s, reason) }
	if len(f) == 0 {
		return fail("empty undo command")
	}
	switch f[0] {
	case "isolate":
		d.Isolated = false
		return nil
	case "route-policy":
		switch len(f) {
		case 2:
			delete(d.RouteMaps, f[1])
			return nil
		case 5:
			if f[3] != "node" {
				return fail("undo route-policy NAME ACTION node N")
			}
			rm := d.RouteMaps[f[1]]
			if rm == nil {
				return fail("no such route-policy")
			}
			seq, err := parseInt(f[4])
			if err != nil {
				return fail("bad node")
			}
			if !rm.DeleteNode(seq) {
				return fail("no such node")
			}
			return nil
		}
		return fail("undo route-policy NAME [ACTION node N]")
	case "peer":
		if len(f) < 2 {
			return fail("undo peer ADDR")
		}
		addr, err := netip.ParseAddr(f[1])
		if err != nil {
			return fail("bad address")
		}
		vrf := netmodel.DefaultVRF
		if len(f) == 4 && f[2] == "vpn-instance" {
			vrf = f[3]
		}
		if len(f) == 4 && f[2] == "route-policy" {
			nb := d.Neighbor(addr, vrf)
			if nb == nil {
				return fail("no such peer")
			}
			if f[3] == "import" {
				nb.ImportPolicy = ""
			} else {
				nb.ExportPolicy = ""
			}
			return nil
		}
		if !d.RemoveNeighbor(addr, vrf) {
			return fail("no such peer")
		}
		return nil
	case "ip":
		if len(f) >= 4 && f[1] == "route-static" {
			pr, err := netip.ParsePrefix(f[2])
			if err != nil {
				return fail("bad prefix")
			}
			nh, err := netip.ParseAddr(f[3])
			if err != nil {
				return fail("bad next hop")
			}
			vrf := netmodel.DefaultVRF
			if len(f) == 6 && f[4] == "vpn-instance" {
				vrf = f[5]
			}
			for i, st := range d.Statics {
				if st.Prefix == pr && st.NextHop == nh && st.VRF == vrf {
					d.Statics = append(d.Statics[:i], d.Statics[i+1:]...)
					return nil
				}
			}
			return fail("no such static route")
		}
		if len(f) == 3 && (f[1] == "ip-prefix" || f[1] == "ipv6-prefix") {
			delete(d.PrefixLists, f[2])
			return nil
		}
		if len(f) == 3 && f[1] == "community-filter" {
			delete(d.CommunityLists, f[2])
			return nil
		}
		return fail("unknown undo ip command")
	case "aggregate":
		if len(f) < 2 {
			return fail("undo aggregate PREFIX")
		}
		pr, err := netip.ParsePrefix(f[1])
		if err != nil {
			return fail("bad prefix")
		}
		for i, a := range d.Aggregates {
			if a.Prefix == pr {
				d.Aggregates = append(d.Aggregates[:i], d.Aggregates[i+1:]...)
				return nil
			}
		}
		return fail("no such aggregate")
	case "sr-policy":
		if len(f) != 2 {
			return fail("undo sr-policy NAME")
		}
		for i, sp := range d.SRPolicies {
			if sp.Name == f[1] {
				d.SRPolicies = append(d.SRPolicies[:i], d.SRPolicies[i+1:]...)
				return nil
			}
		}
		return fail("no such sr-policy")
	case "acl":
		if len(f) != 2 {
			return fail("undo acl NAME")
		}
		delete(d.ACLs, f[1])
		return nil
	case "network":
		if len(f) != 2 {
			return fail("undo network PREFIX")
		}
		pr, err := netip.ParsePrefix(f[1])
		if err != nil {
			return fail("bad prefix")
		}
		for i, n := range d.Networks {
			if n == pr {
				d.Networks = append(d.Networks[:i], d.Networks[i+1:]...)
				return nil
			}
		}
		return fail("no such network")
	}
	return fail("unknown undo command")
}

// SerializeBeta renders a device model into vendor-beta configuration text.
func SerializeBeta(d *Device) string {
	var b strings.Builder
	fmt.Fprintf(&b, "sysname %s\nvendor beta\nas-number %d\n", d.Name, d.ASN)
	if d.RouterID.IsValid() {
		fmt.Fprintf(&b, "router-id %s\n", d.RouterID)
	}
	if d.Loopback.IsValid() {
		fmt.Fprintf(&b, "loopback %s\n", d.Loopback)
	}
	if d.ISISEnabled {
		b.WriteString("isis enable\n")
	}
	if d.Isolated {
		b.WriteString("isolate\n")
	}
	b.WriteString("#\n")
	for _, name := range sortedKeys(d.Interfaces) {
		i := d.Interfaces[name]
		fmt.Fprintf(&b, "interface %s\n", name)
		if i.Addr.IsValid() {
			fmt.Fprintf(&b, " ip address %s\n", i.Addr)
		}
		if i.ISISCost != 0 {
			fmt.Fprintf(&b, " isis cost %d\n", i.ISISCost)
		}
		if i.TECost != 0 {
			fmt.Fprintf(&b, " isis te-cost %d\n", i.TECost)
		}
		if i.Bandwidth != 0 {
			fmt.Fprintf(&b, " bandwidth %g\n", i.Bandwidth)
		}
		if i.ACLIn != "" {
			fmt.Fprintf(&b, " traffic-filter inbound acl %s\n", i.ACLIn)
		}
		if i.ACLOut != "" {
			fmt.Fprintf(&b, " traffic-filter outbound acl %s\n", i.ACLOut)
		}
		if i.PBR != "" {
			fmt.Fprintf(&b, " pbr %s\n", i.PBR)
		}
		b.WriteString("#\n")
	}
	for _, name := range sortedKeys(d.VRFs) {
		v := d.VRFs[name]
		fmt.Fprintf(&b, "ip vpn-instance %s\n", name)
		if v.RD != "" {
			fmt.Fprintf(&b, " rd %s\n", v.RD)
		}
		for _, rt := range v.ImportRTs {
			fmt.Fprintf(&b, " vpn-target %s import\n", rt)
		}
		for _, rt := range v.ExportRTs {
			fmt.Fprintf(&b, " vpn-target %s export\n", rt)
		}
		if v.ExportPolicy != "" {
			fmt.Fprintf(&b, " export route-policy %s\n", v.ExportPolicy)
		}
		b.WriteString("#\n")
	}
	if len(d.Neighbors) > 0 || len(d.Aggregates) > 0 || len(d.Redistributes) > 0 || len(d.Networks) > 0 || d.MaxPaths > 1 {
		b.WriteString("bgp\n")
		if d.MaxPaths > 1 {
			fmt.Fprintf(&b, " maximum load-balancing %d\n", d.MaxPaths)
		}
		for _, nb := range d.Neighbors {
			suffix := ""
			if nb.VRF != netmodel.DefaultVRF {
				suffix = " vpn-instance " + nb.VRF
			}
			fmt.Fprintf(&b, " peer %s as-number %d%s\n", nb.Addr, nb.RemoteAS, suffix)
			if nb.ImportPolicy != "" {
				fmt.Fprintf(&b, " peer %s route-policy %s import%s\n", nb.Addr, nb.ImportPolicy, suffix)
			}
			if nb.ExportPolicy != "" {
				fmt.Fprintf(&b, " peer %s route-policy %s export%s\n", nb.Addr, nb.ExportPolicy, suffix)
			}
			if nb.RRClient {
				fmt.Fprintf(&b, " peer %s reflect-client%s\n", nb.Addr, suffix)
			}
			if nb.NextHopSelf {
				fmt.Fprintf(&b, " peer %s next-hop-local%s\n", nb.Addr, suffix)
			}
			if nb.UpdateSource {
				fmt.Fprintf(&b, " peer %s connect-interface loopback%s\n", nb.Addr, suffix)
			}
			if nb.AddPaths > 1 {
				fmt.Fprintf(&b, " peer %s add-paths %d%s\n", nb.Addr, nb.AddPaths, suffix)
			}
		}
		for _, n := range d.Networks {
			fmt.Fprintf(&b, " network %s\n", n)
		}
		for _, a := range d.Aggregates {
			line := " aggregate " + a.Prefix.String()
			if a.ASSet {
				line += " as-set"
			}
			if a.SummaryOnly {
				line += " summary-only"
			}
			if a.VRF != netmodel.DefaultVRF {
				line += " vpn-instance " + a.VRF
			}
			b.WriteString(line + "\n")
		}
		for _, r := range d.Redistributes {
			line := " import-route " + r.From.String()
			if r.Policy != "" {
				line += " route-policy " + r.Policy
			}
			b.WriteString(line + "\n")
		}
		b.WriteString("#\n")
	}
	for _, name := range sortedKeys(d.RouteMaps) {
		rm := d.RouteMaps[name]
		for _, n := range rm.Nodes {
			action := "permit"
			if n.Action == policy.ActionDeny {
				action = "deny"
			}
			fmt.Fprintf(&b, "route-policy %s %s node %d\n", name, action, n.Seq)
			for _, m := range n.Matches {
				switch m.Kind {
				case policy.MatchPrefixList:
					fmt.Fprintf(&b, " if-match ip-prefix %s\n", m.ListName)
				case policy.MatchCommunityList:
					fmt.Fprintf(&b, " if-match community-filter %s\n", m.ListName)
				case policy.MatchASPathList:
					fmt.Fprintf(&b, " if-match as-path-filter %s\n", m.ListName)
				case policy.MatchProtocol:
					fmt.Fprintf(&b, " if-match protocol %s\n", m.Protocol)
				case policy.MatchPeerAddr:
					fmt.Fprintf(&b, " if-match peer %s\n", m.Addr)
				}
			}
			for _, st := range n.Sets {
				switch st.Kind {
				case policy.SetLocalPref:
					fmt.Fprintf(&b, " apply local-preference %d\n", st.Value)
				case policy.SetMED:
					fmt.Fprintf(&b, " apply cost %d\n", st.Value)
				case policy.SetPreference:
					fmt.Fprintf(&b, " apply preference %d\n", st.Value)
				case policy.SetCommunity:
					fmt.Fprintf(&b, " apply community %s\n", strings.Join(st.Communities.Strings(), " "))
				case policy.AddCommunity:
					fmt.Fprintf(&b, " apply community %s additive\n", st.Community)
				case policy.DeleteCommunity:
					fmt.Fprintf(&b, " apply community delete %s\n", st.Community)
				case policy.SetNextHop:
					fmt.Fprintf(&b, " apply ip-address next-hop %s\n", st.NextHop)
				case policy.PrependASPath:
					fmt.Fprintf(&b, " apply as-path %d %d additive\n", st.ASN, st.Value)
				case policy.ReplaceASPath:
					parts := make([]string, len(st.ASPath.Seq))
					for i, a := range st.ASPath.Seq {
						parts[i] = fmt.Sprintf("%d", a)
					}
					fmt.Fprintf(&b, " apply as-path %s overwrite\n", strings.Join(parts, " "))
				case policy.SetWeight:
					// Beta has no weight concept; serialized as a comment so
					// round-tripping through beta deliberately loses it,
					// matching the real vendor gap.
					fmt.Fprintf(&b, " // weight %d not supported on beta\n", st.Value)
				}
			}
			b.WriteString("#\n")
		}
	}
	for _, name := range sortedKeys(d.PrefixLists) {
		l := d.PrefixLists[name]
		kw := "ip-prefix"
		if l.Family == policy.FamilyIPv6 {
			kw = "ipv6-prefix"
		}
		for idx, e := range l.Entries {
			line := fmt.Sprintf("ip %s %s index %d %s %s", kw, name, (idx+1)*10, pd(e.Permit), e.Prefix)
			if e.Ge != 0 {
				line += fmt.Sprintf(" greater-equal %d", e.Ge)
			}
			if e.Le != 0 {
				line += fmt.Sprintf(" less-equal %d", e.Le)
			}
			b.WriteString(line + "\n")
		}
	}
	for _, name := range sortedKeys(d.CommunityLists) {
		for _, e := range d.CommunityLists[name].Entries {
			fmt.Fprintf(&b, "ip community-filter %s %s %s\n", name, pd(e.Permit), e.Community)
		}
	}
	for _, name := range sortedKeys(d.ASPathLists) {
		for _, e := range d.ASPathLists[name].Entries {
			fmt.Fprintf(&b, "ip as-path-filter %s %s \"%s\"\n", name, pd(e.Permit), e.Regex)
		}
	}
	for _, name := range sortedKeys(d.ACLs) {
		for _, e := range d.ACLs[name].Entries {
			line := fmt.Sprintf("acl %s rule %s", name, pd(e.Permit))
			if c := formatACLClause(e); c != "" {
				line += " " + c
			}
			b.WriteString(line + "\n")
		}
	}
	for _, st := range d.Statics {
		line := fmt.Sprintf("ip route-static %s %s", st.Prefix, st.NextHop)
		if st.Preference != 60 {
			line += fmt.Sprintf(" preference %d", st.Preference)
		}
		if st.VRF != netmodel.DefaultVRF {
			line += " vpn-instance " + st.VRF
		}
		b.WriteString(line + "\n")
	}
	for _, sp := range d.SRPolicies {
		line := fmt.Sprintf("sr-policy %s endpoint %s color %d", sp.Name, sp.Endpoint, sp.Color)
		if len(sp.Segments) > 0 {
			line += " segments " + strings.Join(sp.Segments, " ")
		}
		b.WriteString(line + "\n")
	}
	for _, name := range sortedKeys(d.PBRPolicies) {
		for _, r := range d.PBRPolicies[name] {
			line := "policy-based-route " + name
			if c := formatACLClause(r.Match); c != "" {
				line += " " + c
			}
			line += " next-hop " + r.NextHop.String()
			b.WriteString(line + "\n")
		}
	}
	return b.String()
}
