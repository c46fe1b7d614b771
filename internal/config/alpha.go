package config

import (
	"fmt"
	"net/netip"
	"strings"

	"hoyan/internal/netmodel"
	"hoyan/internal/policy"
	"slices"
)

// alphaParser parses the vendor-alpha dialect (IOS-flavoured): sections are
// introduced by a header line and terminated by "!" or the next top-level
// command. Removal uses a leading "no ".
type alphaParser struct {
	d *Device

	curIface *Interface
	curVRF   *VRF
	inBGP    bool
	curNode  *policy.Node
}

func (p *alphaParser) resetSection() {
	p.curIface, p.curVRF, p.curNode = nil, nil, nil
	p.inBGP = false
}

// ParseAlpha parses a full vendor-alpha configuration text.
func ParseAlpha(name, text string) (*Device, error) {
	d := NewDevice(name, "alpha")
	p := &alphaParser{d: d}
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

// ApplyAlphaCommand applies one change-plan command line to the device,
// maintaining section context across calls through the returned parser. Used
// by the change package, which feeds command blocks line by line.
func (p *alphaParser) line(lineNo int, s string) error {
	f := strings.Fields(s)
	if len(f) == 0 {
		return nil
	}
	if f[0] == "!" {
		p.resetSection()
		return nil
	}
	if f[0] == "no" {
		return p.noCommand(lineNo, s, f[1:])
	}
	d := p.d
	fail := func(reason string) error { return parseErr(d.Name, lineNo, s, reason) }

	switch f[0] {
	case "hostname":
		if len(f) != 2 {
			return fail("hostname NAME")
		}
		d.Name = f[1]
		p.resetSection()
		return nil
	case "vendor":
		p.resetSection()
		return nil // informational
	case "asn":
		if len(f) != 2 {
			return fail("asn N")
		}
		n, err := parseUint32(f[1])
		if err != nil {
			return fail("bad asn")
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
	case "vrf":
		if len(f) != 2 {
			return fail("vrf NAME")
		}
		p.resetSection()
		v, ok := d.VRFs[f[1]]
		if !ok {
			v = &VRF{Name: f[1]}
			d.VRFs[f[1]] = v
		}
		p.curVRF = v
		return nil
	case "router":
		if len(f) == 2 && f[1] == "bgp" {
			p.resetSection()
			p.inBGP = true
			return nil
		}
		return fail("router bgp")
	case "route-map":
		// route-map NAME [permit|deny] SEQ
		p.resetSection()
		if len(f) < 3 {
			return fail("route-map NAME [permit|deny] SEQ")
		}
		name := f[1]
		action := policy.ActionUnset
		seqIdx := 2
		if permit, ok := permitDeny(f[2]); ok {
			if permit {
				action = policy.ActionPermit
			} else {
				action = policy.ActionDeny
			}
			seqIdx = 3
		}
		if len(f) <= seqIdx {
			return fail("route-map needs sequence number")
		}
		seq, err := parseInt(f[seqIdx])
		if err != nil {
			return fail("bad sequence number")
		}
		rm, ok := d.RouteMaps[name]
		if !ok {
			rm = &policy.RouteMap{Name: name}
			d.RouteMaps[name] = rm
		}
		node := rm.Node(seq)
		if node == nil {
			node = &policy.Node{Seq: seq}
			rm.Nodes = append(rm.Nodes, node)
			rm.SortNodes()
		}
		node.Action = action
		p.curNode = node
		return nil
	case "match":
		return p.matchLine(lineNo, s, f)
	case "set":
		return p.setLine(lineNo, s, f)
	case "ip", "ipv6":
		return p.ipLine(lineNo, s, f)
	case "sr-policy":
		// sr-policy NAME endpoint A color N [segments D...]
		p.resetSection()
		return p.srPolicyLine(lineNo, s, f)
	case "pbr-policy":
		p.resetSection()
		return p.pbrLine(lineNo, s, f)
	case "max-paths", "neighbor", "aggregate-address", "redistribute", "network":
		if !p.inBGP {
			return fail(f[0] + " outside router bgp")
		}
		return p.bgpLine(lineNo, s, f)
	}
	// Section-scoped continuation lines.
	if p.curIface != nil {
		return p.ifaceLine(lineNo, s, f)
	}
	if p.curVRF != nil {
		return p.vrfLine(lineNo, s, f)
	}
	return fail("unknown command")
}

func (p *alphaParser) ifaceLine(lineNo int, s string, f []string) error {
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
	case f[0] == "acl-in" && len(f) == 2:
		i.ACLIn = f[1]
	case f[0] == "acl-out" && len(f) == 2:
		i.ACLOut = f[1]
	case f[0] == "pbr" && len(f) == 2:
		i.PBR = f[1]
	default:
		return fail("unknown interface command")
	}
	return nil
}

func (p *alphaParser) vrfLine(lineNo int, s string, f []string) error {
	d, v := p.d, p.curVRF
	fail := func(reason string) error { return parseErr(d.Name, lineNo, s, reason) }
	switch {
	case f[0] == "rd" && len(f) == 2:
		v.RD = f[1]
	case f[0] == "route-target" && len(f) == 3 && f[1] == "import":
		v.ImportRTs = append(v.ImportRTs, f[2])
	case f[0] == "route-target" && len(f) == 3 && f[1] == "export":
		v.ExportRTs = append(v.ExportRTs, f[2])
	case f[0] == "export-policy" && len(f) == 2:
		v.ExportPolicy = f[1]
	default:
		return fail("unknown vrf command")
	}
	return nil
}

func (p *alphaParser) bgpLine(lineNo int, s string, f []string) error {
	d := p.d
	fail := func(reason string) error { return parseErr(d.Name, lineNo, s, reason) }
	switch f[0] {
	case "max-paths":
		if len(f) != 2 {
			return fail("max-paths N")
		}
		n, err := parseInt(f[1])
		if err != nil {
			return fail("bad max-paths")
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
	case "neighbor":
		return p.neighborLine(lineNo, s, f)
	case "aggregate-address":
		// aggregate-address PREFIX [as-set] [summary-only] [vrf NAME]
		if len(f) < 2 {
			return fail("aggregate-address PREFIX")
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
			case "vrf":
				if i+1 >= len(rest) {
					return fail("vrf NAME")
				}
				agg.VRF = rest[i+1]
				i++
			default:
				return fail("unknown aggregate token")
			}
		}
		d.Aggregates = append(d.Aggregates, agg)
	case "redistribute":
		// redistribute static|direct|isis [route-map NAME]
		if len(f) < 2 {
			return fail("redistribute PROTO")
		}
		proto, err := protoFromString(f[1])
		if err != nil {
			return fail(err.Error())
		}
		r := Redistribution{From: proto}
		if len(f) == 4 && f[2] == "route-map" {
			r.Policy = f[3]
		} else if len(f) != 2 {
			return fail("redistribute PROTO [route-map NAME]")
		}
		d.Redistributes = append(d.Redistributes, r)
	}
	return nil
}

func (p *alphaParser) neighborLine(lineNo int, s string, f []string) error {
	d := p.d
	fail := func(reason string) error { return parseErr(d.Name, lineNo, s, reason) }
	if len(f) < 3 {
		return fail("neighbor ADDR CMD")
	}
	addr, err := netip.ParseAddr(f[1])
	if err != nil {
		return fail("bad neighbor address")
	}
	// Optional trailing "vrf NAME".
	vrf := netmodel.DefaultVRF
	rest := f[2:]
	if len(rest) >= 2 && rest[len(rest)-2] == "vrf" {
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
	case "remote-as":
		if len(rest) != 2 {
			return fail("remote-as N")
		}
		n, err := parseUint32(rest[1])
		if err != nil {
			return fail("bad remote-as")
		}
		ensure().RemoteAS = netmodel.ASN(n)
	case "route-map":
		if len(rest) != 3 {
			return fail("route-map NAME in|out")
		}
		switch rest[2] {
		case "in":
			ensure().ImportPolicy = rest[1]
		case "out":
			ensure().ExportPolicy = rest[1]
		default:
			return fail("route-map direction must be in|out")
		}
	case "route-reflector-client":
		ensure().RRClient = true
	case "next-hop-self":
		ensure().NextHopSelf = true
	case "update-source":
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
		return fail("unknown neighbor command")
	}
	return nil
}

func (p *alphaParser) matchLine(lineNo int, s string, f []string) error {
	d := p.d
	fail := func(reason string) error { return parseErr(d.Name, lineNo, s, reason) }
	if p.curNode == nil {
		return fail("match outside route-map")
	}
	if len(f) < 3 {
		return fail("match KIND NAME")
	}
	switch f[1] {
	case "ip-prefix":
		p.curNode.Matches = append(p.curNode.Matches, policy.Match{Kind: policy.MatchPrefixList, ListName: f[2]})
	case "community":
		p.curNode.Matches = append(p.curNode.Matches, policy.Match{Kind: policy.MatchCommunityList, ListName: f[2]})
	case "as-path":
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
		return fail("unknown match kind")
	}
	return nil
}

func (p *alphaParser) setLine(lineNo int, s string, f []string) error {
	d := p.d
	fail := func(reason string) error { return parseErr(d.Name, lineNo, s, reason) }
	if p.curNode == nil {
		return fail("set outside route-map")
	}
	add := func(st policy.Set) { p.curNode.Sets = append(p.curNode.Sets, st) }
	if len(f) < 3 {
		return fail("set KIND VALUE")
	}
	switch f[1] {
	case "local-preference", "med", "weight", "preference":
		v, err := parseUint32(f[2])
		if err != nil {
			return fail("bad value")
		}
		kind := map[string]policy.SetKind{
			"local-preference": policy.SetLocalPref,
			"med":              policy.SetMED,
			"weight":           policy.SetWeight,
			"preference":       policy.SetPreference,
		}[f[1]]
		add(policy.Set{Kind: kind, Value: v})
	case "community":
		switch f[2] {
		case "add", "delete":
			if len(f) != 4 {
				return fail("set community add|delete C")
			}
			c, err := netmodel.ParseCommunity(f[3])
			if err != nil {
				return fail("bad community")
			}
			kind := policy.AddCommunity
			if f[2] == "delete" {
				kind = policy.DeleteCommunity
			}
			add(policy.Set{Kind: kind, Community: c})
		default: // replace with the listed set
			var cs netmodel.CommunitySet
			for _, tok := range f[2:] {
				c, err := netmodel.ParseCommunity(tok)
				if err != nil {
					return fail("bad community")
				}
				cs = cs.Add(c)
			}
			add(policy.Set{Kind: policy.SetCommunity, Communities: cs})
		}
	case "next-hop":
		a, err := netip.ParseAddr(f[2])
		if err != nil {
			return fail("bad next-hop")
		}
		add(policy.Set{Kind: policy.SetNextHop, NextHop: a})
	case "as-path":
		if len(f) < 4 {
			return fail("set as-path prepend|replace ...")
		}
		switch f[2] {
		case "prepend":
			// set as-path prepend ASN COUNT
			asn, err := parseUint32(f[3])
			if err != nil {
				return fail("bad asn")
			}
			count := uint32(1)
			if len(f) == 5 {
				if count, err = parseUint32(f[4]); err != nil {
					return fail("bad count")
				}
			}
			add(policy.Set{Kind: policy.PrependASPath, ASN: netmodel.ASN(asn), Value: count})
		case "replace":
			var seq []netmodel.ASN
			for _, tok := range f[3:] {
				n, err := parseUint32(tok)
				if err != nil {
					return fail("bad asn")
				}
				seq = append(seq, netmodel.ASN(n))
			}
			add(policy.Set{Kind: policy.ReplaceASPath, ASPath: netmodel.ASPath{Seq: seq}})
		default:
			return fail("unknown as-path action")
		}
	default:
		return fail("unknown set kind")
	}
	return nil
}

// ipLine handles top-level "ip ..." and "ipv6 ..." commands.
func (p *alphaParser) ipLine(lineNo int, s string, f []string) error {
	d := p.d
	fail := func(reason string) error { return parseErr(d.Name, lineNo, s, reason) }
	if p.curIface != nil && f[0] == "ip" && len(f) >= 2 && f[1] == "address" {
		return p.ifaceLine(lineNo, s, f)
	}
	p.resetSection()
	if len(f) < 3 {
		return fail("incomplete ip command")
	}
	family := policy.FamilyIPv4
	if f[0] == "ipv6" {
		family = policy.FamilyIPv6
	}
	switch f[1] {
	case "prefix-list":
		// ip prefix-list NAME permit|deny PREFIX [ge N] [le N]
		if len(f) < 5 {
			return fail("ip prefix-list NAME permit|deny PREFIX")
		}
		name := f[2]
		permit, ok := permitDeny(f[3])
		if !ok {
			return fail("want permit|deny")
		}
		pr, err := netip.ParsePrefix(f[4])
		if err != nil {
			return fail("bad prefix")
		}
		ge, le, err := parseGeLe(f[5:], "ge", "le")
		if err != nil {
			return fail(err.Error())
		}
		l, ok := d.PrefixLists[name]
		if !ok {
			l = &policy.PrefixList{Name: name, Family: family}
			d.PrefixLists[name] = l
		}
		l.Entries = append(l.Entries, policy.PrefixEntry{Permit: permit, Prefix: pr, Ge: ge, Le: le})
	case "community-list":
		if len(f) != 5 {
			return fail("ip community-list NAME permit|deny C")
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
	case "as-path-list":
		if len(f) < 5 {
			return fail("ip as-path-list NAME permit|deny REGEX")
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
	case "access-list":
		// ip access-list NAME permit|deny [clauses]
		if len(f) < 4 {
			return fail("ip access-list NAME permit|deny ...")
		}
		name := f[2]
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
	case "route":
		// ip route PREFIX NEXTHOP [pref N] [vrf NAME]
		if len(f) < 4 {
			return fail("ip route PREFIX NEXTHOP")
		}
		pr, err := netip.ParsePrefix(f[2])
		if err != nil {
			return fail("bad prefix")
		}
		nh, err := netip.ParseAddr(f[3])
		if err != nil {
			return fail("bad next hop")
		}
		st := StaticRoute{VRF: netmodel.DefaultVRF, Prefix: pr, NextHop: nh, Preference: 1}
		rest := f[4:]
		for i := 0; i < len(rest); i += 2 {
			if i+1 >= len(rest) {
				return fail("dangling option")
			}
			switch rest[i] {
			case "pref":
				v, err := parseUint32(rest[i+1])
				if err != nil {
					return fail("bad pref")
				}
				st.Preference = v
			case "vrf":
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

func (p *alphaParser) srPolicyLine(lineNo int, s string, f []string) error {
	d := p.d
	fail := func(reason string) error { return parseErr(d.Name, lineNo, s, reason) }
	// sr-policy NAME endpoint ADDR color N [segments D1 D2 ...]
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
	// Re-declaration replaces.
	for i, old := range d.SRPolicies {
		if old.Name == sp.Name {
			d.SRPolicies[i] = sp
			return nil
		}
	}
	d.SRPolicies = append(d.SRPolicies, sp)
	return nil
}

func (p *alphaParser) pbrLine(lineNo int, s string, f []string) error {
	d := p.d
	fail := func(reason string) error { return parseErr(d.Name, lineNo, s, reason) }
	// pbr-policy NAME [clauses] next-hop ADDR
	if len(f) < 4 {
		return fail("pbr-policy NAME ... next-hop ADDR")
	}
	name := f[1]
	if f[len(f)-2] != "next-hop" {
		return fail("pbr-policy must end with next-hop ADDR")
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

// noCommand handles removals: "no route-map NAME [permit|deny] SEQ",
// "no route-map NAME", "no neighbor ADDR [vrf NAME]", "no ip route ...",
// "no aggregate-address PREFIX", "no sr-policy NAME", "no ip prefix-list NAME",
// "no interface pbr" style removals used by change plans.
func (p *alphaParser) noCommand(lineNo int, s string, f []string) error {
	d := p.d
	fail := func(reason string) error { return parseErr(d.Name, lineNo, s, reason) }
	if len(f) == 0 {
		return fail("empty no command")
	}
	switch f[0] {
	case "isolate":
		d.Isolated = false
		return nil
	case "route-map":
		switch len(f) {
		case 2:
			delete(d.RouteMaps, f[1])
			return nil
		case 3, 4:
			rm := d.RouteMaps[f[1]]
			if rm == nil {
				return fail("no such route-map")
			}
			seqTok := f[len(f)-1]
			seq, err := parseInt(seqTok)
			if err != nil {
				return fail("bad sequence")
			}
			if !rm.DeleteNode(seq) {
				return fail("no such node")
			}
			return nil
		}
		return fail("no route-map NAME [ACTION] [SEQ]")
	case "neighbor":
		if len(f) < 2 {
			return fail("no neighbor ADDR")
		}
		addr, err := netip.ParseAddr(f[1])
		if err != nil {
			return fail("bad address")
		}
		vrf := netmodel.DefaultVRF
		if len(f) == 4 && f[2] == "vrf" {
			vrf = f[3]
		}
		if len(f) == 4 && f[2] == "route-map" {
			// no neighbor ADDR route-map in|out : unbind policy
			nb := d.Neighbor(addr, vrf)
			if nb == nil {
				return fail("no such neighbor")
			}
			if f[3] == "in" {
				nb.ImportPolicy = ""
			} else {
				nb.ExportPolicy = ""
			}
			return nil
		}
		if !d.RemoveNeighbor(addr, vrf) {
			return fail("no such neighbor")
		}
		return nil
	case "ip":
		if len(f) >= 4 && f[1] == "route" {
			pr, err := netip.ParsePrefix(f[2])
			if err != nil {
				return fail("bad prefix")
			}
			nh, err := netip.ParseAddr(f[3])
			if err != nil {
				return fail("bad next hop")
			}
			vrf := netmodel.DefaultVRF
			if len(f) == 6 && f[4] == "vrf" {
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
		if len(f) == 3 && f[1] == "prefix-list" {
			delete(d.PrefixLists, f[2])
			return nil
		}
		if len(f) == 3 && f[1] == "community-list" {
			delete(d.CommunityLists, f[2])
			return nil
		}
		if len(f) == 3 && f[1] == "access-list" {
			delete(d.ACLs, f[2])
			return nil
		}
		return fail("unknown no ip command")
	case "aggregate-address":
		if len(f) < 2 {
			return fail("no aggregate-address PREFIX")
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
			return fail("no sr-policy NAME")
		}
		for i, sp := range d.SRPolicies {
			if sp.Name == f[1] {
				d.SRPolicies = append(d.SRPolicies[:i], d.SRPolicies[i+1:]...)
				return nil
			}
		}
		return fail("no such sr-policy")
	case "pbr-policy":
		if len(f) != 2 {
			return fail("no pbr-policy NAME")
		}
		delete(d.PBRPolicies, f[1])
		return nil
	case "network":
		if len(f) != 2 {
			return fail("no network PREFIX")
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
	return fail("unknown no command")
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

// SerializeAlpha renders a device model back into vendor-alpha configuration
// text. Parse(SerializeAlpha(d)) reproduces d; the synthetic-config generator
// uses this to hand Hoyan realistic config text to parse.
func SerializeAlpha(d *Device) string {
	var b strings.Builder
	fmt.Fprintf(&b, "hostname %s\nvendor alpha\nasn %d\n", d.Name, d.ASN)
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
	b.WriteString("!\n")
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
			fmt.Fprintf(&b, " acl-in %s\n", i.ACLIn)
		}
		if i.ACLOut != "" {
			fmt.Fprintf(&b, " acl-out %s\n", i.ACLOut)
		}
		if i.PBR != "" {
			fmt.Fprintf(&b, " pbr %s\n", i.PBR)
		}
		b.WriteString("!\n")
	}
	for _, name := range sortedKeys(d.VRFs) {
		v := d.VRFs[name]
		fmt.Fprintf(&b, "vrf %s\n", name)
		if v.RD != "" {
			fmt.Fprintf(&b, " rd %s\n", v.RD)
		}
		for _, rt := range v.ImportRTs {
			fmt.Fprintf(&b, " route-target import %s\n", rt)
		}
		for _, rt := range v.ExportRTs {
			fmt.Fprintf(&b, " route-target export %s\n", rt)
		}
		if v.ExportPolicy != "" {
			fmt.Fprintf(&b, " export-policy %s\n", v.ExportPolicy)
		}
		b.WriteString("!\n")
	}
	if len(d.Neighbors) > 0 || len(d.Aggregates) > 0 || len(d.Redistributes) > 0 || len(d.Networks) > 0 || d.MaxPaths > 1 {
		b.WriteString("router bgp\n")
		if d.MaxPaths > 1 {
			fmt.Fprintf(&b, " max-paths %d\n", d.MaxPaths)
		}
		for _, nb := range d.Neighbors {
			suffix := ""
			if nb.VRF != netmodel.DefaultVRF {
				suffix = " vrf " + nb.VRF
			}
			fmt.Fprintf(&b, " neighbor %s remote-as %d%s\n", nb.Addr, nb.RemoteAS, suffix)
			if nb.ImportPolicy != "" {
				fmt.Fprintf(&b, " neighbor %s route-map %s in%s\n", nb.Addr, nb.ImportPolicy, suffix)
			}
			if nb.ExportPolicy != "" {
				fmt.Fprintf(&b, " neighbor %s route-map %s out%s\n", nb.Addr, nb.ExportPolicy, suffix)
			}
			if nb.RRClient {
				fmt.Fprintf(&b, " neighbor %s route-reflector-client%s\n", nb.Addr, suffix)
			}
			if nb.NextHopSelf {
				fmt.Fprintf(&b, " neighbor %s next-hop-self%s\n", nb.Addr, suffix)
			}
			if nb.UpdateSource {
				fmt.Fprintf(&b, " neighbor %s update-source%s\n", nb.Addr, suffix)
			}
			if nb.AddPaths > 1 {
				fmt.Fprintf(&b, " neighbor %s add-paths %d%s\n", nb.Addr, nb.AddPaths, suffix)
			}
		}
		for _, n := range d.Networks {
			fmt.Fprintf(&b, " network %s\n", n)
		}
		for _, a := range d.Aggregates {
			line := " aggregate-address " + a.Prefix.String()
			if a.ASSet {
				line += " as-set"
			}
			if a.SummaryOnly {
				line += " summary-only"
			}
			if a.VRF != netmodel.DefaultVRF {
				line += " vrf " + a.VRF
			}
			b.WriteString(line + "\n")
		}
		for _, r := range d.Redistributes {
			line := " redistribute " + r.From.String()
			if r.Policy != "" {
				line += " route-map " + r.Policy
			}
			b.WriteString(line + "\n")
		}
		b.WriteString("!\n")
	}
	for _, name := range sortedKeys(d.RouteMaps) {
		rm := d.RouteMaps[name]
		for _, n := range rm.Nodes {
			action := ""
			switch n.Action {
			case policy.ActionPermit:
				action = "permit "
			case policy.ActionDeny:
				action = "deny "
			}
			fmt.Fprintf(&b, "route-map %s %s%d\n", name, action, n.Seq)
			for _, m := range n.Matches {
				switch m.Kind {
				case policy.MatchPrefixList:
					fmt.Fprintf(&b, " match ip-prefix %s\n", m.ListName)
				case policy.MatchCommunityList:
					fmt.Fprintf(&b, " match community %s\n", m.ListName)
				case policy.MatchASPathList:
					fmt.Fprintf(&b, " match as-path %s\n", m.ListName)
				case policy.MatchProtocol:
					fmt.Fprintf(&b, " match protocol %s\n", m.Protocol)
				case policy.MatchPeerAddr:
					fmt.Fprintf(&b, " match peer %s\n", m.Addr)
				}
			}
			for _, st := range n.Sets {
				switch st.Kind {
				case policy.SetLocalPref:
					fmt.Fprintf(&b, " set local-preference %d\n", st.Value)
				case policy.SetMED:
					fmt.Fprintf(&b, " set med %d\n", st.Value)
				case policy.SetWeight:
					fmt.Fprintf(&b, " set weight %d\n", st.Value)
				case policy.SetPreference:
					fmt.Fprintf(&b, " set preference %d\n", st.Value)
				case policy.SetCommunity:
					fmt.Fprintf(&b, " set community %s\n", strings.Join(st.Communities.Strings(), " "))
				case policy.AddCommunity:
					fmt.Fprintf(&b, " set community add %s\n", st.Community)
				case policy.DeleteCommunity:
					fmt.Fprintf(&b, " set community delete %s\n", st.Community)
				case policy.SetNextHop:
					fmt.Fprintf(&b, " set next-hop %s\n", st.NextHop)
				case policy.PrependASPath:
					fmt.Fprintf(&b, " set as-path prepend %d %d\n", st.ASN, st.Value)
				case policy.ReplaceASPath:
					parts := make([]string, len(st.ASPath.Seq))
					for i, a := range st.ASPath.Seq {
						parts[i] = fmt.Sprintf("%d", a)
					}
					fmt.Fprintf(&b, " set as-path replace %s\n", strings.Join(parts, " "))
				}
			}
			b.WriteString("!\n")
		}
	}
	for _, name := range sortedKeys(d.PrefixLists) {
		l := d.PrefixLists[name]
		kw := "ip"
		if l.Family == policy.FamilyIPv6 {
			kw = "ipv6"
		}
		for _, e := range l.Entries {
			line := fmt.Sprintf("%s prefix-list %s %s %s", kw, name, pd(e.Permit), e.Prefix)
			if e.Ge != 0 {
				line += fmt.Sprintf(" ge %d", e.Ge)
			}
			if e.Le != 0 {
				line += fmt.Sprintf(" le %d", e.Le)
			}
			b.WriteString(line + "\n")
		}
	}
	for _, name := range sortedKeys(d.CommunityLists) {
		for _, e := range d.CommunityLists[name].Entries {
			fmt.Fprintf(&b, "ip community-list %s %s %s\n", name, pd(e.Permit), e.Community)
		}
	}
	for _, name := range sortedKeys(d.ASPathLists) {
		for _, e := range d.ASPathLists[name].Entries {
			fmt.Fprintf(&b, "ip as-path-list %s %s \"%s\"\n", name, pd(e.Permit), e.Regex)
		}
	}
	for _, name := range sortedKeys(d.ACLs) {
		for _, e := range d.ACLs[name].Entries {
			line := fmt.Sprintf("ip access-list %s %s", name, pd(e.Permit))
			if c := formatACLClause(e); c != "" {
				line += " " + c
			}
			b.WriteString(line + "\n")
		}
	}
	for _, st := range d.Statics {
		line := fmt.Sprintf("ip route %s %s", st.Prefix, st.NextHop)
		if st.Preference != 1 {
			line += fmt.Sprintf(" pref %d", st.Preference)
		}
		if st.VRF != netmodel.DefaultVRF {
			line += " vrf " + st.VRF
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
			line := "pbr-policy " + name
			if c := formatACLClause(r.Match); c != "" {
				line += " " + c
			}
			line += " next-hop " + r.NextHop.String()
			b.WriteString(line + "\n")
		}
	}
	return b.String()
}

func pd(permit bool) string {
	if permit {
		return "permit"
	}
	return "deny"
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}
