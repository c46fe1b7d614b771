package scenario

import (
	"fmt"
	"net/netip"

	"hoyan/internal/change"
	"hoyan/internal/gen"
	"hoyan/internal/intent"
	"hoyan/internal/netmodel"
)

// Table2Catalog builds one well-formed change per Table 2 change type on a
// generated WAN, with the example intents of the table. Every scenario is a
// *correct* change: all intents verify, demonstrating coverage of all 12
// change types.
func Table2Catalog() []*Scenario {
	var out []*Scenario
	for _, t := range change.AllTypes {
		out = append(out, table2Scenario(t))
	}
	return out
}

// table2Scenario builds the scenario for one change type. Each scenario gets
// its own generated network so plans cannot interfere.
func table2Scenario(t change.Type) *Scenario {
	g := gen.Generate(gen.WAN(1))
	sc := &Scenario{
		Name:   "table2-" + string(t),
		Type:   t,
		Net:    g.Net,
		Inputs: g.Inputs,
		Flows:  g.Flows,
		WantOK: true,
	}
	rr := "rr-0-0"         // vendor alpha
	dc := "dc-0-1"         // vendor alpha (dc-0-0 is beta)
	border := "border-0-0" // vendor beta; commands for it use the beta dialect
	borderAlpha := "border-0-1"
	rrLoopback := g.Net.Devices[rr].Loopback

	switch t {
	case change.OSUpgrade, change.OSPatch:
		// Maintenance reboot modelled as a no-op configuration touch; the
		// intent is the canonical "all routes remain unchanged (including
		// the prefix and attributes of a route)".
		sc.Plan = &change.Plan{
			ID: string(t), Type: t,
			Description: "software maintenance on " + dc + "; routing must be untouched",
			Commands:    map[string]string{dc: "isis enable\n"},
		}
		sc.Intents = []intent.Intent{intent.RouteIntent{Spec: "PRE = POST"}}

	case change.RouteAttrModify:
		// Routes carrying community 65000:0 exported by dc-0-0 get 65000:77
		// added; others remain unchanged.
		sc.Plan = &change.Plan{
			ID: string(t), Type: t,
			Description: "retag region-0 routes with 65000:77 on " + dc,
			Commands: map[string]string{dc: fmt.Sprintf(`
ip community-list CL_R0 permit 65000:0
route-map RM_RETAG permit 10
 match community CL_R0
 set community add 65000:77
!
route-map RM_RETAG permit 20
!
router bgp
 neighbor %s route-map RM_RETAG out
!
`, rrLoopback)},
		}
		sc.Intents = []intent.Intent{
			// Every route rr-0-0 learned from dc-0-0 with the old community
			// now carries the new one.
			intent.RouteIntent{Spec: fmt.Sprintf(
				"forall device in {%s}: POST||peer = %s||(communities has 65000:0)||(not communities has 65000:77) |> count() = 0", rr, dc)},
			// And routes from the *other* DC gateway are untouched.
			intent.RouteIntent{Spec: fmt.Sprintf(
				"device = %s and peer = dc-0-0 => PRE = POST", rr)},
		}

	case change.StaticRouteModify:
		nh := g.Net.Devices["core-0-0"].Loopback
		sc.Plan = &change.Plan{
			ID: string(t), Type: t,
			Description: "add a static route on " + borderAlpha,
			Commands:    map[string]string{borderAlpha: fmt.Sprintf("ip route 192.0.2.0/24 %s\n", nh)},
		}
		sc.Intents = []intent.Intent{
			intent.ReachIntent{Prefix: netip.MustParsePrefix("192.0.2.0/24"), Devices: []string{borderAlpha}, Want: true},
		}

	case change.PBRModify:
		// Steer flows for one DC prefix entering border-0-0 through core-0-1
		// explicitly.
		target := netip.MustParsePrefix("10.0.0.0/24")
		core1Addr := linkAddrOf(sc, border, "core-0-1")
		sc.Flows = append(sc.Flows, netmodel.Flow{
			Ingress: border, Src: netip.MustParseAddr("198.18.0.1"),
			Dst: netip.MustParseAddr("10.0.0.9"), SrcPort: 1111, DstPort: 443,
			Proto: netmodel.ProtoTCP, Volume: 1e6,
		})
		sc.Plan = &change.Plan{
			ID: string(t), Type: t,
			Description: "PBR: steer 10.0.0.0/24 entering " + border + " via core-0-1",
			Commands: map[string]string{border: fmt.Sprintf(`
policy-based-route STEER dst %s next-hop %s
interface to-isp-0-0
 pbr STEER
#
`, target, core1Addr)},
		}
		sc.Intents = []intent.Intent{
			intent.PathIntent{
				Select:    intent.FlowSelector{Ingress: border, DstWithin: target},
				Traverse:  []string{border, "core-0-1"},
				Delivered: true,
			},
		}

	case change.ACLModify:
		sc.Flows = append(sc.Flows, netmodel.Flow{
			Ingress: dc, Src: netip.MustParseAddr("10.0.0.7"),
			Dst: netip.MustParseAddr("20.0.0.5"), SrcPort: 2222, DstPort: 8080,
			Proto: netmodel.ProtoTCP, Volume: 1e6,
		})
		// Block TCP/8080 where the DC's uplinks enter the cores; the command
		// block follows each core's own vendor dialect.
		for _, l := range g.Net.Topo.LinksOf(dc) {
			other := l.A
			iface := l.AIface
			if l.A == dc {
				other = l.B
				iface = l.BIface
			}
			var cmds string
			if g.Net.Devices[other].Vendor == "beta" {
				cmds = fmt.Sprintf(`
acl BLOCK8080 rule deny proto tcp dport 8080-8080
acl BLOCK8080 rule permit
interface %s
 traffic-filter inbound acl BLOCK8080
#
`, iface)
			} else {
				cmds = fmt.Sprintf(`
ip access-list BLOCK8080 deny proto tcp dport 8080-8080
ip access-list BLOCK8080 permit
interface %s
 acl-in BLOCK8080
!
`, iface)
			}
			sc.Plan = addCommands(sc.Plan, t, other, cmds)
		}
		sc.Plan.Description = "block TCP/8080 from " + dc + " at its uplinks"
		sc.Intents = []intent.Intent{
			intent.PathIntent{
				Select:  intent.FlowSelector{Ingress: dc, DstWithin: netip.MustParsePrefix("20.0.0.0/24")},
				Blocked: true,
			},
		}

	case change.AddLinks:
		a, b := "core-0-0", "core-1-0"
		base := netip.MustParseAddr("172.31.0.0")
		sc.Plan = &change.Plan{
			ID: string(t), Type: t,
			Description: "add a second inter-region link " + a + "—" + b,
			AddLinks: []netmodel.Link{{
				A: a, B: b, AIface: "newlink-to-" + b, BIface: "newlink-to-" + a,
				ANet: netip.PrefixFrom(base, 30), BNet: netip.PrefixFrom(base, 30),
				AAddr: base.Next(), BAddr: base.Next().Next(),
				CostAB: 100, CostBA: 100, Bandwidth: 1e10,
			}},
		}
		sc.Intents = []intent.Intent{
			// Reachability is preserved and nothing is overloaded.
			intent.ReachIntent{Prefix: netip.MustParsePrefix("10.0.0.0/24"), Devices: []string{"rr-1-0"}, Want: true},
			intent.RouteIntent{Spec: "POST |> count() >= PRE |> count()"},
			intent.LoadIntent{MaxUtilization: 0.95},
		}

	case change.AddRouters:
		newName := "dc-0-9"
		lo := netip.MustParseAddr("100.64.4.99")
		core := "core-0-0"
		base := netip.MustParseAddr("172.31.1.0")
		newCfg := fmt.Sprintf(`hostname %s
vendor alpha
asn 65000
router-id %s
loopback %s
isis enable
!
router bgp
 max-paths 4
 neighbor %s remote-as 65000
 neighbor %s update-source
 neighbor %s next-hop-self
`, newName, lo, lo, rrLoopback, rrLoopback, rrLoopback)
		sc.Plan = &change.Plan{
			ID: string(t), Type: t,
			Description: "add new DC gateway " + newName,
			NewConfigs:  map[string]string{newName: newCfg},
			AddLinks: []netmodel.Link{{
				A: core, B: newName, AIface: "to-" + newName, BIface: "to-" + core,
				ANet: netip.PrefixFrom(base, 30), BNet: netip.PrefixFrom(base, 30),
				AAddr: base.Next(), BAddr: base.Next().Next(),
				CostAB: 10, CostBA: 10, Bandwidth: 1e10,
			}},
			Commands: map[string]string{rr: fmt.Sprintf(`
router bgp
 neighbor %s remote-as 65000
 neighbor %s update-source
 neighbor %s route-reflector-client
!
`, lo, lo, lo)},
		}
		sc.Intents = []intent.Intent{
			// The new router learns the same prefixes the peer DC gateway in
			// its group knows.
			intent.RouteIntent{Spec: fmt.Sprintf(
				"forall prefix in {10.1.0.0/24, 20.0.0.0/24}: routeType = BEST => POST||device = %s |> count() >= 1", newName)},
		}

	case change.TopologyAdjust:
		// Take one of dc-0-0's two uplinks down for maintenance; flows
		// must still be delivered over the remaining one.
		links := upLinksOf(sc, dc)
		sc.Plan = &change.Plan{
			ID: string(t), Type: t,
			Description: "maintenance: disable one uplink of " + dc,
			SetLinks:    []change.LinkUpDown{{ID: links[0], Up: false}},
		}
		sc.Intents = []intent.Intent{
			intent.ReachIntent{Prefix: netip.MustParsePrefix("10.0.0.0/24"), Devices: []string{rr}, Want: true},
			intent.LoadIntent{MaxUtilization: 0.95},
		}

	case change.NewPrefix:
		p := netip.MustParsePrefix("10.99.0.0/24")
		sc.Plan = &change.Plan{
			ID: string(t), Type: t,
			Description: "announce new prefix " + p.String() + " at " + dc,
			NewInputs: []netmodel.Route{{
				Device: dc, VRF: netmodel.DefaultVRF, Prefix: p,
				Protocol: netmodel.ProtoBGP, NextHop: g.Net.Devices[dc].Loopback,
				Attrs: &netmodel.Attrs{LocalPref: 100}, Source: dc,
			}},
		}
		sc.Intents = []intent.Intent{
			intent.ReachIntent{Prefix: p, Devices: []string{rr, border, "rr-1-0"}, Want: true},
		}

	case change.PrefixReclamation:
		victim := sc.Inputs[0]
		sc.Plan = &change.Plan{
			ID: string(t), Type: t,
			Description: "reclaim prefix " + victim.Prefix.String(),
			DropInputs:  []netmodel.Route{victim},
		}
		sc.Intents = []intent.Intent{
			intent.ReachIntent{Prefix: victim.Prefix, Want: false},
		}

	case change.TrafficSteering:
		// Prefer ISP routes learned at border-0-0 region-wide by raising
		// their local preference.
		sc.Plan = &change.Plan{
			ID: string(t), Type: t,
			Description: "prefer ISP exit at " + border,
			Commands: map[string]string{border: `
route-policy RM_ISP_IN permit node 15
 apply local-preference 150
#
undo route-policy RM_ISP_IN permit node 20
`},
		}
		sc.Intents = []intent.Intent{
			// ISP prefixes on the region's RR prefer border-0-0 now.
			intent.RouteIntent{Spec: fmt.Sprintf(
				"forall device in {%s}: prefix = 20.0.0.0/24 and routeType = BEST => POST |> distVals(localPref) = {150}", rr)},
			intent.LoadIntent{MaxUtilization: 0.95},
		}
	}
	sc.Description = sc.Plan.Description
	return sc
}

func addCommands(p *change.Plan, t change.Type, device, cmds string) *change.Plan {
	if p == nil {
		p = &change.Plan{ID: string(t), Type: t, Commands: map[string]string{}}
	}
	if p.Commands == nil {
		p.Commands = map[string]string{}
	}
	p.Commands[device] += cmds
	return p
}

// linkAddrOf returns the address of other's interface toward dev.
func linkAddrOf(sc *Scenario, dev, other string) netip.Addr {
	return sc.Net.Devices[other].Interfaces["to-"+dev].Addr.Addr()
}

// upLinksOf returns the IDs of the device's up links.
func upLinksOf(sc *Scenario, dev string) []netmodel.LinkID {
	var out []netmodel.LinkID
	for _, l := range sc.Net.Topo.LinksOf(dev) {
		if l.Up {
			out = append(out, l.ID())
		}
	}
	return out
}
