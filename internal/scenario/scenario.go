// Package scenario builds the paper's concrete case studies and the Table 2
// change-type catalog as runnable verification scenarios. The integration
// tests, the examples, and the hoyan-exp experiment driver all share these.
package scenario

import (
	"fmt"
	"net/netip"

	"hoyan/internal/change"
	"hoyan/internal/config"
	"hoyan/internal/gen"
	"hoyan/internal/intent"
	"hoyan/internal/netmodel"
)

// Scenario is one ready-to-verify change situation.
type Scenario struct {
	Name        string
	Description string
	Type        change.Type

	Net    *config.Network
	Inputs []netmodel.Route
	Flows  []netmodel.Flow

	Plan    *change.Plan
	Intents []intent.Intent

	// WantOK is the expected verification outcome: false means Hoyan must
	// detect a risk.
	WantOK bool
	// WantApplyError marks plans that must already fail to apply (e.g.
	// router-name typos).
	WantApplyError bool
}

// scenarioBuilder assembles the small purpose-built case-study networks.
type scenarioBuilder struct{ *gen.Builder }

func newScenarioBuilder() scenarioBuilder {
	return scenarioBuilder{gen.NewBuilder(netip.MustParsePrefix("172.24.0.0/16"))}
}

func (b scenarioBuilder) device(name string, asn netmodel.ASN, lo string) {
	b.Device(name, "alpha", asn, netip.MustParseAddr(lo)).MaxPaths = 4
}

// ebgp configures the session over the direct link, with a's import and
// export policies.
func (b scenarioBuilder) ebgp(a, bdev string, aImport, aExport string) {
	na, _ := b.EBGP(a, bdev)
	na.ImportPolicy, na.ExportPolicy = aImport, aExport
}

// Fig10a reproduces the "shifting traffic to new WAN" risk of Figure 10(a):
// M1's pre-installed ingress policy is missing node 20, so after deleting
// node 10 M1 still denies route R; traffic from M1 detours M1-A-M2-B and
// overloads link A-M2.
func Fig10a() *Scenario {
	b := newScenarioBuilder()
	// A: old WAN; B: new WAN; M1/M2: DC-side routers in one AS.
	b.device("A", 65100, "9.0.0.1")
	b.device("B", 65200, "9.0.0.2")
	b.device("M1", 65000, "9.0.0.3")
	b.device("M2", 65000, "9.0.0.4")

	b.Link("M1", "A", 10, 1e9)
	b.Link("M2", "A", 10, 50e6) // thin link: overloads on detour
	b.Link("M1", "B", 10, 1e9)
	b.Link("M2", "B", 10, 1e9)

	// Ingress policies on M1/M2 for the B sessions. The intended policy has
	// node 10 (deny all) and node 20 (permit 1.0.0.0/24); M1 *misses* node
	// 20 — the latent misconfiguration.
	m1, m2 := b.Net.Devices["M1"], b.Net.Devices["M2"]
	mustCommands(m1, `
ip prefix-list PL_R permit 1.0.0.0/24
route-map RM_FROM_B deny 10
!
`)
	mustCommands(m2, `
ip prefix-list PL_R permit 1.0.0.0/24
route-map RM_FROM_B deny 10
!
route-map RM_FROM_B permit 20
 match ip-prefix PL_R
!
`)
	b.ebgp("M1", "A", "", "")
	b.ebgp("M2", "A", "", "")
	b.ebgp("M1", "B", "RM_FROM_B", "")
	b.ebgp("M2", "B", "RM_FROM_B", "")

	// Input routes: B advertises R = 1.0.0.0/24 (new WAN path); A has the
	// pre-configured default 1.0.0.0/8 toward the old WAN.
	ext := func(dev, iface, addr string) netip.Addr {
		a := netip.MustParseAddr(addr)
		b.Net.Devices[dev].Interfaces[iface] = &config.Interface{Name: iface, Addr: netip.PrefixFrom(a, 24)}
		return a.Next()
	}
	nhB := ext("B", "ext", "198.51.100.1")
	nhA := ext("A", "ext", "198.51.101.1")
	inputs := []netmodel.Route{
		{Device: "B", VRF: netmodel.DefaultVRF, Prefix: netip.MustParsePrefix("1.0.0.0/24"),
			Protocol: netmodel.ProtoBGP, NextHop: nhB, ASPath: netmodel.ASPath{Seq: []netmodel.ASN{65201}}, Source: "B"},
		{Device: "A", VRF: netmodel.DefaultVRF, Prefix: netip.MustParsePrefix("1.0.0.0/8"),
			Protocol: netmodel.ProtoBGP, NextHop: nhA, ASPath: netmodel.ASPath{Seq: []netmodel.ASN{65101}}, Source: "A"},
	}

	// Traffic: 80 Mbps from the DC behind M1 toward 1.0.0.0/24.
	flows := []netmodel.Flow{{
		Ingress: "M1",
		Src:     netip.MustParseAddr("203.0.113.10"),
		Dst:     netip.MustParseAddr("1.0.0.5"),
		SrcPort: 40000, DstPort: 443, Proto: netmodel.ProtoTCP,
		Volume: 80e6,
	}}

	// The change: delete node 10 on both M1 and M2.
	plan := &change.Plan{
		ID:   "shift-to-new-wan",
		Type: change.TrafficSteering,
		Description: "Shift traffic for 1.0.0.0/24 from the old WAN (A) to the new WAN (B) " +
			"by removing the deny-all node from the pre-installed ingress policies.",
		Commands: map[string]string{
			"M1": "no route-map RM_FROM_B deny 10\n",
			"M2": "no route-map RM_FROM_B deny 10\n",
		},
	}

	intents := []intent.Intent{
		// (1) Route R installed as best on both M1 and M2.
		intent.RouteIntent{Spec: "forall device in {M1, M2}: prefix = 1.0.0.0/24 and routeType = BEST => POST |> count() >= 1"},
		// (2) Traffic shifts to B directly.
		intent.PathIntent{
			Select:    intent.FlowSelector{Ingress: "M1", DstWithin: netip.MustParsePrefix("1.0.0.0/24")},
			Traverse:  []string{"M1", "B"},
			Avoid:     []string{"A"},
			Delivered: true,
		},
		// (3) No overloaded links.
		intent.LoadIntent{MaxUtilization: 0.8},
	}

	return &Scenario{
		Name:        "fig10a-shift-to-new-wan",
		Description: "Figure 10(a): latent missing policy node on M1 causes a detour and overload",
		Type:        change.TrafficSteering,
		Net:         b.Net, Inputs: inputs, Flows: flows,
		Plan: plan, Intents: intents,
		WantOK: false,
	}
}

// Fig10b reproduces the "changing ISP exits" risk of Figure 10(b): the
// operator uses an IPv4 "ip prefix-list" command for IPv6 prefixes, and the
// vendor's filter permits every IPv6 prefix by default, so ALL IPv6 traffic
// shifts to C and overloads the C-ISP2 link.
func Fig10b() *Scenario {
	b := newScenarioBuilder()
	b.device("RR", 65000, "9.1.0.1")
	b.device("R1", 65000, "9.1.0.2")
	b.device("C", 65000, "9.1.0.3") // border to ISP2
	b.device("D", 65000, "9.1.0.4") // border to ISP1
	b.device("ISP1", 64701, "9.1.0.5")
	b.device("ISP2", 64702, "9.1.0.6")

	b.Link("RR", "R1", 10, 1e9)
	b.Link("RR", "C", 10, 1e9)
	b.Link("RR", "D", 10, 1e9)
	b.Link("R1", "C", 20, 1e9)
	b.Link("R1", "D", 20, 1e9)
	b.Link("C", "ISP2", 10, 40e6) // thin exit link
	b.Link("D", "ISP1", 10, 1e9)

	for _, client := range []string{"R1", "C", "D"} {
		toClient, _ := b.IBGP("RR", client)
		toClient.RRClient = true
	}
	b.ebgp("C", "ISP2", "", "")
	b.ebgp("D", "ISP1", "", "")

	// ISP1 and ISP2 both advertise the same IPv6 prefixes; D's routes win
	// before the change (shorter AS path via ISP1).
	prefixes := []string{
		"2400:a::/32", "2400:b::/32", // targets
		"2400:c::/32", "2400:d::/32", "2400:e::/32", // others
	}
	extAddr := func(dev, addr string) netip.Addr {
		a := netip.MustParseAddr(addr)
		b.Net.Devices[dev].Interfaces["ext"] = &config.Interface{Name: "ext", Addr: netip.PrefixFrom(a, 120)}
		return a.Next()
	}
	nh1 := extAddr("ISP1", "2001:db8:f1::1")
	nh2 := extAddr("ISP2", "2001:db8:f2::1")
	var inputs []netmodel.Route
	for _, p := range prefixes {
		inputs = append(inputs,
			netmodel.Route{Device: "ISP1", VRF: netmodel.DefaultVRF, Prefix: netip.MustParsePrefix(p),
				Protocol: netmodel.ProtoBGP, NextHop: nh1, ASPath: netmodel.ASPath{Seq: []netmodel.ASN{65301}}, Source: "ISP1"},
			netmodel.Route{Device: "ISP2", VRF: netmodel.DefaultVRF, Prefix: netip.MustParsePrefix(p),
				Protocol: netmodel.ProtoBGP, NextHop: nh2, ASPath: netmodel.ASPath{Seq: []netmodel.ASN{65302, 65303}}, Source: "ISP2"},
		)
	}

	// 30 Mbps to each prefix, entering at R1 (5 prefixes x 30M = 150M; the
	// C-ISP2 link is 40M, so even the intended shift of 2x30M would near the
	// limit, and the accidental 5x30M clearly overloads it).
	var flows []netmodel.Flow
	for i, p := range prefixes {
		dst := netip.MustParsePrefix(p).Addr().Next()
		flows = append(flows, netmodel.Flow{
			Ingress: "R1",
			Src:     netip.MustParseAddr("2001:db8:9::1"),
			Dst:     dst,
			SrcPort: uint16(40000 + i), DstPort: 443, Proto: netmodel.ProtoTCP,
			Volume: 30e6,
		})
	}

	// The change: on C, raise local preference for the target prefixes
	// before advertising to the RR — but using the IPv4 "ip prefix-list"
	// command for IPv6 prefixes (the Figure 10(b) typo).
	plan := &change.Plan{
		ID:   "isp-exit-change",
		Type: change.TrafficSteering,
		Description: "Move the ISP exit of two IPv6 prefixes from ISP1 (via D) to ISP2 (via C) " +
			"by raising their local preference on C.",
		Commands: map[string]string{
			"C": `
ip prefix-list TARGETS permit 2400:a::/32
ip prefix-list TARGETS permit 2400:b::/32
route-map RM_LP permit 10
 match ip-prefix TARGETS
 set local-preference 300
!
route-map RM_LP permit 20
!
router bgp
 neighbor 9.1.0.1 route-map RM_LP out
!
`,
		},
	}

	intents := []intent.Intent{
		// (1) Targets' next hop moves to C (C's loopback after reflection).
		intent.RouteIntent{Spec: "forall device in {R1}: forall prefix in {2400:a::/32, 2400:b::/32}: routeType = BEST => POST |> distVals(nexthop) = {9.1.0.3}"},
		// (2) Other prefixes remain unchanged.
		intent.RouteIntent{Spec: "forall device in {R1}: forall prefix in {2400:c::/32, 2400:d::/32, 2400:e::/32}: routeType = BEST => PRE |> distVals(nexthop) = POST |> distVals(nexthop)"},
		// (3) No overloaded links.
		intent.LoadIntent{MaxUtilization: 0.9},
	}

	return &Scenario{
		Name:        "fig10b-isp-exit",
		Description: "Figure 10(b): ip-prefix vs ipv6-prefix VSB moves ALL IPv6 prefixes to C",
		Type:        change.TrafficSteering,
		Net:         b.Net, Inputs: inputs, Flows: flows,
		Plan: plan, Intents: intents,
		WantOK: false,
	}
}

func mustCommands(d *config.Device, commands string) {
	if err := config.ApplyCommands(d, commands); err != nil {
		panic(fmt.Sprintf("scenario: %v", err))
	}
}
