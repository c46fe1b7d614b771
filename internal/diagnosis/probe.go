package diagnosis

import (
	"fmt"
	"net/netip"

	"hoyan/internal/config"
	"hoyan/internal/gen"
	"hoyan/internal/netmodel"
	"hoyan/internal/policy"
)

// Probe is a compact purpose-built network that exercises every Table 5
// vendor-specific behaviour, so that flipping any single VSB in the model
// under test produces an observable simulated-RIB difference. The Table 5
// differential-testing campaign (VSBCampaign) runs over it.
type Probe struct {
	Net    *config.Network
	Inputs []netmodel.Route
	Flows  []netmodel.Flow
}

// BuildProbe constructs the probe network.
func BuildProbe() *Probe {
	b := gen.NewBuilder(netip.MustParsePrefix("172.28.0.0/16"))
	device := func(name string, asn netmodel.ASN, lo string) *config.Device {
		return b.Device(name, "alpha", asn, netip.MustParseAddr(lo))
	}
	link := func(a, bdev string, cost uint32) netmodel.Link { return b.Link(a, bdev, cost, 1e9) }
	// end is dev's address on the link.
	end := func(l netmodel.Link, dev string) netip.Addr {
		if l.A == dev {
			return l.AAddr
		}
		return l.BAddr
	}
	static := func(d *config.Device, prefix string, nh netip.Addr) {
		d.Statics = append(d.Statics, config.StaticRoute{VRF: netmodel.DefaultVRF, Prefix: netip.MustParsePrefix(prefix), NextHop: nh, Preference: 1})
	}

	// Hub H (alpha, AS 65000) with assorted eBGP peers P1..P7.
	h := device("H", 65000, "8.0.0.1")
	h.MaxPaths = 4

	peers := []struct {
		name string
		asn  netmodel.ASN
	}{
		{"P1", 65001}, {"P2", 65002}, {"P3", 65003}, {"P4", 65004},
		{"P5", 65005}, {"P6", 65006}, {"P7", 65007},
	}
	toPeer := make(map[string]*config.Neighbor) // H's neighbor toward each peer
	var hP1 netmodel.Link
	for _, p := range peers {
		d := device(p.name, p.asn, fmt.Sprintf("8.0.1.%d", p.asn-65000))
		if l := link("H", p.name, 10); p.name == "P1" {
			hP1 = l
		}
		toPeer[p.name], _ = b.EBGP("H", p.name)
		// External interface so injected routes' next hops resolve.
		ext := netip.MustParseAddr(fmt.Sprintf("198.51.%d.1", p.asn-65000))
		d.Interfaces["ext"] = &config.Interface{Name: "ext", Addr: netip.PrefixFrom(ext, 24)}
	}

	routeMap := func(name string, nodes ...*policy.Node) {
		h.RouteMaps[name] = &policy.RouteMap{Name: name, Nodes: nodes}
	}

	// --- policy VSBs on H's imports ---
	// P1: NO import policy (missing-policy VSB is exercised on H's side
	//     because we leave H's neighbor to P1 without a policy).
	// P2: undefined policy name.
	toPeer["P2"].ImportPolicy = "RM_DOES_NOT_EXIST"
	// P3: policy whose only node never matches (default-policy VSB).
	routeMap("RM_NOMATCH", &policy.Node{Seq: 10, Action: policy.ActionPermit, Matches: []policy.Match{{Kind: policy.MatchPrefixList, ListName: "PL_UNUSED"}}})
	h.PrefixLists["PL_UNUSED"] = &policy.PrefixList{Name: "PL_UNUSED", Family: policy.FamilyIPv4, Entries: []policy.PrefixEntry{
		{Permit: true, Prefix: netip.MustParsePrefix("192.0.2.0/24")},
	}}
	toPeer["P3"].ImportPolicy = "RM_NOMATCH"
	// P4: policy node referencing an undefined filter (undefined-filter VSB).
	routeMap("RM_UNDEF_FILTER", &policy.Node{Seq: 10, Action: policy.ActionPermit,
		Matches: []policy.Match{{Kind: policy.MatchPrefixList, ListName: "PL_NEVER_DEFINED"}},
		Sets:    []policy.Set{{Kind: policy.SetLocalPref, Value: 222}}},
		&policy.Node{Seq: 20, Action: policy.ActionPermit})
	toPeer["P4"].ImportPolicy = "RM_UNDEF_FILTER"
	// P5: matching node without an explicit action (no-action VSB).
	routeMap("RM_NOACTION", &policy.Node{Seq: 10, Action: policy.ActionUnset, Sets: []policy.Set{{Kind: policy.SetLocalPref, Value: 333}}})
	toPeer["P5"].ImportPolicy = "RM_NOACTION"
	// P6: IPv6 route filtered through an IPv4 prefix list (Figure 10(b) VSB).
	routeMap("RM_V6", &policy.Node{Seq: 10, Action: policy.ActionDeny, Matches: []policy.Match{{Kind: policy.MatchPrefixList, ListName: "PL_V4ONLY"}}},
		&policy.Node{Seq: 20, Action: policy.ActionPermit})
	h.PrefixLists["PL_V4ONLY"] = &policy.PrefixList{Name: "PL_V4ONLY", Family: policy.FamilyIPv4, Entries: []policy.PrefixEntry{
		{Permit: true, Prefix: netip.MustParsePrefix("203.0.113.0/24")},
	}}
	toPeer["P6"].ImportPolicy = "RM_V6"
	// P7: export policy overwriting the AS path (own-ASN VSB) — observable
	// on P7's RIB.
	routeMap("RM_OVERWRITE", &policy.Node{Seq: 10, Action: policy.ActionPermit, Sets: []policy.Set{
		{Kind: policy.ReplaceASPath, ASPath: netmodel.ASPath{Seq: []netmodel.ASN{64999}}},
	}})
	toPeer["P7"].ExportPolicy = "RM_OVERWRITE"

	// --- redistribution VSBs ---
	// Statics + direct redistribution on H: weight-after-redistribution,
	// /32 direct route production and peer advertisement.
	static(h, "192.0.2.0/24", end(hP1, "P1"))
	h.Redistributes = append(h.Redistributes,
		config.Redistribution{From: netmodel.ProtoStatic},
		config.Redistribution{From: netmodel.ProtoDirect},
	)

	// --- aggregation VSB ---
	// Aggregate without as-set over contributors sharing an AS-path prefix.
	h.Aggregates = append(h.Aggregates, config.Aggregate{
		VRF: netmodel.DefaultVRF, Prefix: netip.MustParsePrefix("100.100.0.0/16"),
	})

	// --- VRF leaking VSBs ---
	h.VRFs["v1"] = &config.VRF{Name: "v1", ExportRTs: []string{"rt1"}}
	h.VRFs["v2"] = &config.VRF{Name: "v2", ImportRTs: []string{"rt1"}, ExportRTs: []string{"rt2"}}
	h.VRFs["v3"] = &config.VRF{Name: "v3", ImportRTs: []string{"rt2"}}
	// vg imports the global table; its export policy participates in the
	// VRF-export-policy-on-global-leak VSB.
	h.VRFs["vg"] = &config.VRF{Name: "vg", ImportRTs: []string{"global"}, ExportPolicy: "RM_VRFEXP"}
	routeMap("RM_VRFEXP", &policy.Node{Seq: 10, Action: policy.ActionPermit, Sets: []policy.Set{{Kind: policy.SetLocalPref, Value: 555}}})

	// --- SR IGP-cost VSB (the Figure 9 shape) ---
	// H2 learns a prefix via B2 (cost 10) and C2 (cost 30); an SR policy
	// toward C2 zeroes the IGP cost on cost-zeroing vendors.
	h2 := device("H2", 65000, "8.0.0.2")
	b2 := device("B2", 65000, "8.0.2.1")
	c2 := device("C2", 65000, "8.0.2.2")
	h2.MaxPaths = 4
	link("H2", "B2", 10)
	link("H2", "C2", 30)
	b.IBGP("H2", "B2")
	b.IBGP("H2", "C2")
	b2.Interfaces["ext"] = &config.Interface{Name: "ext", Addr: netip.MustParsePrefix("198.51.200.1/24")}
	c2.Interfaces["ext"] = &config.Interface{Name: "ext", Addr: netip.MustParsePrefix("198.51.201.1/24")}
	h2.SRPolicies = append(h2.SRPolicies, &config.SRPolicy{Name: "SR-C2", Endpoint: c2.Loopback, Color: 7})

	// --- sub-view inheritance VSB ---
	// H and I1 have a global iBGP session (import policy lowers LP) and a
	// v1-VRF session without a policy; inheriting vendors apply the global
	// binding to the VRF session too.
	i1 := device("I1", 65000, "8.0.0.3")
	i1.VRFs["v1"] = &config.VRF{Name: "v1"}
	li := link("H", "I1", 10)
	toI1, _ := b.IBGP("H", "I1")
	routeMap("RM_GLOBAL_IN", &policy.Node{Seq: 10, Action: policy.ActionPermit, Sets: []policy.Set{{Kind: policy.SetLocalPref, Value: 444}}})
	toI1.ImportPolicy = "RM_GLOBAL_IN"
	// VRF session between H and I1 over the link addresses.
	h.Neighbors = append(h.Neighbors, &config.Neighbor{Addr: end(li, "I1"), RemoteAS: 65000, VRF: "v1"})
	i1.Neighbors = append(i1.Neighbors, &config.Neighbor{Addr: end(li, "H"), RemoteAS: 65000, VRF: "v1"})

	// --- isolation VSB ---
	z := device("Z", 65000, "8.0.0.4")
	link("H", "Z", 10)
	b.IBGP("H", "Z")
	z.Isolated = true
	z.Interfaces["ext"] = &config.Interface{Name: "ext", Addr: netip.MustParsePrefix("198.51.202.1/24")}

	// --- IS-IS TE triangle (the "new feature not modelled" issue) ---
	h3 := device("H3", 65000, "8.0.0.5")
	b3 := device("B3", 65000, "8.0.3.1")
	c3 := device("C3", 65000, "8.0.3.2")
	h3.MaxPaths = 4
	link("H3", "B3", 10)
	link("H3", "C3", 30)
	// TE metric makes the cheap IGP branch expensive for TE-aware SPF.
	h3.Interfaces["to-B3"].TECost, b3.Interfaces["to-H3"].TECost = 200, 200
	b.IBGP("H3", "B3")
	b.IBGP("H3", "C3")
	b3.Interfaces["ext"] = &config.Interface{Name: "ext", Addr: netip.MustParsePrefix("198.51.203.1/24")}
	c3.Interfaces["ext"] = &config.Interface{Name: "ext", Addr: netip.MustParsePrefix("198.51.204.1/24")}

	// --- convergence tie-break pair (router-ID decides the single best) ---
	h4 := device("H4", 65000, "8.0.0.6")
	b4 := device("B4", 65000, "8.0.4.1")
	c4 := device("C4", 65000, "8.0.4.2")
	h4.MaxPaths = 1
	link("H4", "B4", 10)
	link("H4", "C4", 10)
	b.IBGP("H4", "B4")
	b.IBGP("H4", "C4")
	b4.Interfaces["ext"] = &config.Interface{Name: "ext", Addr: netip.MustParsePrefix("198.51.205.1/24")}
	c4.Interfaces["ext"] = &config.Interface{Name: "ext", Addr: netip.MustParsePrefix("198.51.206.1/24")}

	// --- ACL chain (H5 -> M5 -> E5; the ACL at M5 stops the flow before
	// the M5-E5 link, so ignoring ACLs changes that link's load) ---
	h5 := device("H5", 65000, "8.0.0.7")
	m5 := device("M5", 65000, "8.0.5.1")
	e5 := device("E5", 65000, "8.0.5.2")
	l5 := link("H5", "M5", 10)
	l5e := link("M5", "E5", 10)
	e5.Interfaces["ext"] = &config.Interface{Name: "ext", Addr: netip.MustParsePrefix("10.55.0.1/24")}
	static(h5, "10.55.0.0/24", end(l5, "M5"))
	static(m5, "10.55.0.0/24", end(l5e, "E5"))
	m5.ACLs["NO443"] = &policy.ACL{Name: "NO443", Entries: []policy.ACLEntry{
		{Permit: false, Proto: netmodel.ProtoTCP, DstPortLo: 443, DstPortHi: 443},
		{Permit: true},
	}}
	m5.Interfaces["to-H5"].ACLIn = "NO443"

	// --- PBR pair (H6 steers around its static route) ---
	h6 := device("H6", 65000, "8.0.0.8")
	m6a := device("M6A", 65000, "8.0.6.1")
	m6b := device("M6B", 65000, "8.0.6.2")
	la := link("H6", "M6A", 10)
	lb := link("H6", "M6B", 10)
	m6a.Interfaces["ext"] = &config.Interface{Name: "ext", Addr: netip.MustParsePrefix("10.56.0.1/24")}
	m6b.Interfaces["ext"] = &config.Interface{Name: "ext", Addr: netip.MustParsePrefix("10.56.0.2/24")}
	static(h6, "10.56.0.0/24", end(la, "M6A"))
	h6.PBRPolicies["VIA_B"] = []config.PBRRule{{
		Name:    "VIA_B",
		Match:   policy.ACLEntry{Permit: true, Dst: netip.MustParsePrefix("10.56.0.0/24")},
		NextHop: end(lb, "M6B"),
	}}
	h6.Interfaces["to-M6A"].PBR = "VIA_B"

	// ---- input routes ----
	in := func(dev, prefix string, nh netip.Addr, vrf string, path ...netmodel.ASN) netmodel.Route {
		r := netmodel.Route{
			Device: dev, VRF: vrf, Prefix: netip.MustParsePrefix(prefix),
			Protocol: netmodel.ProtoBGP, NextHop: nh, Source: dev,
		}
		r.SetAttrs(&netmodel.Attrs{ASPath: netmodel.ASPath{Seq: path}})
		return r
	}
	extNH := func(dev string) netip.Addr {
		return b.Net.Devices[dev].Interfaces["ext"].Addr.Addr().Next()
	}
	inputs := []netmodel.Route{
		in("P1", "10.1.0.0/24", extNH("P1"), netmodel.DefaultVRF, 65101),
		in("P2", "10.2.0.0/24", extNH("P2"), netmodel.DefaultVRF, 65102),
		in("P3", "10.3.0.0/24", extNH("P3"), netmodel.DefaultVRF, 65103),
		in("P4", "10.4.0.0/24", extNH("P4"), netmodel.DefaultVRF, 65104),
		in("P5", "10.5.0.0/24", extNH("P5"), netmodel.DefaultVRF, 65105),
		in("P6", "2400:cafe::/32", netip.MustParseAddr("2001:db8::1"), netmodel.DefaultVRF, 65106),
		in("P7", "10.7.0.0/24", extNH("P7"), netmodel.DefaultVRF, 65107),
		// Aggregate contributors via P1, sharing the "65101 65200" prefix.
		in("P1", "100.100.1.0/24", extNH("P1"), netmodel.DefaultVRF, 65101, 65200, 65301),
		in("P1", "100.100.2.0/24", extNH("P1"), netmodel.DefaultVRF, 65101, 65200, 65302),
		// VRF chain input.
		{Device: "H", VRF: "v1", Prefix: netip.MustParsePrefix("10.99.0.0/24"),
			Protocol: netmodel.ProtoBGP, NextHop: h.Loopback, Source: "H"},
		// SR-shape inputs at B2 and C2.
		in("B2", "10.77.0.0/24", netip.MustParseAddr("198.51.200.2"), netmodel.DefaultVRF, 65400),
		in("C2", "10.77.0.0/24", netip.MustParseAddr("198.51.201.2"), netmodel.DefaultVRF, 65400),
		// TE-shape inputs at B3 and C3.
		in("B3", "10.78.0.0/24", netip.MustParseAddr("198.51.203.2"), netmodel.DefaultVRF, 65410),
		in("C3", "10.78.0.0/24", netip.MustParseAddr("198.51.204.2"), netmodel.DefaultVRF, 65410),
		// Convergence-shape inputs at B4 and C4.
		in("B4", "10.79.0.0/24", netip.MustParseAddr("198.51.205.2"), netmodel.DefaultVRF, 65420),
		in("C4", "10.79.0.0/24", netip.MustParseAddr("198.51.206.2"), netmodel.DefaultVRF, 65420),
		// Inheritance-shape input at I1 in v1.
		{Device: "I1", VRF: "v1", Prefix: netip.MustParsePrefix("10.88.0.0/24"),
			Protocol: netmodel.ProtoBGP, NextHop: i1.Loopback, Source: "I1"},
		// Isolated device input.
		in("Z", "10.66.0.0/24", extNH("Z"), netmodel.DefaultVRF, 65500),
	}
	// P6's IPv6 next hop must resolve: give P6 a v6 external subnet.
	b.Net.Devices["P6"].Interfaces["ext6"] = &config.Interface{Name: "ext6", Addr: netip.MustParsePrefix("2001:db8::2/64")}

	var flows []netmodel.Flow
	for i, f := range []struct {
		ingress, dst string
		volume       float64
	}{{"H", "10.1.0.5", 50e6}, {"H2", "10.77.0.5", 70e6}, {"H3", "10.78.0.5", 60e6}, {"H5", "10.55.0.5", 40e6}, {"H6", "10.56.0.5", 45e6}} {
		flows = append(flows, netmodel.Flow{Ingress: f.ingress, Src: netip.MustParseAddr("192.0.2.9"), Dst: netip.MustParseAddr(f.dst),
			SrcPort: 1000 + uint16(i), DstPort: 443, Proto: netmodel.ProtoTCP, Volume: f.volume})
	}
	return &Probe{Net: b.Network(), Inputs: inputs, Flows: flows}
}
