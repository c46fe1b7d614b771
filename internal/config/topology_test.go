package config_test

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"net/netip"
	"reflect"
	"testing"

	"hoyan/internal/config"
	"hoyan/internal/diagnosis"
	"hoyan/internal/gen"
	"hoyan/internal/netmodel"
	"hoyan/internal/scenario"
)

// topologyDigest hashes a topology: every node (name, loopback, state) in
// name order, then every link with all of its fields, in link order.
func topologyDigest(t *netmodel.Topology) string {
	h := sha256.New()
	for _, nd := range t.Nodes() {
		fmt.Fprintf(h, "node %s %s %v\n", nd.Name, nd.Loopback, nd.Up)
	}
	for _, l := range t.Links() {
		fmt.Fprintf(h, "link %s %s %s %s %s %s %s %s %d %d %d %d %g %v\n",
			l.A, l.B, l.AIface, l.BIface, l.ANet, l.BNet, l.AAddr, l.BAddr,
			l.CostAB, l.CostBA, l.TEAB, l.TEBA, l.Bandwidth, l.Up)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Digests of the topologies the fixture builders wired link by link, next to
// the configurations, before the topology was derived from them.
const (
	wan1Topology    = "715e4112bb9126431e278d23602dfabcfaa7ca7ecb3eea3bdbddcb152a44eaa3"
	fig10aTopology  = "58cd60fac9ea08eff6c653808b69e71120e6f7ceb0f3443f4e751cbd3c89581e"
	fig10bTopology  = "e41f1279006eab72ee67062224b04c56ebcb557ad8ebfb4073125ef016e0fec0"
	probeTopology   = "cd8245608bd0443e6c6f6fb7f39a527ccd7fdf75f4866409904a433690344682"
	wanDCN2Topology = "1265b4cd8db91f671b602854af31736af3a126a387827718e2745230c2ff1ab0"
)

// TestTopologyFromConfigs: the topology derived from a fixture's
// configurations equals the one its builder used to wire by hand — nodes,
// loopbacks, and links in the same order with both costs, both TE metrics
// and bandwidth — for WAN(1–10), WAN+DCN(2), Figure 10(a)/(b) and the
// diagnosis probe. Each is derived twice: by the fixture itself, and from
// its configurations rendered and parsed back, so the topology comes from
// the text alone. The Table 2 and Table 6 networks, with their base down
// states, and the networks their plans apply to are checked the same way
// against what the hand-kept topology gave.
func TestTopologyFromConfigs(t *testing.T) {
	wan := []string{
		wan1Topology,
		"1909f54390aea3d936cbcb223b0339a72fbf678c3e24ffcefcb5f0723b9468b7",
		"01496b529b246edb122249c64d0e1ff098d86cc9de7a94b2bc887531f145b0e0",
		"9fac2b5c635fa162c4ca7c4d11099e61c16506a6ccf7357763ecdbaa5a733913",
		"494c3ddb80d7852f289e3deede8e564d8be34347075adf6c072f403ad387014b",
		"b4fb220eeef44bcd56dde2aeba46a5e6adb8381bdf1e710273cac2ff9cc72e23",
		"db3400a254878f9f953293b478cb71216822e34ade7d35fab7d989f8c6da5afc",
		"76df963e9a4f477b774e3a582895285c0f28b05e274f7ada321ad000d269eea7",
		"4083680cdfb39dbe82641db67f51d98cf766368c00729cfb659fddb76cb6b411",
		"9585dadfe23e7aeaecb1cec3294be5d9137bd0db2b2dd5208d97f33a932babd6",
	}
	type fixture struct {
		name string
		net  *config.Network
		want string
	}
	var fixtures []fixture
	for k, want := range wan {
		fixtures = append(fixtures, fixture{fmt.Sprintf("WAN(%d)", k+1), gen.Generate(gen.WAN(k + 1)).Net, want})
	}
	fixtures = append(fixtures,
		fixture{"WANDCN(2)", gen.Generate(gen.WANDCN(2)).Net, wanDCN2Topology},
		fixture{"Fig10a", scenario.Fig10a().Net, fig10aTopology},
		fixture{"Fig10b", scenario.Fig10b().Net, fig10bTopology},
		fixture{"probe", diagnosis.BuildProbe().Net, probeTopology},
	)
	for _, f := range fixtures {
		if got := topologyDigest(f.net.Topo); got != f.want {
			t.Errorf("%s: derived topology %s, hand-built %s", f.name, got, f.want)
		}
		texts := make(map[string]string, len(f.net.Devices))
		for name, d := range f.net.Devices {
			texts[name] = config.Serialize(d)
		}
		parsed, err := config.BuildNetwork(texts, nil)
		if err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		if got := topologyDigest(parsed.Topo); got != f.want {
			t.Errorf("%s: topology derived from the configuration text %s, hand-built %s", f.name, got, f.want)
		}
		for _, v := range parsed.Validate() {
			if v.Kind != config.UndefinedPolicy && v.Kind != config.UndefinedACL {
				t.Errorf("%s: %v", f.name, v)
			}
		}
	}

	// Table 2 and Table 6: base and updated topologies, WAN(1)'s unless named.
	type pair struct{ base, updated string }
	special := map[string]pair{
		"table2-add-links":           {wan1Topology, "e67084a8d72b3713e6304ccbe13f8bec03cce4da8b212ba74502b787e8f287e2"},
		"table2-add-routers":         {wan1Topology, "a4d87e857e79e5a055073403e942989ded54440ae09b5e4404c2e2314a2a4c0c"},
		"table2-topology-adjust":     {wan1Topology, "1bd69bf1998adf033d256a7bd1a8008afaa79aabaa5825643c4782e418b237e7"},
		"t6-isis-cost-flaw":          {wan1Topology, "7f46dde45c4d6076f1c338dc103762d181e8dec2d743e7c901a40bf0e20aa4d0"},
		"t6-redundancy-already-lost": {"3f1da478128353dd6fd85ef29627ad7f4a30a3bfc531c48488d8446c90b46bbf", "70f719fd583cce90e48148daa2e83f582ff24d897db2de23763e183725673914"},
		"fig10a-shift-to-new-wan":    {fig10aTopology, fig10aTopology},
		"fig10b-isp-exit":            {fig10bTopology, fig10bTopology},
	}
	scs := scenario.Table2Catalog()
	for _, rs := range scenario.Table6Catalog() {
		scs = append(scs, rs.Scenario)
	}
	for _, sc := range scs {
		want, ok := special[sc.Name]
		if !ok {
			want = pair{wan1Topology, wan1Topology}
		}
		if got := topologyDigest(sc.Net.Topo); got != want.base {
			t.Errorf("%s: base topology %s, hand-built %s", sc.Name, got, want.base)
		}
		updated, err := sc.Plan.Apply(sc.Net)
		if err != nil {
			if !sc.WantApplyError {
				t.Fatalf("%s: %v", sc.Name, err)
			}
			continue
		}
		if got := topologyDigest(updated.Topo); got != want.updated {
			t.Errorf("%s: updated topology %s, hand-built %s", sc.Name, got, want.updated)
		}
	}
}

// TestValidateSubnets: every IS-IS interface whose subnet does not pair it
// with exactly one interface of another device is a finding, of the kind
// its subnet's shape names, and derives no link.
func TestValidateSubnets(t *testing.T) {
	iface := func(name, addr string) *config.Interface {
		return &config.Interface{Name: name, Addr: netip.MustParsePrefix(addr), ISISCost: 10}
	}
	for _, tc := range []struct {
		name  string
		ifs   map[string][]*config.Interface // device → its interfaces
		want  []config.Finding
		links int
	}{
		{"pair", map[string][]*config.Interface{
			"A": {iface("to-B", "10.0.0.1/30")}, "B": {iface("to-A", "10.0.0.2/30")},
		}, nil, 1},
		{"lone interface", map[string][]*config.Interface{
			"A": {iface("to-B", "10.0.0.1/30")}, "B": {iface("to-A", "10.0.0.6/30")},
		}, []config.Finding{
			{Kind: config.LoneInterface, Device: "A", Where: "interface to-B", Name: "10.0.0.0/30"},
			{Kind: config.LoneInterface, Device: "B", Where: "interface to-A", Name: "10.0.0.4/30"},
		}, 0},
		{"three ends", map[string][]*config.Interface{
			"A": {iface("lan", "10.0.0.1/24")}, "B": {iface("lan", "10.0.0.2/24")}, "C": {iface("lan", "10.0.0.3/24")},
		}, []config.Finding{
			{Kind: config.SharedSubnet, Device: "A", Where: "interface lan", Name: "10.0.0.0/24"},
			{Kind: config.SharedSubnet, Device: "B", Where: "interface lan", Name: "10.0.0.0/24"},
			{Kind: config.SharedSubnet, Device: "C", Where: "interface lan", Name: "10.0.0.0/24"},
		}, 0},
		{"two ends on one device", map[string][]*config.Interface{
			"A": {iface("x", "10.0.0.1/30"), iface("y", "10.0.0.2/30")}, "B": {},
		}, []config.Finding{
			{Kind: config.SameDeviceSubnet, Device: "A", Where: "interface x", Name: "10.0.0.0/30"},
			{Kind: config.SameDeviceSubnet, Device: "A", Where: "interface y", Name: "10.0.0.0/30"},
		}, 0},
	} {
		net := config.NewNetwork()
		for dev, ifs := range tc.ifs {
			d := config.NewDevice(dev, "alpha")
			for _, i := range ifs {
				d.Interfaces[i.Name] = i
			}
			net.Devices[dev] = d
		}
		// An interface without isis cost ends no link and is no finding.
		net.Devices["A"].Interfaces["ext"] = &config.Interface{Name: "ext", Addr: netip.MustParsePrefix("192.0.2.1/24")}
		if got := net.Validate(); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: findings %v, want %v", tc.name, got, tc.want)
		}
		net.Topo = net.Topology()
		if got := len(net.Topo.Links()); got != tc.links {
			t.Errorf("%s: %d links, want %d", tc.name, got, tc.links)
		}
		texts := make(map[string]string, len(net.Devices))
		for name, d := range net.Devices {
			texts[name] = config.Serialize(d)
		}
		if _, err := config.BuildNetwork(texts, nil); (err != nil) != (tc.links == 0) || (err != nil && !errors.Is(err, config.ErrNoLinks)) {
			t.Errorf("%s: BuildNetwork: %v with %d links, want ErrNoLinks exactly when there is none", tc.name, err, tc.links)
		}
	}
}

// BenchmarkTopology times one derivation of WAN(10)'s topology from its
// configurations.
func BenchmarkTopology(b *testing.B) {
	net := gen.Generate(gen.WAN(10)).Net
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Topology()
	}
}
