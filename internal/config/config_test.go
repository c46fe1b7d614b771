package config

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/netip"
	"reflect"
	"strings"
	"testing"

	"hoyan/internal/netmodel"
	"hoyan/internal/policy"
)

const alphaConfig = `
hostname R1
vendor alpha
asn 65001
router-id 1.1.1.1
loopback 1.1.1.1
isis enable
!
interface eth0
 ip address 10.0.0.1/30
 isis cost 10
 isis te-cost 20
 bandwidth 1e+10
 acl-in ACL1
!
vrf v1
 rd 65001:1
 route-target import 65001:100
 route-target export 65001:200
 export-policy RM_EXP
!
router bgp
 max-paths 4
 neighbor 10.0.0.2 remote-as 65002
 neighbor 10.0.0.2 route-map RM_IN in
 neighbor 10.0.0.2 route-map RM_OUT out
 neighbor 2.2.2.2 remote-as 65001
 neighbor 2.2.2.2 update-source
 neighbor 2.2.2.2 route-reflector-client
 neighbor 2.2.2.2 next-hop-self
 neighbor 2.2.2.2 add-paths 2
 neighbor 3.3.3.3 remote-as 65001 vrf v1
 network 172.16.0.0/16
 aggregate-address 10.0.0.0/8 as-set
 redistribute static route-map RM_RED
 redistribute direct
!
route-map RM_IN permit 10
 match ip-prefix PL1
 match community CL1
 set local-preference 200
 set community add 100:1
!
route-map RM_IN deny 20
!
route-map RM_OUT 5
 set med 50
!
route-map RM_RED permit 10
 match protocol static
!
route-map RM_EXP permit 10
!
ip prefix-list PL1 permit 10.0.0.0/24 le 32
ipv6 prefix-list PL6 permit 2001:db8::/32 le 64
ip community-list CL1 permit 100:1
ip as-path-list AP1 permit ".* 123 .*"
ip access-list ACL1 deny proto tcp dst 10.0.0.0/24 dport 80-80
ip access-list ACL1 permit
ip route 10.9.0.0/16 10.0.0.2 pref 5 vrf v1
sr-policy SRP1 endpoint 2.2.2.2 color 100 segments R2 R3
pbr-policy PBR1 dst 10.7.0.0/16 next-hop 10.0.0.2
`

func TestParseAlpha(t *testing.T) {
	d, err := ParseIn("alpha", "R1", alphaConfig)
	if err != nil {
		t.Fatal(err)
	}
	if d.Name != "R1" || d.ASN != 65001 || !d.ISISEnabled {
		t.Errorf("header: %+v", d)
	}
	if d.RouterID != netip.MustParseAddr("1.1.1.1") {
		t.Error("router-id")
	}
	i := d.Interfaces["eth0"]
	if i == nil || i.Addr != netip.MustParsePrefix("10.0.0.1/30") || i.ISISCost != 10 || i.TECost != 20 || i.ACLIn != "ACL1" || i.Bandwidth != 1e10 {
		t.Errorf("interface: %+v", i)
	}
	v := d.VRFs["v1"]
	if v == nil || v.RD != "65001:1" || len(v.ImportRTs) != 1 || v.ExportPolicy != "RM_EXP" {
		t.Errorf("vrf: %+v", v)
	}
	if d.MaxPaths != 4 {
		t.Errorf("max-paths = %d", d.MaxPaths)
	}
	nb := d.Neighbor(netip.MustParseAddr("10.0.0.2"), netmodel.DefaultVRF)
	if nb == nil || nb.RemoteAS != 65002 || nb.ImportPolicy != "RM_IN" || nb.ExportPolicy != "RM_OUT" {
		t.Fatalf("ebgp neighbor: %+v", nb)
	}
	rr := d.Neighbor(netip.MustParseAddr("2.2.2.2"), netmodel.DefaultVRF)
	if rr == nil || !rr.RRClient || !rr.NextHopSelf || !rr.UpdateSource || rr.AddPaths != 2 {
		t.Fatalf("ibgp neighbor: %+v", rr)
	}
	if d.Neighbor(netip.MustParseAddr("3.3.3.3"), "v1") == nil {
		t.Error("vrf neighbor missing")
	}
	rm := d.RouteMaps["RM_IN"]
	if rm == nil || len(rm.Nodes) != 2 {
		t.Fatalf("RM_IN: %+v", rm)
	}
	n10 := rm.Node(10)
	if n10.Action != policy.ActionPermit || len(n10.Matches) != 2 || len(n10.Sets) != 2 {
		t.Errorf("node 10: %+v", n10)
	}
	if rm.Node(20).Action != policy.ActionDeny {
		t.Error("node 20 should deny")
	}
	if d.RouteMaps["RM_OUT"].Node(5).Action != policy.ActionUnset {
		t.Error("route-map without action should be ActionUnset (VSB)")
	}
	if d.PrefixLists["PL1"].Family != policy.FamilyIPv4 || d.PrefixLists["PL6"].Family != policy.FamilyIPv6 {
		t.Error("prefix list families")
	}
	if len(d.ACLs["ACL1"].Entries) != 2 {
		t.Error("ACL entries")
	}
	if len(d.Statics) != 1 || d.Statics[0].VRF != "v1" || d.Statics[0].Preference != 5 {
		t.Errorf("statics: %+v", d.Statics)
	}
	if len(d.SRPolicies) != 1 || len(d.SRPolicies[0].Segments) != 2 {
		t.Errorf("sr policies: %+v", d.SRPolicies)
	}
	if len(d.PBRPolicies["PBR1"]) != 1 {
		t.Errorf("pbr: %+v", d.PBRPolicies)
	}
	if len(d.Aggregates) != 1 || !d.Aggregates[0].ASSet {
		t.Errorf("aggregates: %+v", d.Aggregates)
	}
	if len(d.Redistributes) != 2 || d.Redistributes[0].Policy != "RM_RED" {
		t.Errorf("redistributes: %+v", d.Redistributes)
	}
	if len(d.Networks) != 1 {
		t.Errorf("networks: %+v", d.Networks)
	}
}

func TestAlphaRoundTrip(t *testing.T) {
	d, err := ParseIn("alpha", "R1", alphaConfig)
	if err != nil {
		t.Fatal(err)
	}
	text := Serialize(d)
	d2, err := ParseIn("alpha", "R1", text)
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, text)
	}
	text2 := Serialize(d2)
	if text != text2 {
		t.Errorf("round trip not stable:\n--- first ---\n%s\n--- second ---\n%s", text, text2)
	}
}

const betaConfig = `
sysname R2
vendor beta
as-number 65002
router-id 2.2.2.2
loopback 2.2.2.2
isis enable
#
interface ge0
 ip address 10.0.0.2/30
 isis cost 10
 traffic-filter inbound acl ACL1
#
ip vpn-instance v1
 rd 65002:1
 vpn-target 65001:100 import
 vpn-target 65001:200 export
 export route-policy RP_EXP
#
bgp
 maximum load-balancing 4
 peer 10.0.0.1 as-number 65001
 peer 10.0.0.1 route-policy RP_IN import
 peer 10.0.0.1 route-policy RP_OUT export
 peer 3.3.3.3 as-number 65002
 peer 3.3.3.3 reflect-client
 peer 3.3.3.3 connect-interface loopback
 network 172.17.0.0/16
 aggregate 20.0.0.0/8
 import-route static
#
route-policy RP_IN permit node 10
 if-match ip-prefix PL1
 if-match community-filter CF1
 apply local-preference 300
 apply community 100:1 additive
#
route-policy RP_OUT deny node 10
#
route-policy RP_EXP permit node 10
#
ip ip-prefix PL1 index 10 permit 10.0.0.0/24 less-equal 32
ip ipv6-prefix PL6 index 10 permit 2001:db8::/32 less-equal 64
ip community-filter CF1 permit 100:1
ip as-path-filter AF1 permit "(^|.* )123( .*|$)"
acl ACL1 rule deny proto udp dst 10.1.0.0/16
acl ACL1 rule permit
ip route-static 10.9.0.0/16 10.0.0.1 preference 7
sr-policy SRP1 endpoint 3.3.3.3 color 200
policy-based-route PBR1 src 10.8.0.0/16 next-hop 10.0.0.1
`

func TestParseBeta(t *testing.T) {
	d, err := ParseIn("beta", "R2", betaConfig)
	if err != nil {
		t.Fatal(err)
	}
	if d.Vendor != "beta" || d.ASN != 65002 {
		t.Errorf("header: %+v", d)
	}
	nb := d.Neighbor(netip.MustParseAddr("10.0.0.1"), netmodel.DefaultVRF)
	if nb == nil || nb.ImportPolicy != "RP_IN" || nb.ExportPolicy != "RP_OUT" {
		t.Fatalf("peer: %+v", nb)
	}
	rr := d.Neighbor(netip.MustParseAddr("3.3.3.3"), netmodel.DefaultVRF)
	if rr == nil || !rr.RRClient || !rr.UpdateSource {
		t.Fatalf("rr peer: %+v", rr)
	}
	rm := d.RouteMaps["RP_IN"]
	if rm == nil || rm.Node(10) == nil || len(rm.Node(10).Sets) != 2 {
		t.Fatalf("RP_IN: %+v", rm)
	}
	// ip-prefix vs ipv6-prefix: family follows the declaring command.
	if d.PrefixLists["PL1"].Family != policy.FamilyIPv4 {
		t.Error("PL1 family")
	}
	if d.PrefixLists["PL6"].Family != policy.FamilyIPv6 {
		t.Error("PL6 family")
	}
	if len(d.Statics) != 1 || d.Statics[0].Preference != 7 {
		t.Errorf("statics: %+v", d.Statics)
	}
	if d.VRFs["v1"] == nil || d.VRFs["v1"].ExportPolicy != "RP_EXP" {
		t.Errorf("vpn-instance: %+v", d.VRFs["v1"])
	}
}

func TestBetaRoundTrip(t *testing.T) {
	d, err := ParseIn("beta", "R2", betaConfig)
	if err != nil {
		t.Fatal(err)
	}
	text := Serialize(d)
	d2, err := ParseIn("beta", "R2", text)
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, text)
	}
	if Serialize(d2) != text {
		t.Error("round trip not stable")
	}
}

func TestFigure10bMisconfiguration(t *testing.T) {
	// The operator declares IPv6 prefixes with the IPv4 "ip-prefix" command.
	text := `
sysname C
vendor beta
as-number 65100
#
ip ip-prefix TARGETS index 10 permit 2001:db8:1::/48
`
	d, err := ParseIn("beta", "C", text)
	if err != nil {
		t.Fatal(err)
	}
	l := d.PrefixLists["TARGETS"]
	if l.Family != policy.FamilyIPv4 {
		t.Fatal("ip-prefix must declare an IPv4-family list even with v6 entries")
	}
	// Under a vendor whose ip-prefix permits all IPv6 by default, every v6
	// prefix matches; the intended one and all others alike.
	permissive := vsbProfilePermitV6()
	if !l.Match(netip.MustParsePrefix("2001:db8:999::/48"), permissive) {
		t.Error("unrelated IPv6 prefix should be permitted by the VSB")
	}
}

func TestDetectVendorAndParseDevice(t *testing.T) {
	if v := DetectVendor(alphaConfig); v != "alpha" {
		t.Errorf("alpha detect = %q", v)
	}
	if v := DetectVendor(betaConfig); v != "beta" {
		t.Errorf("beta detect = %q", v)
	}
	if v := DetectVendor("hostname X\n"); v != "alpha" {
		t.Errorf("hostname fallback = %q", v)
	}
	if v := DetectVendor("sysname X\n"); v != "beta" {
		t.Errorf("sysname fallback = %q", v)
	}
	d, err := ParseDevice("R2", betaConfig)
	if err != nil || d.Vendor != "beta" {
		t.Errorf("ParseDevice: %v %v", d, err)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		text      string
		line, col int // 0: not pinned
	}{
		{"bogus command here\n", 1, 1},
		{"router bgp\n neighbor notanaddr remote-as 1\n", 2, 11},
		{"route-map RM permit notanumber\n", 1, 21},
		{"ip prefix-list PL permit 10.0.0.0.0/24\n", 0, 0},
		{"interface e0\n isis cost abc\n", 2, 12},
		// A trailing "vrf NAME" is the session's VRF, so no policy is left.
		{"router bgp\n neighbor 1.1.1.1 route-map vrf in\n", 0, 0},
	}
	for _, c := range cases {
		_, err := ParseIn("alpha", "X", c.text)
		pe, ok := err.(*ParseError)
		if !ok {
			t.Errorf("%q: want a *ParseError, got %v", c.text, err)
			continue
		}
		if c.line != 0 && (pe.Line != c.line || pe.Col != c.col) {
			t.Errorf("%q: error at %d:%d, want %d:%d (%v)", c.text, pe.Line, pe.Col, c.line, c.col, pe)
		}
	}
	if _, err := ParseIn("beta", "X", "bgp\n peer 1.1.1.1 as-number x\n"); err == nil {
		t.Error("beta: want parse error")
	}
	var pe *ParseError
	_, err := ParseIn("alpha", "X", "hostname X\nbogus\n")
	if pe2, ok := err.(*ParseError); !ok {
		t.Errorf("want *ParseError, got %T", err)
	} else {
		pe = pe2
		if pe.Device != "X" || pe.Line != 2 || pe.Col != 1 || !strings.Contains(pe.Error(), "bogus") || !strings.Contains(pe.Error(), "line 2:1") {
			t.Errorf("ParseError fields: %+v", pe)
		}
	}

	// A vendor line names the dialect being parsed, or the text is not the
	// configuration it claims to be.
	for _, text := range []string{"vendor gamma\nhostname X\nasn 65001\n", "hostname X\nvendor beta\n"} {
		_, err := ParseDevice("X", text)
		if _, ok := err.(*ParseError); !ok {
			t.Errorf("ParseDevice(%q): want a *ParseError, got %v", text, err)
		} else if name := strings.Fields(text[strings.Index(text, "vendor"):])[1]; !strings.Contains(err.Error(), name) {
			t.Errorf("ParseDevice(%q): error %v does not name %s", text, err, name)
		}
	}
}

func TestApplyCommandsAlpha(t *testing.T) {
	d, err := ParseIn("alpha", "R1", alphaConfig)
	if err != nil {
		t.Fatal(err)
	}
	// Figure 10(a)-style change: delete the deny node from an ingress policy.
	cmds := `
route-map RM_IN permit 30
 match ip-prefix PL1
 set local-preference 400
!
no route-map RM_IN deny 20
ip route 10.10.0.0/16 10.0.0.2
no ip route 10.9.0.0/16 10.0.0.2 vrf v1
`
	if err := ApplyCommands(d, cmds); err != nil {
		t.Fatal(err)
	}
	rm := d.RouteMaps["RM_IN"]
	if rm.Node(20) != nil {
		t.Error("node 20 should be deleted")
	}
	n30 := rm.Node(30)
	if n30 == nil || n30.Sets[0].Value != 400 {
		t.Errorf("node 30: %+v", n30)
	}
	if len(d.Statics) != 1 || d.Statics[0].Prefix != netip.MustParsePrefix("10.10.0.0/16") {
		t.Errorf("statics after change: %+v", d.Statics)
	}
}

func TestApplyCommandsBeta(t *testing.T) {
	d, err := ParseIn("beta", "R2", betaConfig)
	if err != nil {
		t.Fatal(err)
	}
	cmds := `
route-policy RP_IN permit node 20
 apply local-preference 500
#
undo route-policy RP_OUT deny node 10
undo peer 3.3.3.3
`
	if err := ApplyCommands(d, cmds); err != nil {
		t.Fatal(err)
	}
	if d.RouteMaps["RP_IN"].Node(20) == nil {
		t.Error("node 20 missing")
	}
	if len(d.RouteMaps["RP_OUT"].Nodes) != 0 {
		t.Error("RP_OUT node 10 should be deleted")
	}
	if d.Neighbor(netip.MustParseAddr("3.3.3.3"), netmodel.DefaultVRF) != nil {
		t.Error("peer 3.3.3.3 should be removed")
	}
}

func TestApplyCommandsErrors(t *testing.T) {
	d := NewDevice("R", "alpha")
	if err := ApplyCommands(d, "no route-map NOSUCH permit 10\n"); err == nil {
		t.Error("want error deleting node of unknown map")
	}
	if err := ApplyCommands(d, "no neighbor 9.9.9.9\n"); err == nil {
		t.Error("want error removing unknown neighbor")
	}
}

func TestCloneIsolation(t *testing.T) {
	d, err := ParseIn("alpha", "R1", alphaConfig)
	if err != nil {
		t.Fatal(err)
	}
	cl := d.Clone()
	if err := ApplyCommands(cl, "no route-map RM_IN deny 20\nroute-map RM_IN permit 40\n set med 9\n"); err != nil {
		t.Fatal(err)
	}
	if d.RouteMaps["RM_IN"].Node(20) == nil {
		t.Error("clone mutation leaked into base (node 20)")
	}
	if d.RouteMaps["RM_IN"].Node(40) != nil {
		t.Error("clone mutation leaked into base (node 40)")
	}
	cl.Interfaces["eth0"].ISISCost = 999
	if d.Interfaces["eth0"].ISISCost == 999 {
		t.Error("interface not deep-copied")
	}
	cl.VRFs["v1"].ImportRTs[0] = "zzz"
	if d.VRFs["v1"].ImportRTs[0] == "zzz" {
		t.Error("vrf RTs not deep-copied")
	}
}

func TestNetworkValidate(t *testing.T) {
	net := NewNetwork()
	d := NewDevice("R1", "alpha")
	d.Neighbors = append(d.Neighbors, &Neighbor{Addr: netip.MustParseAddr("1.2.3.4"), VRF: netmodel.DefaultVRF, ImportPolicy: "MISSING"})
	d.Interfaces["e0"] = &Interface{Name: "e0", ACLIn: "NOACL"}
	net.Devices["R1"] = d
	issues := net.Validate()
	if len(issues) != 2 {
		t.Fatalf("issues = %v", issues)
	}
}

func TestBuildNetwork(t *testing.T) {
	configs := map[string]string{
		"R1": alphaConfig,
		"R2": betaConfig,
	}
	net, err := BuildNetworkOpts(configs, nil, BuildOptions{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(net.Devices) != 2 || net.Devices["R1"].Vendor != "alpha" || net.Devices["R2"].Vendor != "beta" {
		t.Errorf("devices: %v", net.DeviceNames())
	}
	if _, err := BuildNetworkOpts(map[string]string{"X": "garbage line\n"}, nil, BuildOptions{Parallelism: 1}); err == nil {
		t.Error("want error for bad config")
	}
}

// chooser is where the model generator takes its choices from: a seeded
// rand.Rand in the property test, the fuzzer's bytes in FuzzModelRoundTrip.
type chooser interface{ Intn(n int) int }

// byteChooser reads choices from bytes, and zeros once they run out.
type byteChooser []byte

func (b *byteChooser) Intn(n int) int {
	if len(*b) == 0 {
		return 0
	}
	v := int((*b)[0])
	if len(*b) > 1 {
		v = v<<8 | int((*b)[1])
		*b = (*b)[1:]
	}
	*b = (*b)[1:]
	return v % n
}

// genDevice builds a device in the vendor's dialect that sets every model
// field the dialects can write, with values each dialect can express: an
// unset route-map action is alpha's alone, and names are single words.
// Route maps may be empty.
func genDevice(r chooser, vendor string) *Device {
	flip := func() bool { return r.Intn(2) == 0 }
	upto := func(n int) int { return r.Intn(n + 1) }
	u32 := func() uint32 { return uint32(r.Intn(1 << 16)) }
	pick := func(ws ...string) string { return ws[r.Intn(len(ws))] }
	addr4 := func() netip.Addr {
		return netip.AddrFrom4([4]byte{byte(1 + r.Intn(220)), byte(r.Intn(256)), byte(r.Intn(256)), byte(1 + r.Intn(250))})
	}
	prefix4 := func() netip.Prefix { return netip.PrefixFrom(addr4(), 8+r.Intn(25)).Masked() }
	prefix6 := func() netip.Prefix {
		a := [16]byte{0x20, 0x01, 0x0d, 0xb8, byte(r.Intn(256)), byte(r.Intn(256))}
		return netip.PrefixFrom(netip.AddrFrom16(a), 32+r.Intn(33)).Masked()
	}
	vrf := func() string { return pick(netmodel.DefaultVRF, "v1", "v2") }
	name := func(prefix string) string { return fmt.Sprintf("%s%d", prefix, r.Intn(4)) }
	comm := func() netmodel.Community { return netmodel.NewCommunity(uint16(r.Intn(1<<16)), uint16(r.Intn(1<<16))) }
	acl := func() policy.ACLEntry {
		e := policy.ACLEntry{Permit: flip()}
		if flip() {
			e.Proto = netmodel.IPProto(1 + r.Intn(255))
		}
		if flip() {
			e.Src = prefix4()
		}
		if flip() {
			e.Dst = prefix4()
		}
		if flip() {
			e.SrcPortLo, e.SrcPortHi = uint16(r.Intn(1024)), uint16(1024+r.Intn(60000))
		}
		if flip() {
			e.DstPortLo, e.DstPortHi = uint16(r.Intn(1024)), uint16(1024+r.Intn(60000))
		}
		return e
	}

	d := NewDevice(name("R"), vendor)
	d.ASN = netmodel.ASN(u32())
	if flip() {
		d.RouterID, d.Loopback = addr4(), addr4()
	}
	d.ISISEnabled, d.Isolated = flip(), flip()
	d.MaxPaths = 1 + r.Intn(8)
	for range upto(3) {
		i := &Interface{Name: name("eth"), ISISCost: u32(), TECost: u32(), Bandwidth: float64(r.Intn(100)) * 1e9 / float64(1+r.Intn(7))}
		if flip() {
			i.Addr = netip.PrefixFrom(addr4(), 30)
		}
		if flip() {
			i.ACLIn, i.ACLOut, i.PBR = name("ACL"), name("ACL"), name("PBR")
		}
		d.Interfaces[i.Name] = i
	}
	for range upto(2) {
		v := &VRF{Name: name("v"), RD: fmt.Sprintf("%d:%d", u32(), u32())}
		for range upto(2) {
			v.ImportRTs = append(v.ImportRTs, fmt.Sprintf("%d:%d", u32(), u32()))
			v.ExportRTs = append(v.ExportRTs, fmt.Sprintf("%d:%d", u32(), u32()))
		}
		if flip() {
			v.ExportPolicy = name("RM")
		}
		d.VRFs[v.Name] = v
	}
	for range upto(3) {
		nb := &Neighbor{Addr: addr4(), RemoteAS: netmodel.ASN(u32()), VRF: vrf(),
			RRClient: flip(), NextHopSelf: flip(), UpdateSource: flip()}
		if flip() {
			nb.ImportPolicy, nb.ExportPolicy = name("RM"), name("RM")
		}
		if flip() {
			nb.AddPaths = 2 + r.Intn(7)
		}
		if d.Neighbor(nb.Addr, nb.VRF) == nil {
			d.Neighbors = append(d.Neighbors, nb)
		}
	}
	for range upto(2) {
		d.Networks = append(d.Networks, prefix4())
		d.Aggregates = append(d.Aggregates, Aggregate{VRF: vrf(), Prefix: prefix4(), ASSet: flip(), SummaryOnly: flip()})
		rd := Redistribution{From: netmodel.Protocol(r.Intn(5))}
		if flip() {
			rd.Policy = name("RM")
		}
		d.Redistributes = append(d.Redistributes, rd)
		d.Statics = append(d.Statics, StaticRoute{VRF: vrf(), Prefix: prefix4(), NextHop: addr4(), Preference: u32()})
	}
	for i := range upto(2) {
		sp := &SRPolicy{Name: fmt.Sprintf("SR%d", i), Endpoint: addr4(), Color: u32()}
		for range upto(3) {
			sp.Segments = append(sp.Segments, name("dev-"))
		}
		d.SRPolicies = append(d.SRPolicies, sp)
	}
	for range upto(2) {
		pbr := name("PBR")
		m := acl()
		m.Permit = true
		d.PBRPolicies[pbr] = append(d.PBRPolicies[pbr], PBRRule{Name: pbr, Match: m, NextHop: addr4()})
	}
	for range upto(3) {
		l := &policy.PrefixList{Name: name("PL4-")}
		if flip() {
			l = &policy.PrefixList{Name: name("PL6-"), Family: policy.FamilyIPv6}
		}
		for range 1 + upto(2) {
			e := policy.PrefixEntry{Permit: flip(), Prefix: prefix4(), Ge: upto(32), Le: upto(32)}
			if l.Family == policy.FamilyIPv6 {
				e.Prefix, e.Ge, e.Le = prefix6(), upto(128), upto(128)
			}
			l.Entries = append(l.Entries, e)
		}
		if d.PrefixLists[l.Name] == nil {
			d.PrefixLists[l.Name] = l
		}
	}
	for range upto(2) {
		cl := &policy.CommunityList{Name: name("CL")}
		al := &policy.ASPathList{Name: name("AP")}
		acls := &policy.ACL{Name: name("ACL")}
		for range 1 + upto(2) {
			cl.Entries = append(cl.Entries, policy.CommunityEntry{Permit: flip(), Community: comm()})
			al.Entries = append(al.Entries, policy.ASPathEntry{Permit: flip(), Regex: pick("^65000_", ".* 123 .*", "(^|.* )6540( .*|$)")})
			acls.Entries = append(acls.Entries, acl())
		}
		d.CommunityLists[cl.Name], d.ASPathLists[al.Name], d.ACLs[acls.Name] = cl, al, acls
	}
	actions := []policy.Action{policy.ActionPermit, policy.ActionDeny, policy.ActionUnset}
	if vendor == "beta" { // an unset action renders as permit (Serialize)
		actions = actions[:2]
	}
	for range upto(3) {
		// A map may have no nodes: every one was removed ("no route-map X
		// deny 10"), which leaves a defined map that denies everything.
		rm := &policy.RouteMap{Name: name("RM")}
		for seq := range upto(3) {
			n := &policy.Node{Seq: 10 * (seq + 1), Action: actions[r.Intn(len(actions))]}
			for range upto(3) {
				m := policy.Match{Kind: policy.MatchKind(r.Intn(5))}
				switch m.Kind {
				case policy.MatchPeerAddr:
					m.Addr = addr4()
				case policy.MatchProtocol:
					m.Protocol = netmodel.Protocol(r.Intn(5))
				default:
					m.ListName = name("L")
				}
				n.Matches = append(n.Matches, m)
			}
			for range upto(4) {
				st := policy.Set{Kind: policy.SetKind(r.Intn(10))}
				switch st.Kind {
				case policy.SetCommunity:
					for range 1 + upto(2) {
						st.Communities = st.Communities.Add(comm())
					}
				case policy.AddCommunity, policy.DeleteCommunity:
					st.Community = comm()
				case policy.SetNextHop:
					st.NextHop = addr4()
				case policy.PrependASPath:
					st.ASN, st.Value = netmodel.ASN(u32()), u32()
				case policy.ReplaceASPath:
					for range 1 + upto(3) {
						st.ASPath.Seq = append(st.ASPath.Seq, netmodel.ASN(u32()))
					}
				default:
					st.Value = u32()
				}
				n.Sets = append(n.Sets, st)
			}
			rm.Nodes = append(rm.Nodes, n)
		}
		d.RouteMaps[rm.Name] = rm
	}
	return d
}

// roundTrip checks parse(serialize(d)) == d, but for beta's weight, which
// it has no way to write. Beta's other loss, an unset route-map action, is
// kept out of its models by genDevice.
func roundTrip(d *Device) error {
	text := Serialize(d)
	got, err := ParseDevice(d.Name, text)
	if err != nil {
		return fmt.Errorf("%s: %v\n%s", d.Vendor, err, text)
	}
	want := d.Clone()
	want.Lines = got.Lines
	if d.Vendor == "beta" {
		for _, rm := range want.RouteMaps {
			for _, n := range rm.Nodes {
				var kept []policy.Set
				for _, st := range n.Sets {
					if st.Kind != policy.SetWeight {
						kept = append(kept, st)
					}
				}
				n.Sets = kept
			}
		}
	}
	gv, wv := reflect.ValueOf(got).Elem(), reflect.ValueOf(want).Elem()
	for i := range gv.NumField() {
		if g, w := gv.Field(i).Interface(), wv.Field(i).Interface(); !reflect.DeepEqual(g, w) {
			return fmt.Errorf("%s: parse(serialize(d)).%s = %#v, want %#v\n%s", d.Vendor, gv.Type().Field(i).Name, g, w, text)
		}
	}
	return nil
}

// TestRandomizedRoundTripProperty: random models that use every field the
// dialects can write come back from their own text unchanged, in both
// dialects.
func TestRandomizedRoundTripProperty(t *testing.T) {
	rnd := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		for _, vendor := range []string{"alpha", "beta"} {
			if err := roundTrip(genDevice(rnd, vendor)); err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
		}
	}
}

// FuzzModelRoundTrip drives the same generator from the fuzzer's bytes, and
// round-trips each model a second time with every route map emptied.
func FuzzModelRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("\xff\x01\x80\x7f\x00\x10\x20\x30\x40\x50\x60\x70"))
	f.Add(bytes.Repeat([]byte{0xff}, 256)) // route maps in both dialects
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, vendor := range []string{"alpha", "beta"} {
			b := byteChooser(data)
			d := genDevice(&b, vendor)
			if err := roundTrip(d); err != nil {
				t.Fatal(err)
			}
			for _, rm := range d.RouteMaps {
				rm.Nodes = nil
			}
			if err := roundTrip(d); err != nil {
				t.Fatal(err)
			}
		}
	})
}
