package netmodel

import (
	"encoding/hex"
	"net/netip"
	"testing"
)

// signatureRows are hand-built rows covering every branch of AppendSignature:
// the zero row, empty and non-empty communities, an AS_SEQUENCE and an
// AS_SET, IPv4 and IPv6 prefixes, an invalid next hop, values past the
// one-byte varint range, and non-empty provenance.
func signatureRows() []Route {
	v4 := netip.MustParsePrefix("10.1.2.0/24")
	comms := NewCommunitySet(NewCommunity(65000, 1), NewCommunity(65000, 666))
	return []Route{
		{},
		{Device: "rr-0-0", VRF: DefaultVRF, Prefix: v4, Protocol: ProtoBGP,
			NextHop: netip.MustParseAddr("192.0.2.1"), Attrs: &Attrs{LocalPref: 100, Origin: OriginIGP},
			RouteType: RouteBest},
		{Device: "rr-0-0", VRF: DefaultVRF, Prefix: v4, Protocol: ProtoBGP,
			NextHop: netip.MustParseAddr("192.0.2.1"), Attrs: &Attrs{Communities: comms,
				LocalPref: 200, MED: 50, Weight: 32768, Preference: 170,
				ASPath: ASPath{Seq: []ASN{65000, 65001, 4200000000}}, Origin: OriginEGP},
			IGPCost: 300000, RouteType: RouteCandidate, ViaSR: true},
		{Device: "border-1-0", VRF: "vpn-a", Prefix: netip.MustParsePrefix("10.8.0.0/16"),
			Protocol: ProtoAggregate, Attrs: &Attrs{ASPath: ASPath{Seq: []ASN{65010}, Set: []ASN{65020, 65011}},
				Origin: OriginIncomplete}, Source: "border-1-0", Peer: "aggregate"},
		{Device: "dc-0-0", VRF: DefaultVRF, Prefix: netip.MustParsePrefix("2001:db8:1::/48"),
			Protocol: ProtoBGP, NextHop: netip.MustParseAddr("2001:db8::1"),
			Attrs: &Attrs{Communities: NewCommunitySet(NewCommunity(1, 2)), MED: 7}, RouteType: RouteBest},
		{Device: "core-0-0", VRF: DefaultVRF, Prefix: netip.MustParsePrefix("10.0.0.0/8"),
			Protocol: ProtoStatic, Attrs: &Attrs{Preference: 1}, RouteType: RouteCandidate},
		{Device: "core-0-0", VRF: DefaultVRF, Prefix: netip.MustParsePrefix("192.0.2.0/24"),
			Protocol: ProtoBGP, NextHop: netip.MustParseAddr("192.0.2.9"), Attrs: &Attrs{LocalPref: 100},
			Peer: "rr-0-0", Source: "border-0-0", RouteType: RouteBest},
		{Device: "core-0-0", VRF: DefaultVRF, Prefix: netip.MustParsePrefix("192.0.2.0/24"),
			Protocol: ProtoDirect, NextHop: netip.MustParseAddr("192.0.2.1"),
			Peer: "direct", Source: "core-0-0"},
	}
}

// TestSignatureGolden freezes AppendSignature's bytes: the digests hash them
// per row, so a change here changes every digest. A change of the route's
// representation must leave these hex strings as they are.
func TestSignatureGolden(t *testing.T) {
	want := []string{
		"000000ff000000000000000000000000000000",
		"0672722d302d3006676c6f62616c0100000000000000000000ffff0a01020018000100000000000000000000ffffc000020100640000000000000001000000",
		"0672722d302d3006676c6f62616c0100000000000000000000ffff0a01020018000100000000000000000000ffffc0000201028180a0ef0f9a85a0ef0fc80132808002aa0103e8fb03e9fb0380d4dbd20f0001e0a71200010000",
		"0a626f726465722d312d300576706e2d610100000000000000000000ffff0a080000100400000000000001f2fb0302fcfb03f3fb0302000000096167677265676174650a626f726465722d312d30",
		"0664632d302d3006676c6f62616c0120010db800010000000000000000000030000120010db800000000000000000000000101828004000700000000000001000000",
		"08636f72652d302d3006676c6f62616c0100000000000000000000ffff0a00000008020000000000010000000000000000",
		"08636f72652d302d3006676c6f62616c0100000000000000000000ffffc000020018000100000000000000000000ffffc000020900640000000000000001000672722d302d300a626f726465722d302d30",
		"08636f72652d302d3006676c6f62616c0100000000000000000000ffffc000020018030100000000000000000000ffffc000020100000000000000000000000664697265637408636f72652d302d30",
	}
	rows := signatureRows()
	if len(rows) != len(want) {
		t.Fatalf("%d rows, %d golden signatures", len(rows), len(want))
	}
	for i, r := range rows {
		if got := hex.EncodeToString(r.AppendSignature(nil)); got != want[i] {
			t.Errorf("row %d: signature\n got %s\nwant %s", i, got, want[i])
		}
	}
}
