package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"sort"
	"testing"

	"hoyan/internal/config"
	"hoyan/internal/diagnosis"
	"hoyan/internal/gen"
)

// networkDigest hashes what a network builder produces: every device's
// serialized configuration in name order, then every topology node and link
// with all of their fields.
func networkDigest(n *config.Network) string {
	h := sha256.New()
	names := make([]string, 0, len(n.Devices))
	for name := range n.Devices {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		io.WriteString(h, name+"\x00"+config.Serialize(n.Devices[name])+"\x00")
	}
	for _, nd := range n.Topo.Nodes() {
		fmt.Fprintf(h, "node %s %s %v\n", nd.Name, nd.Loopback, nd.Up)
	}
	for _, l := range n.Topo.Links() {
		fmt.Fprintf(h, "link %s %s %s %s %s %s %s %s %d %d %d %d %g %v\n",
			l.A, l.B, l.AIface, l.BIface, l.ANet, l.BNet, l.AAddr, l.BAddr,
			l.CostAB, l.CostBA, l.TEAB, l.TEBA, l.Bandwidth, l.Up)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestHandBuiltNetworkDigests pins, byte for byte, the networks that the
// case studies, the diagnosis probe and the synthetic WAN generator build.
func TestHandBuiltNetworkDigests(t *testing.T) {
	cases := []struct {
		name string
		net  func() *config.Network
		want string
	}{
		{"Fig10a", func() *config.Network { return Fig10a().Net }, "6ae7151ca5765b75d243424946082a2fe7f2d8548bee935102d39d9fd6ab568c"},
		{"Fig10b", func() *config.Network { return Fig10b().Net }, "42c26227de03a25ba1592edc9e8402ac5fba0f8d29914cd4a548aaa28d3117de"},
		// The H3–B3 TE metric is configured on both interfaces ("isis
		// te-cost 200"), which the topology derives it from.
		{"BuildProbe", func() *config.Network { return diagnosis.BuildProbe().Net }, "326b0fde8993bf7dbb8d9c4f9f79ef67b7491cb424ed0b6ea427d4c3c2343bd2"},
		{"WAN(1)", func() *config.Network { return gen.Generate(gen.WAN(1)).Net }, "78f8d24bc0ed88031e063d7bad6833ace71fae124550207ca9213a43809dc037"},
		{"WAN(4)", func() *config.Network { return gen.Generate(gen.WAN(4)).Net }, "5c5a5862822216d9453faf45e17fa3bfe6311e11069ca212cc2bf65a55c1d1df"},
		{"WAN(10)", func() *config.Network { return gen.Generate(gen.WAN(10)).Net }, "7afe02bae159863ad13addf1aae3935917e637cd326b07b2a2239606d24388ca"},
		{"WANDCN(2)", func() *config.Network { return gen.Generate(gen.WANDCN(2)).Net }, "d951a0de65d4870da6e86a30cb0085451414162da5cbe971d98f0479575cae77"},
	}
	for _, c := range cases {
		if got := networkDigest(c.net()); got != c.want {
			t.Errorf("%s: network digest %s, want %s", c.name, got, c.want)
		}
	}
}
