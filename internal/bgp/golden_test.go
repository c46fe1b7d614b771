package bgp

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"net/netip"
	"slices"
	"strings"
	"testing"

	"hoyan/internal/gen"
	"hoyan/internal/isis"
	"hoyan/internal/netmodel"
	"hoyan/internal/traffic"
)

// ribDigest is a SHA-256 over the global RIB's rows in canonical order, each
// as its injective signature.
func ribDigest(g *netmodel.GlobalRIB) string {
	h := sha256.New()
	var buf []byte
	for _, r := range g.Rows() {
		buf = r.AppendSignature(buf[:0])
		h.Write(buf)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// flowDigest is a SHA-256 over every representative path in flow order and
// the exact float bits of every link load in link order.
func flowDigest(tr *traffic.Result) string {
	h := sha256.New()
	for _, fp := range tr.Paths {
		fmt.Fprintf(h, "%v|%v\n", fp.Flow, fp.Path)
	}
	ids := make([]netmodel.LinkID, 0, len(tr.Load))
	for id := range tr.Load {
		ids = append(ids, id)
	}
	slices.SortFunc(ids, func(a, b netmodel.LinkID) int { return strings.Compare(a.String(), b.String()) })
	var fb [8]byte
	for _, id := range ids {
		fmt.Fprintf(h, "%s=", id)
		binary.LittleEndian.PutUint64(fb[:], math.Float64bits(tr.Load[id]))
		h.Write(fb[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// fixtureFlows is one flow from every device to the first host of every
// distinct input prefix.
func fixtureFlows(b *netBuilder, inputs []netmodel.Route) []netmodel.Flow {
	var flows []netmodel.Flow
	seen := map[netip.Prefix]bool{}
	for _, r := range inputs {
		if seen[r.Prefix] {
			continue
		}
		seen[r.Prefix] = true
		for _, dev := range b.net.DeviceNames() {
			flows = append(flows, netmodel.Flow{
				Src: b.net.Devices[dev].Loopback, Dst: r.Prefix.Addr().Next(),
				SrcPort: 1000, DstPort: 80, Proto: netmodel.ProtoTCP, Ingress: dev, Volume: 1e6,
			})
		}
	}
	return flows
}

// TestGoldenDigests pins the simulation of parallelFixture, with and without
// duplicate inputs, to digests frozen when the string-keyed reference engine
// still shipped: both engines produced them, and they must not move. Each run
// is also a stable state.
func TestGoldenDigests(t *testing.T) {
	golden := []struct {
		name      string
		rib       string
		rows      int
		pathsLoad string
	}{
		{"parallelFixture", "d956c428b8fd634aacbd88be38aa1aee3b11e5520cf7466daf593bef33d8a917", 183, "d1848532d83783f52323a2217256c8c6bc5e26f902e58ffea83be39366a0ca94"},
		{"parallelFixture with duplicate inputs", "903d7eebf5cabdd205964b5e538c720c57d25630b467b4973158ee7bd593c14e", 191, "d1848532d83783f52323a2217256c8c6bc5e26f902e58ffea83be39366a0ca94"},
	}
	b, inputs := parallelFixture()
	igp := isis.Compute(b.net.Topo, isis.Options{})
	for i, in := range [][]netmodel.Route{inputs, gen.WithDuplicateInputs(inputs)} {
		want := golden[i]
		flows := fixtureFlows(b, in)
		for _, p := range []int{1, 2, 8} {
			res := Simulate(b.net, igp, in, Options{Parallelism: p})
			g := res.GlobalRIB()
			tr := traffic.NewForwarder(b.net, igp, res, traffic.Options{Parallelism: p}).Simulate(flows)
			if got := ribDigest(g); got != want.rib || g.Len() != want.rows {
				t.Errorf("%s, parallelism %d: RIB digest %s over %d rows, want %s over %d", want.name, p, got, g.Len(), want.rib, want.rows)
			}
			if got := flowDigest(tr); got != want.pathsLoad {
				t.Errorf("%s, parallelism %d: paths + loads digest %s, want %s", want.name, p, got, want.pathsLoad)
			}
			mustCheck(t, fmt.Sprintf("%s, parallelism %d", want.name, p), b.net, igp, in, res)
		}
	}
}
