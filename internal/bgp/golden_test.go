package bgp

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"maps"
	"math"
	"net/netip"
	"slices"
	"strings"
	"testing"

	"hoyan/internal/config"
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
		for _, dev := range b.Net.DeviceNames() {
			flows = append(flows, netmodel.Flow{
				Src: b.Net.Devices[dev].Loopback, Dst: r.Prefix.Addr().Next(),
				SrcPort: 1000, DstPort: 80, Proto: netmodel.ProtoTCP, Ingress: dev, Volume: 1e6,
			})
		}
	}
	return flows
}

// competeFixture gives one AS two eBGP exits for the same prefixes, so every
// (table, prefix) of the AS holds two BGP candidates. The exits keep their own
// eBGP route (administrative preference); at R1 and R2 the decision turns, per
// prefix, on a different step of cmpCand:
//
//	10.1/16, 10.5/16  local preference (set to 200 on import at X2, resp. X1)
//	10.2/16, 10.6/16  AS-path length (the other exit's path is one AS longer)
//	10.3/16, 10.7/16  MED (the other exit's is higher)
//	10.4/16           IGP cost to the exit: R1 is nearer X1, R2 nearer X2
//
// E1 -- X1 -- R1 -- R2 -- X2 -- E2, plus a costly X1 -- X2 link; E1/E2 are the
// external peers the inputs enter at, X1/X2/R1/R2 an iBGP full mesh with
// next-hop-self at the exits.
func competeFixture(t *testing.T) (*netBuilder, []netmodel.Route) {
	b := newBuilder()
	b.device("E1", "alpha", 64901, "1.0.0.1")
	b.device("E2", "alpha", 64902, "1.0.0.2")
	for i, name := range []string{"X1", "X2", "R1", "R2"} {
		b.device(name, "alpha", 65001, fmt.Sprintf("1.0.0.%d", 3+i))
	}
	b.link("E1", "X1", 10)
	b.link("E2", "X2", 10)
	b.link("X1", "R1", 10)
	b.link("R1", "R2", 10)
	b.link("R2", "X2", 10)
	b.link("X1", "X2", 50)
	b.ebgp("E1", "X1")
	b.ebgp("E2", "X2")
	mesh := []string{"X1", "X2", "R1", "R2"}
	for i := range mesh {
		for _, o := range mesh[i+1:] {
			b.ibgp(mesh[i], o)
		}
	}
	nextHopSelfAll(b, "X1")
	nextHopSelfAll(b, "X2")
	b.Net.Devices["E1"].Interfaces["ext"] = &config.Interface{Name: "ext", Addr: netip.MustParsePrefix("203.0.113.2/24")}
	b.Net.Devices["E2"].Interfaces["ext"] = &config.Interface{Name: "ext", Addr: netip.MustParsePrefix("198.51.100.2/24")}
	for exit, prefix := range map[string]string{"X2": "10.1.0.0/16", "X1": "10.5.0.0/16"} {
		d, err := config.ParseDevice(exit, "ip prefix-list PREFER permit "+prefix+"\n"+
			"route-map LP permit 10\n match ip-prefix PREFER\n set local-preference 200\n"+
			"route-map LP permit 20\n")
		if err != nil {
			t.Fatal(err)
		}
		x := b.Net.Devices[exit]
		maps.Copy(x.PrefixLists, d.PrefixLists)
		maps.Copy(x.RouteMaps, d.RouteMaps)
		for _, nb := range x.Neighbors {
			if nb.RemoteAS != x.ASN {
				nb.ImportPolicy = "LP"
			}
		}
	}
	via := func(exit, prefix string, med uint32, path ...netmodel.ASN) netmodel.Route {
		r := inputRoute(exit, prefix, path...)
		if exit == "E2" {
			r.NextHop = netip.MustParseAddr("198.51.100.1")
		}
		return withMED(r, med)
	}
	b.Network()
	return b, []netmodel.Route{
		via("E1", "10.1.0.0/16", 0, 65100), via("E2", "10.1.0.0/16", 0, 65100),
		via("E1", "10.2.0.0/16", 0, 65100), via("E2", "10.2.0.0/16", 0, 65100, 65101),
		via("E1", "10.3.0.0/16", 50, 65100), via("E2", "10.3.0.0/16", 10, 65100),
		via("E1", "10.4.0.0/16", 0, 65100), via("E2", "10.4.0.0/16", 0, 65100),
		via("E1", "10.5.0.0/16", 0, 65100), via("E2", "10.5.0.0/16", 0, 65100),
		via("E1", "10.6.0.0/16", 0, 65100, 65101), via("E2", "10.6.0.0/16", 0, 65100),
		via("E1", "10.7.0.0/16", 10, 65100), via("E2", "10.7.0.0/16", 50, 65100),
	}
}

// TestGoldenDigests pins the simulation of parallelFixture, with and without
// duplicate inputs, to digests frozen when the string-keyed reference engine
// still shipped: both engines produced them, and they must not move; and that
// of competeFixture, whose interior decisions each turn on one comparator
// step, to digests frozen before the fixpoint's per-table state became one
// record. Each run is also a stable state.
func TestGoldenDigests(t *testing.T) {
	golden := []struct {
		name      string
		rib       string
		rows      int
		pathsLoad string
	}{
		{"parallelFixture", "d956c428b8fd634aacbd88be38aa1aee3b11e5520cf7466daf593bef33d8a917", 183, "d1848532d83783f52323a2217256c8c6bc5e26f902e58ffea83be39366a0ca94"},
		{"parallelFixture with duplicate inputs", "903d7eebf5cabdd205964b5e538c720c57d25630b467b4973158ee7bd593c14e", 191, "d1848532d83783f52323a2217256c8c6bc5e26f902e58ffea83be39366a0ca94"},
		{"competeFixture", "22e2a305735355a896d379ff892d8da1ac1d2b20770f511a70e4a4b84015986a", 104, "dd9320d4e9ea6b7f6a533ab7a9f0c34c273fbfff7066d2a8dc302e4af2425802"},
	}
	b, inputs := parallelFixture()
	cb, cinputs := competeFixture(t)
	type fixture struct {
		b      *netBuilder
		inputs []netmodel.Route
	}
	for i, fx := range []fixture{{b, inputs}, {b, gen.WithDuplicateInputs(inputs)}, {cb, cinputs}} {
		b, in := fx.b, fx.inputs
		igp := isis.Compute(b.Net.Topo, isis.Options{})
		want := golden[i]
		flows := fixtureFlows(b, in)
		for _, p := range []int{1, 2, 8} {
			res := Simulate(b.Net, igp, in, Options{Parallelism: p})
			g := res.GlobalRIB()
			tr := traffic.NewForwarder(b.Net, igp, res, traffic.Options{Parallelism: p}).Simulate(flows)
			if got := ribDigest(g); got != want.rib || g.Len() != want.rows {
				t.Errorf("%s, parallelism %d: RIB digest %s over %d rows, want %s over %d", want.name, p, got, g.Len(), want.rib, want.rows)
			}
			if got := flowDigest(tr); got != want.pathsLoad {
				t.Errorf("%s, parallelism %d: paths + loads digest %s, want %s", want.name, p, got, want.pathsLoad)
			}
			mustCheck(t, fmt.Sprintf("%s, parallelism %d", want.name, p), b.Net, igp, in, res)
		}
	}
}
