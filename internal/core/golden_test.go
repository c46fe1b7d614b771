package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"hoyan/internal/bgp"
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

// goldenFixtures is gen.WAN(1) and four seeded degradations of it: one to
// three links down, and a node on every other seed — partitioned
// topologies, dead sessions, withdrawn routes and rerouted traffic.
func goldenFixtures() []*gen.Output {
	base := gen.Generate(gen.WAN(1))
	out := []*gen.Output{base}
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		net := base.Net.Clone()
		links := net.Topo.Links()
		for i := 1 + rng.Intn(3); i > 0; i-- {
			net.Topo.SetLinkUp(links[rng.Intn(len(links))].ID(), false)
		}
		if rng.Intn(2) == 0 {
			names := net.Topo.NodeNames()
			net.Topo.SetNodeUp(names[rng.Intn(len(names))], false)
		}
		degraded := *base
		degraded.Net = net
		out = append(out, &degraded)
	}
	return out
}

// TestGoldenDigests pins the engine on goldenFixtures to digests frozen when
// the string-keyed reference engine still shipped: both engines produced
// them, and they must not move at any parallelism. With route ECs off, the
// same fixtures' RIBs are stable states.
func TestGoldenDigests(t *testing.T) {
	golden := []struct {
		name      string
		rib       string
		rows      int
		pathsLoad string
	}{
		{"WAN(1)", "50384873a8c57a31cc2ba0d001a68f6d004efeebd1ba8d659a256d2dd145e9dd", 2074, "e0b76c6711e16c200b5241e834ef1fc2263eb90519dbc4301a55a67af2fedb39"},
		{"WAN(1) degraded, seed 1", "8b911e26477cb888aa4a2cb57e786bd318b1c262aac0b2615364d998db7bf694", 2074, "25e37f38aa2331d2758bcf3a23782eeffc2a021ef2099328e32b8da1c021202a"},
		{"WAN(1) degraded, seed 2", "6138e6abd617df7e38a500b617f1313593ce51c96c33cd9867600908343b84a9", 1795, "503dfc84fe257c86a3d59ecb117b3f93bc74fd4a1a6fe784797a81e11e5eb274"},
		{"WAN(1) degraded, seed 3", "16a8cd3af82786167a82ac3f5b15761e1f6aec6ece6155e73f7d2d4cac7b622a", 1792, "f59b0f0595e8557319719680e972cafd9c84898c19b868d4abe88362d8b32956"},
		{"WAN(1) degraded, seed 4", "02dddff68658325af59a0c949cb4a7518b4e13770f3a3e48c76e47c70157305e", 2074, "e95ce9f8f7352398aa02e38732ddca685c22286a22ed243ca7b2a4245b67e1f3"},
	}
	for i, fx := range goldenFixtures() {
		want := golden[i]
		for _, p := range []int{1, 0} {
			res := NewEngine(fx.Net, Options{Parallelism: p}).Run(fx.Inputs, fx.Flows)
			g := res.Routes.GlobalRIB()
			if got := ribDigest(g); got != want.rib || g.Len() != want.rows {
				t.Errorf("%s, parallelism %d: RIB digest %s over %d rows, want %s over %d", want.name, p, got, g.Len(), want.rib, want.rows)
			}
			if got := flowDigest(res.Traffic.Traffic); got != want.pathsLoad {
				t.Errorf("%s, parallelism %d: paths + loads digest %s, want %s", want.name, p, got, want.pathsLoad)
			}
		}
		eng := NewEngine(fx.Net, Options{DisableRouteECs: true})
		checkRIB(t, want.name+", route ECs off", eng, fx.Net, fx.Inputs, eng.RouteSimulation(fx.Inputs).GlobalRIB())
	}
}

// checkRIB fails unless rib — a run of eng's options over net and inputs
// with route ECs off — passes the stable-state check.
func checkRIB(t *testing.T, label string, eng *Engine, net *config.Network, inputs []netmodel.Route, rib *netmodel.GlobalRIB) {
	t.Helper()
	igp := isis.Compute(net.Topo, isis.Options{})
	if err := bgp.Check(net, igp, inputs, rib, eng.bgpOptions(nil)); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
}
