package bgp

import (
	"maps"
	"net/netip"
	"testing"

	"hoyan/internal/config"
	"hoyan/internal/isis"
	"hoyan/internal/netmodel"
)

func pfx(s string) netip.Prefix { return netip.MustParsePrefix(s) }

// TestSplitUnits is the table test of the splitter: which originated prefixes
// each aggregate configuration couples into one independence group, that a
// group never straddles work units, that the split loses no candidate, and
// that the multi-unit run of every case equals the sequential one.
func TestSplitUnits(t *testing.T) {
	cases := []struct {
		name string
		// configure replaces the fixture's aggregates and may add inputs.
		configure func(b *netBuilder) []netmodel.Route
		// groups maps originated prefixes to their expected group key.
		groups map[string]string
		single bool // everything is one group: no units
	}{
		{
			name:      "no aggregates",
			configure: func(b *netBuilder) []netmodel.Route { return nil },
			groups: map[string]string{
				"10.0.1.0/24": "10.0.1.0/24", "10.64.1.0/24": "10.64.1.0/24",
				"172.20.1.0/24": "172.20.1.0/24", "192.168.1.0/24": "192.168.1.0/24",
			},
		},
		{
			name: "nested aggregates on two devices",
			configure: func(b *netBuilder) []netmodel.Route {
				b.Net.Devices["A"].Aggregates = []config.Aggregate{{VRF: netmodel.DefaultVRF, Prefix: pfx("10.0.0.0/8")}}
				b.Net.Devices["RR"].Aggregates = []config.Aggregate{
					{VRF: netmodel.DefaultVRF, Prefix: pfx("10.64.0.0/10")},
					{VRF: netmodel.DefaultVRF, Prefix: pfx("10.64.0.0/16")},
				}
				return nil
			},
			groups: map[string]string{
				"10.0.1.0/24": "10.0.0.0/8", "10.64.1.0/24": "10.0.0.0/8", "10.64.11.0/24": "10.0.0.0/8",
				"172.20.1.0/24": "172.20.1.0/24", "172.20.2.0/24": "172.20.2.0/24",
			},
		},
		{
			name: "summary-only",
			configure: func(b *netBuilder) []netmodel.Route {
				b.Net.Devices["A"].Aggregates = []config.Aggregate{{VRF: netmodel.DefaultVRF, Prefix: pfx("10.64.0.0/10"), SummaryOnly: true}}
				return nil
			},
			groups: map[string]string{
				"10.64.0.0/24": "10.64.0.0/10", "10.64.11.0/24": "10.64.0.0/10",
				"10.0.1.0/24": "10.0.1.0/24", "172.20.1.0/24": "172.20.1.0/24",
			},
		},
		{
			name: "as-set, input equal to the aggregate prefix",
			configure: func(b *netBuilder) []netmodel.Route {
				b.Net.Devices["A"].Aggregates = []config.Aggregate{{VRF: netmodel.DefaultVRF, Prefix: pfx("10.0.0.0/16"), ASSet: true}}
				return []netmodel.Route{inputRoute("E", "10.0.0.0/16", 65100, 65777)}
			},
			groups: map[string]string{
				"10.0.0.0/16": "10.0.0.0/16", "10.0.1.0/24": "10.0.0.0/16", "10.0.11.0/24": "10.0.0.0/16",
				"10.64.1.0/24": "10.64.1.0/24",
			},
		},
		{
			name: "aggregate in a VRF fed by leaking",
			configure: func(b *netBuilder) []netmodel.Route {
				// The contributors are seeded in v1 and reach v2 only as leaks.
				b.Net.Devices["C1"].Aggregates = []config.Aggregate{{VRF: "v2", Prefix: pfx("192.168.0.0/16"), ASSet: true}}
				return nil
			},
			groups: map[string]string{
				"192.168.0.0/24": "192.168.0.0/16", "192.168.3.0/24": "192.168.0.0/16",
				"10.0.1.0/24": "10.0.1.0/24",
			},
		},
		{
			name: "contributors originated by configuration only",
			configure: func(b *netBuilder) []netmodel.Route {
				c2 := b.Net.Devices["C2"]
				c2.Networks = append(c2.Networks, pfx("10.99.1.0/24"), pfx("10.99.2.0/24"))
				c2.Aggregates = []config.Aggregate{{VRF: netmodel.DefaultVRF, Prefix: pfx("10.99.0.0/16")}}
				return nil
			},
			groups: map[string]string{
				"10.99.1.0/24": "10.99.0.0/16", "10.99.2.0/24": "10.99.0.0/16",
				"10.0.1.0/24": "10.0.1.0/24",
			},
		},
		{
			name: "one aggregate covering everything",
			configure: func(b *netBuilder) []netmodel.Route {
				b.Net.Devices["RR"].Aggregates = []config.Aggregate{{VRF: netmodel.DefaultVRF, Prefix: pfx("0.0.0.0/0")}}
				return nil
			},
			groups: map[string]string{"10.0.1.0/24": "0.0.0.0/0", "172.20.1.0/24": "0.0.0.0/0", "1.0.0.2/32": "0.0.0.0/0"},
			single: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b, inputs := parallelFixture()
			b.Net.Devices["A"].Aggregates = nil
			inputs = append(inputs, tc.configure(b)...)
			igp := isis.Compute(b.Net.Topo, isis.Options{})

			groups := Groups(b.Net)
			for p, want := range tc.groups {
				if got := groups.Of(pfx(p)); got != pfx(want) {
					t.Errorf("group of %s = %s, want %s", p, got, want)
				}
			}

			s := newSim(b.Net, igp, Options{})
			s.originateLocals(inputs, nil)
			units := s.splitUnits(8)
			if tc.single {
				if units != nil {
					t.Fatalf("one group split into %d units", len(units))
				}
			} else {
				if len(units) != 8 {
					t.Fatalf("split into %d units, want 8", len(units))
				}
				unitOfGroup := map[netip.Prefix]int{}
				cands := 0
				for i, u := range units {
					for k, ut := range u.tables {
						for p, cs := range flat(&ut.locals) {
							if want := len(s.tables[k].locals.Get(p)); len(cs) != want {
								t.Errorf("unit %d holds %d candidates for %v %s, want %d", i, len(cs), k, p, want)
							}
							cands += len(cs)
							g := groups.Of(p)
							if prev, seen := unitOfGroup[g]; seen && prev != i {
								t.Errorf("group %s straddles units %d and %d", g, prev, i)
							}
							unitOfGroup[g] = i
						}
					}
				}
				want := 0
				for _, st := range s.tables {
					for _, cs := range flat(&st.locals) {
						want += len(cs)
					}
				}
				if cands != want {
					t.Errorf("units hold %d candidates, originated %d", cands, want)
				}
			}
			checkParallelisms(t, tc.name, b.Net, igp, inputs, !tc.single)
		})
	}
}

// TestSplitUnitsOneWorker: with one worker the run is the sequential loop.
func TestSplitUnitsOneWorker(t *testing.T) {
	b, inputs := parallelFixture()
	s := newSim(b.Net, isis.Compute(b.Net.Topo, isis.Options{}), Options{})
	s.originateLocals(inputs, nil)
	if units := s.splitUnits(1); units != nil {
		t.Fatalf("one worker split into %d units", len(units))
	}
}

// TestCarriedPrefixes is the table test of the carried set, which sizes every
// default-VRF table (tableHint): the cold restart holds the prefixes of its
// BGP candidates and configured aggregates, and nothing that stays in its
// own table; each work unit holds its groups' share; a warm restart reads
// its State's.
func TestCarriedPrefixes(t *testing.T) {
	// A and B are alpha and beta, D is down. Links: A–B 172.16.0.4/30
	// (A .5, B .6), A–D 172.16.0.8/30 (A .9, D .10).
	fixture := func() *netBuilder {
		b := newBuilder()
		b.device("A", "alpha", 65001, "1.0.0.1")
		b.device("B", "beta", 65002, "1.0.0.2")
		b.device("D", "alpha", 65003, "1.0.0.3")
		b.link("A", "B", 10)
		b.link("A", "D", 10)
		b.ebgp("A", "B")
		b.Net.Topo.SetNodeUp("D", false)
		for _, d := range b.Net.Devices {
			d.Statics = append(d.Statics, config.StaticRoute{Prefix: pfx("10.9.0.0/16"), NextHop: d.Loopback})
		}
		return b
	}
	redistribute := func(b *netBuilder, dev string, from netmodel.Protocol) {
		d := b.Net.Devices[dev]
		d.Redistributes = append(d.Redistributes, config.Redistribution{From: from})
	}
	cases := []struct {
		name      string
		configure func(b *netBuilder) []netmodel.Route
		want      []string
	}{
		{
			name:      "interface subnets, host routes, loopbacks and statics stay local",
			configure: func(*netBuilder) []netmodel.Route { return nil },
		},
		{
			name: "redistributed connected, with host routes where the vendor redistributes them",
			configure: func(b *netBuilder) []netmodel.Route {
				redistribute(b, "A", netmodel.ProtoDirect)
				redistribute(b, "B", netmodel.ProtoDirect)
				return nil
			},
			want: []string{
				"172.16.0.4/30", "172.16.0.8/30", "172.16.0.5/32", "172.16.0.9/32", "1.0.0.1/32", // A, alpha
				"1.0.0.2/32", // B, beta: its subnet is A's, no host route
			},
		},
		{
			name: "redistributed statics",
			configure: func(b *netBuilder) []netmodel.Route {
				redistribute(b, "B", netmodel.ProtoStatic)
				return nil
			},
			want: []string{"10.9.0.0/16"},
		},
		{
			name: "inputs, network statements and aggregates, each prefix once",
			configure: func(b *netBuilder) []netmodel.Route {
				b.Net.Devices["B"].Networks = []netip.Prefix{pfx("10.3.0.0/24"), pfx("10.1.0.0/24")}
				b.Net.Devices["A"].Aggregates = []config.Aggregate{{VRF: netmodel.DefaultVRF, Prefix: pfx("10.0.0.0/8")}}
				return []netmodel.Route{
					inputRoute("A", "10.1.0.0/24", 65100), inputRoute("B", "10.1.0.0/24", 65100),
					inputRoute("B", "10.2.0.0/24", 65100),
				}
			},
			want: []string{"10.0.0.0/8", "10.1.0.0/24", "10.2.0.0/24", "10.3.0.0/24"},
		},
		{
			name: "nothing at a down device",
			configure: func(b *netBuilder) []netmodel.Route {
				b.Net.Devices["D"].Networks = []netip.Prefix{pfx("10.5.0.0/24")}
				redistribute(b, "D", netmodel.ProtoDirect)
				return []netmodel.Route{inputRoute("D", "10.4.0.0/24", 65100), inputRoute("A", "10.1.0.0/24", 65100)}
			},
			want: []string{"10.1.0.0/24"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := fixture()
			inputs := tc.configure(b)
			igp := isis.Compute(b.Net.Topo, isis.Options{})
			want := make(map[netip.Prefix]bool)
			for _, p := range tc.want {
				want[pfx(p)] = true
			}

			s := (&State{opts: Options{}}).restart(nil, b.Net, igp, inputs, Delta{})
			if !maps.Equal(s.carried, want) {
				t.Errorf("carried %v, want %v", s.carried, tc.want)
			}
			units := s.splitUnits(8)
			if units == nil {
				t.Fatal("fixture: no split into units")
			}
			n := 0
			for _, u := range units {
				for p := range u.carried {
					if !want[p] {
						t.Errorf("a unit carries %s", p)
					}
				}
				n += len(u.carried)
			}
			if n != len(want) {
				t.Errorf("units carry %d prefixes, the single sim %d", n, len(want))
			}
			for _, p := range []int{1, 2} {
				_, st := SimulateWithState(b.Net, igp, inputs, Options{Parallelism: p})
				if w := st.restart(nil, b.Net, igp, inputs, Delta{}); !maps.Equal(w.carried, want) {
					t.Errorf("parallelism %d: a warm restart carries %v, want %v", p, w.carried, tc.want)
				}
			}
		})
	}
}
