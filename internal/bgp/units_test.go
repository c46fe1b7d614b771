package bgp

import (
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
				b.net.Devices["A"].Aggregates = []config.Aggregate{{VRF: netmodel.DefaultVRF, Prefix: pfx("10.0.0.0/8")}}
				b.net.Devices["RR"].Aggregates = []config.Aggregate{
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
				b.net.Devices["A"].Aggregates = []config.Aggregate{{VRF: netmodel.DefaultVRF, Prefix: pfx("10.64.0.0/10"), SummaryOnly: true}}
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
				b.net.Devices["A"].Aggregates = []config.Aggregate{{VRF: netmodel.DefaultVRF, Prefix: pfx("10.0.0.0/16"), ASSet: true}}
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
				b.net.Devices["C1"].Aggregates = []config.Aggregate{{VRF: "v2", Prefix: pfx("192.168.0.0/16"), ASSet: true}}
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
				c2 := b.net.Devices["C2"]
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
				b.net.Devices["RR"].Aggregates = []config.Aggregate{{VRF: netmodel.DefaultVRF, Prefix: pfx("0.0.0.0/0")}}
				return nil
			},
			groups: map[string]string{"10.0.1.0/24": "0.0.0.0/0", "172.20.1.0/24": "0.0.0.0/0", "1.0.0.2/32": "0.0.0.0/0"},
			single: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b, inputs := parallelFixture()
			b.net.Devices["A"].Aggregates = nil
			inputs = append(inputs, tc.configure(b)...)
			igp := isis.Compute(b.net.Topo, isis.Options{})

			roots := aggregateRoots(b.net)
			for p, want := range tc.groups {
				if got := roots.groupOf(pfx(p)); got != pfx(want) {
					t.Errorf("group of %s = %s, want %s", p, got, want)
				}
			}

			s := newSim(b.net, igp, Options{})
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
						for p, cs := range ut.locals {
							if want := len(s.tables[k].locals[p]); len(cs) != want {
								t.Errorf("unit %d holds %d candidates for %v %s, want %d", i, len(cs), k, p, want)
							}
							cands += len(cs)
							g := roots.groupOf(p)
							if prev, seen := unitOfGroup[g]; seen && prev != i {
								t.Errorf("group %s straddles units %d and %d", g, prev, i)
							}
							unitOfGroup[g] = i
						}
					}
				}
				want := 0
				for _, st := range s.tables {
					for _, cs := range st.locals {
						want += len(cs)
					}
				}
				if cands != want {
					t.Errorf("units hold %d candidates, originated %d", cands, want)
				}
			}
			checkParallelisms(t, tc.name, b.net, igp, inputs, !tc.single)
		})
	}
}

// TestSplitUnitsOneWorker: with one worker the run is the sequential loop.
func TestSplitUnitsOneWorker(t *testing.T) {
	b, inputs := parallelFixture()
	s := newSim(b.net, isis.Compute(b.net.Topo, isis.Options{}), Options{})
	s.originateLocals(inputs, nil)
	if units := s.splitUnits(1); units != nil {
		t.Fatalf("one worker split into %d units", len(units))
	}
}
