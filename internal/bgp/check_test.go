package bgp

import (
	"errors"
	"net/netip"
	"slices"
	"testing"

	"hoyan/internal/isis"
	"hoyan/internal/netmodel"
)

// violationAt fails unless err is a *CheckError listing a violation of kind
// at (device, default VRF, prefix).
func violationAt(t *testing.T, label string, err error, kind ViolationKind, device string, prefix netip.Prefix) {
	t.Helper()
	var ce *CheckError
	if !errors.As(err, &ce) {
		t.Fatalf("%s: Check returned %v, want a *CheckError", label, err)
	}
	for _, v := range ce.Violations {
		if v.Kind == kind && v.Device == device && v.VRF == netmodel.DefaultVRF && v.Prefix == prefix {
			return
		}
	}
	t.Fatalf("%s: no %s violation at %s %s in %v", label, kind, device, prefix, err)
}

// TestCheckPlantedFaults plants one fault at a time into the converged RIB of
// parallelFixture — route reflection, nested aggregates (one summary-only),
// VRF leaking — and requires Check to report it, of the expected kind, where
// it was planted.
func TestCheckPlantedFaults(t *testing.T) {
	b, inputs := parallelFixture()
	igp := isis.Compute(b.Net.Topo, isis.Options{})
	rows := Simulate(b.Net, igp, inputs, Options{}).GlobalRIB().Rows()
	mustCheck(t, "unplanted", b.Net, igp, inputs, Simulate(b.Net, igp, inputs, Options{}))

	// The route 172.20.5.0/24 takes E → A → RR → C2; C2 learns it from RR.
	spec := netip.MustParsePrefix("172.20.5.0/24")
	at := func(rs []netmodel.Route, device string, p netip.Prefix) int {
		i := slices.IndexFunc(rs, func(r netmodel.Route) bool {
			return r.Device == device && r.VRF == netmodel.DefaultVRF && r.Prefix == p
		})
		if i < 0 {
			t.Fatalf("fixture: no row for %s at %s", p, device)
		}
		return i
	}
	// The run without 172.20.5.0/24: RR withdrew it, so C2's row has no advertiser.
	var without []netmodel.Route
	for _, r := range inputs {
		if r.Prefix != spec {
			without = append(without, r)
		}
	}
	withdrawn := Simulate(b.Net, igp, without, Options{}).GlobalRIB().Rows()
	agg := netip.MustParsePrefix("10.0.0.0/8")

	for _, tc := range []struct {
		name   string
		inputs []netmodel.Route
		plant  func() []netmodel.Route
		kind   ViolationKind
		device string
		prefix netip.Prefix
	}{
		{"drop a best row", inputs, func() []netmodel.Route {
			rs := slices.Clone(rows)
			i := at(rs, "C2", spec)
			if rs[i].RouteType != netmodel.RouteBest || rs[i].Peer != "RR" {
				t.Fatalf("fixture: C2's row %v is not a best row from RR", rs[i])
			}
			return slices.Delete(rs, i, i+1)
		}, KindMissing, "C2", spec},
		{"add a row whose advertiser withdrew", without, func() []netmodel.Route {
			return append(slices.Clone(withdrawn), rows[at(rows, "C2", spec)])
		}, KindOrphan, "C2", spec},
		{"flip a route type", inputs, func() []netmodel.Route {
			rs := slices.Clone(rows)
			rs[at(rs, "RR", spec)].RouteType = netmodel.RouteCandidate
			return rs
		}, KindDecision, "RR", spec},
		{"bump one local preference", inputs, func() []netmodel.Route {
			rs := slices.Clone(rows)
			r := &rs[at(rs, "C1", spec)]
			a := *r.Attr()
			a.LocalPref++
			r.SetAttrs(&a)
			return rs
		}, KindDecision, "C1", spec},
		{"remove an aggregate row that still has contributors", inputs, func() []netmodel.Route {
			rs := slices.Clone(rows)
			i := at(rs, "A", agg)
			if rs[i].Protocol != netmodel.ProtoAggregate {
				t.Fatalf("fixture: A's row for %s is %v, not the aggregate", agg, rs[i])
			}
			return slices.Delete(rs, i, i+1)
		}, KindAggregate, "A", agg},
	} {
		err := Check(b.Net, igp, tc.inputs, netmodel.NewGlobalRIB(tc.plant()), Options{})
		violationAt(t, tc.name, err, tc.kind, tc.device, tc.prefix)
	}
}

// disagreeFixture is the DISAGREE gadget: A and B each prefer the route
// through the other (local preference 200) over the one from origin O, so
// the synchronous fixpoint flips between both preferring O and both
// preferring each other, and never converges.
func disagreeFixture(t *testing.T) (*netBuilder, []netmodel.Route) {
	b := newBuilder()
	b.device("O", "alpha", 65000, "1.0.0.1")
	b.device("A", "alpha", 65001, "1.0.0.2")
	b.device("B", "alpha", 65002, "1.0.0.3")
	b.link("O", "A", 10)
	b.link("O", "B", 10)
	l := b.link("A", "B", 10)
	b.ebgp("O", "A")
	b.ebgp("O", "B")
	b.ebgp("A", "B")
	for _, pair := range [][2]string{{"A", "B"}, {"B", "A"}} {
		d := b.Net.Devices[pair[0]]
		d.RouteMaps["LP200"] = mustRouteMap(t, "route-map LP200 permit 10\n set local-preference 200\n")
		peer := l.AAddr
		if l.A == pair[0] {
			peer = l.BAddr
		}
		for _, nb := range d.Neighbors {
			if nb.Addr == peer {
				nb.ImportPolicy = "LP200"
			}
		}
	}
	in := inputRoute("O", "10.9.0.0/16", 65100)
	in.NextHop = b.Net.Devices["O"].Loopback
	b.Network()
	return b, []netmodel.Route{in}
}

// TestCheckRejectsNonConvergent: the DISAGREE fixture stops at MaxRounds
// unconverged, whatever the parity of the round it stops in, and Check
// rejects the RIB it leaves.
func TestCheckRejectsNonConvergent(t *testing.T) {
	b, inputs := disagreeFixture(t)
	igp := isis.Compute(b.Net.Topo, isis.Options{})
	for _, rounds := range []int{16, 17} {
		res := Simulate(b.Net, igp, inputs, Options{MaxRounds: rounds})
		if res.Converged {
			t.Fatalf("MaxRounds %d: DISAGREE converged in %d rounds", rounds, res.Rounds)
		}
		err := Check(b.Net, igp, inputs, res.GlobalRIB(), Options{})
		var ce *CheckError
		if !errors.As(err, &ce) || ce.Total == 0 {
			t.Fatalf("MaxRounds %d: Check accepted the unconverged RIB (%v)", rounds, err)
		}
		t.Logf("MaxRounds %d: %v", rounds, err)
	}
}
