package kfail

import (
	"context"
	"errors"
	"net/netip"
	"reflect"
	"strings"
	"testing"

	"hoyan/internal/core"
	"hoyan/internal/gen"
	"hoyan/internal/intent"
	"hoyan/internal/netmodel"
)

func TestSingleFailureToleranceOfGeneratedWAN(t *testing.T) {
	out := gen.Generate(gen.WAN(1))
	// Property: region 0's first DC prefix stays reachable on the remote
	// RR under any single core-fabric link failure.
	reach := intent.ReachIntent{
		Prefix:  netip.MustParsePrefix("10.0.0.0/24"),
		Devices: []string{"rr-1-0"},
		Want:    true,
	}
	// Candidate failures: dual-homed uplinks of dc-0-0 (one at a time).
	var elems []Element
	for _, l := range out.Net.Topo.LinksOf("dc-0-0") {
		elems = append(elems, Element{Link: l.ID()})
	}
	res, err := Check(out.Net, out.Inputs, nil, []intent.Intent{reach}, Options{K: 1, Elements: elems})
	if err != nil {
		t.Fatal(err)
	}
	if res.Scenarios != len(elems) {
		t.Errorf("scenarios = %d, want %d", res.Scenarios, len(elems))
	}
	if !res.OK() {
		t.Errorf("dual-homed DC must tolerate any single uplink failure: %+v", res.Violations)
	}
}

func TestDoubleFailureViolationFound(t *testing.T) {
	out := gen.Generate(gen.WAN(1))
	reach := intent.ReachIntent{
		Prefix:  netip.MustParsePrefix("10.0.0.0/24"),
		Devices: []string{"rr-1-0"},
		Want:    true,
	}
	var elems []Element
	for _, l := range out.Net.Topo.LinksOf("dc-0-0") {
		elems = append(elems, Element{Link: l.ID()})
	}
	if len(elems) != 2 {
		t.Fatalf("dc-0-0 should be dual-homed, has %d links", len(elems))
	}
	// K=2 includes the scenario where both uplinks fail: the DC is cut off.
	res, err := Check(out.Net, out.Inputs, nil, []intent.Intent{reach}, Options{K: 2, Elements: elems})
	if err != nil {
		t.Fatal(err)
	}
	if res.Scenarios != 3 { // C(2,1)+C(2,2)
		t.Errorf("scenarios = %d, want 3", res.Scenarios)
	}
	if res.OK() {
		t.Fatal("double uplink failure must violate reachability")
	}
	v := res.Violations[0]
	if len(v.Failed) != 2 {
		t.Errorf("violating scenario = %v, want both uplinks", v.Failed)
	}
}

func TestNodeFailureElements(t *testing.T) {
	out := gen.Generate(gen.WAN(1))
	reach := intent.ReachIntent{
		Prefix:  netip.MustParsePrefix("10.0.0.0/24"),
		Devices: []string{"rr-1-0"},
		Want:    true,
	}
	res, err := Check(out.Net, out.Inputs, nil, []intent.Intent{reach},
		Options{K: 1, Elements: []Element{{Node: "dc-0-0"}}})
	if err != nil {
		t.Fatal(err)
	}
	if res.OK() {
		t.Error("failing the injecting DC gateway must violate reachability")
	}
}

func TestMaxScenariosCap(t *testing.T) {
	out := gen.Generate(gen.WAN(1))
	reach := intent.ReachIntent{Prefix: netip.MustParsePrefix("10.0.0.0/24"), Devices: []string{"rr-0-0"}, Want: true}
	res, err := Check(out.Net, out.Inputs, nil, []intent.Intent{reach},
		Options{K: 1, MaxScenarios: 3, Sim: core.Options{}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Scenarios != 3 {
		t.Errorf("scenarios = %d, want capped at 3", res.Scenarios)
	}
}

func TestBadK(t *testing.T) {
	out := gen.Generate(gen.WAN(1))
	if _, err := Check(out.Net, out.Inputs, nil, nil, Options{K: 0}); err == nil {
		t.Error("K=0 must error")
	}
}

// upFlags records every Up flag of a topology, for before/after comparison.
func upFlags(topo *netmodel.Topology) map[string]bool {
	flags := make(map[string]bool)
	for _, n := range topo.Nodes() {
		flags["node:"+n.Name] = n.Up
	}
	for _, l := range topo.Links() {
		flags["link:"+l.ID().String()] = l.Up
	}
	return flags
}

// TestUnknownElementIsAnError: an element the topology does not have used to
// be skipped, so the failure-free network was verified and reported as
// holding. Check must name it instead; an element that is merely already down
// stays a legal no-op.
func TestUnknownElementIsAnError(t *testing.T) {
	out := gen.Generate(gen.WAN(1))
	reach := intent.ReachIntent{Prefix: netip.MustParsePrefix("10.0.0.0/24"), Devices: []string{"rr-1-0"}, Want: true}
	real := out.Net.Topo.LinksOf("dc-0-0")[0].ID()
	bogusLink := real
	bogusLink.BIface = "no-such-iface"
	for _, par := range []int{1, 4} {
		for _, bogus := range []Element{{Link: bogusLink}, {Node: "no-such-device"}} {
			res, err := Check(out.Net, out.Inputs, nil, []intent.Intent{reach}, Options{
				K: 1, Parallelism: par, Elements: []Element{{Link: real}, bogus},
			})
			if err == nil || res != nil {
				t.Fatalf("par=%d %s: res=%v err=%v, want an error", par, bogus, res, err)
			}
			if !strings.Contains(err.Error(), bogus.String()) {
				t.Errorf("par=%d: error %q does not name %s", par, err, bogus)
			}
		}
	}

	down := out.Net.Clone()
	down.Topo.SetLinkUp(real, false)
	res, err := Check(down, out.Inputs, nil, []intent.Intent{reach}, Options{K: 1, Elements: []Element{{Link: real}}})
	if err != nil || res.Scenarios != 1 || !res.OK() {
		t.Fatalf("already-down element: res=%+v err=%v, want one holding scenario", res, err)
	}
}

// TestCheckLeavesNetworkUntouched: Check reads the caller's network and never
// writes it — at either parallelism, with link and node elements, and when
// cancelled mid-sweep.
func TestCheckLeavesNetworkUntouched(t *testing.T) {
	out := gen.Generate(gen.WAN(1))
	reach := intent.ReachIntent{Prefix: netip.MustParsePrefix("10.0.0.0/24"), Devices: []string{"rr-1-0"}, Want: true}
	intents := []intent.Intent{reach, intent.LoadIntent{MaxUtilization: 0.95}}
	elems := []Element{{Node: "core-0-0"}}
	for _, l := range out.Net.Topo.Links() {
		elems = append(elems, Element{Link: l.ID()})
	}
	before := upFlags(out.Net.Topo)
	for _, par := range []int{1, 4} {
		if _, err := Check(out.Net, out.Inputs, out.Flows, intents, Options{K: 1, Parallelism: par, Elements: elems}); err != nil {
			t.Fatal(err)
		}
		if after := upFlags(out.Net.Topo); !reflect.DeepEqual(before, after) {
			t.Fatalf("par=%d: Check changed the caller's Up flags", par)
		}

		ctx, cancel := context.WithCancel(context.Background())
		_, err := Check(out.Net, out.Inputs, out.Flows, intents, Options{
			K: 1, Parallelism: par, Elements: elems, Ctx: ctx,
			Progress: func(done, total int) {
				if done == 3 {
					cancel()
				}
			},
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("par=%d: cancelled sweep err = %v, want context.Canceled", par, err)
		}
		if after := upFlags(out.Net.Topo); !reflect.DeepEqual(before, after) {
			t.Fatalf("par=%d: cancelled Check changed the caller's Up flags", par)
		}
	}
}
