package pipeline

import (
	"fmt"
	"reflect"
	"testing"

	"hoyan/internal/change"
	"hoyan/internal/config"
	"hoyan/internal/core"
	"hoyan/internal/gen"
	"hoyan/internal/intent"
	"hoyan/internal/netmodel"
	"hoyan/internal/scenario"
)

// linkFailurePlan is a pure-delta what-if plan: one link goes down.
func linkFailurePlan(id netmodel.LinkID) *change.Plan {
	return &change.Plan{
		ID:          fmt.Sprintf("whatif-link-%s-down", id),
		Type:        change.TopologyAdjust,
		Description: fmt.Sprintf("what-if: link %s fails", id),
		SetLinks:    []change.LinkUpDown{{ID: id, Up: false}},
	}
}

// linkFailureSweep returns one single-link-failure plan per up link.
func linkFailureSweep(net *config.Network) []*change.Plan {
	var plans []*change.Plan
	for _, l := range net.Topo.Links() {
		if l.Up {
			plans = append(plans, linkFailurePlan(l.ID()))
		}
	}
	return plans
}

// verifyBothModes runs one scenario's plan through Verify with incremental
// forking on and off and asserts the outcomes agree on everything an operator
// sees: verdict, reports, and the updated snapshot.
func verifyBothModes(t *testing.T, sc *scenario.Scenario) {
	t.Helper()
	inc := New(sc.Net, sc.Inputs, sc.Flows, core.Options{})
	ref := New(sc.Net, sc.Inputs, sc.Flows, core.Options{DisableIncremental: true})

	got, errInc := inc.Verify(sc.Plan, sc.Intents)
	want, errRef := ref.Verify(sc.Plan, sc.Intents)
	if (errInc == nil) != (errRef == nil) {
		t.Fatalf("%s: error mismatch: incremental %v, reference %v", sc.Name, errInc, errRef)
	}
	if errInc != nil {
		if !sc.WantApplyError {
			t.Fatalf("%s: unexpected apply error %v", sc.Name, errInc)
		}
		return
	}
	if got.OK != want.OK {
		t.Fatalf("%s: verdict mismatch: incremental %v, reference %v\nincremental reports: %+v\nreference reports: %+v",
			sc.Name, got.OK, want.OK, got.Reports, want.Reports)
	}
	if !reflect.DeepEqual(got.Reports, want.Reports) {
		t.Fatalf("%s: reports differ:\n%+v\nvs\n%+v", sc.Name, got.Reports, want.Reports)
	}
	if !got.UpdateSnap.RIB.Equal(want.UpdateSnap.RIB) {
		t.Fatalf("%s: updated RIBs differ", sc.Name)
	}
	if !reflect.DeepEqual(got.UpdateSnap.Paths, want.UpdateSnap.Paths) {
		t.Fatalf("%s: updated paths differ", sc.Name)
	}
	if !reflect.DeepEqual(got.UpdateSnap.Load, want.UpdateSnap.Load) {
		t.Fatalf("%s: updated loads differ", sc.Name)
	}
	if got.OK != sc.WantOK {
		t.Errorf("%s: verdict %v, scenario expects %v", sc.Name, got.OK, sc.WantOK)
	}
}

// TestVerifyIncrementalMatchesFullOnCatalog runs every Table 2 change type
// through Verify with and without DisableIncremental. Pure-delta types
// (topology-adjust, new-prefix, prefix-reclamation) take the fork path;
// command-carrying types fall back to full simulation — either way the
// outcomes must match byte for byte.
func TestVerifyIncrementalMatchesFullOnCatalog(t *testing.T) {
	for _, sc := range scenario.Table2Catalog() {
		t.Run(string(sc.Type), func(t *testing.T) { verifyBothModes(t, sc) })
	}
}

func TestVerifyIncrementalMatchesFullOnCaseStudies(t *testing.T) {
	for _, sc := range []*scenario.Scenario{scenario.Fig10a(), scenario.Fig10b()} {
		t.Run(sc.Name, func(t *testing.T) { verifyBothModes(t, sc) })
	}
}

// TestVerifyPureDeltaTakesForkPath asserts the routing decision itself: a
// toggles-only plan must verify as an incremental fork (visible through
// LastForkStats), while a command-carrying plan must not.
func TestVerifyPureDeltaTakesForkPath(t *testing.T) {
	out := gen.Generate(gen.WAN(1))
	sys := New(out.Net, out.Inputs, out.Flows, core.Options{})

	plan := linkFailurePlan(out.Net.Topo.Links()[0].ID())
	if _, err := sys.Verify(plan, nil); err != nil {
		t.Fatal(err)
	}
	stats, forked := sys.LastForkStats()
	if !forked {
		t.Fatal("pure-delta plan must take the fork path")
	}
	if stats.Full {
		t.Error("link-down fork fell back to full simulation")
	}
	if stats.SPFReused == 0 {
		t.Error("fork reused no SPF sources")
	}

	if d, pure := plan.Delta(); !pure || len(d.LinksDown) != 1 {
		t.Errorf("linkFailurePlan must convert to a pure one-link delta, got %+v pure=%v", d, pure)
	}
	if _, pure := scenario.Table2Catalog()[0].Plan.Delta(); pure {
		t.Error("a command-carrying plan must not convert to a pure delta")
	}
}

// TestVerifyLinkFailureSweepIncremental sweeps a handful of single-link
// failures through the pipeline both ways and checks load intents agree.
func TestVerifyLinkFailureSweepIncremental(t *testing.T) {
	out := gen.Generate(gen.WAN(1))
	intents := []intent.Intent{intent.LoadIntent{MaxUtilization: 1.0}}
	inc := New(out.Net, out.Inputs, out.Flows, core.Options{})
	ref := New(out.Net, out.Inputs, out.Flows, core.Options{DisableIncremental: true})
	plans := linkFailureSweep(out.Net)
	step := len(plans)/6 + 1
	for i := 0; i < len(plans); i += step {
		got, err := inc.Verify(plans[i], intents)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.Verify(plans[i], intents)
		if err != nil {
			t.Fatal(err)
		}
		if got.OK != want.OK || !reflect.DeepEqual(got.Reports, want.Reports) {
			t.Fatalf("%s: sweep outcome mismatch", plans[i].ID)
		}
		if !reflect.DeepEqual(got.UpdateSnap.Load, want.UpdateSnap.Load) {
			t.Fatalf("%s: sweep loads differ", plans[i].ID)
		}
	}
}

// TestVerifyFleetMatchesCentralizedOnCaseStudies verifies every case study —
// Figure 10, the Table 2 catalog and the Table 6 campaign — centralized and
// on a two-worker fleet. The workers re-parse the uploaded configurations,
// so a model the configuration text cannot carry shows up here as a
// different verdict.
func TestVerifyFleetMatchesCentralizedOnCaseStudies(t *testing.T) {
	scs := append([]*scenario.Scenario{scenario.Fig10a(), scenario.Fig10b()}, scenario.Table2Catalog()...)
	for _, rs := range scenario.Table6Catalog() {
		scs = append(scs, rs.Scenario)
	}
	for _, sc := range scs {
		t.Run(sc.Name, func(t *testing.T) {
			fleet := New(sc.Net, sc.Inputs, sc.Flows, core.Options{})
			fleet.Workers, fleet.RouteSubtasks, fleet.TrafficSubtasks = 2, 4, 4
			want, errC := New(sc.Net, sc.Inputs, sc.Flows, core.Options{}).Verify(sc.Plan, sc.Intents)
			got, errF := fleet.Verify(sc.Plan, sc.Intents)
			if (errC == nil) != (errF == nil) {
				t.Fatalf("error mismatch: centralized %v, fleet %v", errC, errF)
			}
			if errC != nil {
				return
			}
			if got.OK != want.OK || !reflect.DeepEqual(got.Reports, want.Reports) {
				t.Fatalf("fleet verdict %v, centralized %v\nfleet reports: %+v\ncentralized reports: %+v",
					got.OK, want.OK, got.Reports, want.Reports)
			}
		})
	}
}
