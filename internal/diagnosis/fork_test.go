package diagnosis

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"hoyan/internal/config"
	"hoyan/internal/core"
	"hoyan/internal/gen"
)

// TestCampaignForksMatchColdRuns holds the accuracy campaign to its runs and
// its forks to cold runs: one truth base run per network, shared by every
// issue on it; a monitor fault's model is that very base result; a profile
// flaw runs cold; a model edit is a fork of the truth that equals a cold run
// of the edited network and inputs, on WAN(1) and on the probe, at
// parallelism 1 and 0; and no issue writes the truth network.
func TestCampaignForksMatchColdRuns(t *testing.T) {
	c := NewCampaign(gen.Generate(gen.WAN(1)), BuildProbe())
	bases := []*Framework{c.WAN, c.Probe}
	serialized := func() (out []string) {
		for _, f := range bases {
			for _, name := range f.Net.DeviceNames() {
				out = append(out, config.Serialize(f.Net.Devices[name]))
			}
		}
		return out
	}
	before := serialized()

	monitorFaults := []IssueClass{IssueRouteMonitoring, IssueTrafficMonitoring, IssueTopologyData}
	var edits []Issue
	runs := map[string]int{}
	for _, is := range Table4Issues() {
		label := fmt.Sprintf("%s/%s", is.Class, is.Name)
		base := c.WAN
		if is.UseProbe {
			base = c.Probe
		}
		rep := c.Run(is)
		if rep.truth != base.truth {
			t.Fatalf("%s: the report's truth is not its network's one base run", label)
		}
		switch m := rep.model; {
		case slices.Contains(monitorFaults, is.Class):
			if m.res != base.truth.res {
				t.Fatalf("%s: a monitor fault's model must be the truth's base result", label)
			}
			runs["none"]++
		case is.Class == IssueUnmodeledVSB:
			if m.eng == base.truth.eng || m.edit != nil {
				t.Fatalf("%s: a profile flaw must run cold on an engine of its own", label)
			}
			runs["cold"]++
		default:
			if m.eng != base.truth.eng || m.edit == nil {
				t.Fatalf("%s: a model edit must be a fork of the truth", label)
			}
			sameResult(t, label+" (campaign fork)", m.res, coldRun(t, base, *m.edit))
			for name, d := range m.edit.Configs {
				if config.Serialize(d) == config.Serialize(base.Net.Devices[name]) {
					t.Errorf("%s: the edit replaces %s without changing it", label, name)
				}
			}
			if len(m.edit.Configs)+len(m.edit.DropInputs) == 0 {
				t.Errorf("%s: the edit changes nothing on its own network", label)
			}
			runs["fork"]++
			edits = append(edits, is)
		}
	}
	if want := map[string]int{"none": 14, "fork": 10, "cold": 2}; !reflect.DeepEqual(runs, want) {
		t.Fatalf("model runs %v, want %v", runs, want)
	}

	// Every edit on both networks, where it may change nothing at all.
	for _, is := range edits {
		for _, base := range bases {
			f := *base
			is.Apply(&f)
			d := f.editModel(base.Net, base.Inputs)
			want := coldRun(t, base, d)
			for _, p := range []int{1, 0} {
				got, _, err := base.truth.eng.WhatIf(context.Background(), d, p)
				if err != nil {
					t.Fatal(err)
				}
				sameResult(t, fmt.Sprintf("%s/%s on %d devices at parallelism %d", is.Class, is.Name, len(base.Net.Devices), p), got, want)
			}
		}
	}

	if !slices.Equal(serialized(), before) {
		t.Fatal("the campaign wrote the truth network")
	}
}

// coldRun runs a fresh engine over base's network and inputs edited by d.
func coldRun(t *testing.T, base *Framework, d core.Delta) *core.Result {
	t.Helper()
	net := base.Net.Clone()
	if _, err := d.Apply(net); err != nil {
		t.Fatal(err)
	}
	return core.NewEngine(net, core.Options{}).Run(d.ApplyInputs(base.Inputs), base.Flows)
}

// sameResult fails unless a fork and a cold run agree on the global RIB, the
// flow paths and the link loads.
func sameResult(t *testing.T, label string, got, want *core.Result) {
	t.Helper()
	if onlyFork, onlyCold := got.Routes.GlobalRIB().Diff(want.Routes.GlobalRIB()); len(onlyFork)+len(onlyCold) > 0 {
		t.Errorf("%s: %d rows only in the fork, %d only in the cold run", label, len(onlyFork), len(onlyCold))
	}
	if !reflect.DeepEqual(got.Traffic.Traffic.Paths, want.Traffic.Traffic.Paths) {
		t.Errorf("%s: flow paths differ from the cold run", label)
	}
	if !reflect.DeepEqual(got.Traffic.Traffic.Load, want.Traffic.Traffic.Load) {
		t.Errorf("%s: link loads differ from the cold run", label)
	}
}
