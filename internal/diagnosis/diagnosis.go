// Package diagnosis implements Hoyan's accuracy-diagnosis framework (§5):
// daily automatic accuracy validation by cross-checking the simulated RIBs
// and link loads against the monitoring systems and the live network, plus
// the hybrid root-cause-analysis workflow that localizes where a
// mis-simulated flow's forwarding diverges.
//
// In this reproduction the "live network" is a ground-truth simulation run
// with faithful vendor profiles over the network as configured; the "Hoyan
// under test" runs with deliberately mutated profiles, or as a fork of that
// truth under an edit reproducing a modelling flaw (a model flaw is a model
// edit: the engine itself has no fault switches). Differential comparison
// between the two is exactly how the production framework surfaced the 16
// VSBs of Table 5 and the issue classes of Table 4.
package diagnosis

import (
	"context"
	"math"
	"strings"

	"hoyan/internal/config"
	"hoyan/internal/core"
	"hoyan/internal/monitor"
	"hoyan/internal/netmodel"
	"slices"
)

// Framework runs the daily validation of Figure 2's right-hand side against
// one ground truth: a base run that every shallow copy of the framework (one
// per injected issue) shares. NewFramework builds one.
type Framework struct {
	// Net is the network snapshot (configurations + topology) and Inputs
	// and Flows are the monitored simulation inputs: the truth's.
	Net    *config.Network
	Inputs []netmodel.Route
	Flows  []netmodel.Flow

	// ModelOpts configures the Hoyan model under test. A flawed VSB is a
	// mutated Profiles: such a model runs cold on an engine of its own,
	// because a profile is no delta. The ground truth ("live network")
	// always runs with the zero Options.
	ModelOpts core.Options

	// RouteMon and TrafficMon stand between the ground truth and the
	// comparison, reproducing monitoring blind spots and faults.
	RouteMon   *monitor.RouteMonitor
	TrafficMon *monitor.TrafficMonitor

	// HighPriorityPrefixes are compared against the live network directly
	// (the guarded "show command" path), catching what monitoring misses.
	HighPriorityPrefixes []string

	// LoadTolerance flags links whose |simulated-monitored| load exceeds
	// this fraction of the link bandwidth (the paper uses 10%).
	LoadTolerance float64

	// editModel, when set by the issue-injection campaign, is a model flaw
	// as an edit of the truth: the model is the truth's fork under its delta.
	editModel modelEdit

	// truth is the ground truth: Net as configured, run with zero Options.
	truth *world
}

// modelEdit is a model flaw (parsing flaws, input-building flaws, features
// the model does not support) as a delta. It reads the truth's network and
// inputs without writing them: a device it edits goes in as a clone.
type modelEdit func(net *config.Network, inputs []netmodel.Route) core.Delta

// world is one side of the comparison: a result and the engine whose
// network, IGP and profiles it ran over, with edit on top for a fork.
type world struct {
	res  *core.Result
	eng  *core.Engine
	edit *core.Delta
}

// NewFramework runs the ground truth over net and returns its framework.
func NewFramework(net *config.Network, inputs []netmodel.Route, flows []netmodel.Flow) *Framework {
	eng := core.NewEngine(net, core.Options{})
	return &Framework{Net: net, Inputs: inputs, Flows: flows, truth: &world{res: eng.BaseRun(inputs, flows), eng: eng}}
}

// RouteDiff is one route-level discrepancy.
type RouteDiff struct {
	Kind  string // "missing" (in monitor, not simulated), "extra", "attr"
	Route netmodel.Route
	Via   string // "monitoring" or "live-show"
}

// LoadDiff is one link-load discrepancy.
type LoadDiff struct {
	Link      netmodel.LinkID
	Simulated float64
	Monitored float64
	Bandwidth float64
}

// Report is the daily accuracy report.
type Report struct {
	RouteDiffs []RouteDiff
	LoadDiffs  []LoadDiff

	// Accurate is true when no discrepancy was found.
	Accurate bool

	// truth and model are the worlds compared, kept for root-cause analysis.
	truth, model *world
}

// Run performs the daily validation: simulate with the model under test,
// collect ground truth through the monitors, compare. The model is the
// truth itself when only the monitors are at fault, the truth's fork under a
// model edit, or a cold run with the model's own profiles.
func (f *Framework) Run() *Report {
	if f.LoadTolerance == 0 {
		f.LoadTolerance = 0.10
	}
	if f.RouteMon == nil {
		f.RouteMon = &monitor.RouteMonitor{}
	}
	if f.TrafficMon == nil {
		f.TrafficMon = &monitor.TrafficMonitor{}
	}
	m := f.truth
	switch {
	case f.ModelOpts.Profiles != nil:
		eng := core.NewEngine(f.Net, f.ModelOpts)
		m = &world{res: eng.Run(f.Inputs, f.Flows), eng: eng}
	case f.editModel != nil:
		d := f.editModel(f.Net, f.Inputs)
		res, _, err := f.truth.eng.WhatIf(context.TODO(), d, 0)
		if err != nil {
			panic(err) // an edit of configurations and inputs names no link or device
		}
		m = &world{res: res, eng: f.truth.eng, edit: &d}
	}
	rep := &Report{truth: f.truth, model: m}
	truth, model := f.truth.res, m.res

	diffRoutes := func(via string, sim, real *netmodel.GlobalRIB) {
		simOnly, realOnly := sim.Diff(real)
		for _, r := range simOnly {
			rep.RouteDiffs = append(rep.RouteDiffs, RouteDiff{Kind: "extra", Route: r, Via: via})
		}
		for _, r := range realOnly {
			rep.RouteDiffs = append(rep.RouteDiffs, RouteDiff{Kind: "missing", Route: r, Via: via})
		}
	}
	// 1. Route comparison against the monitoring system: restricted to what
	// the monitor can see (best routes, propagating attributes). The
	// simulated side goes through the same *projection* (best-only,
	// non-propagating attributes hidden) but not through the monitor's
	// faults: a failed agent loses real data, not simulated data. When the
	// model is the truth, the monitor sees the simulated projection less its
	// failed agents.
	sim := f.RouteMon.Project(model.Routes.GlobalRIB())
	var real *netmodel.GlobalRIB
	if m == f.truth {
		real = f.RouteMon.Lose(sim)
	} else {
		real = f.RouteMon.Collect(truth.Routes.GlobalRIB())
	}
	diffRoutes("monitoring", sim, real)

	// 2. Live-network comparison for high-priority prefixes: full fidelity
	// including ECMP siblings and local attributes. A model that is the
	// truth shows the live network exactly.
	if len(f.HighPriorityPrefixes) > 0 && m != f.truth {
		diffRoutes("live-show", netmodel.NewGlobalRIB(monitor.LiveShow(model.Routes.GlobalRIB(), f.HighPriorityPrefixes)),
			netmodel.NewGlobalRIB(monitor.LiveShow(truth.Routes.GlobalRIB(), f.HighPriorityPrefixes)))
	}

	// 3. Traffic load comparison against SNMP counters.
	if truth.Traffic != nil && model.Traffic != nil {
		monLoad := f.TrafficMon.CollectLoads(truth.Traffic.Traffic.Load)
		simLoad := model.Traffic.Traffic.Load
		for _, id := range linkUnion(monLoad, simLoad) {
			bw := 1e9
			if l := f.Net.Topo.Link(id); l != nil && l.Bandwidth > 0 {
				bw = l.Bandwidth
			}
			if math.Abs(simLoad[id]-monLoad[id]) > f.LoadTolerance*bw {
				rep.LoadDiffs = append(rep.LoadDiffs, LoadDiff{
					Link: id, Simulated: simLoad[id], Monitored: monLoad[id], Bandwidth: bw,
				})
			}
		}
	}

	rep.Accurate = len(rep.RouteDiffs) == 0 && len(rep.LoadDiffs) == 0
	return rep
}

// linkUnion is every link either load map holds, in link order.
func linkUnion(a, b map[netmodel.LinkID]float64) []netmodel.LinkID {
	ids := make([]netmodel.LinkID, 0, len(a))
	for id := range a {
		ids = append(ids, id)
	}
	for id := range b {
		if _, ok := a[id]; !ok {
			ids = append(ids, id)
		}
	}
	slices.SortFunc(ids, func(x, y netmodel.LinkID) int { return strings.Compare(x.String(), y.String()) })
	return ids
}
