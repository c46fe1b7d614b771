// Package diagnosis implements Hoyan's accuracy-diagnosis framework (§5):
// daily automatic accuracy validation by cross-checking the simulated RIBs
// and link loads against the monitoring systems and the live network, plus
// the hybrid root-cause-analysis workflow that localizes where a
// mis-simulated flow's forwarding diverges.
//
// In this reproduction the "live network" is a ground-truth simulation run
// with faithful vendor profiles over the network as configured; the "Hoyan
// under test" runs with deliberately mutated profiles, or over a copy of the
// network edited to reproduce a modelling flaw (a model flaw is a model
// edit: the engine itself has no fault switches). Differential comparison
// between the two is exactly how the production framework surfaced the 16
// VSBs of Table 5 and the issue classes of Table 4.
package diagnosis

import (
	"fmt"
	"strings"

	"hoyan/internal/config"
	"hoyan/internal/core"
	"hoyan/internal/monitor"
	"hoyan/internal/netmodel"
	"slices"
)

// Framework runs the daily validation of Figure 2's right-hand side.
type Framework struct {
	// Net is the network snapshot (configurations + topology).
	Net *config.Network
	// Inputs and Flows are the monitored simulation inputs.
	Inputs []netmodel.Route
	Flows  []netmodel.Flow

	// ModelOpts configures the Hoyan model under test; the accuracy
	// campaign injects VSB flaws here as mutated profiles. The ground truth
	// ("live network") always runs with the zero Options.
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

	// mutateModelNet, when set by the issue-injection campaign, damages the
	// model's copy of the network (parsing flaws, stale data, features the
	// model does not support) while the live network stays intact.
	mutateModelNet func(*config.Network)
	// filterModelInputs models input-route-building flaws: the model
	// simulates a filtered input set while the live network carries all.
	filterModelInputs func([]netmodel.Route) []netmodel.Route
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

	// internal state for root-cause analysis: each run's result and the
	// engine that holds its network and IGP.
	truth, model       *core.Result
	truthEng, modelEng *core.Engine
}

// Run performs the daily validation: simulate with the model under test,
// collect ground truth through the monitors, compare.
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

	truthEng := core.NewEngine(f.Net, core.Options{})
	truth := truthEng.Run(f.Inputs, f.Flows)

	modelNet := f.Net
	if f.mutateModelNet != nil {
		modelNet = f.Net.Clone()
		f.mutateModelNet(modelNet)
	}
	modelInputs := f.Inputs
	if f.filterModelInputs != nil {
		modelInputs = f.filterModelInputs(f.Inputs)
	}
	modelEng := core.NewEngine(modelNet, f.ModelOpts)
	model := modelEng.Run(modelInputs, f.Flows)

	rep := &Report{truth: truth, model: model, truthEng: truthEng, modelEng: modelEng}

	// 1. Route comparison against the monitoring system: restricted to what
	// the monitor can see (best routes, propagating attributes).
	monRIB := f.RouteMon.Collect(truth.Routes.GlobalRIB())
	// The simulated side goes through the same *projection* (best-only,
	// non-propagating attributes hidden) but not through the monitor's
	// faults: a failed agent loses real data, not simulated data.
	projection := &monitor.RouteMonitor{BMPDevices: f.RouteMon.BMPDevices}
	simRIB := projection.Collect(model.Routes.GlobalRIB())
	simOnly, monOnly := simRIB.Diff(monRIB)
	for _, r := range simOnly {
		rep.RouteDiffs = append(rep.RouteDiffs, RouteDiff{Kind: "extra", Route: r, Via: "monitoring"})
	}
	for _, r := range monOnly {
		rep.RouteDiffs = append(rep.RouteDiffs, RouteDiff{Kind: "missing", Route: r, Via: "monitoring"})
	}

	// 2. Live-network comparison for high-priority prefixes: full fidelity
	// including ECMP siblings and local attributes.
	if len(f.HighPriorityPrefixes) > 0 {
		live := netmodel.NewGlobalRIB(monitor.LiveShow(truth.Routes.GlobalRIB(), f.HighPriorityPrefixes))
		sim := netmodel.NewGlobalRIB(monitor.LiveShow(model.Routes.GlobalRIB(), f.HighPriorityPrefixes))
		simOnly, liveOnly := sim.Diff(live)
		for _, r := range simOnly {
			rep.RouteDiffs = append(rep.RouteDiffs, RouteDiff{Kind: "extra", Route: r, Via: "live-show"})
		}
		for _, r := range liveOnly {
			rep.RouteDiffs = append(rep.RouteDiffs, RouteDiff{Kind: "missing", Route: r, Via: "live-show"})
		}
	}

	// 3. Traffic load comparison against SNMP counters.
	if truth.Traffic != nil && model.Traffic != nil {
		monLoad := f.TrafficMon.CollectLoads(truth.Traffic.Traffic.Load)
		simLoad := model.Traffic.Traffic.Load
		ids := map[netmodel.LinkID]bool{}
		for id := range monLoad {
			ids[id] = true
		}
		for id := range simLoad {
			ids[id] = true
		}
		ordered := make([]netmodel.LinkID, 0, len(ids))
		for id := range ids {
			ordered = append(ordered, id)
		}
		slices.SortFunc(ordered, func(a, b netmodel.LinkID) int { return strings.Compare(a.String(), b.String()) })
		for _, id := range ordered {
			bw := 1e9
			if l := f.Net.Topo.Link(id); l != nil && l.Bandwidth > 0 {
				bw = l.Bandwidth
			}
			diff := simLoad[id] - monLoad[id]
			if diff < 0 {
				diff = -diff
			}
			if diff > f.LoadTolerance*bw {
				rep.LoadDiffs = append(rep.LoadDiffs, LoadDiff{
					Link: id, Simulated: simLoad[id], Monitored: monLoad[id], Bandwidth: bw,
				})
			}
		}
	}

	rep.Accurate = len(rep.RouteDiffs) == 0 && len(rep.LoadDiffs) == 0
	return rep
}

// Summary renders the accuracy report.
func (r *Report) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "accuracy report: %d route diffs, %d load diffs\n", len(r.RouteDiffs), len(r.LoadDiffs))
	for i, d := range r.RouteDiffs {
		if i >= 10 {
			fmt.Fprintf(&b, "  ... %d more route diffs\n", len(r.RouteDiffs)-i)
			break
		}
		fmt.Fprintf(&b, "  [%s via %s] %s\n", d.Kind, d.Via, d.Route)
	}
	for _, d := range r.LoadDiffs {
		fmt.Fprintf(&b, "  [load] %s: simulated %.0f vs monitored %.0f (bw %.0f)\n",
			d.Link, d.Simulated, d.Monitored, d.Bandwidth)
	}
	return b.String()
}
