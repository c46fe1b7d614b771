package diagnosis

import (
	"fmt"
	"strings"

	"cmp"
	"hoyan/internal/isis"
	"hoyan/internal/netmodel"
	"hoyan/internal/traffic"
	"slices"
)

// RootCauseAnalysis is the §5.2 workflow outcome for one inaccurate link:
// the selected large-volume flow, its simulated and real forwarding paths,
// the first device where they diverge, and the RIB rows that device uses for
// the flow in each world — everything the expert needs for step (5).
type RootCauseAnalysis struct {
	Link netmodel.LinkID
	Flow netmodel.Flow

	ModelPath netmodel.Path
	TruthPath netmodel.Path

	// DivergedAt is the first device whose forwarding differs ("" when the
	// paths agree — the inaccuracy then stems from inputs, not forwarding).
	DivergedAt string

	// ModelRows / TruthRows are the LPM best rows for the flow at the
	// diverging device in each world.
	ModelRows []netmodel.Route
	TruthRows []netmodel.Route
}

// AnalyzeLink runs the workflow for one flagged link:
//
//	(1) the link is given (from the accuracy report);
//	(2) identify a large-volume flow traversing it in the ground truth;
//	(3) build the flow's forwarding paths in both worlds;
//	(4) compare per-device forwarding to find the divergence;
//	(5) emit the diverging device's matching RIB rows for expert analysis.
func (r *Report) AnalyzeLink(link netmodel.LinkID) (*RootCauseAnalysis, error) {
	// (2) Largest-volume truth flow traversing the link; the model may
	// route flows over the link that the truth does not.
	if r.truth.res.Traffic == nil {
		return nil, fmt.Errorf("diagnosis: no traffic simulation available")
	}
	var flows []netmodel.Flow
	for _, w := range []*world{r.truth, r.model} {
		if len(flows) > 0 || w.res.Traffic == nil {
			break
		}
		for _, fp := range w.res.Traffic.Traffic.Paths {
			if fp.Path.Traverses(link) {
				flows = append(flows, fp.Flow)
			}
		}
	}
	if len(flows) == 0 {
		return nil, fmt.Errorf("diagnosis: no flow traverses %s in either world", link)
	}
	slices.SortFunc(flows, func(a, b netmodel.Flow) int {
		if a.Volume != b.Volume {
			return cmp.Compare(b.Volume, a.Volume)
		}
		return netmodel.CompareFlows(a, b)
	})
	flow := flows[0]
	return r.AnalyzeFlow(link, flow)
}

// AnalyzeFlow runs steps (3)-(5) for a specific flow.
func (r *Report) AnalyzeFlow(link netmodel.LinkID, flow netmodel.Flow) (*RootCauseAnalysis, error) {
	out := &RootCauseAnalysis{Link: link, Flow: flow}
	out.TruthPath = r.truth.forwarder().Path(flow)
	out.ModelPath = r.model.forwarder().Path(flow)

	// (4) First diverging device along the two paths.
	tp, mp := out.TruthPath.Hops, out.ModelPath.Hops
	for i := 0; i < len(tp) || i < len(mp); i++ {
		switch {
		case i >= len(tp):
			out.DivergedAt = mp[i-1].Device
		case i >= len(mp):
			out.DivergedAt = tp[i-1].Device
		case tp[i].Device != mp[i].Device:
			if i > 0 {
				out.DivergedAt = tp[i-1].Device
			} else {
				out.DivergedAt = tp[i].Device
			}
		case tp[i].Link != mp[i].Link && tp[i].Link != (netmodel.LinkID{}) && mp[i].Link != (netmodel.LinkID{}):
			out.DivergedAt = tp[i].Device
		default:
			continue
		}
		break
	}
	if out.DivergedAt == "" && out.TruthPath.Exit != out.ModelPath.Exit {
		// Same hops, different fate: diverged at the last device.
		if len(tp) > 0 {
			out.DivergedAt = tp[len(tp)-1].Device
		}
	}

	// (5) Matching RIB rows at the diverging device in both worlds.
	if out.DivergedAt != "" {
		if _, best, ok := r.model.res.Routes.RIB(out.DivergedAt, netmodel.DefaultVRF).LongestMatch(flow.Dst); ok {
			out.ModelRows = best
		}
		if _, best, ok := r.truth.res.Routes.RIB(out.DivergedAt, netmodel.DefaultVRF).LongestMatch(flow.Dst); ok {
			out.TruthRows = best
		}
	}
	return out, nil
}

// forwarder forwards over the world's own network, IGP and RIBs. A fork's
// network and IGP are built here, on demand: the truth's network cloned, with
// the model edit applied.
func (w *world) forwarder() *traffic.Forwarder {
	net, igp := w.eng.Network(), w.eng.IGP()
	if w.edit != nil {
		net = net.Clone()
		if _, err := w.edit.Apply(net); err != nil {
			panic(err) // the fork applied this very delta to the same network
		}
		igp = isis.Compute(net.Topo, isis.Options{})
	}
	return traffic.NewForwarder(net, igp, w.res.Routes, traffic.Options{Profiles: w.eng.Profiles()})
}

// Summary renders the analysis in the Figure 9 case-study style.
func (a *RootCauseAnalysis) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "link %s, flow %s\n", a.Link, a.Flow)
	fmt.Fprintf(&b, "  simulated path: %s\n", a.ModelPath)
	fmt.Fprintf(&b, "  real path:      %s\n", a.TruthPath)
	if a.DivergedAt == "" {
		b.WriteString("  forwarding agrees; investigate inputs/monitoring\n")
		return b.String()
	}
	fmt.Fprintf(&b, "  diverges at %s\n", a.DivergedAt)
	fmt.Fprintf(&b, "  simulated RIB rows at %s:\n", a.DivergedAt)
	for _, r := range a.ModelRows {
		fmt.Fprintf(&b, "    %s (igpCost=%d viaSR=%v)\n", r, r.IGPCost, r.ViaSR)
	}
	fmt.Fprintf(&b, "  real RIB rows at %s:\n", a.DivergedAt)
	for _, r := range a.TruthRows {
		fmt.Fprintf(&b, "    %s (igpCost=%d viaSR=%v)\n", r, r.IGPCost, r.ViaSR)
	}
	return b.String()
}
