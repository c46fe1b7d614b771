package diagnosis

import (
	"regexp"
	"strings"

	"hoyan/internal/config"
	"hoyan/internal/core"
	"hoyan/internal/netmodel"
	"hoyan/internal/vsb"
)

// VSBResult is one row of the Table 5 differential-testing campaign.
type VSBResult struct {
	Mutation vsb.Mutation
	// Detected is true when mis-modelling the VSB produces an observable
	// difference between the model's and the live network's state.
	Detected bool
	// RouteDiffs counts differing global-RIB rows; LoadDiffs differing links.
	RouteDiffs int
	LoadDiffs  int
}

// VSBCampaign runs the Table 5 campaign over the probe network: for every
// VSB, the "Hoyan under test" mis-models that single behaviour (mutated
// profile for both vendors) while the live network keeps the faithful
// profiles; any resulting RIB or load difference means the daily validation
// would have flagged it.
func VSBCampaign(p *Probe) []VSBResult {
	truth := core.NewEngine(p.Net, core.Options{}).Run(p.Inputs, p.Flows)
	truthRIB := truth.Routes.GlobalRIB()

	var out []VSBResult
	for _, m := range vsb.AllMutations {
		profiles := vsb.Defaults()
		for v, prof := range profiles {
			profiles[v] = m.Apply(prof)
		}
		model := core.NewEngine(p.Net, core.Options{Profiles: profiles}).Run(p.Inputs, p.Flows)
		a, b := model.Routes.GlobalRIB().Diff(truthRIB)

		loadDiffs := 0
		if truth.Traffic != nil && model.Traffic != nil {
			ids := map[netmodel.LinkID]bool{}
			for id := range truth.Traffic.Traffic.Load {
				ids[id] = true
			}
			for id := range model.Traffic.Traffic.Load {
				ids[id] = true
			}
			for id := range ids {
				d := truth.Traffic.Traffic.Load[id] - model.Traffic.Traffic.Load[id]
				if d > 1 || d < -1 {
					loadDiffs++
				}
			}
		}
		out = append(out, VSBResult{
			Mutation:   m,
			Detected:   len(a)+len(b)+loadDiffs > 0,
			RouteDiffs: len(a) + len(b),
			LoadDiffs:  loadDiffs,
		})
	}
	return out
}

// IssueClass is one Table 4 issue category.
type IssueClass string

// Table 4 issue classes.
const (
	IssueRouteMonitoring   IssueClass = "route monitoring data"
	IssueTrafficMonitoring IssueClass = "traffic monitoring data"
	IssueTopologyData      IssueClass = "topology data"
	IssueConfigParsing     IssueClass = "config parsing"
	IssueInputBuilding     IssueClass = "input route building"
	IssueImplementationBug IssueClass = "simulation implementation bug"
	IssueUnmodeledVSB      IssueClass = "unmodeled VSB"
	IssueUnmodeledFeature  IssueClass = "unmodeled new feature"
	IssueBGPConvergence    IssueClass = "BGP convergence"
	IssueOther             IssueClass = "others"
)

// Issue is one injectable accuracy defect.
type Issue struct {
	Class IssueClass
	Name  string
	// Apply mutates the framework before the daily validation runs.
	Apply func(f *Framework)
	// UseProbe selects the probe network as the base (issues whose
	// observability needs a specific topology shape: SR, TE, convergence,
	// ACL/PBR chains).
	UseProbe bool
}

// Table4Issues builds the §5.3 issue-injection campaign over a base network.
// The per-class counts follow the paper's Table 4 proportions (scaled to 26
// injected issues), so the output distribution reproduces the table's shape.
func Table4Issues() []Issue {
	var out []Issue
	add := func(class IssueClass, name string, n int, mk func(i int) func(f *Framework)) {
		for i := 0; i < n; i++ {
			out = append(out, Issue{Class: class, Name: name, Apply: mk(i)})
		}
	}
	addProbe := func(class IssueClass, name string, n int, mk func(i int) func(f *Framework)) {
		for i := 0; i < n; i++ {
			out = append(out, Issue{Class: class, Name: name, Apply: mk(i), UseProbe: true})
		}
	}

	// Route monitoring data issues (Table 4 row 1, ~23%): agents fail.
	add(IssueRouteMonitoring, "route agent failure", 6, func(i int) func(f *Framework) {
		return func(f *Framework) {
			devs := f.Net.DeviceNames()
			f.RouteMon.Faults.FailedRouteAgents = []string{devs[i%len(devs)]}
		}
	})
	// Traffic monitoring data issues (row 2, ~19%): NetFlow volume bug.
	add(IssueTrafficMonitoring, "netflow volume bug", 5, func(i int) func(f *Framework) {
		return func(f *Framework) {
			f.TrafficMon.Faults.FlowVolumeScale = 1.5 + float64(i)*0.2
		}
	})
	// Topology data issues (row 3, ~12%): stale link data. The hidden links
	// are a DC gateway's uplinks, which carry all its prefixes' traffic.
	add(IssueTopologyData, "stale topology", 3, func(i int) func(f *Framework) {
		return func(f *Framework) {
			links := f.Net.Topo.LinksOf("dc-0-0")
			if len(links) == 0 {
				links = f.Net.Topo.Links()
			}
			f.TrafficMon.Faults.HiddenLinks = []netmodel.LinkID{links[i%len(links)].ID()}
		}
	})
	// Config parsing flaws (row 4, ~10%): a route-map node is silently
	// dropped during parsing.
	add(IssueConfigParsing, "route-map node lost in parsing", 2, func(i int) func(f *Framework) {
		return func(f *Framework) {
			// Damage the model's copy of the network: the parser "loses" the
			// deny node of a border's ISP export policy, so the model leaks
			// no-export routes the live network filters.
			f.mutateModelNet = func(net *config.Network) {
				dropped := 0
				for _, name := range net.DeviceNames() {
					d := net.Devices[name]
					if rm := d.RouteMaps["RM_ISP_OUT"]; rm != nil && rm.Node(10) != nil {
						rm.DeleteNode(10)
						dropped++
						if dropped > i {
							return
						}
					}
				}
			}
		}
	})
	// Input route building flaws (row 5, ~10%): routes with empty AS paths
	// are discarded by a pre-processing rule (the paper's DC-aggregate bug).
	add(IssueInputBuilding, "empty-AS-path inputs dropped", 2, func(i int) func(f *Framework) {
		return func(f *Framework) {
			f.filterModelInputs = func(inputs []netmodel.Route) []netmodel.Route {
				var kept []netmodel.Route
				for _, r := range inputs {
					if path := r.Attr().ASPath; len(path.Seq) > 0 || len(path.Set) > 0 {
						kept = append(kept, r)
					}
				}
				return kept
			}
		}
	})
	// Simulation implementation bugs (row 6, ~8%): the flawed AS-path regex.
	add(IssueImplementationBug, "flawed AS-path regex", 2, func(i int) func(f *Framework) {
		return func(f *Framework) { f.mutateModelNet = flawASPathRegexes }
	})
	// Unmodeled VSBs (row 7, ~6%): the SR IGP-cost behaviour missing.
	addProbe(IssueUnmodeledVSB, "SR IGP-cost VSB unmodeled", 2, func(i int) func(f *Framework) {
		return func(f *Framework) {
			profiles := vsb.Defaults()
			for v, prof := range profiles {
				profiles[v] = vsb.MutSRIGPCost.Apply(prof)
			}
			f.ModelOpts.Profiles = profiles
		}
	})
	// Unmodeled new features (row 8, ~4%): IS-IS TE not supported (Hoyan
	// did not model it until March 2023, §5.3).
	addProbe(IssueUnmodeledFeature, "IS-IS TE metric unmodeled", 1, func(i int) func(f *Framework) {
		return func(f *Framework) { f.mutateModelNet = clearTECosts }
	})
	// BGP convergence ambiguity (row 9, ~2%): the live network converged to
	// a different tie-break order; modelled as a router-ID change invisible
	// to the model.
	addProbe(IssueBGPConvergence, "alternate convergence state", 1, func(i int) func(f *Framework) {
		return func(f *Framework) {
			f.mutateModelNet = func(net *config.Network) {
				// The live network's tie-break picked the other peer; model
				// this as swapped router IDs on the tied advertisers.
				a, b := net.Devices["B4"], net.Devices["C4"]
				if a != nil && b != nil {
					a.RouterID, b.RouterID = b.RouterID, a.RouterID
				}
			}
		}
	})
	// Others (~8%): ACLs not modelled, PBR not modelled.
	addProbe(IssueOther, "ACLs unmodeled", 1, func(i int) func(f *Framework) {
		return func(f *Framework) { f.mutateModelNet = clearACLs }
	})
	addProbe(IssueOther, "PBR unmodeled", 1, func(i int) func(f *Framework) {
		return func(f *Framework) { f.mutateModelNet = clearPBR }
	})
	return out
}

// flawASPathRegexes reproduces Hoyan's early AS-path matching (§5.3 "Hoyan's
// early implementation of regular expression matching for AS path was
// flawed"): every entry's regex becomes a substring search for its literal
// characters.
func flawASPathRegexes(net *config.Network) {
	for _, d := range net.Devices {
		for _, l := range d.ASPathLists {
			for i := range l.Entries {
				l.Entries[i].Regex = regexp.QuoteMeta(stripRegexMeta(l.Entries[i].Regex))
			}
		}
	}
}

// stripRegexMeta drops a regex's metacharacters, keeping its literal text.
func stripRegexMeta(s string) string {
	return strings.TrimSpace(strings.Map(func(r rune) rune {
		if strings.ContainsRune(`.*^$[]()+?\|{}`, r) {
			return -1
		}
		return r
	}, s))
}

// clearTECosts drops every interface's IS-IS TE metric. The topology carries
// the metrics too, so the edited devices go in as a configuration delta,
// which derives the topology again.
func clearTECosts(net *config.Network) {
	configs := map[string]*config.Device{}
	for name, d := range net.Devices {
		configs[name] = d.Clone()
		for _, i := range configs[name].Interfaces {
			i.TECost = 0
		}
	}
	// A delta of configurations alone names no link or device, so it
	// cannot fail.
	_, _ = core.Delta{Configs: configs}.Apply(net)
}

// clearACLs unbinds every interface ACL.
func clearACLs(net *config.Network) {
	for _, d := range net.Devices {
		for _, i := range d.Interfaces {
			i.ACLIn, i.ACLOut = "", ""
		}
	}
}

// clearPBR unbinds every interface PBR policy.
func clearPBR(net *config.Network) {
	for _, d := range net.Devices {
		for _, i := range d.Interfaces {
			i.PBR = ""
		}
	}
}

// ClassShares tallies a campaign outcome into Table 4's percentage shape.
func ClassShares(issues []Issue) map[IssueClass]float64 {
	counts := map[IssueClass]int{}
	for _, is := range issues {
		counts[is.Class]++
	}
	out := make(map[IssueClass]float64, len(counts))
	for c, n := range counts {
		out[c] = float64(n) / float64(len(issues)) * 100
	}
	return out
}

// OrderedClasses returns the Table 4 classes in presentation order.
func OrderedClasses() []IssueClass {
	return []IssueClass{
		IssueRouteMonitoring, IssueTrafficMonitoring, IssueTopologyData,
		IssueConfigParsing, IssueInputBuilding, IssueImplementationBug,
		IssueUnmodeledVSB, IssueUnmodeledFeature, IssueBGPConvergence, IssueOther,
	}
}
