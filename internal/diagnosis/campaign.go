package diagnosis

import (
	"math"
	"regexp"
	"strings"

	"hoyan/internal/config"
	"hoyan/internal/core"
	"hoyan/internal/gen"
	"hoyan/internal/monitor"
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
			tl, ml := truth.Traffic.Traffic.Load, model.Traffic.Traffic.Load
			for _, id := range linkUnion(tl, ml) {
				if math.Abs(tl[id]-ml[id]) > 1 {
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

// Campaign runs Table 4 issues over their two truth bases, a generated WAN
// and the probe network, each shared by every issue on it.
type Campaign struct{ WAN, Probe *Framework }

// NewCampaign runs both truth bases.
func NewCampaign(wan *gen.Output, probe *Probe) *Campaign {
	c := &Campaign{WAN: NewFramework(wan.Net, wan.Inputs, wan.Flows), Probe: NewFramework(probe.Net, probe.Inputs, probe.Flows)}
	c.WAN.HighPriorityPrefixes = []string{"10.0.0.0/24", "20.0.0.0/24"}
	c.WAN.LoadTolerance, c.Probe.LoadTolerance = 0.002, 0.002
	return c
}

// Run runs the daily validation with one issue injected into a shallow copy
// of its base with fresh monitors: the base and its truth stay as they are.
func (c *Campaign) Run(is Issue) *Report {
	base := c.WAN
	if is.UseProbe {
		base = c.Probe
	}
	f := *base
	f.RouteMon, f.TrafficMon = &monitor.RouteMonitor{}, &monitor.TrafficMonitor{}
	is.Apply(&f)
	return f.Run()
}

// Table4Issues builds the §5.3 issue-injection campaign over a base network.
// The per-class counts follow the paper's Table 4 proportions (scaled to 26
// injected issues), so the output distribution reproduces the table's shape.
func Table4Issues() []Issue {
	var out []Issue
	add := func(class IssueClass, name string, n int, probe bool, mk func(i int) func(f *Framework)) {
		for i := 0; i < n; i++ {
			out = append(out, Issue{Class: class, Name: name, Apply: mk(i), UseProbe: probe})
		}
	}
	// edit injects e: the model is the truth's fork under its delta.
	edit := func(e modelEdit) func(f *Framework) {
		return func(f *Framework) { f.editModel = e }
	}

	// Route monitoring data issues (Table 4 row 1, ~23%): agents fail.
	add(IssueRouteMonitoring, "route agent failure", 6, false, func(i int) func(f *Framework) {
		return func(f *Framework) {
			devs := f.Net.DeviceNames()
			f.RouteMon.Faults.FailedRouteAgents = []string{devs[i%len(devs)]}
		}
	})
	// Traffic monitoring data issues (row 2, ~19%): NetFlow volume bug.
	add(IssueTrafficMonitoring, "netflow volume bug", 5, false, func(i int) func(f *Framework) {
		return func(f *Framework) {
			f.TrafficMon.Faults.FlowVolumeScale = 1.5 + float64(i)*0.2
		}
	})
	// Topology data issues (row 3, ~12%): stale link data. The hidden links
	// are a DC gateway's uplinks, which carry all its prefixes' traffic.
	add(IssueTopologyData, "stale topology", 3, false, func(i int) func(f *Framework) {
		return func(f *Framework) {
			links := f.Net.Topo.LinksOf("dc-0-0")
			if len(links) == 0 {
				links = f.Net.Topo.Links()
			}
			f.TrafficMon.Faults.HiddenLinks = []netmodel.LinkID{links[i%len(links)].ID()}
		}
	})
	// Config parsing flaws (row 4, ~10%): the parser "loses" the deny node
	// of a border's ISP export policy, so the model leaks no-export routes
	// the live network filters.
	add(IssueConfigParsing, "route-map node lost in parsing", 2, false, func(i int) func(f *Framework) {
		return edit(func(net *config.Network, _ []netmodel.Route) core.Delta {
			dropped := 0
			return editDevices(net, func(d *config.Device) bool {
				rm := d.RouteMaps["RM_ISP_OUT"]
				if dropped > i || rm == nil || rm.Node(10) == nil {
					return false
				}
				rm.DeleteNode(10)
				dropped++
				return true
			})
		})
	})
	// Input route building flaws (row 5, ~10%): routes with empty AS paths
	// are discarded by a pre-processing rule (the paper's DC-aggregate bug).
	add(IssueInputBuilding, "empty-AS-path inputs dropped", 2, false, func(i int) func(f *Framework) {
		return edit(func(_ *config.Network, inputs []netmodel.Route) (d core.Delta) {
			for _, r := range inputs {
				if path := r.Attr().ASPath; len(path.Seq) == 0 && len(path.Set) == 0 {
					d.DropInputs = append(d.DropInputs, r)
				}
			}
			return d
		})
	})
	// Simulation implementation bugs (row 6, ~8%): the flawed AS-path regex.
	add(IssueImplementationBug, "flawed AS-path regex", 2, false, func(int) func(*Framework) { return edit(flawASPathRegexes) })
	// Unmodeled VSBs (row 7, ~6%): the SR IGP-cost behaviour missing.
	add(IssueUnmodeledVSB, "SR IGP-cost VSB unmodeled", 2, true, func(i int) func(f *Framework) {
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
	add(IssueUnmodeledFeature, "IS-IS TE metric unmodeled", 1, true, func(int) func(*Framework) { return edit(clearTECosts) })
	// BGP convergence ambiguity (row 9, ~2%): the live network converged to
	// a different tie-break order; modelled as a router-ID change invisible
	// to the model.
	add(IssueBGPConvergence, "alternate convergence state", 1, true, func(i int) func(f *Framework) {
		return edit(func(net *config.Network, _ []netmodel.Route) core.Delta {
			b4, c4 := net.Devices["B4"], net.Devices["C4"]
			if b4 == nil || c4 == nil {
				return core.Delta{}
			}
			b4, c4 = b4.Clone(), c4.Clone()
			b4.RouterID, c4.RouterID = c4.RouterID, b4.RouterID
			return core.Delta{Configs: map[string]*config.Device{"B4": b4, "C4": c4}}
		})
	})
	// Others (~8%): ACLs not modelled, PBR not modelled.
	add(IssueOther, "ACLs unmodeled", 1, true, func(int) func(*Framework) { return edit(clearACLs) })
	add(IssueOther, "PBR unmodeled", 1, true, func(int) func(*Framework) { return edit(clearPBR) })
	return out
}

// editDevices is the delta that replaces every device edit changes: edit gets
// a clone of each device and reports whether it changed it.
func editDevices(net *config.Network, edit func(*config.Device) bool) core.Delta {
	d := core.Delta{Configs: map[string]*config.Device{}}
	for _, name := range net.DeviceNames() {
		if c := net.Devices[name].Clone(); edit(c) {
			d.Configs[name] = c
		}
	}
	return d
}

// flawASPathRegexes reproduces Hoyan's early AS-path matching (§5.3 "Hoyan's
// early implementation of regular expression matching for AS path was
// flawed"): every entry's regex becomes a substring search for its literal
// characters.
func flawASPathRegexes(net *config.Network, _ []netmodel.Route) core.Delta {
	return editDevices(net, func(d *config.Device) (changed bool) {
		for _, l := range d.ASPathLists {
			for i, e := range l.Entries {
				l.Entries[i].Regex = regexp.QuoteMeta(strings.TrimSpace(regexMeta.ReplaceAllString(e.Regex, "")))
				changed = changed || l.Entries[i].Regex != e.Regex
			}
		}
		return changed
	})
}

// regexMeta matches a regex's metacharacters.
var regexMeta = regexp.MustCompile(`[.*^$\[\]()+?\\|{}]`)

// The features the model does not support, cleared on every interface.
var (
	clearTECosts = clearing(func(i *config.Interface) { i.TECost = 0 })
	clearACLs    = clearing(func(i *config.Interface) { i.ACLIn, i.ACLOut = "", "" })
	clearPBR     = clearing(func(i *config.Interface) { i.PBR = "" })
)

// clearing is the model edit that applies clear to every interface and
// replaces the devices where that changes one.
func clearing(clear func(*config.Interface)) modelEdit {
	return func(net *config.Network, _ []netmodel.Route) core.Delta {
		return editDevices(net, func(d *config.Device) (changed bool) {
			for _, i := range d.Interfaces {
				was := *i
				clear(i)
				changed = changed || *i != was
			}
			return changed
		})
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
