package scenario

import (
	"fmt"
	"net/netip"
	"strings"

	"hoyan/internal/change"
	"hoyan/internal/config"
	"hoyan/internal/core"
	"hoyan/internal/intent"
	"hoyan/internal/netmodel"
)

// RootCause classifies a detected change risk per Table 6.
type RootCause string

// Table 6 root-cause classes.
const (
	CauseIncorrectCommands RootCause = "incorrect-commands"
	CauseDesignFlaw        RootCause = "change-plan-design-flaw"
	CauseExistingMisconfig RootCause = "existing-misconfiguration"
	CauseTopologyIssue     RootCause = "topology-issue"
	CauseOther             RootCause = "others"
)

// RiskScenario is one deliberately risky change plan Hoyan must catch.
type RiskScenario struct {
	*Scenario
	Cause RootCause
}

// Table6Catalog builds the Table 6 campaign: risky change plans whose
// distribution over root causes mirrors the paper's (incorrect commands >
// design flaws > existing misconfiguration > topology issues > others).
// Every scenario has WantOK=false or WantApplyError=true: Hoyan must flag
// each one.
func Table6Catalog() []*RiskScenario {
	var out []*RiskScenario
	add := func(c RootCause, sc *Scenario) {
		sc.WantOK = false
		out = append(out, &RiskScenario{Scenario: sc, Cause: c})
	}

	// ---- incorrect commands (6 scenarios) ----

	// (1) Typo in the router name: the plan cannot even be applied.
	sc := table2Scenario(change.StaticRouteModify)
	sc.Name = "t6-router-name-typo"
	sc.Plan.Commands = map[string]string{"borde-0-1": sc.Plan.Commands["border-0-1"]}
	sc.WantApplyError = true
	add(CauseIncorrectCommands, sc)

	// (2) Alpha command block sent to a beta router: rejected like a real
	// CLI would.
	sc = table2Scenario(change.StaticRouteModify)
	sc.Name = "t6-wrong-vendor-syntax"
	sc.Plan.Commands = map[string]string{"border-0-0": sc.Plan.Commands["border-0-1"]}
	delete(sc.Plan.Commands, "border-0-1")
	sc.WantApplyError = true
	add(CauseIncorrectCommands, sc)

	// (3) Wrong prefix mask: the static route covers /25 instead of /24, so
	// the reachability intent for /24 fails.
	sc = table2Scenario(change.StaticRouteModify)
	sc.Name = "t6-wrong-prefix-mask"
	nh := sc.Net.Devices["core-0-0"].Loopback
	sc.Plan.Commands["border-0-1"] = fmt.Sprintf("ip route 192.0.2.0/25 %s\n", nh)
	add(CauseIncorrectCommands, sc)

	// (4) Wrong community value: retag uses 65000:7 instead of 65000:77.
	sc = table2Scenario(change.RouteAttrModify)
	sc.Name = "t6-wrong-community"
	cmds := sc.Plan.Commands["dc-0-1"]
	sc.Plan.Commands["dc-0-1"] = replaceAll(cmds, "65000:77", "65000:7")
	add(CauseIncorrectCommands, sc)

	// (5) Typo in a filter name: the plan adds a deny node intended to stop
	// a single prefix from being retagged, but references PL_EXCLUDO
	// (typo) instead of PL_EXCLUDE. On this alpha vendor an undefined
	// filter matches everything, so the deny node silently drops every
	// advertisement from dc-0-1 — referencing undefined definitions
	// "would trigger unexpected vendor-specific behavior" (§6.1).
	sc = table2Scenario(change.RouteAttrModify)
	sc.Name = "t6-filter-name-typo"
	sc.Plan.Commands["dc-0-1"] = `
ip prefix-list PL_EXCLUDE permit 10.0.64.0/24
route-map RM_RETAG deny 5
 match ip-prefix PL_EXCLUDO
!
route-map RM_RETAG permit 20
!
router bgp
 neighbor ` + rrLoopbackOf(sc) + ` route-map RM_RETAG out
!
`
	sc.Intents = append(sc.Intents, intent.RouteIntent{
		Spec: "forall device in {rr-0-0}: POST||peer = dc-0-1 |> count() >= 1",
	})
	add(CauseIncorrectCommands, sc)

	// (6) The ip-prefix/ipv6-prefix confusion (Figure 10(b)).
	add(CauseIncorrectCommands, Fig10b())

	// ---- change plan design flaws (5 scenarios) ----

	// (7) Local preference set below the competing route's: the steering
	// has no effect.
	sc = table2Scenario(change.TrafficSteering)
	sc.Name = "t6-lp-too-low"
	sc.Plan.Commands["border-0-0"] = replaceAll(sc.Plan.Commands["border-0-0"], "local-preference 150", "local-preference 50")
	add(CauseDesignFlaw, sc)

	// (8) Wrong IS-IS cost on a new link: it is supposed to be preferred
	// (low cost) but the plan sets it higher than existing paths, so
	// flows never use it.
	sc = table2Scenario(change.AddLinks)
	sc.Name = "t6-isis-cost-flaw"
	sc.Plan.AddLinks[0].CostAB = 10
	sc.Plan.AddLinks[0].CostBA = 10
	// Intent: the new low-cost link becomes the inter-region path for
	// region-0 to region-1 traffic — add a probe flow and expect it on the
	// new link. Design flaw injected: cost accidentally set high instead.
	sc.Plan.AddLinks[0].CostAB = 500
	sc.Plan.AddLinks[0].CostBA = 500
	probe := netmodel.Flow{
		Ingress: "dc-0-1", Src: netip.MustParseAddr("10.0.64.9"),
		Dst: netip.MustParseAddr("10.1.0.9"), SrcPort: 7777, DstPort: 443,
		Proto: netmodel.ProtoTCP, Volume: 1e6,
	}
	sc.Flows = append(sc.Flows, probe)
	sc.Intents = append(sc.Intents, intent.PathIntent{
		Select:     intent.FlowSelector{Ingress: "dc-0-1", DstWithin: netip.MustParsePrefix("10.1.0.0/24")},
		AvoidLinks: nil,
		Traverse:   []string{"core-0-0", "core-1-0"},
		Delivered:  true,
	})
	add(CauseDesignFlaw, sc)

	// (9) Forgotten second router: the plan steers at border-0-0 but the
	// intent requires region-wide preference including prefixes learned at
	// other borders — incomplete design.
	sc = table2Scenario(change.TrafficSteering)
	sc.Name = "t6-partial-steering"
	sc.Intents = []intent.Intent{intent.RouteIntent{
		// ALL ISP-learned prefixes visible on rr-0-0 should now carry
		// lp 150 — but the plan only touched region 0's border, so the
		// other regions' ISP routes keep lp 80.
		Spec: "forall device in {rr-0-0}: (communities contains 64600:0 or communities contains 64600:1 or communities contains 64600:2) and routeType = BEST => POST |> distVals(localPref) = {150}",
	}}
	add(CauseDesignFlaw, sc)

	// (10) Reclaiming a prefix that still carries traffic: flows to it are
	// blackholed.
	sc = table2Scenario(change.PrefixReclamation)
	sc.Name = "t6-reclaim-live-prefix"
	// Reclaim an ISP prefix: unlike DC prefixes it has no covering
	// aggregate, so traffic to it is genuinely blackholed.
	var victim netmodel.Route
	for _, in := range sc.Inputs {
		if in.Device == "isp-0-0" {
			victim = in
			break
		}
	}
	sc.Plan.DropInputs = []netmodel.Route{victim}
	sc.Intents = []intent.Intent{intent.ReachIntent{Prefix: victim.Prefix, Want: false}}
	sc.Flows = append(sc.Flows, netmodel.Flow{
		Ingress: "border-1-0", Src: netip.MustParseAddr("198.18.5.1"),
		Dst: victim.Prefix.Addr().Next(), SrcPort: 5555, DstPort: 443,
		Proto: netmodel.ProtoTCP, Volume: 1e6,
	})
	sc.Intents = append(sc.Intents, intent.PathIntent{
		Select:    intent.FlowSelector{Ingress: "border-1-0", DstWithin: victim.Prefix},
		Delivered: true,
	})
	add(CauseDesignFlaw, sc)

	// (11) OS maintenance performed with a config change that does alter
	// routing: the "all routes unchanged" intent catches it.
	sc = table2Scenario(change.OSUpgrade)
	sc.Name = "t6-maintenance-touches-routing"
	sc.Plan.Commands["dc-0-1"] = `
router bgp
 network 203.0.113.0/24
!
`
	add(CauseDesignFlaw, sc)

	// ---- existing misconfiguration (3 scenarios) ----

	// (12) The Figure 10(a) case: latent missing policy node.
	add(CauseExistingMisconfig, Fig10a())

	// (13) A pre-existing undefined-filter reference on an untouched router
	// becomes load-bearing after the change.
	sc = table2Scenario(change.RouteAttrModify)
	sc.Name = "t6-latent-undefined-filter"
	// Pre-damage the base network: rr-0-0's import from dc-0-1 references
	// an undefined prefix list with a DENY action; harmless while unused...
	mustCommands(sc.Net.Devices["rr-0-0"], `
route-map RM_LATENT deny 5
 match ip-prefix PL_NEVER_DEFINED
!
route-map RM_LATENT permit 10
!
`)
	// ...until the change binds it (part of the plan's "cleanup").
	sc.Plan.Commands["rr-0-0"] = fmt.Sprintf(`
router bgp
 neighbor %s route-map RM_LATENT in
!
`, sc.Net.Devices["dc-0-1"].Loopback)
	// rr-0-0 is alpha: the undefined filter matches everything, so the
	// deny-5 node now drops ALL routes from dc-0-1.
	sc.Intents = append(sc.Intents, intent.RouteIntent{
		Spec: "forall device in {rr-0-0}: POST||peer = dc-0-1 |> count() >= 1",
	})
	add(CauseExistingMisconfig, sc)

	// (14) A stale static route on an untouched router hijacks the newly
	// announced prefix.
	sc = table2Scenario(change.NewPrefix)
	sc.Name = "t6-stale-static"
	newP := sc.Plan.NewInputs[0].Prefix
	stale := sc.Net.Devices["border-1-0"]
	stale.Statics = append(stale.Statics, config.StaticRoute{
		VRF: netmodel.DefaultVRF, Prefix: newP,
		NextHop: linkAddrOf(sc, "border-1-0", "isp-1-0"), Preference: 1,
	})
	sc.Flows = append(sc.Flows, netmodel.Flow{
		Ingress: "border-1-0", Src: netip.MustParseAddr("198.18.6.1"),
		Dst: newP.Addr().Next(), SrcPort: 6666, DstPort: 443,
		Proto: netmodel.ProtoTCP, Volume: 1e6,
	})
	sc.Intents = append(sc.Intents, intent.PathIntent{
		Select:    intent.FlowSelector{Ingress: "border-1-0", DstWithin: newP},
		Traverse:  []string{"border-1-0", "dc-0-0"},
		Delivered: true,
	})
	add(CauseExistingMisconfig, sc)

	// ---- topology issues (1 scenario) ----

	// (15) Maintenance on one uplink while the redundant one is already
	// down: the DC is cut off.
	sc = table2Scenario(change.TopologyAdjust)
	sc.Name = "t6-redundancy-already-lost"
	links := upLinksOf(sc, "dc-0-1") // the plan disables links[0] of dc-0-1
	// A pre-existing failure of the twin.
	if _, err := (core.Delta{LinksDown: links[1:2]}).Apply(sc.Net); err != nil {
		panic(fmt.Sprintf("scenario: %v", err))
	}
	sc.Intents = append(sc.Intents, intent.ReachIntent{
		Prefix: netip.MustParsePrefix("10.0.64.0/24"), Devices: []string{"rr-0-0"}, Want: true,
	})
	add(CauseTopologyIssue, sc)

	// ---- others (1 scenario) ----

	// (16) Specification gap: the operator's spec verifies but the default
	// "others do not change" heuristic (§7) reveals unexpected churn.
	sc = table2Scenario(change.TrafficSteering)
	sc.Name = "t6-default-nochange-catch"
	sc.Intents = append(sc.Intents, intent.RouteIntent{
		// The §7 heuristic: everything not mentioned must stay unchanged.
		Spec: "forall device in {rr-1-0}: peer = border-1-0 => PRE = POST",
	})
	// Make the steering leak into region 1 by also preferring routes
	// re-advertised across regions (the plan mistakenly applies the lp to
	// every ISP prefix, which region 1 imports too). To keep this scenario
	// self-contained we instead flip the probe intent: region 1 RR rows
	// from border-1-0 stay fixed, so the risk here is the churn on rr-0-0's
	// second ISP path, caught by a no-change spec on it.
	sc.Intents[len(sc.Intents)-1] = intent.RouteIntent{
		Spec: "forall device in {rr-0-0}: peer = border-0-0 => PRE = POST",
	}
	add(CauseOther, sc)

	return out
}

func replaceAll(s, old, new string) string { return strings.ReplaceAll(s, old, new) }

func rrLoopbackOf(sc *Scenario) string { return sc.Net.Devices["rr-0-0"].Loopback.String() }
