package scenario

import (
	"strings"
	"testing"

	"hoyan/internal/core"
	"hoyan/internal/netmodel"
	"hoyan/internal/pipeline"
)

func runScenario(t *testing.T, sc *Scenario) *pipeline.Outcome {
	t.Helper()
	sys := pipeline.New(sc.Net, sc.Inputs, sc.Flows, core.Options{})
	out, err := sys.Verify(sc.Plan, sc.Intents)
	if sc.WantApplyError {
		if err == nil {
			t.Fatalf("%s: plan must fail to apply", sc.Name)
		}
		return nil
	}
	if err != nil {
		t.Fatalf("%s: %v", sc.Name, err)
	}
	if out.OK != sc.WantOK {
		for _, rep := range out.Reports {
			t.Logf("%s satisfied=%v", rep.Intent, rep.Satisfied)
			for _, v := range rep.Violations {
				t.Logf("  %s", v)
			}
		}
		t.Fatalf("%s: OK = %v, want %v", sc.Name, out.OK, sc.WantOK)
	}
	return out
}

func TestFig10aScenario(t *testing.T) {
	sc := Fig10a()
	out := runScenario(t, sc)

	// Exactly the paper's findings:
	// (1) Only M2 installed route R; M1 did not.
	routeRep := out.Reports[0]
	if routeRep.Satisfied {
		t.Error("route intent must be violated")
	}
	joined := strings.Join(routeRep.Violations, "\n")
	if !strings.Contains(joined, "M1") {
		t.Errorf("violation must name M1: %s", joined)
	}
	m2Best := 0
	for _, r := range out.UpdateSnap.RIB.Block("M2") {
		if r.Prefix.String() == "1.0.0.0/24" && r.RouteType == netmodel.RouteBest {
			m2Best++
		}
	}
	if m2Best == 0 {
		t.Error("M2 must install route R")
	}

	// (2) The flow takes M1-A-M2-B.
	pathRep := out.Reports[1]
	if pathRep.Satisfied {
		t.Error("path intent must be violated")
	}
	var gotPath string
	for _, fp := range out.UpdateSnap.Paths {
		if fp.Flow.Ingress == "M1" {
			gotPath = strings.Join(fp.Path.Devices(), "-")
		}
	}
	if gotPath != "M1-A-M2-B" {
		t.Errorf("detour path = %s, want M1-A-M2-B", gotPath)
	}

	// (3) Link A-M2 overloaded.
	loadRep := out.Reports[2]
	if loadRep.Satisfied {
		t.Error("load intent must be violated")
	}
	if !strings.Contains(strings.Join(loadRep.Violations, " "), "M2") {
		t.Errorf("overload must involve A-M2: %v", loadRep.Violations)
	}

	// Before the change, the base state carried no traffic on A-M2's detour
	// (flow used the default route via A then exits at A's peer).
	var basePath string
	for _, fp := range out.BaseSnap.Paths {
		if fp.Flow.Ingress == "M1" {
			basePath = strings.Join(fp.Path.Devices(), "-")
		}
	}
	if !strings.HasPrefix(basePath, "M1-A") || strings.Contains(basePath, "B") {
		t.Errorf("base path = %s, want via old WAN A only", basePath)
	}
}

func TestFig10aFixedPlanPasses(t *testing.T) {
	// After fixing M1's policy (adding the missing node 20), the same change
	// verifies cleanly — the "after the command was fixed" ending of §6.1.
	sc := Fig10a()
	sc.Plan.Commands["M1"] = `
route-map RM_FROM_B permit 20
 match ip-prefix PL_R
!
no route-map RM_FROM_B deny 10
`
	sc.WantOK = true
	runScenario(t, sc)
}

func TestFig10bScenario(t *testing.T) {
	sc := Fig10b()
	out := runScenario(t, sc)

	// Intent 1 (targets moved to C) holds.
	if !out.Reports[0].Satisfied {
		t.Errorf("target move must verify: %v", out.Reports[0].Violations)
	}
	// Intent 2 (others unchanged) is violated: ALL IPv6 prefixes moved.
	if out.Reports[1].Satisfied {
		t.Error("others-unchanged must be violated by the VSB")
	}
	// Intent 3: C's ISP2 link overloaded.
	if out.Reports[2].Satisfied {
		t.Error("overload must be detected")
	}
	if !strings.Contains(strings.Join(out.Reports[2].Violations, " "), "ISP2") {
		t.Errorf("overload should be on the C-ISP2 link: %v", out.Reports[2].Violations)
	}
}

func TestFig10bFixedPlanPasses(t *testing.T) {
	// With the correct ipv6 prefix-list command, only the targets move and
	// everything verifies.
	sc := Fig10b()
	sc.Plan.Commands["C"] = `
ipv6 prefix-list TARGETS permit 2400:a::/32
ipv6 prefix-list TARGETS permit 2400:b::/32
route-map RM_LP permit 10
 match ip-prefix TARGETS
 set local-preference 300
!
route-map RM_LP permit 20
!
router bgp
 neighbor 9.1.0.1 route-map RM_LP out
!
`
	// The thin ISP2 link still takes the 2x30M intended shift: raise the
	// allowed utilization to pass (the operator would have also upgraded
	// the link; the point here is the route intents).
	sc.Intents = sc.Intents[:2]
	sc.WantOK = true
	runScenario(t, sc)
}
