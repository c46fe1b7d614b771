// Command hoyan runs one change verification end to end on a generated WAN
// snapshot or a directory of configuration files, mirroring the production
// system's REST-triggered verification path (§6): build the base model,
// apply the change plan, simulate (optionally on a local worker cluster),
// check the intents, and print the reports with counterexamples.
//
// Usage:
//
//	hoyan -scenario fig10a|fig10b              # run a built-in case study
//	hoyan -configs DIR -plan FILE -rcl SPEC    # verify a plan over configs
//
// The change plan file format is a sequence of device blocks:
//
//	@device <name>
//	<command lines in the device's own dialect>
//	@device <other>
//	...
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"hoyan/internal/change"
	"hoyan/internal/config"
	"hoyan/internal/core"
	"hoyan/internal/intent"
	"hoyan/internal/localize"
	"hoyan/internal/pipeline"
	"hoyan/internal/scenario"
)

func main() {
	scenarioName := flag.String("scenario", "", "built-in case study: fig10a or fig10b")
	configDir := flag.String("configs", "", "directory of device configuration files")
	planFile := flag.String("plan", "", "change plan file (@device blocks)")
	rclSpec := flag.String("rcl", "", "route change intent in RCL")
	workers := flag.Int("workers", 0, "simulate on a local cluster with N workers (0 = centralized)")
	parallelism := flag.Int("parallelism", 0, "intra-engine parallelism (SPF, ECs, the cold BGP fixpoint's work units, forwarding, config parsing): 0 = all cores, 1 = sequential, N = N workers")
	doLocalize := flag.Bool("localize", false, "on violation, delta-debug the plan to a minimal culprit stanza set")
	flag.Parse()
	localizeWanted = *doLocalize
	parallelismFlag = *parallelism

	switch {
	case *scenarioName != "":
		runScenario(*scenarioName, *workers)
	case *configDir != "":
		runConfigs(*configDir, *planFile, *rclSpec, *workers)
	default:
		flag.Usage()
		os.Exit(2)
	}
}

var (
	localizeWanted  bool
	parallelismFlag int
)

func engineOptions() core.Options {
	return core.Options{Parallelism: parallelismFlag}
}

func runScenario(name string, workers int) {
	var sc *scenario.Scenario
	switch name {
	case "fig10a":
		sc = scenario.Fig10a()
	case "fig10b":
		sc = scenario.Fig10b()
	default:
		fmt.Fprintf(os.Stderr, "unknown scenario %q (want fig10a or fig10b)\n", name)
		os.Exit(2)
	}
	fmt.Printf("scenario: %s\n%s\n\n", sc.Name, sc.Description)
	sys := pipeline.New(sc.Net, sc.Inputs, sc.Flows, engineOptions())
	sys.Workers = workers
	out, err := sys.Verify(sc.Plan, sc.Intents)
	if err != nil {
		fmt.Fprintln(os.Stderr, "verification error:", err)
		os.Exit(1)
	}
	printOutcome(out)
	if !out.OK {
		maybeLocalize(sys, sc.Plan, sc.Intents)
		os.Exit(1)
	}
}

// maybeLocalize runs the §7 misconfiguration localizer when requested.
func maybeLocalize(sys *pipeline.System, plan *change.Plan, intents []intent.Intent) {
	if !localizeWanted {
		return
	}
	res, err := localize.Localize(sys, plan, intents, localize.Options{})
	if err != nil {
		fmt.Fprintln(os.Stderr, "localize:", err)
		return
	}
	fmt.Println("\nmisconfiguration localization:")
	for _, u := range res.Unachieved {
		fmt.Printf("  unachieved goal (pre-existing or missing commands): %s\n", u)
	}
	if len(res.Culprits) > 0 {
		fmt.Printf("  minimal culprit stanzas (%d trials):\n", res.Trials)
		for _, c := range res.Culprits {
			fmt.Printf("    %s\n", c)
		}
	}
}

func runConfigs(dir, planFile, rclSpec string, workers int) {
	net, err := config.LoadDir(dir, config.BuildOptions{Parallelism: parallelismFlag})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("base model: %d devices, %d links parsed\n", len(net.Devices), len(net.Topo.Links()))
	for _, f := range net.Validate() {
		fmt.Fprintln(os.Stderr, "warning:", f.String())
	}

	plan := &change.Plan{ID: "cli", Type: change.RouteAttrModify, Commands: map[string]string{}}
	if planFile != "" {
		data, err := os.ReadFile(planFile)
		if err != nil {
			fatal(err)
		}
		if err := parsePlan(string(data), plan); err != nil {
			fatal(err)
		}
	}
	var intents []intent.Intent
	if rclSpec != "" {
		intents = append(intents, intent.RouteIntent{Spec: rclSpec})
	}
	sys := pipeline.New(net, nil, nil, engineOptions())
	sys.Workers = workers
	out, err := sys.Verify(plan, intents)
	if err != nil {
		fatal(err)
	}
	printOutcome(out)
	if !out.OK {
		maybeLocalize(sys, plan, intents)
		os.Exit(1)
	}
}

// parsePlan reads @device blocks into the plan's command map.
func parsePlan(text string, plan *change.Plan) error {
	cur := ""
	for _, line := range strings.Split(text, "\n") {
		trimmed := strings.TrimSpace(line)
		if strings.HasPrefix(trimmed, "@device ") {
			cur = strings.TrimSpace(strings.TrimPrefix(trimmed, "@device "))
			continue
		}
		if cur == "" {
			if trimmed == "" {
				continue
			}
			return fmt.Errorf("plan line %q outside a @device block", trimmed)
		}
		plan.Commands[cur] += line + "\n"
	}
	return nil
}

func printOutcome(out *pipeline.Outcome) {
	fmt.Printf("plan %s applied: %d devices touched, %d command lines\n",
		out.Plan.ID, len(out.Plan.Commands), out.Plan.CommandLines())
	for _, rep := range out.Reports {
		status := "SATISFIED"
		if !rep.Satisfied {
			status = "VIOLATED"
		}
		fmt.Printf("[%s] %s\n", status, rep.Intent)
		for _, v := range rep.Violations {
			fmt.Printf("    %s\n", v)
		}
	}
	if out.OK {
		fmt.Println("verdict: change plan verified")
	} else {
		fmt.Println("verdict: change plan REJECTED (see counterexamples)")
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hoyan:", err)
	os.Exit(1)
}
