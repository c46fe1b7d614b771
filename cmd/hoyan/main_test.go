package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"hoyan/internal/core"
	"hoyan/internal/gen"
	"hoyan/internal/intent"
	"hoyan/internal/pipeline"
)

// buildHoyan builds this command into dir and returns the binary's path.
func buildHoyan(t *testing.T, dir string) string {
	t.Helper()
	bin := filepath.Join(dir, "hoyan")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestConfigsWarnOnFindings runs hoyan -configs over WAN(1)'s rendered
// configurations, as generated and with one neighbor bound to an undefined
// route map. Both runs exit 0 with the same stdout; only the second writes
// to stderr, config.Validate's finding as one warning line.
func TestConfigsWarnOnFindings(t *testing.T) {
	dir := t.TempDir()
	bin := buildHoyan(t, dir)
	texts := gen.Generate(gen.WAN(1)).ConfigTexts()
	run := func(name string) (stdout, stderr string) {
		cfgs := filepath.Join(dir, name)
		if err := os.Mkdir(cfgs, 0o755); err != nil {
			t.Fatal(err)
		}
		for dev, text := range texts {
			if err := os.WriteFile(filepath.Join(cfgs, dev+".cfg"), []byte(text), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		var o, e bytes.Buffer
		cmd := exec.Command(bin, "-configs", cfgs, "-rcl", "prefix != 10.255.255.255/32 => PRE = POST")
		cmd.Stdout, cmd.Stderr = &o, &e
		if err := cmd.Run(); err != nil {
			t.Fatalf("hoyan -configs (%s): %v, want exit 0\n%s%s", name, err, o.String(), e.String())
		}
		return o.String(), e.String()
	}
	cleanOut, cleanErr := run("clean")
	texts["border-0-0"] = strings.Replace(texts["border-0-0"], "route-policy RM_ISP_OUT export", "route-policy RM_MISSING export", 1)
	out, stderr := run("dangling")
	if want := "warning: border-0-0: neighbor 172.16.0.57: undefined policy \"RM_MISSING\"\n"; cleanErr != "" || stderr != want {
		t.Fatalf("stderr: clean run %q, dangling policy run %q; want none, then %q", cleanErr, stderr, want)
	}
	if out != cleanOut || !strings.Contains(out, "verdict: change plan verified") {
		t.Fatalf("stdout with a dangling policy:\n%s\nclean run:\n%s", out, cleanOut)
	}
}

// TestConfigsModelDir runs hoyan -configs over WAN(1)'s model directory,
// inputs and flows included, with a plan that raises the local preference
// border-0-0 gives its ISP's routes and a spec over one ISP prefix. Without
// the inputs no row carries that prefix and the spec holds; with them it is
// violated. The report equals an in-process Verify of the same model, and
// -workers 2 prints the same bytes.
func TestConfigsModelDir(t *testing.T) {
	dir := t.TempDir()
	bin := buildHoyan(t, dir)
	out := gen.Generate(gen.WAN(1))
	model := filepath.Join(dir, "wan1")
	if err := core.WriteModel(model, out.Net, out.Inputs, out.Flows); err != nil {
		t.Fatal(err)
	}
	const planText = "@device border-0-0\nroute-policy RM_ISP_IN permit node 20\n apply local-preference 200\n"
	const spec = "prefix = 20.0.0.0/24 => PRE = POST"
	planFile := filepath.Join(dir, "plan.txt")
	if err := os.WriteFile(planFile, []byte(planText), 0o644); err != nil {
		t.Fatal(err)
	}

	plan, err := parsePlan(planText)
	if err != nil {
		t.Fatal(err)
	}
	res, err := pipeline.New(out.Net, out.Inputs, out.Flows, core.Options{}).Verify(plan, []intent.Intent{intent.RouteIntent{Spec: spec}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Reports) != 1 || res.Reports[0].Satisfied {
		t.Fatalf("in-process reports %+v, want the spec violated", res.Reports)
	}
	var want bytes.Buffer
	fmt.Fprintf(&want, "base model: %d devices, %d links parsed, %d input routes, %d flows\n",
		len(out.Net.Devices), len(out.Net.Topo.Links()), len(out.Inputs), len(out.Flows))
	printOutcome(&want, res)

	for _, workers := range []string{"0", "2"} {
		var o, e bytes.Buffer
		cmd := exec.Command(bin, "-configs", model, "-plan", planFile, "-rcl", spec, "-workers", workers)
		cmd.Stdout, cmd.Stderr = &o, &e
		var exit *exec.ExitError
		if err := cmd.Run(); !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Fatalf("hoyan -workers %s: %v, want exit 1 (rejected)\n%s%s", workers, err, o.String(), e.String())
		}
		if o.String() != want.String() || e.Len() != 0 {
			t.Fatalf("hoyan -workers %s:\n%s\nstderr %q\nwant:\n%s", workers, o.String(), e.String(), want.String())
		}
	}
}
