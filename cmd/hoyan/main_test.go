package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"hoyan/internal/gen"
)

// TestConfigsWarnOnFindings runs hoyan -configs over WAN(1)'s rendered
// configurations, as generated and with one neighbor bound to an undefined
// route map. Both runs exit 0 with the same stdout; only the second writes
// to stderr, config.Validate's finding as one warning line.
func TestConfigsWarnOnFindings(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "hoyan")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
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
