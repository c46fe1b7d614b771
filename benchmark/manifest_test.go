package main

import (
	"encoding/json"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
)

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	pathRE = regexp.MustCompile(`^[A-Za-z0-9_./-]{1,200}$`)
)

// TestManifestMatchesCode keeps BENCHMARK.json, which the contract's driver
// reads, in step with the tables the program reports from, and inside the
// contract's limits.
func TestManifestMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 64<<10 {
		t.Errorf("manifest is %d bytes, limit 64 KiB", len(data))
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range raw {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	if want := []string{"command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"}; !slices.Equal(keys, want) {
		t.Errorf("top-level keys %v, want exactly %v", keys, want)
	}
	var m manifest
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatal(err)
	}

	if len(m.Command) == 0 || len(m.Command) > 32 {
		t.Errorf("command has %d elements", len(m.Command))
	}
	for _, a := range m.Command {
		if len(a) > 200 || strings.HasPrefix(a, "/") || strings.Contains(a, "..") {
			t.Errorf("command element %q is too long or leaves the checkout", a)
		}
	}
	if !slices.Equal(m.Paths, []string{"benchmark"}) {
		t.Errorf("paths = %v, want [benchmark]", m.Paths)
	}
	for _, p := range m.Paths {
		if !pathRE.MatchString(p) {
			t.Errorf("path %q has characters outside the allowed set", p)
		}
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds = %d, want 1..60", m.RunSeconds)
	}
	// The driver's budget: 4 + 22 runs per workload and two builds in 3420 s.
	// Around its timed loop a run spends up to ~12 s on repeated set-up,
	// cross-checks and the last operation's overshoot; a build takes ~60 s.
	if runs := 4 + 22*len(m.Workloads); runs*(m.RunSeconds+12)+2*60 > 3420 {
		t.Errorf("%d runs of %d s plus ~12 s around each, and two builds, exceed the driver's 3420 s", runs, m.RunSeconds)
	}

	seen := map[string]bool{}
	unique := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q does not match %v", name, nameRE)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}

	if len(m.Workloads) != len(workloads) {
		t.Fatalf("manifest declares %d workloads, the program has %d", len(m.Workloads), len(workloads))
	}
	for i, w := range m.Workloads {
		unique(w.Name)
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: manifest has %q (%q), the program %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}

	check := func(kind string, got []manifestMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: manifest declares %d metrics, the program reports %d", kind, len(got), len(want))
		}
		for i, g := range got {
			unique(g.Name)
			w := want[i]
			if g.Name != w.name || g.Unit != w.unit || g.Better != w.better {
				t.Errorf("%s[%d]: manifest has %s (%s, %s), the program %s (%s, %s)", kind, i, g.Name, g.Unit, g.Better, w.name, w.unit, w.better)
			}
			if !unitRE.MatchString(g.Unit) {
				t.Errorf("%s: unit %q does not match %v", g.Name, g.Unit, unitRE)
			}
			if g.Better != "lower" && g.Better != "higher" {
				t.Errorf("%s: better = %q", g.Name, g.Better)
			}
			switch {
			case bounded && (g.Bound == nil || *g.Bound != w.bound || *g.Bound <= 0 || *g.Bound > 0.25):
				t.Errorf("%s: bound %v, want %v within (0, 0.25]", g.Name, g.Bound, w.bound)
			case !bounded && g.Bound != nil:
				t.Errorf("%s: per-layer metrics carry no bound", g.Name)
			}
		}
	}
	check("end_to_end", m.EndToEnd, endToEnd, true)
	check("per_layer", m.PerLayer, perLayer, false)
	if !slices.ContainsFunc(m.EndToEnd, func(x manifestMetric) bool {
		return x.Name == "setup_s" && x.Unit == "s" && x.Better == "lower"
	}) {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
	if len(m.PerLayer) > 128 || len(m.EndToEnd) > 16 {
		t.Errorf("too many metrics: %d end-to-end, %d per-layer", len(m.EndToEnd), len(m.PerLayer))
	}
}
