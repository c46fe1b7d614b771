package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strings"
	"time"
)

// meta identifies the build and host a number was measured on.
type meta struct {
	SHA   string `json:"sha"`
	NProc int    `json:"nproc"`
	Go    string `json:"go"`
	Time  string `json:"time"`
}

func currentMeta() meta {
	return meta{SHA: gitSHA(), NProc: runtime.NumCPU(), Go: runtime.Version(), Time: time.Now().UTC().Format(time.RFC3339)}
}

// gitSHA is the checked-out commit, "+dirty" when the tree has changes, and
// "unknown" outside a git checkout (the contract's driver runs there).
func gitSHA() string {
	if _, err := os.Stat(".git"); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	sha := strings.TrimSpace(string(out))
	if st, err := exec.Command("git", "status", "--porcelain").Output(); err == nil && len(st) > 0 {
		sha += "+dirty"
	}
	return sha
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultDoc is one process's result file, benchmark/out/<workload>.json (or
// <workload>.layers.json for the traced run).
type resultDoc struct {
	Meta      meta                   `json:"meta"`
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Seconds   float64                `json:"seconds"`
	Trace     bool                   `json:"trace"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Failures  []string               `json:"failures,omitempty"`
	Samples   int                    `json:"samples"`
	Metrics   map[string]metricValue `json:"metrics"`
	Info      map[string]any         `json:"info,omitempty"`
}

// contractLine is the last line of standard output the driver parses.
type contractLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// defsFor is the metric table a run reports from: per-layer when traced.
func defsFor(traced bool) []metricDef {
	if traced {
		return perLayer
	}
	return endToEnd
}

// newResultDoc keeps exactly the metrics the run's mode declares, in the
// declared units; a declared metric the workload did not produce reads 0.
func newResultDoc(w *workload, e *env, out *outcome) resultDoc {
	defs := defsFor(e.tr != nil)
	doc := resultDoc{
		Meta: currentMeta(), Workload: w.name, Seed: e.seed, Seconds: e.seconds.Seconds(), Trace: e.tr != nil,
		Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed, Failures: out.failures,
		Samples: out.samples, Metrics: make(map[string]metricValue, len(defs)), Info: out.info,
	}
	for _, d := range defs {
		doc.Metrics[d.name] = metricValue{Value: out.metrics[d.name], Unit: d.unit}
	}
	for name := range out.metrics {
		if _, ok := doc.Metrics[name]; !ok {
			panic("benchmark: workload " + w.name + " reported undeclared metric " + name)
		}
	}
	return doc
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// printMetrics lists every metric by name with its unit, in declared order.
func printMetrics(w io.Writer, doc resultDoc) {
	for _, d := range defsFor(doc.Trace) {
		fmt.Fprintf(w, "  %-32s %14.6g %s\n", d.name, doc.Metrics[d.name].Value, d.unit)
	}
}

// ---- golden outputs ----

// goldenFile maps workload → fact → value for goldenSeed.
type goldenFile map[string]map[string]string

func readGolden(path string) (goldenFile, error) {
	var g goldenFile
	return g, readJSON(path, &g)
}

// diff describes how got departs from the recorded facts ("" when equal).
func (g goldenFile) diff(workload string, got map[string]string) string {
	want, ok := g[workload]
	if !ok {
		return "no golden entry"
	}
	var keys []string
	for k := range want {
		keys = append(keys, k)
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			keys = append(keys, k)
		}
	}
	slices.Sort(keys)
	var parts []string
	for _, k := range keys {
		if want[k] != got[k] {
			parts = append(parts, fmt.Sprintf("%s: got %q, want %q", k, got[k], want[k]))
		}
	}
	return strings.Join(parts, "; ")
}

// ---- committed trajectory ----

// trajectoryRow is one line of BENCH.jsonl.
type trajectoryRow struct {
	SHA      string  `json:"sha"`
	NProc    int     `json:"nproc"`
	Go       string  `json:"go"`
	Seed     int64   `json:"seed"`
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Value    float64 `json:"value"`
	Unit     string  `json:"unit"`
	Trace    bool    `json:"trace"`
}

// appendTrajectory adds one row per (workload, metric) of docs to path.
func appendTrajectory(path string, docs []resultDoc) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, doc := range docs {
		for _, d := range defsFor(doc.Trace) {
			row := trajectoryRow{
				SHA: doc.Meta.SHA, NProc: doc.Meta.NProc, Go: doc.Meta.Go, Seed: doc.Seed,
				Workload: doc.Workload, Metric: d.name, Value: doc.Metrics[d.name].Value, Unit: d.unit, Trace: doc.Trace,
			}
			if err := enc.Encode(row); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ---- comparing two sets of runs ----

// resultSet is benchmark/out/results.json: every run of one invocation.
type resultSet struct {
	Meta meta        `json:"meta"`
	Runs []resultDoc `json:"runs"`
}

func readResultSet(path string) (*resultSet, error) {
	rs := &resultSet{}
	return rs, readJSON(path, rs)
}

// values collects one end-to-end metric of one workload over a set's
// untraced runs.
func (rs *resultSet) values(workload, metric string) []float64 {
	var out []float64
	for _, r := range rs.Runs {
		if r.Workload == workload && !r.Trace {
			if m, ok := r.Metrics[metric]; ok {
				out = append(out, m.Value)
			}
		}
	}
	return out
}

// judge applies the benchmark's regression rule to two sets of values of one
// metric: B is worse when its median departs from A's, in the bad direction,
// by more than bound; the pair is unresolved when either side's own
// run-to-run spread (IQR over median) is wider than the bound.
func judge(d metricDef, a, b []float64) (ratio float64, verdict string) {
	ma, mb := median(a), median(b)
	if ma == 0 {
		return 0, "unresolved"
	}
	ratio = mb / ma
	worse := ratio - 1
	if d.better == "higher" {
		worse = 1 - ratio
	}
	switch {
	case max(spread(a), spread(b)) > d.bound:
		return ratio, "unresolved"
	case worse > d.bound:
		return ratio, "worse"
	}
	return ratio, "within bound"
}

// compare prints, per workload and end-to-end metric, both medians with their
// spreads, the ratio B/A, and the verdict. It returns how many were worse.
func compare(w io.Writer, pathA, pathB string) (int, error) {
	a, err := readResultSet(pathA)
	if err != nil {
		return 0, err
	}
	b, err := readResultSet(pathB)
	if err != nil {
		return 0, err
	}
	fmt.Fprintf(w, "A = %s (%s, %d cpu, %s)\nB = %s (%s, %d cpu, %s)\n",
		pathA, a.Meta.SHA, a.Meta.NProc, a.Meta.Go, pathB, b.Meta.SHA, b.Meta.NProc, b.Meta.Go)
	fmt.Fprintf(w, "%-12s %-16s %12s %8s %3s %12s %8s %3s %9s  %s\n",
		"workload", "metric", "A median", "spread", "n", "B median", "spread", "n", "B/A", "verdict")
	worse := 0
	for _, wl := range workloads {
		for _, d := range endToEnd {
			va, vb := a.values(wl.name, d.name), b.values(wl.name, d.name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ratio, verdict := judge(d, va, vb)
			if verdict == "worse" {
				worse++
			}
			fmt.Fprintf(w, "%-12s %-16s %12.6g %7.1f%% %3d %12.6g %7.1f%% %3d %9.4f  %s (bound %.0f%%, %s is better)\n",
				wl.name, d.name, median(va), 100*spread(va), len(va), median(vb), 100*spread(vb), len(vb),
				ratio, verdict, 100*d.bound, d.better)
		}
	}
	return worse, nil
}
