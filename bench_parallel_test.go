// Parallel BGP fixpoint benchmarks: the prefix-striped propagation
// (bgp.Options.Parallelism via core.Options.Parallelism) versus the
// sequential indexed reference. `make bench-core` runs TestParallelFixpointSpeedup
// and merges a "parallel" section of per-parallelism rows into BENCH_core.json;
// the >=2x floor at Parallelism=NumCPU is enforced only on multi-core,
// uninstrumented hosts, while byte-identity with the sequential and legacy
// paths is asserted everywhere.
package hoyan

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"

	"hoyan/internal/core"
	"hoyan/internal/gen"
)

// parallelRow is one entry of the "parallel" section of BENCH_core.json.
type parallelRow struct {
	Parallelism int     `json:"parallelism"`
	Ns          int64   `json:"ns"`
	Speedup     float64 `json:"speedup_vs_sequential"`
}

// parallelBenchReport is the "parallel" section: the host's core count, the
// sequential baseline, and one row per measured parallelism.
type parallelBenchReport struct {
	Devices      int           `json:"devices"`
	Inputs       int           `json:"inputs"`
	CPUs         int           `json:"cpus"`
	SequentialNs int64         `json:"sequential_ns"`
	Rows         []parallelRow `json:"rows"`
}

// TestParallelFixpointSpeedup pins the striped fixpoint's acceptance
// criteria on gen.WAN(2): byte-identical global RIBs versus the sequential
// indexed path and the string-keyed legacy reference at every parallelism,
// and — on hosts with at least 2 CPUs, without the race detector — at least
// 2x route-simulation speedup at Parallelism=NumCPU over Parallelism=1. With
// CORE_BENCH_JSON set, the measured per-parallelism rows are merged into that
// file under a "parallel" key (after TestCoreSpeedup wrote the base report).
func TestParallelFixpointSpeedup(t *testing.T) {
	g := gen.Generate(gen.WAN(2))
	if len(g.Inputs) == 0 {
		t.Fatal("fixture produced no inputs")
	}
	routeSim := func(parallelism int) {
		core.NewEngine(g.Net, core.Options{Parallelism: parallelism}).RouteSimulation(g.Inputs)
	}
	ncpu := runtime.NumCPU()

	// Byte-identity first: sequential indexed vs legacy, then every striped
	// setting vs sequential. This part runs on every host, race or not.
	ref := core.NewEngine(g.Net, core.Options{Parallelism: 1}).RouteSimulation(g.Inputs).GlobalRIB()
	leg := core.NewEngine(g.Net, core.Options{Parallelism: 1, DisableIndex: true}).RouteSimulation(g.Inputs).GlobalRIB()
	if !ref.Equal(leg) {
		t.Fatal("sequential indexed RIB differs from legacy reference on gen.WAN(2)")
	}
	parallelisms := []int{2, 4}
	if ncpu > 1 && ncpu != 2 && ncpu != 4 {
		parallelisms = append(parallelisms, ncpu)
	}
	for _, p := range parallelisms {
		got := core.NewEngine(g.Net, core.Options{Parallelism: p}).RouteSimulation(g.Inputs).GlobalRIB()
		if !got.Equal(ref) {
			t.Fatalf("parallelism %d: RIB differs from sequential on gen.WAN(2)", p)
		}
	}

	// Timed sweep: each parallelism paired against the sequential baseline
	// (measurePair keeps the best-ratio trial so a background spike cannot
	// bias one side).
	const trials, iters = 3, 1
	rep := parallelBenchReport{
		Devices: len(g.Net.Devices),
		Inputs:  len(g.Inputs),
		CPUs:    ncpu,
	}
	atNCPU := 0.0
	for _, p := range parallelisms {
		parNs, seqNs := measurePair(trials, iters,
			func() { routeSim(p) },
			func() { routeSim(1) })
		speedup := float64(seqNs) / float64(parNs)
		rep.SequentialNs = seqNs
		rep.Rows = append(rep.Rows, parallelRow{Parallelism: p, Ns: parNs, Speedup: speedup})
		if p == ncpu {
			atNCPU = speedup
		}
		t.Logf("parallelism %d: %.2fms vs sequential %.2fms (%.2fx)",
			p, float64(parNs)/1e6, float64(seqNs)/1e6, speedup)
	}

	// The floor needs real cores to mean anything: on a single-CPU host the
	// stripes serialize onto one core and only measure overhead. Byte-identity
	// above is asserted unconditionally.
	switch {
	case ncpu < 2:
		t.Logf("single-CPU host: >=2x floor not measurable, identity pinned instead")
	case !enforceFloors():
		t.Logf("floors not enforced in this run: identity pinned instead")
	case atNCPU < 2:
		t.Errorf("striped route sim only %.2fx faster at Parallelism=NumCPU(%d), want >=2x", atNCPU, ncpu)
	}

	if path := os.Getenv("CORE_BENCH_JSON"); path != "" {
		mergeParallelSection(t, path, rep)
	}
}

// mergeParallelSection writes rep under the "parallel" key of the
// BENCH_core.json document, preserving whatever TestCoreSpeedup wrote there
// first (or starting a fresh document when the file is absent).
func mergeParallelSection(t *testing.T, path string, rep parallelBenchReport) {
	t.Helper()
	doc := map[string]json.RawMessage{}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &doc); err != nil {
			t.Fatalf("existing %s is not a JSON object: %v", path, err)
		}
	}
	section, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	doc["parallel"] = section
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	fmt.Printf("merged parallel section into %s\n", path)
}

// BenchmarkRouteSimParallel times the striped route simulation with
// Parallelism 0 (= GOMAXPROCS), so `go test -cpu 1,4` sweeps the worker
// count without code changes (the `make bench-core` sweep).
func BenchmarkRouteSimParallel(b *testing.B) {
	f := coreFixtures(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.NewEngine(f.g.Net, core.Options{Parallelism: 0}).RouteSimulation(f.g.Inputs)
	}
}
