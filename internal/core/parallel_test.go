package core

import (
	"reflect"
	"sync"
	"testing"

	"hoyan/internal/config"
	"hoyan/internal/gen"
)

// The Parallelism contract: every engine hot path must produce output
// deep-equal to the sequential reference path. These tests pin that on the
// gen.WAN(2) fixture at Parallelism 8 vs 1.

func wan2Fixture(t *testing.T) *gen.Output {
	t.Helper()
	return gen.Generate(gen.WAN(2))
}

func TestRouteSimulationParallelMatchesSequential(t *testing.T) {
	out := wan2Fixture(t)
	seq := NewEngine(out.Net, Options{Parallelism: 1}).RouteSimulation(out.Inputs)
	pll := NewEngine(out.Net, Options{Parallelism: 8}).RouteSimulation(out.Inputs)

	if !seq.GlobalRIB().Equal(pll.GlobalRIB()) {
		onlySeq, onlyPll := seq.GlobalRIB().Diff(pll.GlobalRIB())
		t.Fatalf("parallel route simulation diverged: %d rows only sequential, %d only parallel",
			len(onlySeq), len(onlyPll))
	}
	if !reflect.DeepEqual(seq.GlobalRIB().Rows(), pll.GlobalRIB().Rows()) {
		t.Fatal("parallel route simulation rows not deep-equal to sequential")
	}
	if seq.ECStats.Reduction() != pll.ECStats.Reduction() {
		t.Fatalf("route-EC reduction diverged: sequential %v, parallel %v",
			seq.ECStats.Reduction(), pll.ECStats.Reduction())
	}
}

func TestTrafficSimulationParallelMatchesSequential(t *testing.T) {
	out := wan2Fixture(t)
	seqEng := NewEngine(out.Net, Options{Parallelism: 1})
	pllEng := NewEngine(out.Net, Options{Parallelism: 8})
	seqRoutes := seqEng.RouteSimulation(out.Inputs)
	pllRoutes := pllEng.RouteSimulation(out.Inputs)

	seq := seqEng.TrafficSimulation(seqRoutes, seqRoutes.GlobalRIB().Rows(), out.Flows)
	pll := pllEng.TrafficSimulation(pllRoutes, pllRoutes.GlobalRIB().Rows(), out.Flows)

	if !reflect.DeepEqual(seq.Traffic.Paths, pll.Traffic.Paths) {
		t.Fatal("parallel traffic simulation paths not deep-equal to sequential")
	}
	// Link loads must match bit-for-bit: the parallel merge replays each
	// flow's volume shares in the sequential accumulation order.
	if !reflect.DeepEqual(seq.Traffic.Load, pll.Traffic.Load) {
		t.Fatal("parallel traffic simulation link loads not deep-equal to sequential")
	}
	if seq.ECStats.Reduction() != pll.ECStats.Reduction() {
		t.Fatalf("flow-EC reduction diverged: sequential %v, parallel %v",
			seq.ECStats.Reduction(), pll.ECStats.Reduction())
	}
}

func TestBuildNetworkParallelMatchesSequential(t *testing.T) {
	out := wan2Fixture(t)
	texts := out.ConfigTexts()
	seq, err := config.BuildNetworkOpts(texts, nil, config.BuildOptions{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	pll, err := config.BuildNetworkOpts(texts, nil, config.BuildOptions{Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(seq.Devices) != len(pll.Devices) {
		t.Fatalf("device count diverged: sequential %d, parallel %d", len(seq.Devices), len(pll.Devices))
	}
	for name, sd := range seq.Devices {
		pd, ok := pll.Devices[name]
		if !ok {
			t.Fatalf("device %s missing from parallel build", name)
		}
		if !reflect.DeepEqual(sd, pd) {
			t.Fatalf("device %s not deep-equal between sequential and parallel builds", name)
		}
	}
}

func TestSnapshotRestoreParallelMatchesSequential(t *testing.T) {
	out := wan2Fixture(t)
	snap := TakeSnapshot(out.Net)
	seq, err := snap.RestoreParallel(1)
	if err != nil {
		t.Fatal(err)
	}
	pll, err := snap.RestoreParallel(8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq.Devices, pll.Devices) {
		t.Fatal("parallel snapshot restore not deep-equal to sequential")
	}
}

// TestConcurrentEngines runs several fully-parallel engines at once over one
// shared network snapshot — the shape dsim workers and pipeline create — and
// must stay clean under `go test -race`.
func TestConcurrentEngines(t *testing.T) {
	out := gen.Generate(gen.WAN(1))
	ref := NewEngine(out.Net, Options{Parallelism: 1}).Run(out.Inputs, out.Flows)

	var wg sync.WaitGroup
	results := make([]*Result, 4)
	for g := range results {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			results[g] = NewEngine(out.Net, Options{Parallelism: 4}).Run(out.Inputs, out.Flows)
		}(g)
	}
	wg.Wait()

	for g, res := range results {
		if !ref.Routes.GlobalRIB().Equal(res.Routes.GlobalRIB()) {
			t.Fatalf("engine %d: concurrent route simulation diverged from reference", g)
		}
		if !reflect.DeepEqual(ref.Traffic.Traffic.Load, res.Traffic.Traffic.Load) {
			t.Fatalf("engine %d: concurrent traffic simulation diverged from reference", g)
		}
	}
}
