// Package hoyan's benchmark harness: one benchmark per paper table/figure
// hot path (see DESIGN.md's per-experiment index). cmd/hoyan-exp prints the
// full row/series reproductions; these benches time the underlying
// operations for regression tracking.
//
//	go test -bench=. -benchmem
package hoyan

import (
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"hoyan/internal/change"
	"hoyan/internal/config"
	"hoyan/internal/core"
	"hoyan/internal/diagnosis"
	"hoyan/internal/dsim"
	"hoyan/internal/ec"
	"hoyan/internal/experiments"
	"hoyan/internal/gen"
	"hoyan/internal/intent"
	"hoyan/internal/kfail"
	"hoyan/internal/pipeline"
	"hoyan/internal/rcl"
	"hoyan/internal/scenario"
	"hoyan/internal/traffic"
)

// Shared fixtures, built once.
var (
	fixOnce sync.Once
	fixWAN  *gen.Output
	fixDCN  *gen.Output
	fixRIBs *core.RouteResult
	fixEng  *core.Engine
)

func fixtures() (*gen.Output, *gen.Output, *core.Engine, *core.RouteResult) {
	fixOnce.Do(func() {
		fixWAN = gen.Generate(gen.WAN(2))
		fixDCN = gen.Generate(gen.WANDCN(2))
		fixEng = core.NewEngine(fixWAN.Net, core.Options{})
		fixRIBs = fixEng.RouteSimulation(fixWAN.Inputs)
	})
	return fixWAN, fixDCN, fixEng, fixRIBs
}

// Figure 1 / Table 1: centralized route simulation.
func BenchmarkCentralizedRouteSim(b *testing.B) {
	wan, _, _, _ := fixtures()
	b.ReportMetric(float64(len(wan.Inputs)), "inputs")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.NewEngine(wan.Net, core.Options{}).RouteSimulation(wan.Inputs)
	}
}

// Figure 1 (red series): the WAN+DCN profile the original Hoyan could not
// complete.
func BenchmarkCentralizedRouteSimWANDCN(b *testing.B) {
	_, dcn, _, _ := fixtures()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.NewEngine(dcn.Net, core.Options{}).RouteSimulation(dcn.Inputs)
	}
}

// §3.1 ablation: centralized route simulation without the EC technique.
func BenchmarkCentralizedRouteSimNoECs(b *testing.B) {
	wan, _, _, _ := fixtures()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.NewEngine(wan.Net, core.Options{DisableRouteECs: true}).RouteSimulation(wan.Inputs)
	}
}

// Figure 5(a): the full distributed route-simulation pass (split, upload,
// queue, execute, collect) on an in-process cluster.
func BenchmarkDistributedRouteSim(b *testing.B) {
	wan, _, _, _ := fixtures()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := dsim.StartLocal(dsim.LocalOptions{Workers: 2})
		if err != nil {
			b.Fatal(err)
		}
		snapKey, err := c.Master.UploadSnapshot("bench", wan.Net)
		if err != nil {
			b.Fatal(err)
		}
		task, err := c.Master.StartRouteSimulation("bench", snapKey, wan.Inputs, 16, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if err := c.Master.Wait("bench", "route", task.Subtasks); err != nil {
			b.Fatal(err)
		}
		if _, err := c.Master.CollectRouteResults(task); err != nil {
			b.Fatal(err)
		}
		c.Stop()
	}
}

// Figure 5(b): distributed traffic simulation under the ordering heuristic
// and the baseline strategy.
func benchDistributedTraffic(b *testing.B, strategy dsim.Strategy) {
	wan, _, _, _ := fixtures()
	c, err := dsim.StartLocal(dsim.LocalOptions{Workers: 2})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Stop()
	snapKey, err := c.Master.UploadSnapshot("bench-t", wan.Net)
	if err != nil {
		b.Fatal(err)
	}
	rt, err := c.Master.StartRouteSimulation("bench-t", snapKey, wan.Inputs, 16, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	if err := c.Master.Wait("bench-t", "route", rt.Subtasks); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		taskID := "bench-t" + string(strategy) + strconv.Itoa(i)
		tt, err := c.Master.StartTrafficSimulation(taskID, rt, wan.Flows, 16, strategy, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if err := c.Master.Wait(taskID, "traffic", tt.Subtasks); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDistributedTrafficSimOrdered(b *testing.B) {
	benchDistributedTraffic(b, dsim.StrategyOrdered)
}

func BenchmarkDistributedTrafficSimBaseline(b *testing.B) {
	benchDistributedTraffic(b, dsim.StrategyBaseline)
}

// §3.1: route equivalence-class computation (~4x reduction claim).
func BenchmarkRouteECs(b *testing.B) {
	wan, _, _, _ := fixtures()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ecs := ec.ComputeRouteECs(wan.Net, nil, wan.Inputs, 1)
		if ecs.Reduction() < 1 {
			b.Fatal("no reduction")
		}
	}
}

// §3.1: flow equivalence-class computation (~100x reduction claim).
func BenchmarkFlowECs(b *testing.B) {
	wan, _, _, ribs := fixtures()
	prefixes := ec.RIBPrefixes(ribs.GlobalRIB().Rows())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ec.ComputeFlowECs(wan.Net, prefixes, wan.Flows, 1)
	}
}

// Traffic simulation over precomputed RIBs (the per-subtask hot path).
func BenchmarkTrafficSimulation(b *testing.B) {
	wan, _, eng, ribs := fixtures()
	fw := traffic.NewForwarder(wan.Net, eng.IGP(), ribs, traffic.Options{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fw.Simulate(wan.Flows)
	}
}

// Figure 8 (left): RCL parsing over the 50-spec corpus.
func BenchmarkRCLParse(b *testing.B) {
	specs := rcl.Corpus(
		[]string{"rr-0-0", "border-0-0"},
		[]string{"10.0.0.0/24", "20.0.0.0/24"},
		[]string{"65000:0", "65000:999"},
		[]string{"100.64.3.1", "100.65.3.1"},
	)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range specs {
			if _, err := rcl.Parse(s); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// Figure 8 (right): RCL verification of the corpus against real RIBs.
func BenchmarkRCLVerify(b *testing.B) {
	wan, _, _, ribs := fixtures()
	base := ribs.GlobalRIB()
	specs := rcl.Corpus(
		[]string{"rr-0-0", "border-0-0"},
		[]string{"10.0.0.0/24", "20.0.0.0/24"},
		[]string{"65000:0", "65000:999"},
		[]string{wan.Net.Devices["border-0-0"].Loopback.String(), wan.Net.Devices["dc-0-0"].Loopback.String()},
	)
	parsed := make([]rcl.Intent, len(specs))
	for i, s := range specs {
		parsed[i] = rcl.MustParse(s)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, g := range parsed {
			if _, err := rcl.Check(g, base, base); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// §2.2 pre-processing: parsing every device configuration into the model.
func BenchmarkConfigParse(b *testing.B) {
	wan, _, _, _ := fixtures()
	texts := wan.ConfigTexts()
	lines := 0
	for _, t := range texts {
		for _, c := range t {
			if c == '\n' {
				lines++
			}
		}
	}
	b.ReportMetric(float64(lines), "config-lines")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := config.BuildNetwork(texts, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// Table 5: the full VSB differential-testing campaign.
func BenchmarkVSBCampaign(b *testing.B) {
	probe := diagnosis.BuildProbe()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		diagnosis.VSBCampaign(probe)
	}
}

// Tables 2/6: one end-to-end change verification request (the O(100)/week
// workload unit).
func BenchmarkChangeVerification(b *testing.B) {
	sc := scenario.Fig10a()
	sys := pipeline.New(sc.Net, sc.Inputs, sc.Flows, core.Options{})
	sys.BaseSnapshot() // pre-processing outside the timed loop
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Verify(sc.Plan, sc.Intents); err != nil {
			b.Fatal(err)
		}
	}
}

// §6.2: k-failure verification over a candidate set.
func BenchmarkKFailureCheck(b *testing.B) {
	wan, _, _, _ := fixtures()
	var elems []kfail.Element
	for _, l := range wan.Net.Topo.LinksOf("dc-0-0") {
		elems = append(elems, kfail.Element{Link: l.ID()})
	}
	reach := intent.ReachIntent{Prefix: wan.Inputs[0].Prefix, Devices: []string{"rr-1-0"}, Want: true}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := kfail.Check(wan.Net, wan.Inputs, nil, []intent.Intent{reach}, kfail.Options{K: 1, Elements: elems}); err != nil {
			b.Fatal(err)
		}
	}
}

// Change-plan application (incremental model update, §2.2).
func BenchmarkChangePlanApply(b *testing.B) {
	wan, _, _, _ := fixtures()
	rrLoopback := wan.Net.Devices["rr-0-0"].Loopback
	plan := &change.Plan{
		ID: "bench", Type: change.RouteAttrModify,
		Commands: map[string]string{"dc-0-1": `
route-map RM_B permit 10
 set local-preference 333
!
router bgp
 neighbor ` + rrLoopback.String() + ` route-map RM_B out
!
`},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := plan.Apply(wan.Net); err != nil {
			b.Fatal(err)
		}
	}
}

// parallelismSweep runs fn once per Parallelism setting in {1, 2, 4, NumCPU}
// as sub-benchmarks — the Figure 5-style intra-engine scaling curve.
func parallelismSweep(b *testing.B, fn func(b *testing.B, parallelism int)) {
	levels := []int{1, 2, 4, runtime.NumCPU()}
	seen := map[int]bool{}
	for _, p := range levels {
		if seen[p] {
			continue
		}
		seen[p] = true
		b.Run(fmt.Sprintf("p%d", p), func(b *testing.B) {
			b.ReportAllocs()
			fn(b, p)
		})
	}
}

// Intra-engine scaling of the per-source SPF + BGP route-simulation pass.
func BenchmarkParallelRouteSim(b *testing.B) {
	wan, _, _, _ := fixtures()
	parallelismSweep(b, func(b *testing.B, p int) {
		for i := 0; i < b.N; i++ {
			core.NewEngine(wan.Net, core.Options{Parallelism: p}).RouteSimulation(wan.Inputs)
		}
	})
}

// Intra-engine scaling of BenchmarkTrafficSimulation (per-flow forwarding
// over precomputed RIBs — the per-subtask hot path).
func BenchmarkParallelTrafficSimulation(b *testing.B) {
	wan, _, eng, ribs := fixtures()
	parallelismSweep(b, func(b *testing.B, p int) {
		fw := traffic.NewForwarder(wan.Net, eng.IGP(), ribs, traffic.Options{Parallelism: p})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			fw.Simulate(wan.Flows)
		}
	})
}

// Intra-engine scaling of route-EC classification.
func BenchmarkParallelRouteECs(b *testing.B) {
	wan, _, _, _ := fixtures()
	parallelismSweep(b, func(b *testing.B, p int) {
		for i := 0; i < b.N; i++ {
			ec.ComputeRouteECs(wan.Net, nil, wan.Inputs, p)
		}
	})
}

// Intra-engine scaling of flow-EC classification.
func BenchmarkParallelFlowECs(b *testing.B) {
	wan, _, _, ribs := fixtures()
	prefixes := ec.RIBPrefixes(ribs.GlobalRIB().Rows())
	parallelismSweep(b, func(b *testing.B, p int) {
		for i := 0; i < b.N; i++ {
			ec.ComputeFlowECs(wan.Net, prefixes, wan.Flows, p)
		}
	})
}

// Intra-engine scaling of per-device configuration parsing.
func BenchmarkParallelConfigParse(b *testing.B) {
	wan, _, _, _ := fixtures()
	texts := wan.ConfigTexts()
	parallelismSweep(b, func(b *testing.B, p int) {
		for i := 0; i < b.N; i++ {
			if _, err := config.BuildNetworkOpts(texts, nil, config.BuildOptions{Parallelism: p}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// The makespan schedule model used for the Figure 5 sweeps.
func BenchmarkMakespanModel(b *testing.B) {
	durs := make([]time.Duration, 100)
	for i := range durs {
		durs[i] = time.Duration(1+i%17) * time.Millisecond
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for w := 1; w <= 10; w++ {
			experiments.Makespan(durs, w)
		}
	}
}
