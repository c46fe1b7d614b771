package dsim

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/netip"
	"testing"
	"time"

	"hoyan/internal/core"
	"hoyan/internal/gen"
	"hoyan/internal/mq"
	"hoyan/internal/netmodel"
	"hoyan/internal/objstore"
	"hoyan/internal/rpcx"
	"hoyan/internal/taskdb"
)

// startLocal starts a cluster and fails the test if its substrates do not
// open.
func startLocal(t testing.TB, opts LocalOptions) *LocalCluster {
	t.Helper()
	c, err := StartLocal(opts)
	if err != nil {
		t.Fatalf("StartLocal: %v", err)
	}
	return c
}

// dedupe applies the master's row-dedup to a centralized result so the two
// can be compared (distributed collection collapses identical rows that
// several subtasks derive independently, e.g. local direct routes).

func dedupe(g *netmodel.GlobalRIB) *netmodel.GlobalRIB {
	seen := map[string]bool{}
	var rows []netmodel.Route
	for _, r := range g.Rows() {
		sig := string(r.AppendSignature(nil))
		if !seen[sig] {
			seen[sig] = true
			rows = append(rows, r)
		}
	}
	return netmodel.NewGlobalRIB(rows)
}

func TestSplitRoutesOrderingHeuristic(t *testing.T) {
	mk := func(p string) netmodel.Route {
		return netmodel.Route{Device: "A", VRF: netmodel.DefaultVRF, Prefix: netip.MustParsePrefix(p)}
	}
	// The §3.2 example: r1..r6 with prefixes whose last addresses order them
	// [r1 r2 r6 r4 r3 r5].
	r1, r2, r6 := mk("10.0.0.0/24"), mk("10.0.0.0/8"), mk("20.0.0.0/24")
	r4, r3, r5 := mk("30.0.0.0/24"), mk("30.0.0.0/8"), mk("40.0.0.0/24")
	subs := splitRoutes([]netmodel.Route{r1, r2, r3, r4, r5, r6}, 2)
	if len(subs) != 2 {
		t.Fatalf("subsets = %d", len(subs))
	}
	// R1 = {r1, r2, r6}: range [10.0.0.0, 20.255.255.255] — wait, r6 is a
	// /24 so its last address is 20.0.0.255; the paper's figure uses
	// 20.255.255.255 because its r6 is broader. Verify our invariant: the
	// range covers exactly the member prefixes.
	if subs[0].Lo != netip.MustParseAddr("10.0.0.0") {
		t.Errorf("R1.Lo = %s", subs[0].Lo)
	}
	if subs[0].Hi != netip.MustParseAddr("20.0.0.255") {
		t.Errorf("R1.Hi = %s", subs[0].Hi)
	}
	if len(subs[0].Routes) != 3 || len(subs[1].Routes) != 3 {
		t.Errorf("sizes = %d/%d", len(subs[0].Routes), len(subs[1].Routes))
	}
	if subs[1].Lo != netip.MustParseAddr("30.0.0.0") || subs[1].Hi != netip.MustParseAddr("40.0.0.255") {
		t.Errorf("R2 range = [%s, %s]", subs[1].Lo, subs[1].Hi)
	}
}

func TestSplitRoutesKeepsPrefixTogether(t *testing.T) {
	var inputs []netmodel.Route
	p := netip.MustParsePrefix("10.0.0.0/24")
	for i := 0; i < 5; i++ {
		inputs = append(inputs, netmodel.Route{Device: "A", Prefix: p, LocalPref: uint32(i)})
	}
	inputs = append(inputs, netmodel.Route{Device: "A", Prefix: netip.MustParsePrefix("10.0.1.0/24")})
	subs := splitRoutes(inputs, 3)
	for _, s := range subs {
		seen := map[netip.Prefix]bool{}
		for _, r := range s.Routes {
			seen[r.Prefix] = true
		}
		if seen[p] && len(s.Routes) < 5 {
			// p must be entirely inside one subset.
			count := 0
			for _, r := range s.Routes {
				if r.Prefix == p {
					count++
				}
			}
			if count != 5 {
				t.Fatalf("prefix split across subsets: %d in one subset", count)
			}
		}
	}
}

func TestSplitFlowsByDestination(t *testing.T) {
	mk := func(d string) netmodel.Flow {
		return netmodel.Flow{Ingress: "A", Dst: netip.MustParseAddr(d)}
	}
	flows := []netmodel.Flow{mk("30.0.0.1"), mk("10.0.0.1"), mk("20.0.0.1"), mk("40.0.0.1")}
	subs := splitFlows(flows, 2, StrategyOrdered)
	if len(subs) != 2 {
		t.Fatalf("subsets = %d", len(subs))
	}
	if subs[0].Hi.Compare(subs[1].Lo) > 0 {
		t.Errorf("ordered subsets overlap: [%s,%s] [%s,%s]", subs[0].Lo, subs[0].Hi, subs[1].Lo, subs[1].Hi)
	}
	// Random strategy keeps input order: ranges will overlap heavily.
	subs = splitFlows(flows, 2, StrategyRandom)
	if subs[0].Lo != netip.MustParseAddr("10.0.0.1") || subs[0].Hi != netip.MustParseAddr("30.0.0.1") {
		t.Errorf("random subset range = [%s,%s]", subs[0].Lo, subs[0].Hi)
	}
}

func TestDistributedRouteSimMatchesCentralized(t *testing.T) {
	out := gen.Generate(gen.WAN(1))
	central := dedupe(core.NewEngine(out.Net, core.Options{}).RouteSimulation(out.Inputs).GlobalRIB())

	c := startLocal(t, LocalOptions{Workers: 4})
	defer c.Stop()
	snapKey, err := c.Master.UploadSnapshot("t1", out.Net)
	if err != nil {
		t.Fatal(err)
	}
	task, err := c.Master.StartRouteSimulation("t1", snapKey, out.Inputs, 8, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if task.Subtasks != 8 {
		t.Fatalf("subtasks = %d", task.Subtasks)
	}
	if err := c.Master.Wait("t1", "route", task.Subtasks); err != nil {
		t.Fatal(err)
	}
	dist, err := c.Master.CollectRouteResults(task)
	if err != nil {
		t.Fatal(err)
	}
	if !central.Equal(dist) {
		a, b := central.Diff(dist)
		for i := 0; i < len(a) && i < 5; i++ {
			t.Logf("central only: %v", a[i])
		}
		for i := 0; i < len(b) && i < 5; i++ {
			t.Logf("distributed only: %v", b[i])
		}
		t.Fatalf("distributed != centralized (%d vs %d rows, diff %d/%d)", central.Len(), dist.Len(), len(a), len(b))
	}

	// Per-subtask durations recorded for Figure 5(c).
	durs, err := c.Master.SubtaskDurations("t1", "route")
	if err != nil || len(durs) != task.Subtasks {
		t.Errorf("durations = %v %v", durs, err)
	}
}

// TestSimulateMatchesCentralized drives Master.Simulate end to end against
// the centralized engine over an intact topology and seeded randomly
// degraded ones (links already down in the uploaded snapshot), with the
// route stage in several result files and in one (the file is then the RIB
// as it stands, and every traffic subtask reads it).
func TestSimulateMatchesCentralized(t *testing.T) {
	rnd := rand.New(rand.NewSource(42))
	c := startLocal(t, LocalOptions{Workers: 4})
	defer c.Stop()
	for trial, nRoute := range []int{6, 1, 4, 4} {
		out := gen.Generate(gen.WAN(1))
		if trial > 0 {
			links := out.Net.Topo.Links()
			for i := 0; i < 2+rnd.Intn(3); i++ {
				out.Net.Topo.SetLinkUp(links[rnd.Intn(len(links))].ID(), false)
			}
		}
		sim := &Simulation{
			TaskID: fmt.Sprintf("sim%d", trial), Net: out.Net, Inputs: out.Inputs, Flows: out.Flows,
			RouteSubtasks: nRoute, TrafficSubtasks: 4,
		}
		if err := c.Master.Simulate(sim, nil); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if sim.Route.Subtasks != nRoute {
			t.Errorf("trial %d: %d route subtasks, want %d", trial, sim.Route.Subtasks, nRoute)
		}
		assertMatchesCentral(t, out, distResult{RIB: sim.RIB, Sum: sim.Summary, Task: sim.Route})
	}
}

func TestDistributedTrafficSimMatchesCentralized(t *testing.T) {
	out := gen.Generate(gen.WAN(1))
	eng := core.NewEngine(out.Net, core.Options{})
	centralRoutes := eng.RouteSimulation(out.Inputs)
	centralTraffic := eng.TrafficSimulation(centralRoutes, centralRoutes.GlobalRIB().Rows(), out.Flows)

	c := startLocal(t, LocalOptions{Workers: 4})
	defer c.Stop()
	snapKey, err := c.Master.UploadSnapshot("t2", out.Net)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := c.Master.StartRouteSimulation("t2", snapKey, out.Inputs, 6, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Master.Wait("t2", "route", rt.Subtasks); err != nil {
		t.Fatal(err)
	}
	tt, err := c.Master.StartTrafficSimulation("t2", rt, out.Flows, 6, StrategyOrdered, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Master.Wait("t2", "traffic", tt.Subtasks); err != nil {
		t.Fatal(err)
	}
	sum, err := c.Master.CollectTrafficResults(tt)
	if err != nil {
		t.Fatal(err)
	}
	// Link loads must agree with the centralized run.
	for id, v := range centralTraffic.Traffic.Load {
		got := sum.Load[id]
		if d := got - v; d > 1e-3 || d < -1e-3 {
			t.Errorf("load[%s]: distributed %v, centralized %v", id, got, v)
		}
	}
	for id := range sum.Load {
		if _, ok := centralTraffic.Traffic.Load[id]; !ok && sum.Load[id] > 1e-3 {
			t.Errorf("phantom load on %s: %v", id, sum.Load[id])
		}
	}
	if len(sum.Paths) != len(out.Flows) {
		// With flow ECs the distributed side simulates representatives only,
		// same as the centralized side; path counts reflect EC classes per
		// subtask and may exceed the central class count but never the flow
		// count.
		if len(sum.Paths) > len(out.Flows) {
			t.Errorf("paths = %d > flows = %d", len(sum.Paths), len(out.Flows))
		}
	}
}

func TestOrderingHeuristicReducesLoadedFiles(t *testing.T) {
	out := gen.Generate(gen.WAN(2))
	c := startLocal(t, LocalOptions{Workers: 4})
	defer c.Stop()
	snapKey, err := c.Master.UploadSnapshot("t3", out.Net)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := c.Master.StartRouteSimulation("t3", snapKey, out.Inputs, 10, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Master.Wait("t3", "route", rt.Subtasks); err != nil {
		t.Fatal(err)
	}

	run := func(taskID string, strategy Strategy) []int {
		tt, err := c.Master.StartTrafficSimulation(taskID, rt, out.Flows, 8, strategy, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Master.Wait(taskID, "traffic", tt.Subtasks); err != nil {
			t.Fatal(err)
		}
		sum, err := c.Master.CollectTrafficResults(tt)
		if err != nil {
			t.Fatal(err)
		}
		return sum.LoadedRIBFiles
	}
	// Reuse t3's route results for three traffic strategies.
	ordered := run("t3", StrategyOrdered)
	baseline := run("t3base", StrategyBaseline)

	sumOf := func(xs []int) int {
		s := 0
		for _, x := range xs {
			s += x
		}
		return s
	}
	so, sb := sumOf(ordered), sumOf(baseline)
	if sb != rt.Subtasks*len(baseline) {
		t.Errorf("baseline must load all files: %d", sb)
	}
	if so >= sb {
		t.Errorf("ordering heuristic must reduce loaded files: ordered=%d baseline=%d", so, sb)
	}
}

func TestMasterRetriesFailedSubtask(t *testing.T) {
	out := gen.Generate(gen.WAN(1))
	memq := mq.NewMemory(nil)
	svc := Services{Queue: memq, Store: objstore.NewMemory(nil), Tasks: taskdb.NewMemory()}
	master := NewMaster(svc, nil)

	w := NewWorker("flaky", svc, nil)
	w.FailNext = 2 // first two subtasks fail, then recover
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go w.Run(ctx)

	snapKey, err := master.UploadSnapshot("t4", out.Net)
	if err != nil {
		t.Fatal(err)
	}
	task, err := master.StartRouteSimulation("t4", snapKey, out.Inputs, 4, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := master.Wait("t4", "route", task.Subtasks); err != nil {
		t.Fatalf("Wait with retries: %v", err)
	}
	if _, err := master.CollectRouteResults(task); err != nil {
		t.Fatal(err)
	}
	// Verify some record shows a retry.
	recs, _ := svc.Tasks.List("t4")
	retried := false
	for _, rec := range recs {
		if rec.Attempts > 0 {
			retried = true
		}
	}
	if !retried {
		t.Error("no retry recorded")
	}
}

func TestPermanentFailureSurfaces(t *testing.T) {
	out := gen.Generate(gen.WAN(1))
	memq := mq.NewMemory(nil)
	svc := Services{Queue: memq, Store: objstore.NewMemory(nil), Tasks: taskdb.NewMemory()}
	master := NewMaster(svc, nil)
	master.MaxAttempts = 1
	master.Timeout = 5 * time.Second

	w := NewWorker("dead", svc, nil)
	w.FailNext = 1000
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go w.Run(ctx)

	snapKey, _ := master.UploadSnapshot("t5", out.Net)
	task, err := master.StartRouteSimulation("t5", snapKey, out.Inputs[:4], 2, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := master.Wait("t5", "route", task.Subtasks); err == nil {
		t.Fatal("want permanent failure error")
	}
}

func TestDistributedOverTCPSubstrates(t *testing.T) {
	// Full framework over real TCP connections: MQ, object store, and task
	// DB each served on a loopback listener; master and worker use clients.
	lq, _ := net.Listen("tcp", "127.0.0.1:0")
	ls, _ := net.Listen("tcp", "127.0.0.1:0")
	lt, _ := net.Listen("tcp", "127.0.0.1:0")
	defer lq.Close()
	defer ls.Close()
	defer lt.Close()
	mq.Serve(lq, mq.NewMemory(nil), nil)
	objstore.Serve(ls, objstore.NewMemory(nil), nil)
	taskdb.Serve(lt, taskdb.NewMemory(), nil)

	dialServices := func() Services {
		qc, err := mq.Dial(lq.Addr().String(), rpcx.Options{})
		if err != nil {
			t.Fatal(err)
		}
		sc, err := objstore.Dial(ls.Addr().String(), rpcx.Options{})
		if err != nil {
			t.Fatal(err)
		}
		tc, err := taskdb.Dial(lt.Addr().String(), rpcx.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return Services{Queue: qc, Store: sc, Tasks: tc}
	}

	out := gen.Generate(gen.WAN(1))
	master := NewMaster(dialServices(), nil)
	master.Timeout = 30 * time.Second

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for i := 0; i < 2; i++ {
		w := NewWorker("tcp-worker", dialServices(), nil)
		go w.Run(ctx)
	}

	snapKey, err := master.UploadSnapshot("tcp1", out.Net)
	if err != nil {
		t.Fatal(err)
	}
	task, err := master.StartRouteSimulation("tcp1", snapKey, out.Inputs, 4, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := master.Wait("tcp1", "route", task.Subtasks); err != nil {
		t.Fatal(err)
	}
	dist, err := master.CollectRouteResults(task)
	if err != nil {
		t.Fatal(err)
	}
	central := dedupe(core.NewEngine(out.Net, core.Options{}).RouteSimulation(out.Inputs).GlobalRIB())
	if !central.Equal(dist) {
		t.Fatal("TCP-distributed result differs from centralized")
	}
}

func TestSplitRoutesPartitionProperty(t *testing.T) {
	// Property: splitRoutes partitions the inputs exactly, subsets are
	// contiguous in last-address order, and each subset's range covers every
	// member prefix.
	rnd := func(seed int64) []netmodel.Route {
		out := gen.Generate(gen.Profile{
			Name: "prop", Seed: seed, Regions: 2, CoresPerRegion: 2,
			BordersPerRegion: 1, RRsPerRegion: 1, DCsPerRegion: 1,
			ISPsPerRegion: 1, PrefixesPerDC: 13, PrefixesPerISP: 7, Flows: 0,
		})
		return out.Inputs
	}
	for seed := int64(1); seed <= 3; seed++ {
		inputs := rnd(seed)
		for _, n := range []int{1, 3, 7, len(inputs), len(inputs) * 2} {
			subs := splitRoutes(inputs, n)
			total := 0
			prefixHome := map[netip.Prefix]int{}
			for i, sub := range subs {
				total += len(sub.Routes)
				for _, r := range sub.Routes {
					if home, seen := prefixHome[r.Prefix]; seen && home != i {
						t.Fatalf("prefix %s split across subsets %d and %d", r.Prefix, home, i)
					}
					prefixHome[r.Prefix] = i
					if r.Prefix.Masked().Addr().Compare(sub.Lo) < 0 ||
						netmodel.LastAddr(r.Prefix).Compare(sub.Hi) > 0 {
						t.Fatalf("range [%s,%s] does not cover %s", sub.Lo, sub.Hi, r.Prefix)
					}
				}
			}
			if total != len(inputs) {
				t.Fatalf("partition lost routes: %d != %d", total, len(inputs))
			}
		}
	}
}

func TestSplitFlowsPartitionProperty(t *testing.T) {
	out := gen.Generate(gen.WAN(1))
	for _, n := range []int{1, 4, 9, len(out.Flows)} {
		for _, strategy := range []Strategy{StrategyOrdered, StrategyRandom} {
			subs := splitFlows(out.Flows, n, strategy)
			total := 0
			for _, sub := range subs {
				total += len(sub.Flows)
				for _, f := range sub.Flows {
					if f.Dst.Compare(sub.Lo) < 0 || f.Dst.Compare(sub.Hi) > 0 {
						t.Fatalf("flow dst %s outside range [%s,%s]", f.Dst, sub.Lo, sub.Hi)
					}
				}
			}
			if total != len(out.Flows) {
				t.Fatalf("%s: partition lost flows: %d != %d", strategy, total, len(out.Flows))
			}
		}
	}
}
