package dsim

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/netip"
	"strings"
	"testing"
	"time"

	"hoyan/internal/bgp"
	"hoyan/internal/config"
	"hoyan/internal/core"
	"hoyan/internal/gen"
	"hoyan/internal/mq"
	"hoyan/internal/netmodel"
	"hoyan/internal/objstore"
	"hoyan/internal/rpcx"
	"hoyan/internal/taskdb"
	"hoyan/internal/telemetry"
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
	subs := splitRoutes([]netmodel.Route{r1, r2, r3, r4, r5, r6}, 2, bgp.Grouping{})
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
	if len(subs[0].Items) != 3 || len(subs[1].Items) != 3 {
		t.Errorf("sizes = %d/%d", len(subs[0].Items), len(subs[1].Items))
	}
	if subs[1].Lo != netip.MustParseAddr("30.0.0.0") || subs[1].Hi != netip.MustParseAddr("40.0.0.255") {
		t.Errorf("R2 range = [%s, %s]", subs[1].Lo, subs[1].Hi)
	}
}

// TestSplitRoutesKeepsPrefixTogether: a cut never separates the routes of a
// prefix, nor the prefixes an aggregate's group couples, at any subset count.
func TestSplitRoutesKeepsPrefixTogether(t *testing.T) {
	var inputs []netmodel.Route
	p := netip.MustParsePrefix("10.0.0.0/24")
	for i := 0; i < 5; i++ {
		inputs = append(inputs, netmodel.Route{Device: "A", Prefix: p, Attrs: &netmodel.Attrs{LocalPref: uint32(i)}})
	}
	inputs = append(inputs, netmodel.Route{Device: "A", Prefix: netip.MustParsePrefix("10.0.1.0/24")})
	// 10.1.0.0/16 aggregates four routes; the same prefix at another device
	// sorts between them.
	for _, q := range []string{"10.1.0.0/24", "10.1.1.0/24", "10.1.2.0/24", "10.1.255.0/24"} {
		inputs = append(inputs, netmodel.Route{Device: "A", Prefix: netip.MustParsePrefix(q)})
	}
	inputs = append(inputs, netmodel.Route{Device: "B", Prefix: netip.MustParsePrefix("10.1.0.0/24")},
		netmodel.Route{Device: "A", Prefix: netip.MustParsePrefix("10.2.0.0/24")})
	net := config.NewNetwork()
	net.Devices["A"] = config.NewDevice("A", "alpha")
	net.Devices["A"].Aggregates = []config.Aggregate{{Prefix: netip.MustParsePrefix("10.1.0.0/16")}}
	groups := bgp.Groups(net)
	for n := 1; n <= len(inputs); n++ {
		home := map[netip.Prefix]int{}
		for i, s := range splitRoutes(inputs, n, groups) {
			for _, r := range s.Items {
				g := groups.Of(r.Prefix)
				if prev, seen := home[g]; seen && prev != i {
					t.Fatalf("n=%d: group %s split across subsets %d and %d", n, g, prev, i)
				}
				home[g] = i
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
	task, err := c.Master.StartRouteSimulation("t1", snapKey, bgp.Groups(out.Net), out.Inputs, 8, core.Options{})
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
	rt, err := c.Master.StartRouteSimulation("t2", snapKey, bgp.Groups(out.Net), out.Inputs, 6, core.Options{})
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
	rt, err := c.Master.StartRouteSimulation("t3", snapKey, bgp.Groups(out.Net), out.Inputs, 10, core.Options{})
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
	task, err := master.StartRouteSimulation("t4", snapKey, bgp.Groups(out.Net), out.Inputs, 4, core.Options{})
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
	task, err := master.StartRouteSimulation("t5", snapKey, bgp.Groups(out.Net), out.Inputs[:4], 2, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := master.Wait("t5", "route", task.Subtasks); err == nil {
		t.Fatal("want permanent failure error")
	}
}

// panickyStore is an object store whose Get panics on one key.
type panickyStore struct {
	objstore.Store
	key string
}

func (s panickyStore) Get(key string) ([]byte, error) {
	if key == s.key {
		panic("corrupt object " + key)
	}
	return s.Store.Get(key)
}

func TestWorkerSurvivesPanickingSubtask(t *testing.T) {
	out := gen.Generate(gen.WAN(1))
	svc := Services{Queue: mq.NewMemory(nil), Store: panickyStore{objstore.NewMemory(nil), inputKey("tp", "route", 0)}, Tasks: taskdb.NewMemory()}
	master := NewMaster(svc, nil)
	master.MaxAttempts, master.Timeout = 1, 10*time.Second

	reg := telemetry.NewRegistry()
	var events bytes.Buffer
	w := NewWorker("w", svc, reg)
	w.Events = telemetry.NewEventLogger(&events)
	ctx, cancel := context.WithCancel(context.Background())
	stopped := make(chan struct{})
	go func() {
		w.Run(ctx)
		close(stopped)
	}()
	defer func() {
		cancel()
		<-stopped
	}()

	run := func(taskID string) error {
		snapKey, err := master.UploadSnapshot(taskID, out.Net)
		if err != nil {
			t.Fatal(err)
		}
		task, err := master.StartRouteSimulation(taskID, snapKey, bgp.Groups(out.Net), out.Inputs, 1, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return master.Wait(taskID, "route", task.Subtasks)
	}
	if err := run("tp"); err == nil {
		t.Fatal("the subtask whose input read panics must fail")
	}
	rec, _, err := svc.Tasks.Get("tp", "route", 0)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Status != taskdb.StatusFailed || !strings.HasPrefix(rec.Error, "subtask panicked: corrupt object") {
		t.Errorf("record %s %q, want failed with the panic", rec.Status, rec.Error)
	}
	if err := run("tn"); err != nil {
		t.Fatalf("the worker's next subtask: %v", err)
	}
	cancel()
	<-stopped

	// Every attempt of the subtask failed on the panic, and each failure is
	// counted and logged with its stack.
	failed := 0
	for _, line := range strings.Split(strings.TrimSpace(events.String()), "\n") {
		var ev map[string]any
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("event %q: %v", line, err)
		}
		if ev["event"] != "subtask.failed" {
			continue
		}
		failed++
		if stack, _ := ev["stack"].(string); !strings.Contains(stack, "panickyStore.Get") {
			t.Errorf("subtask.failed event %v must carry the panic's stack", ev)
		}
	}
	if n := reg.Counter("hoyan_worker_subtask_failures_total", "").Value(); failed == 0 || n != int64(failed) {
		t.Errorf("hoyan_worker_subtask_failures_total = %d, with %d subtask.failed events", n, failed)
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
	task, err := master.StartRouteSimulation("tcp1", snapKey, bgp.Groups(out.Net), out.Inputs, 4, core.Options{})
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
	// contiguous in last-address order, no independence group (a prefix, or
	// everything under a regional aggregate) straddles two subsets, and each
	// subset's range covers every member prefix.
	for seed := int64(1); seed <= 3; seed++ {
		out := gen.Generate(gen.Profile{
			Name: "prop", Seed: seed, Regions: 2, CoresPerRegion: 2,
			BordersPerRegion: 1, RRsPerRegion: 1, DCsPerRegion: 1,
			ISPsPerRegion: 1, PrefixesPerDC: 13, PrefixesPerISP: 7, Flows: 0,
		})
		inputs, groups := out.Inputs, bgp.Groups(out.Net)
		if groups.Of(inputs[0].Prefix) == inputs[0].Prefix {
			t.Fatalf("seed %d: fixture: %s is not under an aggregate", seed, inputs[0].Prefix)
		}
		for _, n := range []int{1, 3, 7, len(inputs), len(inputs) * 2} {
			subs := splitRoutes(inputs, n, groups)
			total := 0
			groupHome := map[netip.Prefix]int{}
			var prev netip.Addr
			for i, sub := range subs {
				total += len(sub.Items)
				for _, r := range sub.Items {
					g := groups.Of(r.Prefix)
					if home, seen := groupHome[g]; seen && home != i {
						t.Fatalf("group %s split across subsets %d and %d", g, home, i)
					}
					groupHome[g] = i
					last := netmodel.LastAddr(r.Prefix)
					if prev.IsValid() && last.Less(prev) {
						t.Fatalf("%s out of last-address order", r.Prefix)
					}
					prev = last
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

// FuzzSplitSubsets: over random input prefixes (within 10.0.0.0/14, so
// they nest and collide), aggregates over them and subset counts,
// splitRoutes partitions the inputs exactly, into at most n non-empty
// subsets, in last-address order, never splits an independence group, and
// each subset's range covers its members. Each 4-byte chunk of data, up to
// 64, is one prefix; the first aggs%4 chunks are aggregates, the rest inputs.
func FuzzSplitSubsets(f *testing.F) {
	// 10.0.0.0/16 aggregates four /24 inputs; four subsets would split it.
	f.Add([]byte{0, 0, 2, 0, 0, 0, 10, 0, 0, 1, 10, 0, 0, 2, 10, 0, 0, 3, 10, 1}, uint8(1), uint8(4))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 16, 0, 0, 0, 16, 1, 3, 255, 24, 0}, uint8(0), uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, aggs, n uint8) {
		net := config.NewNetwork()
		net.Devices["A"] = config.NewDevice("A", "alpha")
		var inputs []netmodel.Route
		for i := 0; i+4 <= min(len(data), 4*64); i += 4 {
			c := data[i : i+4]
			p := netip.PrefixFrom(netip.AddrFrom4([4]byte{10, c[0] % 4, c[1], 0}), 14+int(c[2])%11).Masked()
			if i/4 < int(aggs%4) {
				net.Devices["A"].Aggregates = append(net.Devices["A"].Aggregates, config.Aggregate{Prefix: p})
				continue
			}
			inputs = append(inputs, netmodel.Route{Device: string(rune('A' + c[3]%2)), Prefix: p, Attrs: &netmodel.Attrs{LocalPref: uint32(len(inputs))}})
		}
		groups := bgp.Groups(net)
		subs := splitRoutes(inputs, int(n), groups)
		if len(subs) > max(1, int(n)) {
			t.Fatalf("%d subsets for n=%d", len(subs), n)
		}
		seen := make([]bool, len(inputs))
		home := map[netip.Prefix]int{}
		var prev netip.Addr
		for i, sub := range subs {
			if len(sub.Items) == 0 {
				t.Fatalf("subset %d is empty", i)
			}
			for _, r := range sub.Items {
				if seen[r.Attr().LocalPref] {
					t.Fatalf("input %d in two subsets", r.Attr().LocalPref)
				}
				seen[r.Attr().LocalPref] = true
				g := groups.Of(r.Prefix)
				if h, ok := home[g]; ok && h != i {
					t.Fatalf("group %s split across subsets %d and %d", g, h, i)
				}
				home[g] = i
				last := netmodel.LastAddr(r.Prefix)
				if prev.IsValid() && last.Less(prev) {
					t.Fatalf("%s out of last-address order", r.Prefix)
				}
				prev = last
				if r.Prefix.Addr().Less(sub.Lo) || sub.Hi.Less(last) {
					t.Fatalf("range [%s,%s] does not cover %s", sub.Lo, sub.Hi, r.Prefix)
				}
			}
		}
		for id, ok := range seen {
			if !ok {
				t.Fatalf("input %d in no subset", id)
			}
		}
	})
}

func TestSplitFlowsPartitionProperty(t *testing.T) {
	out := gen.Generate(gen.WAN(1))
	for _, n := range []int{1, 4, 9, len(out.Flows)} {
		for _, strategy := range []Strategy{StrategyOrdered, StrategyRandom} {
			subs := splitFlows(out.Flows, n, strategy)
			total := 0
			for _, sub := range subs {
				total += len(sub.Items)
				for _, f := range sub.Items {
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

// TestFleetRIBMatchesCentralizedWithAggregates: on WAN(2) with every
// aggregate an as-set and the DC inputs under an aggregate carrying distinct
// AS paths, an aggregate's row depends on every one of its contributors, so a
// route subtask holding only some of them would derive a row of its own. The
// cut keeps each aggregate's group in one subtask, and the fleet's RIB equals
// the centralized one at every route subtask count.
func TestFleetRIBMatchesCentralizedWithAggregates(t *testing.T) {
	out := gen.Generate(gen.WAN(2))
	for _, d := range out.Net.Devices {
		for i := range d.Aggregates {
			d.Aggregates[i].ASSet = true
		}
	}
	dc := 0
	for i, r := range out.Inputs {
		if strings.HasPrefix(r.Device, "dc-") {
			a := *r.Attr()
			a.ASPath = netmodel.ASPath{Seq: []netmodel.ASN{netmodel.ASN(65500 + dc%7)}}
			out.Inputs[i].SetAttrs(&a)
			dc++
		}
	}
	central := core.NewEngine(out.Net, core.Options{}).RouteSimulation(out.Inputs).GlobalRIB()
	c := startLocal(t, LocalOptions{Workers: 2})
	defer c.Stop()
	for _, n := range []int{3, 5, 8, 16, 32} {
		sim := &Simulation{TaskID: fmt.Sprintf("agg%d", n), Net: out.Net, Inputs: out.Inputs, RouteSubtasks: n}
		if err := c.Master.Simulate(sim, nil); err != nil {
			t.Fatalf("%d route subtasks: %v", n, err)
		}
		if !central.Equal(sim.RIB) {
			a, b := central.Diff(sim.RIB)
			t.Errorf("%d route subtasks: %d rows only in the centralized RIB, %d only in the fleet's", n, len(a), len(b))
		}
	}
}
