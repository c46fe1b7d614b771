package dsim

import (
	"context"
	"fmt"
	"testing"
	"time"

	"hoyan/internal/bgp"
	"hoyan/internal/core"
	"hoyan/internal/faults"
	"hoyan/internal/gen"
	"hoyan/internal/mq"
	"hoyan/internal/objstore"
	"hoyan/internal/taskdb"
)

// TestLRU pins the cache's bound and recency ordering.
func TestLRU(t *testing.T) {
	c := newLRU[int](2)
	c.put("a", 1)
	c.put("b", 2)
	if _, ok := c.get("a"); !ok { // refresh a; b is now oldest
		t.Fatal("a missing")
	}
	c.put("c", 3)
	if _, ok := c.get("b"); ok {
		t.Error("b should have been evicted")
	}
	if v, ok := c.get("a"); !ok || v != 1 {
		t.Errorf("a = %d, %v", v, ok)
	}
	if v, ok := c.get("c"); !ok || v != 3 {
		t.Errorf("c = %d, %v", v, ok)
	}
	c.put("a", 10) // update in place
	if v, _ := c.get("a"); v != 10 {
		t.Errorf("a after update = %d", v)
	}
	if c.ll.Len() != 2 {
		t.Errorf("len = %d, want 2", c.ll.Len())
	}

	off := newLRU[int](0) // disabled
	off.put("x", 1)
	if _, ok := off.get("x"); ok || off.ll.Len() != 0 {
		t.Error("disabled LRU stored an entry")
	}
}

// TestChaosWithCachesByteIdentical runs the distributed pipeline with the
// binary codec and worker caches active while workers crash mid-subtask and
// substrates fail: the results must stay byte-identical to a clean
// distributed run and to the centralized engine, and the caches must have
// actually been exercised. A cache serving a stale entry across attempt
// epochs would surface here as a result divergence.
func TestChaosWithCachesByteIdentical(t *testing.T) {
	out := gen.Generate(gen.WAN(1))
	const nRoute, nTraffic = 6, 6

	// Clean distributed reference run; its workers must show cache traffic.
	cleanCluster := startLocal(t, LocalOptions{Workers: 3})
	clean := runDistributed(t, cleanCluster.Master, "clean", out, nRoute, nTraffic)
	cleanStats := cleanCluster.CacheStats()
	cleanCluster.Stop()
	if cleanStats.RIBFileHits == 0 {
		t.Errorf("clean run had no RIB cache hits: %+v", cleanStats)
	}
	if cleanStats.SnapshotHits == 0 {
		t.Errorf("clean run had no snapshot cache hits: %+v", cleanStats)
	}

	// Chaos run: flaky substrates plus a mid-run crash; default caches on.
	inj := faults.NewInjector(20260807)
	inj.ErrorRate = 0.10
	svc := flakyServices(inj)
	master := chaosMaster(svc, 10, 400*time.Millisecond)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var workers []*Worker
	for i := 0; i < 3; i++ {
		w := NewWorker(fmt.Sprintf("chaos-worker-%d", i), svc, nil)
		w.HeartbeatInterval = 25 * time.Millisecond
		if i == 0 {
			w.CrashNext = 1 // dies holding its first claim; lease reclaim recovers
		}
		workers = append(workers, w)
		go w.Run(ctx)
	}

	chaos := runDistributed(t, master, "chaos", out, nRoute, nTraffic)

	var chaosStats CacheStats
	for _, w := range workers {
		chaosStats.Add(w.Stats())
	}
	if chaosStats.RIBFileHits == 0 {
		t.Errorf("chaos run had no RIB cache hits: %+v", chaosStats)
	}
	t.Logf("chaos cache stats: %+v", chaosStats)

	assertMatchesCentral(t, out, chaos)
	assertSameDistributed(t, clean, chaos)
}

// TestFreshClusterOverExistingStore runs the route phase on one cluster and
// the rest on a second one started over the first's object store and task DB
// (LocalOptions.Store / Tasks): the fresh workers must collect the stored
// route results and run the traffic phase off them, matching the centralized
// engine. The first cluster's Stop must leave the caller's substrates open.
func TestFreshClusterOverExistingStore(t *testing.T) {
	out := gen.Generate(gen.WAN(1))
	const nRoute, nTraffic = 4, 4

	store, tasks := objstore.NewMemory(nil), taskdb.NewMemory()
	c1 := startLocal(t, LocalOptions{Workers: 2, Store: store, Tasks: tasks})
	snapKey, err := c1.Master.UploadSnapshot("reuse", out.Net)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := c1.Master.StartRouteSimulation("reuse", snapKey, bgp.Groups(out.Net), out.Inputs, nRoute, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.Master.Wait("reuse", "route", rt.Subtasks); err != nil {
		t.Fatal(err)
	}
	c1.Stop()

	c2 := startLocal(t, LocalOptions{Workers: 2, Store: store, Tasks: tasks})
	defer c2.Stop()
	rib, err := c2.Master.CollectRouteResults(rt)
	if err != nil {
		t.Fatal(err)
	}
	tt, err := c2.Master.StartTrafficSimulation("reuse", rt, out.Flows, nTraffic, StrategyOrdered, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := c2.Master.Wait("reuse", "traffic", tt.Subtasks); err != nil {
		t.Fatal(err)
	}
	sum, err := c2.Master.CollectTrafficResults(tt)
	if err != nil {
		t.Fatal(err)
	}
	assertMatchesCentral(t, out, distResult{RIB: rib, Sum: sum, Task: rt})
}

// TestRIBCacheDisabled checks the RIBCacheSize knob: negative disables the
// cache entirely (every file is re-fetched) while results stay correct.
func TestRIBCacheDisabled(t *testing.T) {
	out := gen.Generate(gen.WAN(1))
	svc := Services{Queue: mq.NewMemory(nil), Store: objstore.NewMemory(nil), Tasks: taskdb.NewMemory()}
	master := NewMaster(svc, nil)

	w := NewWorker("nocache", svc, nil)
	w.RIBCacheSize = -1
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go w.Run(ctx)

	res := runDistributed(t, master, "nocache", out, 3, 3)
	assertMatchesCentral(t, out, res)
	st := w.Stats()
	if st.RIBFileHits != 0 {
		t.Errorf("disabled RIB cache reported %d hits", st.RIBFileHits)
	}
	if st.RIBFileMisses == 0 {
		t.Error("no RIB file fetches recorded")
	}
}
