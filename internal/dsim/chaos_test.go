package dsim

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"hoyan/internal/bgp"
	"hoyan/internal/core"
	"hoyan/internal/faults"
	"hoyan/internal/gen"
	"hoyan/internal/mq"
	"hoyan/internal/netmodel"
	"hoyan/internal/objstore"
	"hoyan/internal/retry"
	"hoyan/internal/taskdb"
	"slices"
)

// chaosMaster returns a master tuned for fast lease reclaim in tests.
func chaosMaster(svc Services, maxAttempts int, lease time.Duration) *Master {
	m := NewMaster(svc, nil)
	m.MaxAttempts = maxAttempts
	m.LeaseTimeout = lease
	m.Timeout = 2 * time.Minute
	return m
}

// distResult is everything a distributed run produces.
type distResult struct {
	RIB  *netmodel.GlobalRIB
	Sum  *TrafficSummary
	Task *RouteTask
}

// runDistributed runs route then traffic simulation on an already-started
// cluster of workers and collects the results.
func runDistributed(t *testing.T, m *Master, taskID string, out *gen.Output, nRoute, nTraffic int) distResult {
	t.Helper()
	sim := &Simulation{
		TaskID: taskID, Net: out.Net, Inputs: out.Inputs, Flows: out.Flows,
		RouteSubtasks: nRoute, TrafficSubtasks: nTraffic,
	}
	if err := m.Simulate(sim, func(name string, fn func() error) error {
		if err := fn(); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		return nil
	}); err != nil {
		t.Fatalf("%s: %v", taskID, err)
	}
	return distResult{RIB: sim.RIB, Sum: sim.Summary, Task: sim.Route}
}

// pathKeys renders flow paths as sortable strings so path sets can be
// compared independent of tie-breaking among equal flows.
func pathKeys(t *testing.T, paths []netmodel.FlowPath) []string {
	t.Helper()
	out := make([]string, 0, len(paths))
	for _, p := range paths {
		b, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, string(b))
	}
	slices.Sort(out)
	return out
}

// assertMatchesCentral checks a distributed result against the local
// single-process simulation: identical (deduplicated) RIB and link loads
// within float tolerance.
func assertMatchesCentral(t *testing.T, out *gen.Output, got distResult) {
	t.Helper()
	eng := core.NewEngine(out.Net, core.Options{})
	routes := eng.RouteSimulation(out.Inputs)
	central := dedupe(routes.GlobalRIB())
	if !central.Equal(got.RIB) {
		a, b := central.Diff(got.RIB)
		t.Fatalf("distributed RIB != centralized (%d vs %d rows, diff %d/%d)",
			central.Len(), got.RIB.Len(), len(a), len(b))
	}
	centralTraffic := eng.TrafficSimulation(routes, routes.GlobalRIB().Rows(), out.Flows)
	for id, v := range centralTraffic.Traffic.Load {
		if d := got.Sum.Load[id] - v; d > 1e-3 || d < -1e-3 {
			t.Errorf("load[%s]: distributed %v, centralized %v", id, got.Sum.Load[id], v)
		}
	}
	for id, v := range got.Sum.Load {
		if _, ok := centralTraffic.Traffic.Load[id]; !ok && v > 1e-3 {
			t.Errorf("phantom load on %s: %v", id, v)
		}
	}
	if len(got.Sum.Paths) > len(out.Flows) {
		t.Errorf("paths = %d > flows = %d", len(got.Sum.Paths), len(out.Flows))
	}
}

// assertSameDistributed checks that two distributed runs with the same
// partitioning produced byte-identical results: same RIB rows, same link
// loads (exact — same summation order), same path set.
func assertSameDistributed(t *testing.T, clean, chaos distResult) {
	t.Helper()
	if !clean.RIB.Equal(chaos.RIB) {
		a, b := clean.RIB.Diff(chaos.RIB)
		t.Fatalf("chaos RIB != clean RIB (diff %d/%d)", len(a), len(b))
	}
	if !reflect.DeepEqual(clean.Sum.Load, chaos.Sum.Load) {
		t.Fatal("chaos link loads != clean link loads")
	}
	if !reflect.DeepEqual(pathKeys(t, clean.Sum.Paths), pathKeys(t, chaos.Sum.Paths)) {
		t.Fatalf("chaos path set != clean path set (%d vs %d paths)",
			len(chaos.Sum.Paths), len(clean.Sum.Paths))
	}
}

// TestChaosWorkerCrashLeaseReclaim kills workers mid-subtask — after they
// claimed the record, before any completion or failure report — and checks
// the master's lease reclaim gets every subtask done, with results identical
// to the local single-process simulation and to a clean distributed run.
func TestChaosWorkerCrashLeaseReclaim(t *testing.T) {
	out := gen.Generate(gen.WAN(1))
	const nRoute, nTraffic = 6, 6

	// Clean distributed reference run.
	cleanCluster := startLocal(t, LocalOptions{Workers: 3})
	clean := runDistributed(t, cleanCluster.Master, "clean", out, nRoute, nTraffic)
	cleanCluster.Stop()

	svc := Services{Queue: mq.NewMemory(nil), Store: objstore.NewMemory(nil), Tasks: taskdb.NewMemory()}
	master := chaosMaster(svc, 5, 300*time.Millisecond)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// Phase 1: two crashers claim one route subtask each and die silently.
	var crashed sync.WaitGroup
	for i := 0; i < 2; i++ {
		w := NewWorker(fmt.Sprintf("crasher-%d", i), svc, nil)
		w.CrashNext = 1
		w.HeartbeatInterval = 25 * time.Millisecond
		crashed.Add(1)
		go func() {
			defer crashed.Done()
			w.Run(ctx)
		}()
	}

	snapKey, err := master.UploadSnapshot("chaos", out.Net)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := master.StartRouteSimulation("chaos", snapKey, bgp.Groups(out.Net), out.Inputs, nRoute, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Both crashers die holding a claimed subtask before any healthy worker
	// exists: only lease reclaim can finish those subtasks now.
	crashed.Wait()

	// Now start healthy workers, one of which will also crash once during
	// the traffic phase.
	for i := 0; i < 2; i++ {
		w := NewWorker(fmt.Sprintf("worker-%d", i), svc, nil)
		w.HeartbeatInterval = 25 * time.Millisecond
		go w.Run(ctx)
	}
	lateCrasher := NewWorker("late-crasher", svc, nil)
	lateCrasher.HeartbeatInterval = 25 * time.Millisecond
	if err := master.Wait("chaos", "route", rt.Subtasks); err != nil {
		t.Fatalf("route Wait with crashes: %v", err)
	}
	rib, err := master.CollectRouteResults(rt)
	if err != nil {
		t.Fatal(err)
	}

	// Phase 2: traffic, with one more crash mid-phase.
	lateCrasher.CrashNext = 1
	go lateCrasher.Run(ctx)
	tt, err := master.StartTrafficSimulation("chaos", rt, out.Flows, nTraffic, StrategyOrdered, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := master.Wait("chaos", "traffic", tt.Subtasks); err != nil {
		t.Fatalf("traffic Wait with crashes: %v", err)
	}
	sum, err := master.CollectTrafficResults(tt)
	if err != nil {
		t.Fatal(err)
	}
	chaos := distResult{RIB: rib, Sum: sum, Task: rt}

	// Reclaims actually happened, within the attempt budget.
	recs, err := svc.Tasks.List("chaos")
	if err != nil {
		t.Fatal(err)
	}
	reclaimed := 0
	for _, rec := range recs {
		if rec.Status != taskdb.StatusDone {
			t.Errorf("subtask %s not done: %s (attempts %d)", rec.Key(), rec.Status, rec.Attempts)
		}
		if rec.Attempts > 0 {
			reclaimed++
		}
		if rec.Attempts > master.MaxAttempts {
			t.Errorf("subtask %s exceeded MaxAttempts: %d", rec.Key(), rec.Attempts)
		}
	}
	if reclaimed < 2 {
		t.Errorf("reclaimed %d subtasks, want >= 2 (two crashed claims)", reclaimed)
	}

	assertMatchesCentral(t, out, chaos)
	assertSameDistributed(t, clean, chaos)
}

// TestChaosFlakySubstrates runs the full distributed route+traffic pipeline
// with every substrate operation failing at >=10% (including lost pop replies
// — vanished messages — and lost write acks) and checks the results are
// identical to the local simulation and to a clean distributed run.
func TestChaosFlakySubstrates(t *testing.T) {
	out := gen.Generate(gen.WAN(1))
	const nRoute, nTraffic = 5, 5

	cleanCluster := startLocal(t, LocalOptions{Workers: 3})
	clean := runDistributed(t, cleanCluster.Master, "clean", out, nRoute, nTraffic)
	cleanCluster.Stop()

	inj := faults.NewInjector(20260806)
	inj.ErrorRate = 0.12
	svc := flakyServices(inj)
	master := chaosMaster(svc, 10, 400*time.Millisecond)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for i := 0; i < 3; i++ {
		w := NewWorker(fmt.Sprintf("flaky-worker-%d", i), svc, nil)
		w.HeartbeatInterval = 25 * time.Millisecond
		go w.Run(ctx)
	}

	chaos := runDistributed(t, master, "chaos", out, nRoute, nTraffic)

	points, injected := inj.Stats()
	if points == 0 || injected == 0 {
		t.Fatalf("chaos run injected nothing (points=%d injected=%d)", points, injected)
	}
	t.Logf("injected %d errors across %d injection points (%.1f%%)",
		injected, points, 100*float64(injected)/float64(points))

	assertMatchesCentral(t, out, chaos)
	assertSameDistributed(t, clean, chaos)
}

// TestWorkerSurvivesTransientPopErrors drives a worker through a queue that
// errors persistently (longer than one retry envelope) before recovering:
// Run must log-and-retry, not exit, and the task must complete.
func TestWorkerSurvivesTransientPopErrors(t *testing.T) {
	out := gen.Generate(gen.WAN(1))
	flakyPop := &popErrQueue{Queue: mq.NewMemory(nil), failures: 40}
	svc := Services{Queue: flakyPop, Store: objstore.NewMemory(nil), Tasks: taskdb.NewMemory()}
	master := chaosMaster(svc, 3, time.Second)

	w := NewWorker("survivor", svc, nil)
	w.PopWait = 5 * time.Millisecond
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go w.Run(ctx)

	snapKey, err := master.UploadSnapshot("pop-errs", out.Net)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := master.StartRouteSimulation("pop-errs", snapKey, bgp.Groups(out.Net), out.Inputs, 3, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := master.Wait("pop-errs", "route", rt.Subtasks); err != nil {
		t.Fatalf("Wait across pop errors: %v", err)
	}
	if n := flakyPop.served(); n < 3 {
		t.Fatalf("queue served %d pops after recovering", n)
	}
}

// TestWorkerExitsOnQueueClosed checks the one pop error that must stop a
// worker: deliberate queue shutdown — including when the sentinel crossed an
// RPC boundary and was re-mapped.
func TestWorkerExitsOnQueueClosed(t *testing.T) {
	memq := mq.NewMemory(nil)
	svc := Services{Queue: memq, Store: objstore.NewMemory(nil), Tasks: taskdb.NewMemory()}
	w := NewWorker("closer", svc, nil)
	w.PopWait = 5 * time.Millisecond
	done := make(chan struct{})
	go func() {
		w.Run(context.Background())
		close(done)
	}()
	time.Sleep(20 * time.Millisecond)
	memq.Close()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("worker did not exit after queue close")
	}
}

// TestStaleAttemptMessageSkipped delivers a message from a reclaimed attempt
// to a worker and checks it neither executes nor disturbs the record owned
// by the newer attempt.
func TestStaleAttemptMessageSkipped(t *testing.T) {
	out := gen.Generate(gen.WAN(1))
	memq := mq.NewMemory(nil)
	svc := Services{Queue: memq, Store: objstore.NewMemory(nil), Tasks: taskdb.NewMemory()}
	master := NewMaster(svc, nil)

	snapKey, err := master.UploadSnapshot("stale", out.Net)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := master.StartRouteSimulation("stale", snapKey, bgp.Groups(out.Net), out.Inputs, 1, core.Options{})
	if err != nil || rt.Subtasks != 1 {
		t.Fatalf("start: %v (%d subtasks)", err, rt.Subtasks)
	}
	// Drain the attempt-0 message and pretend the master reclaimed the
	// subtask: the record is now owned by attempt 1.
	m, ok, err := memq.Pop(Topic, time.Second)
	if err != nil || !ok {
		t.Fatalf("draining: %v %v", ok, err)
	}
	rec, _, _ := svc.Tasks.Get("stale", "route", 0)
	rec.Status = taskdb.StatusPending
	rec.Attempts = 1
	if _, err := svc.Tasks.FencedUpsert(rec); err != nil {
		t.Fatal(err)
	}
	// Re-deliver the stale attempt-0 message.
	if err := memq.Push(Topic, m); err != nil {
		t.Fatal(err)
	}
	w := NewWorker("stale-worker", svc, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	w.RunN(ctx, 1)

	got, _, _ := svc.Tasks.Get("stale", "route", 0)
	if got.Status != taskdb.StatusPending || got.Attempts != 1 {
		t.Fatalf("stale message disturbed the record: %+v", got)
	}
	// No result was written by the stale attempt.
	if _, err := svc.Store.Get(resultKey("stale", "route", 0)); !errors.Is(err, objstore.ErrNotFound) {
		t.Fatalf("stale attempt wrote a result: %v", err)
	}
}

// flakyServices returns fresh in-memory substrates with every operation
// hooked to inj, under three immediate tries of the harness's own. Masters and
// workers put DefaultRetryPolicy's five on top, 15 in all. At a 12 % injection
// rate a call fails one try with probability 1-0.88² = 0.23 (the points before
// the call and at its ack), so all 15 fail once in 5·10⁹ calls and a run of a
// few hundred master calls, each fatal when it gives up, fails below 1 in 10⁷.
// Under the five tries alone that was 1 call in 1,700 and 2–3 runs in 80
// (ROADMAP 4e); the product's policy still sees one call in 90 fail.
func flakyServices(inj *faults.Injector) Services {
	q, s, db := mq.NewMemory(nil), objstore.NewMemory(nil), taskdb.NewMemory()
	again := retry.Policy{MaxTries: 3, Retryable: TransientSubstrateError}.Hook
	fq := mq.Decorate(func() mq.Queue { return q }, inj.Hook)
	fs := objstore.Decorate(func() objstore.Store { return s }, inj.Hook)
	fdb := taskdb.Decorate(func() taskdb.DB { return db }, inj.Hook)
	return Services{
		Queue: mq.Decorate(func() mq.Queue { return fq }, again),
		Store: objstore.Decorate(func() objstore.Store { return fs }, again),
		Tasks: taskdb.Decorate(func() taskdb.DB { return fdb }, again),
	}
}

// popErrQueue fails its first n Pop calls with a transient error.
type popErrQueue struct {
	mq.Queue
	mu       sync.Mutex
	failures int
	pops     int
}

func (q *popErrQueue) Pop(topic string, wait time.Duration) (mq.Message, bool, error) {
	q.mu.Lock()
	if q.failures > 0 {
		q.failures--
		q.mu.Unlock()
		return mq.Message{}, false, errors.New("transient: connection reset")
	}
	q.pops++
	q.mu.Unlock()
	return q.Queue.Pop(topic, wait)
}

func (q *popErrQueue) served() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.pops
}

// RunN consumes exactly n subtask messages then returns (deterministic
// tests).
func (w *Worker) RunN(ctx context.Context, n int) {
	for i := 0; i < n; {
		msg, ok, fatal := w.nextMsg(ctx)
		if fatal {
			return
		}
		if !ok {
			continue
		}
		if crashed := w.execute(ctx, msg); crashed {
			return
		}
		i++
	}
}
