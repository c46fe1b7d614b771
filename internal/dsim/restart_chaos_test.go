package dsim

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"hoyan/internal/bgp"
	"hoyan/internal/core"
	"hoyan/internal/durable"
	"hoyan/internal/faults"
	"hoyan/internal/gen"
	"hoyan/internal/mq"
	"hoyan/internal/objstore"
	"hoyan/internal/taskdb"
)

// durableServices opens (or recovers) the three disk-backed substrates under
// dir and returns them with a crash hook that drops all their file handles
// unflushed — the moral equivalent of kill -9 on the hosting process.
func durableServices(t *testing.T, dir string) (Services, func()) {
	t.Helper()
	store, err := objstore.OpenDisk(filepath.Join(dir, "objstore"), durable.Options{}, nil)
	if err != nil {
		t.Fatalf("OpenDisk: %v", err)
	}
	tasks, err := taskdb.OpenDurable(filepath.Join(dir, "taskdb.wal"), durable.Options{}, nil)
	if err != nil {
		t.Fatalf("taskdb.OpenDurable: %v", err)
	}
	q, err := mq.OpenDurable(filepath.Join(dir, "mq.wal"), durable.Options{}, nil)
	if err != nil {
		t.Fatalf("mq.OpenDurable: %v", err)
	}
	svc := Services{Queue: q, Store: store, Tasks: tasks}
	crash := func() {
		q.CrashClose()
		tasks.CrashClose()
		store.CrashClose()
	}
	return svc, crash
}

// TestRestartMasterResume kills the whole deployment — master and substrates
// — twice mid-task (once during the route phase, once during traffic) and
// restarts from disk each time via Master.Resume. The resumed run must fence
// out the stale pre-crash queue messages, reuse completed results as-is,
// re-execute the rest, and land byte-identical to a clean distributed run and
// to the centralized engine.
func TestRestartMasterResume(t *testing.T) {
	out := gen.Generate(gen.WAN(1))
	const nRoute, nTraffic = 6, 6

	cleanCluster := startLocal(t, LocalOptions{Workers: 3})
	clean := runDistributed(t, cleanCluster.Master, "clean", out, nRoute, nTraffic)
	cleanCluster.Stop()

	dir := t.TempDir()

	// Deployment 1: route phase starts, three subtasks complete, then the
	// process dies (handles dropped without flush, master state lost).
	svcA, crashA := durableServices(t, dir)
	m1 := chaosMaster(svcA, 10, 400*time.Millisecond)
	snapKey, err := m1.UploadSnapshot("restart", out.Net)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m1.StartRouteSimulation("restart", snapKey, bgp.Groups(out.Net), out.Inputs, nRoute, core.Options{}); err != nil {
		t.Fatal(err)
	}
	ctxA, cancelA := context.WithTimeout(context.Background(), time.Minute)
	wA := NewWorker("pre-crash", svcA, nil)
	wA.HeartbeatInterval = 25 * time.Millisecond
	wA.RunN(ctxA, 3)
	cancelA()
	crashA()

	// Deployment 2: a brand-new master resumes the task from the recovered
	// substrates, finishes the route phase, starts traffic — and dies again.
	svcB, crashB := durableServices(t, dir)
	m2 := chaosMaster(svcB, 10, 400*time.Millisecond)
	info, err := m2.Resume("restart")
	if err != nil {
		t.Fatalf("Resume after route-phase crash: %v", err)
	}
	if info.RouteSubtasks != nRoute || info.TrafficSubtasks != 0 {
		t.Fatalf("resumed %d route / %d traffic subtasks, want %d/0", info.RouteSubtasks, info.TrafficSubtasks, nRoute)
	}
	if info.Done != 3 || info.Reenqueued != nRoute-3 {
		t.Fatalf("resume found %d done, re-enqueued %d; want 3 done, %d re-enqueued", info.Done, info.Reenqueued, nRoute-3)
	}
	ctxB, cancelB := context.WithCancel(context.Background())
	doneB := make(chan struct{})
	var workersB []*Worker
	for i := 0; i < 2; i++ {
		w := NewWorker(fmt.Sprintf("resume-worker-%d", i), svcB, nil)
		w.HeartbeatInterval = 25 * time.Millisecond
		workersB = append(workersB, w)
	}
	go func() {
		defer close(doneB)
		workersB[0].Run(ctxB)
	}()
	doneB2 := make(chan struct{})
	go func() {
		defer close(doneB2)
		workersB[1].Run(ctxB)
	}()
	if err := m2.Wait("restart", "route", info.RouteSubtasks); err != nil {
		t.Fatalf("resumed route Wait: %v", err)
	}
	rt := info.RouteTask()
	if _, err := m2.StartTrafficSimulation("restart", rt, out.Flows, nTraffic, StrategyOrdered, core.Options{}); err != nil {
		t.Fatal(err)
	}
	// Give the workers a moment to pull some traffic subtasks, then stop them
	// and kill the deployment with the traffic phase incomplete.
	time.Sleep(100 * time.Millisecond)
	cancelB()
	<-doneB
	<-doneB2
	crashB()

	// The pre-crash attempts left stale attempt-0 messages behind; the fencing
	// counters prove the resumed workers skipped them rather than re-running.
	var staleSkipped int64
	for _, w := range workersB {
		staleSkipped += w.metrics.StaleSkipped.Value()
	}
	if staleSkipped < int64(nRoute-3) {
		t.Errorf("resumed workers stale-skipped %d messages, want >= %d (pre-crash queue remnants)",
			staleSkipped, nRoute-3)
	}

	// Deployment 3: resume again — this time with both phases on record — and
	// run the task to completion.
	svcC, _ := durableServices(t, dir)
	m3 := chaosMaster(svcC, 10, 400*time.Millisecond)
	info3, err := m3.Resume("restart")
	if err != nil {
		t.Fatalf("Resume after traffic-phase crash: %v", err)
	}
	if info3.RouteSubtasks != nRoute || info3.TrafficSubtasks != nTraffic {
		t.Fatalf("resumed %d route / %d traffic subtasks, want %d/%d",
			info3.RouteSubtasks, info3.TrafficSubtasks, nRoute, nTraffic)
	}
	ctxC, cancelC := context.WithCancel(context.Background())
	defer cancelC()
	for i := 0; i < 3; i++ {
		w := NewWorker(fmt.Sprintf("final-worker-%d", i), svcC, nil)
		w.HeartbeatInterval = 25 * time.Millisecond
		go w.Run(ctxC)
	}
	// A resumed Simulate neither uploads nor enqueues what is on record.
	var stages []string
	sim := &Simulation{TaskID: "restart", Resume: info3}
	if err := m3.Simulate(sim, func(name string, fn func() error) error {
		stages = append(stages, name)
		return fn()
	}); err != nil {
		t.Fatalf("resumed Simulate: %v", err)
	}
	if want := []string{"route_wait", "route_collect", "traffic_wait", "traffic_collect"}; !slices.Equal(stages, want) {
		t.Errorf("resumed stages %v, want %v", stages, want)
	}
	chaos := distResult{RIB: sim.RIB, Sum: sim.Summary, Task: sim.Route}
	assertMatchesCentral(t, out, chaos)
	assertSameDistributed(t, clean, chaos)
}

// TestResumeRejectsUnknownKind: a task DB holding a record of a kind this
// build does not run (a -data-dir written by a build that had "shard"
// subtasks) fails Resume with the kind named, before anything is re-enqueued.
func TestResumeRejectsUnknownKind(t *testing.T) {
	out := gen.Generate(gen.WAN(1))
	svc := Services{Queue: mq.NewMemory(nil), Store: objstore.NewMemory(nil), Tasks: taskdb.NewMemory()}
	m1 := NewMaster(svc, nil)
	snapKey, err := m1.UploadSnapshot("old", out.Net)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m1.StartRouteSimulation("old", snapKey, bgp.Groups(out.Net), out.Inputs, 3, core.Options{}); err != nil {
		t.Fatal(err)
	}
	shard := SubtaskMsg{TaskID: "old", Kind: "shard", SnapshotKey: snapKey}
	if err := enqueueSubtasks(m1, shard, splitRoutes(out.Inputs[:1], 1, bgp.Grouping{}), core.EncodeRoutes, m1.metrics.EnqueuedRoute); err != nil {
		t.Fatal(err)
	}
	queued, err := svc.Queue.Len(Topic)
	if err != nil {
		t.Fatal(err)
	}

	_, err = NewMaster(svc, nil).Resume("old")
	if err == nil || !strings.Contains(err.Error(), `unknown kind "shard"`) {
		t.Fatalf("Resume over a shard record: %v, want an error naming the kind", err)
	}
	if n, _ := svc.Queue.Len(Topic); n != queued {
		t.Errorf("failed Resume changed the queue: %d messages, was %d", n, queued)
	}
	recs, _ := svc.Tasks.List("old")
	for _, rec := range recs {
		if rec.Attempts != 0 {
			t.Errorf("failed Resume bumped %s to attempt %d", rec.Key(), rec.Attempts)
		}
	}

	// A worker that pops the foreign message fails it like any other error.
	w := NewWorker("w", svc, nil)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	w.RunN(ctx, queued)
	rec, ok, err := svc.Tasks.Get("old", "shard", 0)
	if err != nil || !ok {
		t.Fatalf("shard record: %v %v", ok, err)
	}
	if rec.Status != taskdb.StatusFailed || !strings.Contains(rec.Error, `unknown subtask kind "shard"`) {
		t.Errorf("worker left the shard record %s (%q), want failed with unknown subtask kind", rec.Status, rec.Error)
	}
}

// restarter is the crash/reopen surface of a faults.Restartable of any kind.
type restarter interface {
	Crash()
	Reopen() error
	Crashes() (int, int64)
}

// TestRestartSubstrateCrashMidRun kills and reopens each durable substrate —
// object store, task DB, then queue — while workers are actively executing
// subtasks. The down windows sit inside the retry envelope, so in-flight
// operations ride the restart out (or fail the subtask and get re-enqueued);
// either way the final results must stay byte-identical.
func TestRestartSubstrateCrashMidRun(t *testing.T) {
	out := gen.Generate(gen.WAN(1))
	const nRoute, nTraffic = 6, 6

	cleanCluster := startLocal(t, LocalOptions{Workers: 3})
	clean := runDistributed(t, cleanCluster.Master, "clean", out, nRoute, nTraffic)
	cleanCluster.Stop()

	dir := t.TempDir()
	dopts := durable.Options{}
	store, err := objstore.OpenDisk(filepath.Join(dir, "objstore"), dopts, nil)
	if err != nil {
		t.Fatal(err)
	}
	tasks, err := taskdb.OpenDurable(filepath.Join(dir, "taskdb.wal"), dopts, nil)
	if err != nil {
		t.Fatal(err)
	}
	q, err := mq.OpenDurable(filepath.Join(dir, "mq.wal"), dopts, nil)
	if err != nil {
		t.Fatal(err)
	}
	storeR := faults.NewRestartable[objstore.Store](store, func() (objstore.Store, error) {
		return objstore.OpenDisk(filepath.Join(dir, "objstore"), dopts, nil)
	})
	tasksR := faults.NewRestartable[taskdb.DB](tasks, func() (taskdb.DB, error) {
		return taskdb.OpenDurable(filepath.Join(dir, "taskdb.wal"), dopts, nil)
	})
	qR := faults.NewRestartable[mq.Queue](q, func() (mq.Queue, error) {
		return mq.OpenDurable(filepath.Join(dir, "mq.wal"), dopts, nil)
	})
	svc := Services{
		Queue: mq.Decorate(qR.Handle, qR.Hook),
		Store: objstore.Decorate(storeR.Handle, storeR.Hook),
		Tasks: taskdb.Decorate(tasksR.Handle, tasksR.Hook),
	}
	master := chaosMaster(svc, 10, 400*time.Millisecond)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for i := 0; i < 3; i++ {
		w := NewWorker(fmt.Sprintf("restart-worker-%d", i), svc, nil)
		w.HeartbeatInterval = 25 * time.Millisecond
		go w.Run(ctx)
	}

	cycle := func(r restarter) {
		r.Crash()
		time.Sleep(40 * time.Millisecond) // down window < retry envelope
		if err := r.Reopen(); err != nil {
			t.Errorf("reopen: %v", err)
		}
		time.Sleep(60 * time.Millisecond) // let retries drain before the next hit
	}

	snapKey, err := master.UploadSnapshot("midrun", out.Net)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := master.StartRouteSimulation("midrun", snapKey, bgp.Groups(out.Net), out.Inputs, nRoute, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Workers are now chewing on route subtasks: bounce every substrate under
	// them, one after another.
	cycle(storeR)
	cycle(tasksR)
	cycle(qR)
	if err := master.Wait("midrun", "route", rt.Subtasks); err != nil {
		t.Fatalf("route Wait across substrate restarts: %v", err)
	}
	rib, err := master.CollectRouteResults(rt)
	if err != nil {
		t.Fatal(err)
	}

	tt, err := master.StartTrafficSimulation("midrun", rt, out.Flows, nTraffic, StrategyOrdered, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cycle(qR) // one more queue bounce mid-traffic
	if err := master.Wait("midrun", "traffic", tt.Subtasks); err != nil {
		t.Fatalf("traffic Wait across queue restart: %v", err)
	}
	sum, err := master.CollectTrafficResults(tt)
	if err != nil {
		t.Fatal(err)
	}

	for _, r := range []restarter{storeR, tasksR} {
		if crashes, _ := r.Crashes(); crashes != 1 {
			t.Errorf("substrate crashed %d times, want 1", crashes)
		}
	}
	if crashes, _ := qR.Crashes(); crashes != 2 {
		t.Errorf("queue crashed %d times, want 2", crashes)
	}

	chaos := distResult{RIB: rib, Sum: sum, Task: rt}
	assertMatchesCentral(t, out, chaos)
	assertSameDistributed(t, clean, chaos)
}

// TestRestartTornWALTail crashes the deployment mid-task, then tears the
// tails of the task-DB and queue WALs — a crash that landed only part of the
// final appends. Recovery must truncate the torn records and resume must
// converge to byte-identical results: a lost "done" record re-executes its
// subtask (idempotent result files), a lost "pop" record re-delivers a stale
// message the fencing layer skips.
func TestRestartTornWALTail(t *testing.T) {
	out := gen.Generate(gen.WAN(1))
	const nRoute, nTraffic = 5, 5

	cleanCluster := startLocal(t, LocalOptions{Workers: 3})
	clean := runDistributed(t, cleanCluster.Master, "clean", out, nRoute, nTraffic)
	cleanCluster.Stop()

	dir := t.TempDir()
	svcA, crashA := durableServices(t, dir)
	m1 := chaosMaster(svcA, 10, 400*time.Millisecond)
	snapKey, err := m1.UploadSnapshot("torn", out.Net)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m1.StartRouteSimulation("torn", snapKey, bgp.Groups(out.Net), out.Inputs, nRoute, core.Options{}); err != nil {
		t.Fatal(err)
	}
	ctxA, cancelA := context.WithTimeout(context.Background(), time.Minute)
	wA := NewWorker("pre-tear", svcA, nil)
	wA.HeartbeatInterval = 25 * time.Millisecond
	wA.RunN(ctxA, 3)
	cancelA()
	crashA()

	// Tear the final appends: part of the last task-DB record (likely a claim,
	// heartbeat, or done upsert) and of the last queue record (a pop).
	taskWAL := filepath.Join(dir, "taskdb.wal")
	mqWAL := filepath.Join(dir, "mq.wal")
	if err := faults.TearTail(taskWAL, 5); err != nil {
		t.Fatal(err)
	}
	if err := faults.TearTail(mqWAL, 3); err != nil {
		t.Fatal(err)
	}
	tornSize := fileSize(t, taskWAL)

	svcB, _ := durableServices(t, dir)
	if got := fileSize(t, taskWAL); got >= tornSize {
		t.Errorf("recovery did not truncate the torn task-DB tail: %d >= %d bytes", got, tornSize)
	}
	m2 := chaosMaster(svcB, 10, 400*time.Millisecond)
	info, err := m2.Resume("torn")
	if err != nil {
		t.Fatalf("Resume over torn WALs: %v", err)
	}
	if info.RouteSubtasks != nRoute {
		t.Fatalf("resumed %d route subtasks, want %d", info.RouteSubtasks, nRoute)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for i := 0; i < 3; i++ {
		w := NewWorker(fmt.Sprintf("post-tear-worker-%d", i), svcB, nil)
		w.HeartbeatInterval = 25 * time.Millisecond
		go w.Run(ctx)
	}
	if err := m2.Wait("torn", "route", info.RouteSubtasks); err != nil {
		t.Fatalf("route Wait after torn recovery: %v", err)
	}
	rt := info.RouteTask()
	rib, err := m2.CollectRouteResults(rt)
	if err != nil {
		t.Fatal(err)
	}
	tt, err := m2.StartTrafficSimulation("torn", rt, out.Flows, nTraffic, StrategyOrdered, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := m2.Wait("torn", "traffic", tt.Subtasks); err != nil {
		t.Fatal(err)
	}
	sum, err := m2.CollectTrafficResults(tt)
	if err != nil {
		t.Fatal(err)
	}
	chaos := distResult{RIB: rib, Sum: sum, Task: rt}
	assertMatchesCentral(t, out, chaos)
	assertSameDistributed(t, clean, chaos)
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}
