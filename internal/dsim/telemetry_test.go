package dsim

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"hoyan/internal/faults"
	"hoyan/internal/gen"
	"hoyan/internal/mq"
	"hoyan/internal/objstore"
	"hoyan/internal/rpcx"
	"hoyan/internal/taskdb"
	"hoyan/internal/telemetry"
)

// dialTCPServices serves fresh in-memory substrates on loopback listeners
// (registering their server counters in reg) and returns a dialer producing
// independent client sets.
func dialTCPServices(t *testing.T, reg *telemetry.Registry) func() Services {
	t.Helper()
	lq, _ := net.Listen("tcp", "127.0.0.1:0")
	ls, _ := net.Listen("tcp", "127.0.0.1:0")
	lt, _ := net.Listen("tcp", "127.0.0.1:0")
	t.Cleanup(func() { lq.Close(); ls.Close(); lt.Close() })
	mq.Serve(lq, mq.NewMemory(reg), reg)
	objstore.Serve(ls, objstore.NewMemory(reg), reg)
	taskdb.Serve(lt, taskdb.NewMemory(), reg)
	return func() Services {
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
}

// TestTracePropagationOverTCP runs the full pipeline over real TCP
// substrates with tracing on and checks that one trace ID spans the whole
// run: the master's root and enqueue spans and every worker's subtask
// lifecycle spans, stitched together purely through the span context carried
// inside SubtaskMsg.
func TestTracePropagationOverTCP(t *testing.T) {
	masterReg := telemetry.NewRegistry()
	dial := dialTCPServices(t, masterReg)

	out := gen.Generate(gen.WAN(1))
	const nRoute, nTraffic = 4, 4

	master := NewMaster(dial(), masterReg)
	master.Timeout = 30 * time.Second
	master.Tracer = telemetry.NewTracer("master")

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var workers []*Worker
	var workerRegs []*telemetry.Registry
	for i := 0; i < 2; i++ {
		reg := telemetry.NewRegistry()
		w := NewWorker(fmt.Sprintf("tcp-worker-%d", i), dial(), reg)
		w.Tracer = telemetry.NewTracer(w.Name)
		workers = append(workers, w)
		workerRegs = append(workerRegs, reg)
		go w.Run(ctx)
	}

	runSpan := master.BeginRun("run tcp-trace")
	res := runDistributed(t, master, "tcp-trace", out, nRoute, nTraffic)
	runSpan.End()
	assertMatchesCentral(t, out, res)

	spans := master.Tracer.Spans()
	for _, w := range workers {
		spans = append(spans, w.Tracer.Spans()...)
	}

	traces := map[string]bool{}
	byName := map[string]int{}
	var rootTrace string
	for _, sp := range spans {
		traces[sp.TraceID] = true
		byName[sp.Name]++
		if sp.Name == "run tcp-trace" {
			rootTrace = sp.TraceID
		}
		if sp.TraceID == "" {
			t.Errorf("span %q has no trace ID", sp.Name)
		}
	}
	if len(traces) != 1 {
		t.Fatalf("got %d distinct trace IDs across master+workers, want 1: %v", len(traces), traces)
	}
	if rootTrace == "" {
		t.Fatal("no root span named \"run tcp-trace\"")
	}

	// Every subtask executes exactly once on a worker, and each execution
	// leaves the full lifecycle under the run's trace.
	total := nRoute + nTraffic
	wants := map[string]int{
		"enqueue":        total, // master side
		"worker.subtask": total, // worker side, remote parent from the wire
		"mq.wait":        total,
		"decode":         total,
		"engine.run":     total,
		"result.encode":  total,
		"objstore.put":   total,
		"taskdb.upsert":  total,
	}
	for name, want := range wants {
		if byName[name] != want {
			t.Errorf("span %q recorded %d times, want %d", name, byName[name], want)
		}
	}
	if byName["snapshot.restore"] == 0 {
		t.Error("no snapshot.restore spans recorded")
	}

	// Acceptance floor for the ops surface: master-side and worker-side
	// registries each expose a healthy set of distinct metric series.
	if n := len(masterReg.Gather()); n < 15 {
		t.Errorf("master registry has %d series, want >= 15", n)
	}
	for i, reg := range workerRegs {
		if n := len(reg.Gather()); n < 15 {
			t.Errorf("worker %d registry has %d series, want >= 15", i, n)
		}
	}
}

// TestChaosDeterminismWithTelemetry repeats the chaos byte-identity check
// with the whole observability stack on — metrics, tracing, and the
// structured event log — proving telemetry never perturbs simulation
// results. It asserts on what the injector did, not on which recovery path
// fired: the subtask the crashed worker died holding can be finished by the
// master's lease reclaim (a subtask.reenqueue event) or, before the lease
// runs out, by a duplicate of its message (a flaky push that was applied and
// then retried), which logs nothing. Either way a second execution of that
// subtask must exist and the results must be byte-identical. Whatever events
// were logged must be valid JSON lines.
func TestChaosDeterminismWithTelemetry(t *testing.T) {
	out := gen.Generate(gen.WAN(1))
	const nRoute, nTraffic = 6, 6

	// Clean reference run, telemetry on.
	cleanCluster := startLocal(t, LocalOptions{Workers: 3, Telemetry: true})
	clean := runDistributed(t, cleanCluster.Master, "clean-tel", out, nRoute, nTraffic)
	if snap := cleanCluster.MetricsSnapshot(); len(snap) < 15 {
		t.Errorf("clean fleet snapshot has %d series, want >= 15", len(snap))
	}
	cleanCluster.Stop()

	// Chaos run: flaky substrates, a crashing worker, and every telemetry
	// sink attached.
	inj := faults.NewInjector(20260806)
	inj.ErrorRate = 0.10
	var eventBuf bytes.Buffer
	events := telemetry.NewEventLogger(&eventBuf)
	svc := flakyServices(inj)
	reg := telemetry.NewRegistry()
	master := NewMaster(svc, reg)
	master.MaxAttempts, master.LeaseTimeout, master.Timeout = 10, 400*time.Millisecond, 2*time.Minute
	master.Tracer = telemetry.NewTracer("master")
	master.Events = events
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var tracers []*telemetry.Tracer
	crashed := make(chan struct{}) // closed when worker 0's Run returns
	for i := 0; i < 3; i++ {
		w := NewWorker(fmt.Sprintf("chaos-tel-%d", i), svc, reg)
		w.HeartbeatInterval = 25 * time.Millisecond
		w.Tracer = telemetry.NewTracer(w.Name)
		tracers = append(tracers, w.Tracer)
		w.Events = events
		if i == 0 {
			w.CrashNext = 1
			go func() {
				w.Run(ctx)
				close(crashed)
			}()
			continue
		}
		go w.Run(ctx)
	}

	chaos := runDistributed(t, master, "chaos-tel", out, nRoute, nTraffic)
	assertMatchesCentral(t, out, chaos)
	assertSameDistributed(t, clean, chaos)

	// The crash: worker 0's Run returns before the context ends only by dying
	// on the first subtask it claims. That subtask then ran at least twice —
	// once into the crash, once (reclaimed, or from a duplicate message) to
	// the result compared above.
	select {
	case <-crashed:
		executions := func(tr *telemetry.Tracer) (keys []string) {
			for _, sp := range tr.Spans() {
				for _, tag := range sp.Tags {
					if sp.Name == "worker.subtask" && tag.Key == "subtask" {
						keys = append(keys, tag.Value)
					}
				}
			}
			return keys
		}
		held := executions(tracers[0])
		if len(held) == 0 {
			t.Fatal("worker 0 crashed without a worker.subtask span")
		}
		runs := 0
		for _, tr := range tracers {
			for _, key := range executions(tr) {
				if key == held[len(held)-1] {
					runs++
				}
			}
		}
		if runs < 2 {
			t.Errorf("subtask %s, held by the crashed worker, was executed %d time(s); want the crash and a completion", held[len(held)-1], runs)
		}
	default:
		t.Log("worker 0 never claimed a subtask, so no crash was injected")
	}

	// Every event line must parse as one JSON object.
	var lines []string
	if logged := strings.TrimSpace(eventBuf.String()); logged != "" {
		lines = strings.Split(logged, "\n")
	}
	for i, line := range lines {
		var obj map[string]any
		if err := json.Unmarshal([]byte(line), &obj); err != nil {
			t.Fatalf("event line %d is not valid JSON: %v\n%s", i, err, line)
		}
		if obj["event"] == "" || obj["event"] == nil {
			t.Errorf("event line %d has no event field: %s", i, line)
		}
	}
	// Retries against the flaky substrates are counted per component.
	snap := reg.Gather()
	var retries float64
	for _, s := range snap {
		if s.Name == "hoyan_retry_attempts_total" {
			retries += s.Value
		}
	}
	if retries == 0 {
		t.Error("chaos run recorded no retry attempts in the registry")
	}
}
