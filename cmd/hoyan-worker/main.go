// Command hoyan-worker is a standalone working server of the distributed
// simulation framework: it dials the MQ, object store, and task DB over TCP
// and consumes subtasks until interrupted (Figure 3's "working servers").
//
// Usage:
//
//	hoyan-worker -name w1 -mq HOST:PORT -store HOST:PORT -tasks HOST:PORT
//	hoyan-worker -http :7110     # + /metrics /healthz /debug/pprof
//
// Diagnostics are structured JSON lines on stderr (one object per event with
// worker/subtask/attempt fields), so chaos runs are machine-greppable.
// /healthz reports 503 once the worker has gone -stale without a successful
// substrate round-trip (queue poll or lease heartbeat), or once its last
// several result writes to the object store all failed (degraded storage).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"hoyan/internal/dsim"
	"hoyan/internal/mq"
	"hoyan/internal/objstore"
	"hoyan/internal/rpcx"
	"hoyan/internal/serve"
	"hoyan/internal/taskdb"
	"hoyan/internal/telemetry"
)

func main() {
	name := flag.String("name", "worker", "worker name (shown in the task DB)")
	mqAddr := flag.String("mq", "127.0.0.1:7101", "message queue address")
	storeAddr := flag.String("store", "127.0.0.1:7102", "object store address")
	tasksAddr := flag.String("tasks", "127.0.0.1:7103", "task DB address")
	httpAddr := flag.String("http", "", "ops HTTP listen address for /metrics, /healthz, /debug/pprof (empty = off)")
	stale := flag.Duration("stale", 15*time.Second, "substrate-contact staleness after which /healthz reports unhealthy")
	parallelism := flag.Int("parallelism", 0, "pin intra-engine parallelism per subtask: SPF, ECs, the cold BGP fixpoint's work units, forwarding (0 = use each task's own setting)")
	heartbeat := flag.Duration("heartbeat", time.Second, "lease heartbeat interval while executing a subtask")
	ribCache := flag.Int("ribcache", 0, "route-RIB file cache size in entries (0 = default, negative = disabled)")
	flag.Parse()

	reg := telemetry.NewRegistry()
	events := telemetry.NewEventLogger(os.Stderr)

	// Ordered shutdown: close the substrate clients in reverse dial order
	// once the consume loop has drained.
	var closers serve.Closers
	defer func() {
		if err := closers.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "hoyan-worker:", err)
		}
	}()

	queue, err := mq.Dial(*mqAddr, rpcx.Options{Metrics: rpcx.NewMetrics(reg, "mq")})
	if err != nil {
		fatal(err)
	}
	closers.Add("mq client", queue.Close)
	store, err := objstore.Dial(*storeAddr, rpcx.Options{Metrics: rpcx.NewMetrics(reg, "objstore")})
	if err != nil {
		fatal(err)
	}
	closers.Add("objstore client", store.Close)
	tasks, err := taskdb.Dial(*tasksAddr, rpcx.Options{Metrics: rpcx.NewMetrics(reg, "taskdb")})
	if err != nil {
		fatal(err)
	}
	closers.Add("taskdb client", tasks.Close)

	w := dsim.NewWorker(*name, dsim.Services{Queue: queue, Store: store, Tasks: tasks}, reg)
	w.Parallelism = *parallelism
	w.HeartbeatInterval = *heartbeat
	w.RIBCacheSize = *ribCache
	w.Tracer = telemetry.NewTracer(*name)
	w.Events = events
	// Free-form diagnostics ride the same structured stream as one field.
	w.Logf = func(format string, args ...any) {
		events.Log("log", telemetry.F("worker", *name), telemetry.F("msg", fmt.Sprintf(format, args...)))
	}

	health := func() error {
		// Degraded, not dead: persistent result-write failures flip /healthz
		// to 503 while the worker keeps retrying.
		if err := w.WriteHealth(); err != nil {
			return err
		}
		last := w.LastContact()
		if last.IsZero() {
			return nil // not started consuming yet
		}
		if age := time.Since(last); age > *stale {
			return fmt.Errorf("no substrate contact for %s (threshold %s)", age.Round(time.Millisecond), *stale)
		}
		return nil
	}
	if srv, addr, err := telemetry.ServeOps(*httpAddr, reg, health, nil); err != nil {
		fatal(err)
	} else if srv != nil {
		closers.Add("ops server", srv.Close)
		fmt.Printf("ops: http://%s/metrics /healthz /debug/pprof\n", addr)
	}

	// SIGINT or SIGTERM cancels the consume loop; Run returns after the
	// in-flight subtask finishes, then the closers run LIFO.
	ctx, stop := serve.SignalContext(context.Background())
	defer stop()
	fmt.Printf("worker %s consuming from %s\n", *name, *mqAddr)
	w.Run(ctx)
	st := w.Stats()
	fmt.Printf("worker %s done: snapshot cache %d/%d hits, RIB cache %d/%d hits, %d bytes fetched, %d bytes saved, %d/%d RIB tables built\n",
		*name, st.SnapshotHits, st.SnapshotHits+st.SnapshotMisses,
		st.RIBFileHits, st.RIBFileHits+st.RIBFileMisses, st.BytesFetched, st.BytesSaved,
		st.RIBTablesBuilt, st.RIBTablesLoaded)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hoyan-worker:", err)
	os.Exit(1)
}
