// Command hoyan-master hosts the distributed framework's substrates (MQ,
// object store, task DB) on TCP listeners and optionally drives one
// distributed route+traffic simulation over a generated WAN — a
// self-contained way to exercise the multi-process deployment with
// hoyan-worker processes on the same or other machines.
//
// Usage:
//
//	hoyan-master                               # just host the substrates
//	hoyan-master -run -scale 2 -subtasks 40    # host and drive a simulation
//	hoyan-master -run -http :7100              # + /metrics /healthz /debug/pprof
//	hoyan-master -data-dir /var/hoyan          # WAL-backed substrates
//	hoyan-master -data-dir /var/hoyan -resume cli-task -scale 2 -subtasks 40
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"time"

	"hoyan/internal/dsim"
	"hoyan/internal/durable"
	"hoyan/internal/gen"
	"hoyan/internal/mq"
	"hoyan/internal/objstore"
	"hoyan/internal/rpcx"
	"hoyan/internal/serve"
	"hoyan/internal/taskdb"
	"hoyan/internal/telemetry"
)

func main() {
	mqAddr := flag.String("mq", "127.0.0.1:7101", "message queue listen address")
	storeAddr := flag.String("store", "127.0.0.1:7102", "object store listen address")
	tasksAddr := flag.String("tasks", "127.0.0.1:7103", "task DB listen address")
	httpAddr := flag.String("http", "", "ops HTTP listen address for /metrics, /healthz, /debug/pprof (empty = off)")
	dataDir := flag.String("data-dir", "", "back the hosted substrates with WALs under this directory (empty = in-memory)")
	fsyncMode := flag.String("fsync", "interval", "WAL durability with -data-dir: always, interval, or never")
	resumeID := flag.String("resume", "", "resume this task from the -data-dir substrates instead of starting a new one (implies -run)")
	traceOut := flag.String("trace", "", "write the run's Chrome trace_event JSON here (with -run)")
	runSim := flag.Bool("run", false, "drive a distributed simulation after serving")
	scale := flag.Int("scale", 2, "gen.WAN scale for -run")
	subtasks := flag.Int("subtasks", 40, "route subtasks for -run")
	timeout := flag.Duration("timeout", 10*time.Minute, "simulation timeout for -run")
	lease := flag.Duration("lease", 30*time.Second, "lease timeout before a silent worker's subtask is reclaimed (0 disables)")
	maxAttempts := flag.Int("max-attempts", 3, "attempts per subtask before the task fails permanently")
	flag.Parse()

	fsync, err := durable.ParsePolicy(*fsyncMode)
	if err != nil {
		fatal(err)
	}
	if *resumeID != "" && *dataDir == "" {
		fatal(fmt.Errorf("-resume needs -data-dir: there is nothing to recover from in-memory substrates"))
	}

	// One registry carries everything master-side: the hosted substrates'
	// server counters, the dialed clients' RPC metrics, and the master's own
	// scheduling metrics.
	reg := telemetry.NewRegistry()
	events := telemetry.NewEventLogger(os.Stderr, telemetry.F("role", "master"))

	// Ordered shutdown: everything registers here in startup order and closes
	// LIFO — listeners and the ops server stop before the substrates flush
	// their WALs.
	var closers serve.Closers
	defer func() {
		if err := closers.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "hoyan-master:", err)
		}
	}()

	// The hosted substrates: in-memory by default, WAL-backed under -data-dir.
	// Durable substrates report write health on /healthz — persistent append
	// failures degrade the process to 503 instead of crashing it.
	var (
		qsrv   mq.Queue       = mq.NewMemory(reg)
		ssrv   objstore.Store = objstore.NewMemory(reg)
		tsrv   taskdb.DB      = taskdb.NewMemory()
		health telemetry.Health
	)
	if *dataDir != "" {
		svc, closeAll, healthy, err := dsim.OpenDurable(*dataDir, durable.Options{Fsync: fsync}, reg)
		if err != nil {
			fatal(err)
		}
		closers.Add("substrates", closeAll)
		qsrv, ssrv, tsrv, health = svc.Queue, svc.Store, svc.Tasks, healthy
		fmt.Printf("durable substrates under %s (fsync=%s)\n", *dataDir, fsync)
	}

	lq := listen(*mqAddr)
	ls := listen(*storeAddr)
	lt := listen(*tasksAddr)
	mq.Serve(lq, qsrv, reg)
	objstore.Serve(ls, ssrv, reg)
	taskdb.Serve(lt, tsrv, reg)
	closers.Add("mq listener", lq.Close)
	closers.Add("store listener", ls.Close)
	closers.Add("tasks listener", lt.Close)
	fmt.Printf("substrates: mq=%s store=%s tasks=%s\n", lq.Addr(), ls.Addr(), lt.Addr())

	if srv, addr, err := telemetry.ServeOps(*httpAddr, reg, health, nil); err != nil {
		fatal(err)
	} else if srv != nil {
		closers.Add("ops server", srv.Close)
		fmt.Printf("ops: http://%s/metrics /healthz /debug/pprof\n", addr)
	}

	if !*runSim && *resumeID == "" {
		// Serve until SIGINT or SIGTERM; the deferred closers then stop the
		// listeners before flushing the substrate WALs.
		ctx, stop := serve.SignalContext(context.Background())
		defer stop()
		fmt.Println("serving; start hoyan-worker processes, SIGINT/SIGTERM stops")
		<-ctx.Done()
		return
	}

	queue, err := mq.Dial(lq.Addr().String(), rpcx.Options{Metrics: rpcx.NewMetrics(reg, "mq")})
	if err != nil {
		fatal(err)
	}
	store, err := objstore.Dial(ls.Addr().String(), rpcx.Options{Metrics: rpcx.NewMetrics(reg, "objstore")})
	if err != nil {
		fatal(err)
	}
	tasks, err := taskdb.Dial(lt.Addr().String(), rpcx.Options{Metrics: rpcx.NewMetrics(reg, "taskdb")})
	if err != nil {
		fatal(err)
	}
	master := dsim.NewMaster(dsim.Services{Queue: queue, Store: store, Tasks: tasks}, reg)
	master.Timeout = *timeout
	master.LeaseTimeout = *lease
	master.MaxAttempts = *maxAttempts
	master.Tracer = telemetry.NewTracer("master")
	master.Events = events

	taskID := "cli-task"
	if *resumeID != "" {
		taskID = *resumeID
	}
	g := gen.Generate(gen.WAN(*scale))
	fmt.Printf("generated WAN: %d devices, %d input routes, %d flows\n",
		len(g.Net.Devices), len(g.Inputs), len(g.Flows))
	runSpan := master.BeginRun(taskID)
	start := time.Now()
	sim := &dsim.Simulation{
		TaskID: taskID, Net: g.Net, Inputs: g.Inputs, Flows: g.Flows,
		RouteSubtasks: *subtasks, TrafficSubtasks: *subtasks,
	}
	if *resumeID != "" {
		// Re-enqueue whatever the previous incarnation left unfinished; the
		// traffic phase (if on record) resumes too, otherwise it starts
		// fresh off the regenerated flows (same -scale, same deterministic
		// generator).
		info, err := master.Resume(taskID)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("resumed task %s: %d route / %d traffic subtasks (%d done, %d re-enqueued)\n",
			taskID, info.RouteSubtasks, info.TrafficSubtasks, info.Done, info.Reenqueued)
		sim.Resume = info
	}
	// progress prints what each finished stage has to show.
	progress := func(name string, fn func() error) error {
		if err := fn(); err != nil {
			return err
		}
		switch name {
		case "route_enqueue":
			fmt.Printf("enqueued %d route subtasks; waiting for workers...\n", sim.Route.Subtasks)
		case "route_collect":
			fmt.Printf("route simulation done in %s: %d RIB rows\n",
				time.Since(start).Round(time.Millisecond), sim.RIB.Len())
		}
		return nil
	}
	if err := master.Simulate(sim, progress); err != nil {
		fatal(err)
	}
	runSpan.End()
	fmt.Printf("traffic simulation done: %d flow paths, %d loaded links\n",
		len(sim.Summary.Paths), len(sim.Summary.Load))

	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fatal(err)
		}
		if err := telemetry.WriteChromeTrace(f, master.Tracer.Spans()); err != nil {
			fatal(err)
		}
		f.Close()
		fmt.Printf("wrote master-side trace to %s (workers add their spans to the same trace IDs)\n", *traceOut)
	}
}

func listen(addr string) net.Listener {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		fatal(err)
	}
	return l
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hoyan-master:", err)
	os.Exit(1)
}
