package dsim

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync"

	"hoyan/internal/durable"
	"hoyan/internal/mq"
	"hoyan/internal/objstore"
	"hoyan/internal/taskdb"
	"hoyan/internal/telemetry"
)

// LocalCluster is a single-process deployment of the framework: in-memory or
// DataDir-backed substrates plus a pool of worker goroutines. Benchmarks use
// it to sweep the worker count (Figure 5); tests use it for end-to-end
// verification. The same Master/Worker code runs unchanged against the TCP
// substrates for multi-process deployments (cmd/hoyan-master,
// cmd/hoyan-worker).
type LocalCluster struct {
	Svc     Services
	Master  *Master
	Workers []*Worker

	// MasterReg / WorkerRegs are the per-role metric registries (nil/empty
	// when the cluster was started without telemetry). The master registry
	// also carries the shared substrates' counters (queue, store).
	MasterReg  *telemetry.Registry
	WorkerRegs []*telemetry.Registry

	cancel context.CancelFunc
	wg     sync.WaitGroup
	// queue is the cluster's own queue; closers shut down the store and task
	// DB when the cluster created them.
	queue   *mq.Local
	closers []func()
}

// LocalOptions configures StartLocal.
type LocalOptions struct {
	// Workers is the worker-goroutine count.
	Workers int
	// Store / Tasks reuse existing substrates, which the caller keeps owning
	// (nil creates fresh ones that Stop closes); the queue is always fresh.
	// Successive runs can so reuse already-computed route-simulation results
	// — the Figure 5(b) sweep re-runs traffic simulation for several worker
	// counts against one route result set.
	Store objstore.Store
	Tasks taskdb.DB
	// Telemetry gives the master and every worker a registry and a tracer,
	// registers the substrates the cluster creates in the master's, and
	// enables span collection — gather the results with MetricsSnapshot and
	// TraceSpans.
	Telemetry bool

	// DataDir, when set, backs the cluster's substrates with journals rooted
	// there (OpenDurable) — a restart-safe single-process deployment; it
	// takes no Store or Tasks. Empty keeps them in memory.
	DataDir string
	// Fsync is the durability policy for DataDir-backed substrates (zero
	// value durable.SyncInterval).
	Fsync durable.Policy
}

// StartLocal starts the cluster described by opts. The only errors are those
// of opening DataDir-backed substrates, and a DataDir given with a Store or
// Tasks; state a stopped cluster left under DataDir is recovered by a later
// StartLocal over the same directory.
func StartLocal(opts LocalOptions) (*LocalCluster, error) {
	c := &LocalCluster{}
	if opts.Telemetry {
		c.MasterReg = telemetry.NewRegistry()
	}
	svc := Services{Store: opts.Store, Tasks: opts.Tasks}
	switch {
	case opts.DataDir == "":
		svc.Queue = mq.NewMemory(c.MasterReg)
	case svc.Store != nil || svc.Tasks != nil:
		return nil, errors.New("dsim: StartLocal: DataDir opens its own store and task DB")
	default:
		var closeAll func() error
		var err error
		if svc, closeAll, _, err = OpenDurable(opts.DataDir, durable.Options{Fsync: opts.Fsync}, c.MasterReg); err != nil {
			return nil, err
		}
		c.closers = append(c.closers, func() { closeAll() })
	}
	if svc.Store == nil {
		svc.Store = objstore.NewMemory(c.MasterReg)
	}
	if svc.Tasks == nil {
		db := taskdb.NewMemory()
		svc.Tasks = db
		c.closers = append(c.closers, func() { db.Close() })
	}
	c.queue = svc.Queue.(*mq.Local) // in memory or journaled, the in-process queue

	c.Svc = svc
	c.Master = NewMaster(svc, c.MasterReg)
	if opts.Telemetry {
		c.Master.Tracer = telemetry.NewTracer("master")
	}
	ctx, cancel := context.WithCancel(context.Background())
	c.cancel = cancel
	for i := 0; i < opts.Workers; i++ {
		name := fmt.Sprintf("worker-%d", i)
		var reg *telemetry.Registry
		if opts.Telemetry {
			reg = telemetry.NewRegistry()
			c.WorkerRegs = append(c.WorkerRegs, reg)
		}
		w := NewWorker(name, svc, reg)
		if opts.Telemetry {
			w.Tracer = telemetry.NewTracer(name)
		}
		c.Workers = append(c.Workers, w)
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			w.Run(ctx)
		}()
	}
	return c, nil
}

// CacheStats aggregates cache and transfer counters across the cluster's
// workers. Safe to call while the cluster runs.
func (c *LocalCluster) CacheStats() CacheStats {
	var s CacheStats
	for _, w := range c.Workers {
		s.Add(w.Stats())
	}
	return s
}

// MetricsSnapshot merges the master's and every worker's registry into one
// fleet-wide snapshot (nil without telemetry). Same-name series with the same
// labels are summed, so per-worker counters read as fleet totals.
func (c *LocalCluster) MetricsSnapshot() telemetry.Snapshot {
	var snap telemetry.Snapshot
	if c.MasterReg != nil {
		snap = c.MasterReg.Gather()
	}
	for _, reg := range c.WorkerRegs {
		snap = snap.Merge(reg.Gather())
	}
	return snap
}

// TraceSpans gathers the run's spans across the master and every worker (nil
// without telemetry), ready for telemetry.WriteChromeTrace.
func (c *LocalCluster) TraceSpans() []telemetry.SpanRecord {
	var out []telemetry.SpanRecord
	out = append(out, c.Master.Tracer.Spans()...)
	for _, w := range c.Workers {
		out = append(out, w.Tracer.Spans()...)
	}
	return out
}

// Stop terminates the workers and shuts down the substrates the cluster owns
// (journaled ones flush, so state survives for a later StartLocal over the
// same directory). Closing the queue first wakes every parked Pop; the store
// and task DB close only after the workers have exited, so a worker
// mid-subtask finishes its writes against open substrates.
func (c *LocalCluster) Stop() {
	c.cancel()
	c.queue.Close()
	c.wg.Wait()
	c.closeSubstrates()
}

func (c *LocalCluster) closeSubstrates() {
	for _, cl := range c.closers {
		cl()
	}
}

// OpenDurable opens the journaled substrates of a restart-safe deployment
// rooted at dir — the object store under dir/objstore, the task DB at
// dir/taskdb.wal, the queue at dir/mq.wal — registering their counters in
// reg. It returns them with a close that shuts them in reverse opening order
// and a health check that reports the first of them whose writes are not
// landing. On an error it closes again what it had opened.
func OpenDurable(dir string, opts durable.Options, reg *telemetry.Registry) (svc Services, closeAll func() error, health telemetry.Health, err error) {
	var closers []func() error
	closeAll = func() error {
		var errs []error
		for i := len(closers) - 1; i >= 0; i-- {
			errs = append(errs, closers[i]())
		}
		return errors.Join(errs...)
	}
	fail := func(err error) (Services, func() error, telemetry.Health, error) {
		closeAll()
		return Services{}, nil, nil, err
	}
	store, err := objstore.OpenDisk(filepath.Join(dir, "objstore"), opts, reg)
	if err != nil {
		return fail(err)
	}
	closers = append(closers, store.Close)
	tasks, err := taskdb.OpenDurable(filepath.Join(dir, "taskdb.wal"), opts, reg)
	if err != nil {
		return fail(err)
	}
	closers = append(closers, tasks.Close)
	queue, err := mq.OpenDurable(filepath.Join(dir, "mq.wal"), opts, reg)
	if err != nil {
		return fail(err)
	}
	closers = append(closers, func() error { queue.Close(); return nil })
	health = func() error { return cmp.Or(store.Healthy(), tasks.Healthy(), queue.Healthy()) }
	return Services{Queue: queue, Store: store, Tasks: tasks}, closeAll, health, nil
}
