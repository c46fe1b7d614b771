package dsim

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/netip"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"hoyan/internal/config"
	"hoyan/internal/core"
	"hoyan/internal/durable"
	"hoyan/internal/mq"
	"hoyan/internal/netmodel"
	"hoyan/internal/taskdb"
	"hoyan/internal/telemetry"
	"hoyan/internal/wire"
	"slices"
	"strings"
)

// Worker is one working server: it consumes subtask messages, runs the core
// engine on the subtask's input subset, and writes result files.
//
// Fault tolerance: while executing, a side goroutine heartbeats into the
// subtask's task-DB record so the master can tell a slow worker from a dead
// one. Every status write is fenced with the message's attempt epoch, so a
// worker that was presumed dead and reclaimed cannot clobber the superseding
// attempt's status when it finally finishes. Result-file writes are
// deterministic and keyed per subtask, so duplicate executions are safe.
type Worker struct {
	Name string
	svc  Services

	// PopWait is the queue polling timeout per iteration; it also paces the
	// backoff after a transient queue error.
	PopWait time.Duration

	// HeartbeatInterval is the lease-refresh cadence while executing a
	// subtask. It must be well below the master's LeaseTimeout.
	HeartbeatInterval time.Duration

	// FailNext makes the next n subtasks fail artificially (tests the
	// master's retry path): the failure is reported to the task DB.
	FailNext int

	// CrashNext makes the worker die mid-subtask n times: it claims the
	// subtask (status running) and then Run returns without reporting
	// anything — the chaos harness's stand-in for a killed process, which
	// only the master's lease reclaim can recover from.
	CrashNext int

	// Parallelism, when > 0, pins the intra-engine parallelism of every
	// subtask this worker executes, overriding the task's own
	// Options.Parallelism (an operator knob for co-located workers sharing
	// one machine). 0 leaves the task options untouched.
	Parallelism int

	// Logf, when set, receives diagnostics (transient errors being retried,
	// stale attempts skipped). Nil discards them.
	Logf func(format string, args ...any)

	// Tracer collects execution spans: one "worker.subtask" span per message
	// with decode/restore/engine/encode/put children, parented under the
	// master's enqueue span when the message carries a trace. Nil disables
	// tracing. Set before Run.
	Tracer *telemetry.Tracer

	// Events receives structured diagnostics (pop errors, stale skips, cache
	// evictions, decode failures) as JSON lines. Nil discards them. Set
	// before Run.
	Events *telemetry.EventLogger

	// RIBCacheSize bounds the worker's LRU of decoded route-RIB result
	// files, in entries. 0 uses DefaultRIBCacheSize; negative disables the
	// cache. Read once, on first use.
	RIBCacheSize int

	// Caches: workers process many subtasks of the same task, so
	// re-fetching and re-parsing shared inputs per message would dominate
	// run time. nets memoizes restored base snapshots per (snapshot key,
	// parallelism); engines memoizes prepared engines per (snapshot key,
	// options); ribs holds decoded route-RIB result files keyed by object
	// key. Run is single-threaded — the mutex only protects concurrent
	// Stats() readers.
	cacheMu sync.Mutex
	nets    *lru[*config.Network]
	engines *lru[*core.Engine]
	ribs    *lru[ribEntry]

	// metrics is the worker's instrument bundle, registered in the registry
	// NewWorker was given (detached counters when nil). Stats() reads it, so
	// it is never nil.
	metrics *WorkerMetrics

	// lastContact is the unix-nano time of the last successful substrate
	// round-trip (queue poll or heartbeat); the ops /healthz endpoint judges
	// liveness from it.
	lastContact atomic.Int64

	// writeFails counts consecutive failed result-file writes (the
	// objstore.put stage, after its retry envelope is exhausted); WriteHealth
	// turns it into a degraded /healthz signal alongside contact staleness.
	writeFails atomic.Int32

	// lastPopAt / lastDecodeDur carry per-message timing from nextMsg to
	// execute. Run is single-threaded, so plain fields suffice.
	lastPopAt     time.Time
	lastDecodeDur time.Duration
}

// DefaultRIBCacheSize is the route-RIB file cache bound (entries) when
// Worker.RIBCacheSize is 0.
const DefaultRIBCacheSize = 64

// ribEntry is one cached route-RIB result file: its decoded rows plus the
// encoded size it saves on every hit.
type ribEntry struct {
	rows []netmodel.Route
	size int64
}

// CacheStats is a point-in-time copy of a worker's cache and transfer
// counters.
type CacheStats struct {
	// SnapshotHits / SnapshotMisses count memoized engine and network
	// restores: a hit skips the snapshot download, config parse, and IGP
	// computation.
	SnapshotHits   int64 `json:"snapshot_hits"`
	SnapshotMisses int64 `json:"snapshot_misses"`
	// RIBFileHits / RIBFileMisses count route-RIB result files served from
	// the worker's LRU versus fetched and decoded from the object store.
	RIBFileHits   int64 `json:"rib_file_hits"`
	RIBFileMisses int64 `json:"rib_file_misses"`
	// BytesFetched counts object-store bytes this worker downloaded;
	// BytesSaved counts encoded RIB bytes served from cache instead.
	BytesFetched int64 `json:"bytes_fetched"`
	BytesSaved   int64 `json:"bytes_saved"`
	// RIBTablesLoaded counts the (device, VRF) tables traffic subtasks loaded
	// from route files; RIBTablesBuilt the ones the forwarder looked up, whose
	// prefix maps were therefore built. The difference is loading skipped.
	RIBTablesLoaded int64 `json:"rib_tables_loaded"`
	RIBTablesBuilt  int64 `json:"rib_tables_built"`
}

// Add accumulates o into s (aggregating across a cluster's workers).
func (s *CacheStats) Add(o CacheStats) {
	s.SnapshotHits += o.SnapshotHits
	s.SnapshotMisses += o.SnapshotMisses
	s.RIBFileHits += o.RIBFileHits
	s.RIBFileMisses += o.RIBFileMisses
	s.BytesFetched += o.BytesFetched
	s.BytesSaved += o.BytesSaved
	s.RIBTablesLoaded += o.RIBTablesLoaded
	s.RIBTablesBuilt += o.RIBTablesBuilt
}

// Stats returns the worker's cache and transfer counters — a compatibility
// view over the telemetry instruments. Safe to call concurrently with Run.
func (w *Worker) Stats() CacheStats {
	m := w.metrics
	return CacheStats{
		SnapshotHits:   m.SnapshotHits.Value(),
		SnapshotMisses: m.SnapshotMisses.Value(),
		RIBFileHits:    m.RIBHits.Value(),
		RIBFileMisses:  m.RIBMisses.Value(),
		BytesFetched:   m.BytesFetched.Value(),
		BytesSaved:     m.BytesSaved.Value(),

		RIBTablesLoaded: m.RIBTablesLoaded.Value(),
		RIBTablesBuilt:  m.RIBTablesBuilt.Value(),
	}
}

// LastContact returns the time of the worker's last successful substrate
// round-trip (zero before any). /healthz compares it against a staleness
// threshold.
func (w *Worker) LastContact() time.Time {
	ns := w.lastContact.Load()
	if ns == 0 {
		return time.Time{}
	}
	return time.Unix(0, ns)
}

func (w *Worker) touch() { w.lastContact.Store(time.Now().UnixNano()) }

// noteResultWrite records one result-file write outcome for WriteHealth.
func (w *Worker) noteResultWrite(err error) {
	if err == nil {
		w.writeFails.Store(0)
		return
	}
	w.writeFails.Add(1)
}

// WriteHealth returns nil while result-file writes are landing, and an error
// once durable.HealthFailureThreshold consecutive writes have failed (each
// already retried by the substrate wrapper) — the signal the ops /healthz
// endpoint degrades on, so a worker on a full or read-only disk reports
// unhealthy instead of silently burning attempts.
func (w *Worker) WriteHealth() error {
	if n := w.writeFails.Load(); n >= durable.HealthFailureThreshold {
		return fmt.Errorf("dsim: worker %s: last %d result writes failed", w.Name, n)
	}
	return nil
}

// event emits a structured diagnostic with the worker's name attached (no-op
// without an Events logger).
func (w *Worker) event(name string, fields ...telemetry.Field) {
	w.Events.Log(name, append([]telemetry.Field{telemetry.F("worker", w.Name)}, fields...)...)
}

// noteEvictions counts and logs cache evictions reported by an lru put.
func (w *Worker) noteEvictions(cache string, keys []string) {
	for _, k := range keys {
		w.metrics.CacheEvictions.Inc()
		w.event("cache.evict", telemetry.F("cache", cache), telemetry.F("key", k))
	}
}

// stage runs fn as one named child span of ctx's current span plus one
// histogram observation. fn may tag the span (nil when tracing is off, which
// SetTag accepts).
func (w *Worker) stage(ctx context.Context, name string, h *telemetry.Histogram, fn func(sp *telemetry.Span) error) error {
	_, sp := telemetry.StartSpan(ctx, name)
	start := time.Now()
	err := fn(sp)
	sp.End()
	h.Observe(time.Since(start).Seconds())
	return err
}

// NewWorker creates a worker over the substrate services. The queue, store,
// and task DB handles are wrapped with DefaultRetryPolicy so transient
// substrate errors are retried in place. The worker's metrics and its
// handles' per-component retry activity are registered in reg (nil reg =
// detached).
func NewWorker(name string, svc Services, reg *telemetry.Registry) *Worker {
	return &Worker{
		Name: name, svc: withRetry(svc, reg),
		PopWait:           50 * time.Millisecond,
		HeartbeatInterval: time.Second,
		nets:              newLRU[*config.Network](2),
		engines:           newLRU[*core.Engine](4),
		metrics:           NewWorkerMetrics(reg),
	}
}

func (w *Worker) logf(format string, args ...any) {
	if w.Logf != nil {
		w.Logf(format, args...)
	}
}

// Run consumes subtasks until ctx is cancelled or the queue is closed.
// Transient queue errors are logged and retried; they never kill the worker.
func (w *Worker) Run(ctx context.Context) {
	for {
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
	}
}

// nextMsg pops and decodes one subtask message. fatal reports that the
// worker should stop: the context is done or the queue was deliberately
// closed. Any other pop error is transient — logged, backed off, retried.
func (w *Worker) nextMsg(ctx context.Context) (msg SubtaskMsg, ok, fatal bool) {
	if ctx.Err() != nil {
		return SubtaskMsg{}, false, true
	}
	m, ok, err := w.svc.Queue.Pop(Topic, w.PopWait)
	if err != nil {
		if errors.Is(err, mq.ErrClosed) || errors.Is(err, context.Canceled) || ctx.Err() != nil {
			return SubtaskMsg{}, false, true
		}
		w.metrics.PopErrors.Inc()
		w.event("queue.pop.error", telemetry.F("error", err.Error()))
		w.logf("dsim: worker %s: queue pop: %v (backing off)", w.Name, err)
		select {
		case <-ctx.Done():
			return SubtaskMsg{}, false, true
		case <-time.After(w.PopWait):
		}
		return SubtaskMsg{}, false, false
	}
	w.touch()
	if !ok {
		w.metrics.PopEmpty.Inc()
		return SubtaskMsg{}, false, false
	}
	w.lastPopAt = time.Now()
	msg, derr := decodeMsg(m)
	w.lastDecodeDur = time.Since(w.lastPopAt)
	w.metrics.DecodeSeconds.Observe(w.lastDecodeDur.Seconds())
	if derr != nil {
		w.event("message.decode.error", telemetry.F("msg_id", m.ID), telemetry.F("error", derr.Error()))
		w.logf("dsim: worker %s: %v (dropping message)", w.Name, derr)
		return SubtaskMsg{}, false, false
	}
	return msg, true, false
}

// execute runs one subtask and records its status. crashed reports that the
// worker simulated a hard crash and must stop immediately.
func (w *Worker) execute(ctx context.Context, msg SubtaskMsg) (crashed bool) {
	rec, ok, err := w.svc.Tasks.Get(msg.TaskID, msg.Kind, msg.SubID)
	if err != nil {
		// Can't claim: skip the message. The master's lost-pending sweep
		// re-enqueues the subtask once the lease period passes.
		w.logf("dsim: worker %s: claiming %s/%s/%d: %v (skipping, reclaim will resend)",
			w.Name, msg.TaskID, msg.Kind, msg.SubID, err)
		return false
	}
	if !ok {
		rec = taskdb.Record{TaskID: msg.TaskID, Kind: msg.Kind, SubID: msg.SubID}
	}
	if rec.Attempts > msg.Attempt {
		// This message belongs to an attempt the master already reclaimed;
		// the superseding attempt owns the subtask now.
		w.metrics.StaleSkipped.Inc()
		w.event("subtask.stale_skip",
			telemetry.F("subtask", msg.key()),
			telemetry.F("attempt", msg.Attempt),
			telemetry.F("current_attempt", rec.Attempts))
		w.logf("dsim: worker %s: skipping stale attempt %d of %s/%s/%d (current %d)",
			w.Name, msg.Attempt, msg.TaskID, msg.Kind, msg.SubID, rec.Attempts)
		return false
	}

	// Tracing: parent everything under the master's enqueue span when the
	// message carries one. The mq.wait span is synthetic — its duration is
	// the gap between the master's enqueue stamp and our pop.
	parent := telemetry.SpanContext{TraceID: msg.TraceID, SpanID: msg.ParentSpan}
	if msg.EnqueuedUnixNano > 0 {
		wait := w.lastPopAt.Sub(time.Unix(0, msg.EnqueuedUnixNano))
		if wait < 0 {
			wait = 0
		}
		w.metrics.QueueWaitSeconds.Observe(wait.Seconds())
		w.Tracer.RecordSpan(parent, "mq.wait", w.lastPopAt.Add(-wait), wait)
	}
	ctx = telemetry.WithTracer(ctx, w.Tracer)
	ctx = telemetry.WithRemoteParent(ctx, parent)
	ctx, span := telemetry.StartSpan(ctx, "worker.subtask")
	defer span.End()
	span.SetTag("subtask", msg.key())
	span.SetTag("attempt", fmt.Sprintf("%d", msg.Attempt))
	if w.lastDecodeDur > 0 {
		w.Tracer.RecordSpan(span.Context(), "decode", w.lastPopAt, w.lastDecodeDur)
	}

	now := time.Now()
	rec.Status = taskdb.StatusRunning
	rec.Worker = w.Name
	rec.Attempts = msg.Attempt
	rec.StartedAt = now
	rec.HeartbeatAt = now
	rec.Error = ""
	if applied, err := w.svc.Tasks.FencedUpsert(rec); err != nil || !applied {
		w.logf("dsim: worker %s: claim of %s/%s/%d not applied (applied=%v err=%v)",
			w.Name, msg.TaskID, msg.Kind, msg.SubID, applied, err)
		return false
	}

	if w.CrashNext > 0 {
		// Simulated hard crash: the subtask is claimed, no completion will
		// ever be reported, and heartbeats stop with the worker. Only the
		// master's lease reclaim gets the subtask done now.
		w.CrashNext--
		w.logf("dsim: worker %s: simulated crash holding %s/%s/%d attempt %d",
			w.Name, msg.TaskID, msg.Kind, msg.SubID, msg.Attempt)
		return true
	}

	// Heartbeat from a side goroutine while the engine runs.
	hbCtx, stopHB := context.WithCancel(ctx)
	hbDone := make(chan struct{})
	go func() {
		defer close(hbDone)
		w.heartbeat(hbCtx, msg)
	}()

	var loadedFiles int
	var stack []byte
	runErr := func() (err error) {
		// A panic fails this subtask alone: the heartbeat still stops, the
		// record is marked failed, and the worker goes on popping.
		defer func() {
			if v := recover(); v != nil {
				err, stack = fmt.Errorf("subtask panicked: %v", v), debug.Stack()
			}
		}()
		if w.FailNext > 0 {
			w.FailNext--
			return fmt.Errorf("injected failure on %s", w.Name)
		}
		switch msg.Kind {
		case "route":
			return w.routeSubtask(ctx, msg)
		case "traffic":
			var err error
			loadedFiles, err = w.trafficSubtask(ctx, msg)
			return err
		}
		return fmt.Errorf("unknown subtask kind %q", msg.Kind)
	}()

	stopHB()
	<-hbDone

	rec.FinishedAt = time.Now()
	rec.DurationMs = rec.FinishedAt.Sub(rec.StartedAt).Milliseconds()
	rec.HeartbeatAt = rec.FinishedAt
	rec.LoadedRIBFiles = loadedFiles
	if runErr != nil {
		rec.Status = taskdb.StatusFailed
		rec.Error = runErr.Error()
		w.metrics.Failures.Inc()
		fields := []telemetry.Field{
			telemetry.F("subtask", msg.key()),
			telemetry.F("attempt", msg.Attempt),
			telemetry.F("error", runErr.Error()),
		}
		if stack != nil {
			fields = append(fields, telemetry.F("stack", string(stack)))
		}
		w.event("subtask.failed", fields...)
	} else {
		rec.Status = taskdb.StatusDone
		switch msg.Kind {
		case "route":
			w.metrics.SubtasksRoute.Inc()
		default:
			w.metrics.SubtasksTraffic.Inc()
		}
	}
	w.metrics.SubtaskSeconds.Observe(rec.FinishedAt.Sub(rec.StartedAt).Seconds())
	// The completion write is retried by the substrate wrapper. If it still
	// fails, the subtask is NOT reported done: the record stays running with
	// a stale heartbeat and the master's lease reclaim re-runs it (result
	// writes are idempotent, so the re-run converges to the same state).
	_, usp := telemetry.StartSpan(ctx, "taskdb.upsert")
	applied, uerr := w.svc.Tasks.FencedUpsert(rec)
	usp.End()
	if uerr != nil {
		w.logf("dsim: worker %s: completion of %s/%s/%d lost: %v (lease reclaim will re-run)",
			w.Name, msg.TaskID, msg.Kind, msg.SubID, uerr)
	} else if !applied {
		w.logf("dsim: worker %s: completion of %s/%s/%d fenced off by newer attempt",
			w.Name, msg.TaskID, msg.Kind, msg.SubID)
	}
	return false
}

// heartbeat refreshes the subtask's lease until ctx is cancelled.
func (w *Worker) heartbeat(ctx context.Context, msg SubtaskMsg) {
	interval := w.HeartbeatInterval
	if interval <= 0 {
		interval = time.Second
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			if _, err := w.svc.Tasks.Heartbeat(msg.TaskID, msg.Kind, msg.SubID, msg.Attempt, time.Now()); err != nil {
				w.logf("dsim: worker %s: heartbeat %s/%s/%d: %v", w.Name, msg.TaskID, msg.Kind, msg.SubID, err)
			} else {
				w.metrics.Heartbeats.Inc()
				w.touch()
			}
		}
	}
}

// engineFor returns a core engine for the message's snapshot, memoized
// across subtasks per (snapshot, options). Beneath it the restored network
// itself is memoized per (snapshot, parallelism), so switching options — e.g.
// a strategy sweep over one snapshot — re-runs the IGP but not the download
// and config parse.
func (w *Worker) engineFor(ctx context.Context, msg SubtaskMsg) (*core.Engine, error) {
	opts := msg.Options
	if w.Parallelism > 0 {
		opts.Parallelism = w.Parallelism
	}
	optsSig, _ := json.Marshal(opts)
	ekey := msg.SnapshotKey + "|" + string(optsSig)
	w.cacheMu.Lock()
	eng, ok := w.engines.get(ekey)
	w.cacheMu.Unlock()
	if ok {
		w.metrics.SnapshotHits.Inc()
		return eng, nil
	}
	net, err := w.networkFor(ctx, msg.SnapshotKey, opts.Parallelism)
	if err != nil {
		return nil, err
	}
	eng = core.NewEngine(net, opts)
	w.cacheMu.Lock()
	ev := w.engines.put(ekey, eng)
	w.cacheMu.Unlock()
	w.noteEvictions("engine", ev)
	return eng, nil
}

// networkFor returns the restored network model for a snapshot, memoized per
// (snapshot key, parallelism). The restored model is read-only to engines.
func (w *Worker) networkFor(ctx context.Context, snapKey string, parallelism int) (*config.Network, error) {
	nkey := fmt.Sprintf("%s|p%d", snapKey, parallelism)
	w.cacheMu.Lock()
	net, ok := w.nets.get(nkey)
	w.cacheMu.Unlock()
	if ok {
		w.metrics.SnapshotHits.Inc()
		return net, nil
	}
	w.metrics.SnapshotMisses.Inc()
	err := w.stage(ctx, "snapshot.restore", w.metrics.RestoreSeconds, func(*telemetry.Span) error {
		data, err := w.svc.Store.Get(snapKey)
		if err != nil {
			return fmt.Errorf("loading snapshot: %w", err)
		}
		w.metrics.BytesFetched.Add(int64(len(data)))
		snap, err := core.DecodeSnapshot(bytes.NewReader(data))
		if err != nil {
			return err
		}
		net, err = snap.RestoreParallel(parallelism)
		return err
	})
	if err != nil {
		return nil, err
	}
	w.cacheMu.Lock()
	ev := w.nets.put(nkey, net)
	w.cacheMu.Unlock()
	w.noteEvictions("network", ev)
	return net, nil
}

// ribRows returns the decoded rows of one route-subtask result file, served
// from the worker's bounded LRU when possible. Caching by object key is
// sound across attempt epochs: result files are content-deterministic, so a
// reclaimed subtask's re-run writes byte-identical data under the same key.
//
// Cached rows are immutable, and other code depends on it: a traffic
// subtask's RIB set and prefix list reference them (a single file's rows
// directly, their prefix runs as table rows), and a route subtask seeds the
// cache with the slice it just encoded. Nothing may write to them.
func (w *Worker) ribRows(key string) ([]netmodel.Route, error) {
	w.cacheMu.Lock()
	ent, ok := w.ribCacheLocked().get(key)
	w.cacheMu.Unlock()
	if ok {
		w.metrics.RIBHits.Inc()
		w.metrics.BytesSaved.Add(ent.size)
		return ent.rows, nil
	}
	w.metrics.RIBMisses.Inc()
	data, err := w.svc.Store.Get(key)
	if err != nil {
		return nil, err
	}
	w.metrics.BytesFetched.Add(int64(len(data)))
	rows, err := core.DecodeRoutes(bytes.NewReader(data))
	if err != nil {
		w.event("rib.decode.error", telemetry.F("key", key), telemetry.F("error", err.Error()))
		return nil, err
	}
	w.cacheRIB(key, rows, int64(len(data)))
	return rows, nil
}

// cacheRIB inserts one decoded route-RIB file into the LRU.
func (w *Worker) cacheRIB(key string, rows []netmodel.Route, size int64) {
	w.cacheMu.Lock()
	ev := w.ribCacheLocked().put(key, ribEntry{rows: rows, size: size})
	w.cacheMu.Unlock()
	w.noteEvictions("rib", ev)
}

// ribCacheLocked lazily sizes the RIB cache from the RIBCacheSize knob.
// Callers hold cacheMu.
func (w *Worker) ribCacheLocked() *lru[ribEntry] {
	if w.ribs == nil {
		size := w.RIBCacheSize
		switch {
		case size == 0:
			size = DefaultRIBCacheSize
		case size < 0:
			size = 0
		}
		w.ribs = newLRU[ribEntry](size)
	}
	return w.ribs
}

// routeSubtask simulates a subset of input routes and stores the resulting
// RIB rows.
func (w *Worker) routeSubtask(ctx context.Context, msg SubtaskMsg) error {
	eng, err := w.engineFor(ctx, msg)
	if err != nil {
		return err
	}
	data, err := w.svc.Store.Get(msg.InputKey)
	if err != nil {
		return fmt.Errorf("loading input: %w", err)
	}
	w.metrics.BytesFetched.Add(int64(len(data)))
	inputs, err := core.DecodeRoutes(bytes.NewReader(data))
	if err != nil {
		return err
	}
	var rows []netmodel.Route
	w.stage(ctx, "engine.run", w.metrics.EngineSeconds, func(*telemetry.Span) error {
		res := eng.RouteSimulation(inputs)
		w.metrics.RecordBGPPar(res.BGP.Par)
		rows = res.GlobalRIB().Rows()
		return nil
	})
	var buf bytes.Buffer
	if err := w.stage(ctx, "result.encode", w.metrics.EncodeSeconds, func(*telemetry.Span) error {
		return core.EncodeRoutes(&buf, rows)
	}); err != nil {
		return err
	}
	err = w.stage(ctx, "objstore.put", w.metrics.PutSeconds, func(*telemetry.Span) error {
		return w.svc.Store.Put(msg.ResultKey, buf.Bytes())
	})
	w.noteResultWrite(err)
	if err != nil {
		return err
	}
	// Seed the RIB cache: this worker's own traffic subtasks often read the
	// file straight back.
	w.cacheRIB(msg.ResultKey, rows, int64(buf.Len()))
	return nil
}

// trafficSubtask simulates a subset of flows. It loads only the route
// subtask result files its destination range can depend on (ordering
// heuristic) unless the baseline strategy forces loading everything. It
// returns the number of RIB files loaded.
func (w *Worker) trafficSubtask(ctx context.Context, msg SubtaskMsg) (int, error) {
	eng, err := w.engineFor(ctx, msg)
	if err != nil {
		return 0, err
	}
	data, err := w.svc.Store.Get(msg.InputKey)
	if err != nil {
		return 0, fmt.Errorf("loading input: %w", err)
	}
	w.metrics.BytesFetched.Add(int64(len(data)))
	flows, err := core.DecodeFlows(bytes.NewReader(data))
	if err != nil {
		return 0, err
	}

	needed, err := w.neededRouteFiles(msg, flows)
	if err != nil {
		return 0, err
	}
	// The files are canonical (a route subtask writes GlobalRIB().Rows()), so
	// one file is used as it is and several are merged into one canonical
	// slice. That slice is the set's storage and the prefix list's source;
	// the set's tables are built only when the forwarder looks them up.
	_, lsp := telemetry.StartSpan(ctx, "ribs.load")
	segs := make([][]netmodel.Route, 0, len(needed))
	for _, sub := range needed {
		seg, err := w.ribRows(resultKey(msg.RouteTaskID, "route", sub))
		if err != nil {
			lsp.End()
			return 0, fmt.Errorf("loading RIB file %d: %w", sub, err)
		}
		segs = append(segs, seg)
	}
	var rows []netmodel.Route
	if len(segs) == 1 {
		rows = segs[0]
	} else {
		rows = netmodel.MergeSortedRoutes(segs)
	}
	ribs := netmodel.NewRIBSetFromSorted(rows)
	lsp.SetTag("files", strconv.Itoa(len(segs)))
	lsp.SetTag("rows", strconv.Itoa(len(rows)))
	lsp.SetTag("tables", strconv.Itoa(ribs.Tables()))
	lsp.End()

	var res *core.TrafficResult
	w.stage(ctx, "engine.run", w.metrics.EngineSeconds, func(sp *telemetry.Span) error {
		res = eng.TrafficSimulation(ribs, rows, flows)
		sp.SetTag("tables_built", strconv.Itoa(ribs.TablesBuilt()))
		return nil
	})
	w.metrics.RIBTablesLoaded.Add(int64(ribs.Tables()))
	w.metrics.RIBTablesBuilt.Add(int64(ribs.TablesBuilt()))
	file := TrafficResultFile{}
	ids := make([]netmodel.LinkID, 0, len(res.Traffic.Load))
	for id := range res.Traffic.Load {
		ids = append(ids, id)
	}
	slices.SortFunc(ids, func(a, b netmodel.LinkID) int { return strings.Compare(a.String(), b.String()) })
	for _, id := range ids {
		file.Load = append(file.Load, LoadEntry{Link: id, Volume: res.Traffic.Load[id]})
	}
	for _, p := range res.Traffic.Paths {
		file.Paths = append(file.Paths, PathEntry{Flow: p.Flow, Path: PathWire{Hops: p.Path.Hops, Exit: p.Path.Exit}})
	}
	var buf bytes.Buffer
	if err := w.stage(ctx, "result.encode", w.metrics.EncodeSeconds, func(*telemetry.Span) error {
		return wire.EncodeTrafficResult(&buf, &file)
	}); err != nil {
		return 0, fmt.Errorf("encoding traffic result: %w", err)
	}
	err = w.stage(ctx, "objstore.put", w.metrics.PutSeconds, func(*telemetry.Span) error {
		return w.svc.Store.Put(msg.ResultKey, buf.Bytes())
	})
	w.noteResultWrite(err)
	if err != nil {
		return 0, err
	}
	return len(needed), nil
}

// neededRouteFiles decides which route-subtask results this traffic subtask
// depends on. Under the baseline strategy, all of them; otherwise only those
// whose recorded address range overlaps the flows' destination range (§3.2).
func (w *Worker) neededRouteFiles(msg SubtaskMsg, flows []netmodel.Flow) ([]int, error) {
	all := make([]int, 0, msg.RouteSubtasks)
	for i := 0; i < msg.RouteSubtasks; i++ {
		all = append(all, i)
	}
	if msg.Strategy == StrategyBaseline || len(flows) == 0 {
		return all, nil
	}
	lo, hi := flows[0].Dst, flows[0].Dst
	for _, f := range flows {
		if f.Dst.Compare(lo) < 0 {
			lo = f.Dst
		}
		if f.Dst.Compare(hi) > 0 {
			hi = f.Dst
		}
	}
	var out []int
	for i := 0; i < msg.RouteSubtasks; i++ {
		rec, ok, err := w.svc.Tasks.Get(msg.RouteTaskID, "route", i)
		if err != nil {
			return nil, err
		}
		if !ok {
			out = append(out, i) // unknown range: be safe, load it
			continue
		}
		rLo, err1 := netip.ParseAddr(rec.RangeLo)
		rHi, err2 := netip.ParseAddr(rec.RangeHi)
		if err1 != nil || err2 != nil {
			out = append(out, i)
			continue
		}
		// Overlap test between [lo,hi] and [rLo,rHi].
		if hi.Compare(rLo) >= 0 && rHi.Compare(lo) >= 0 {
			out = append(out, i)
		}
	}
	return out, nil
}
