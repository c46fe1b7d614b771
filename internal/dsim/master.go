package dsim

import (
	"bytes"
	"fmt"
	"io"
	"time"

	"hoyan/internal/bgp"
	"hoyan/internal/config"
	"hoyan/internal/core"
	"hoyan/internal/netmodel"
	"hoyan/internal/par"
	"hoyan/internal/taskdb"
	"hoyan/internal/telemetry"
	"hoyan/internal/wire"
	"slices"
)

// Master coordinates a simulation task: it prepares subtasks, enqueues them,
// monitors the task DB, re-enqueues failures, and aggregates results.
//
// Fault tolerance: the master assumes at-least-once subtask execution. It
// re-enqueues subtasks that report failure, subtasks whose worker stopped
// heartbeating (crash or partition — the lease), and subtasks stuck pending
// with an empty queue (message lost in flight). Every re-enqueue bumps the
// attempt epoch, which fences out writes from the superseded attempt; result
// files are deterministic and keyed per subtask, so duplicate executions are
// idempotent.
type Master struct {
	svc Services

	// MaxAttempts bounds per-subtask retries (the paper's master resends a
	// failed subtask's message back to the queue).
	MaxAttempts int
	// Timeout bounds a whole Wait call.
	Timeout time.Duration
	// LeaseTimeout bounds how long a running subtask may go without a worker
	// heartbeat before the master presumes the worker dead and reclaims the
	// subtask. It also paces the lost-pending sweep. 0 disables reclaim.
	// It must be several times the workers' heartbeat interval.
	LeaseTimeout time.Duration

	// Tracer collects the master's spans: a run root (BeginRun) with one
	// "enqueue" child per subtask message, whose identity travels inside the
	// message so worker spans land in the same trace. Nil disables tracing.
	Tracer *telemetry.Tracer

	// Events receives structured diagnostics (re-enqueues with cause and
	// attempt). Nil discards them.
	Events *telemetry.EventLogger

	// metrics is the master's instrument bundle, registered in reg (detached
	// counters when reg is nil); never nil.
	metrics *MasterMetrics

	// runCtx is the span context enqueue spans parent under (set by
	// BeginRun; zero makes each enqueue start its own trace).
	runCtx telemetry.SpanContext

	// msgs remembers each enqueued subtask message so failures can be
	// resent verbatim.
	msgs map[string]SubtaskMsg
	// pendingSince tracks when a pending subtask was first seen alongside an
	// empty queue: only after a full lease period in that state is its
	// message declared lost. Keying the grace period off this observation
	// (rather than EnqueuedAt) keeps a long queue wait on a busy cluster
	// from looking like message loss.
	pendingSince map[string]time.Time
}

// pollInterval is the task-DB monitoring cadence of Wait.
const pollInterval = 5 * time.Millisecond

// NewMaster creates a master over the given substrate services. The queue,
// store, and task DB handles are wrapped with DefaultRetryPolicy so transient
// substrate errors are retried in place. The master's metrics and its
// handles' per-component retry activity are registered in reg (nil reg =
// detached).
func NewMaster(svc Services, reg *telemetry.Registry) *Master {
	return &Master{
		svc:         withRetry(svc, reg),
		MaxAttempts: 3, Timeout: 10 * time.Minute,
		LeaseTimeout: 30 * time.Second,
		metrics:      NewMasterMetrics(reg),
		msgs:         make(map[string]SubtaskMsg),
		pendingSince: make(map[string]time.Time),
	}
}

// BeginRun opens the run's root span: every subsequent enqueue span — and,
// through message propagation, every worker span — lands in its trace, so one
// run yields one end-to-end trace. The caller ends the returned span when the
// run completes. Nil-safe without a tracer.
func (m *Master) BeginRun(name string) *telemetry.Span {
	sp := m.Tracer.StartRoot(name)
	m.runCtx = sp.Context()
	return sp
}

// stampTrace opens a per-subtask enqueue span under the run root and stamps
// its identity plus the enqueue wall time into the message. The caller ends
// the span once the push lands.
func (m *Master) stampTrace(msg *SubtaskMsg) *telemetry.Span {
	sp := m.Tracer.StartChild(m.runCtx, "enqueue")
	if sc := sp.Context(); sc.Valid() {
		sp.SetTag("subtask", msg.key())
		msg.TraceID = sc.TraceID
		msg.ParentSpan = sc.SpanID
	}
	msg.EnqueuedUnixNano = time.Now().UnixNano()
	return sp
}

// RouteTask handles a started distributed route simulation.
type RouteTask struct {
	ID          string
	SnapshotKey string
	Subtasks    int
}

// UploadSnapshot stores the network snapshot once; route and traffic tasks
// of the same change verification share it.
func (m *Master) UploadSnapshot(taskID string, net *config.Network) (string, error) {
	var buf bytes.Buffer
	if err := core.TakeSnapshot(net).Encode(&buf); err != nil {
		return "", fmt.Errorf("dsim: encoding snapshot: %w", err)
	}
	key := snapshotKey(taskID)
	if err := m.svc.Store.Put(key, buf.Bytes()); err != nil {
		return "", fmt.Errorf("dsim: uploading snapshot: %w", err)
	}
	m.metrics.UploadBytes.Add(int64(buf.Len()))
	return key, nil
}

// enqueueSubtasks is the shared body of every Start* path: for each subset it
// uploads the encoded input, persists the message (before the record becomes
// visible, so every record a restarted master finds in the task DB has a
// recoverable message for Resume), records the pending row with the subset's
// range, stamps the trace, and pushes the message. msg is the template every
// subtask's message is filled in from.
func enqueueSubtasks[T any](m *Master, msg SubtaskMsg, subsets []subset[T], encode func(io.Writer, []T) error, enqueued *telemetry.Counter) error {
	for i, sub := range subsets {
		var buf bytes.Buffer
		if err := encode(&buf, sub.Items); err != nil {
			return err
		}
		msg.SubID = i
		msg.InputKey = inputKey(msg.TaskID, msg.Kind, i)
		msg.ResultKey = resultKey(msg.TaskID, msg.Kind, i)
		if err := m.svc.Store.Put(msg.InputKey, buf.Bytes()); err != nil {
			return err
		}
		m.metrics.UploadBytes.Add(int64(buf.Len()))
		if err := m.persistMsg(msg); err != nil {
			return err
		}
		rec := taskdb.Record{
			TaskID: msg.TaskID, Kind: msg.Kind, SubID: i, Status: taskdb.StatusPending,
			RangeLo: sub.Lo.String(), RangeHi: sub.Hi.String(),
			EnqueuedAt: time.Now(),
		}
		if err := m.svc.Tasks.Upsert(rec); err != nil {
			return err
		}
		sent := msg
		sp := m.stampTrace(&sent)
		m.msgs[sent.key()] = sent
		enc, err := sent.encode()
		if err == nil {
			err = m.svc.Queue.Push(Topic, enc)
		}
		sp.End()
		if err != nil {
			return err
		}
		enqueued.Inc()
	}
	return nil
}

// StartRouteSimulation splits the input routes into n subtasks (ordering
// heuristic) along the network's independence groups, uploads their inputs,
// records pending status + ranges in the task DB, and enqueues one message
// per subtask.
func (m *Master) StartRouteSimulation(taskID, snapKey string, groups bgp.Grouping, inputs []netmodel.Route, n int, opts core.Options) (*RouteTask, error) {
	subsets := splitRoutes(inputs, n, groups)
	msg := SubtaskMsg{TaskID: taskID, Kind: "route", SnapshotKey: snapKey, Options: opts}
	if err := enqueueSubtasks(m, msg, subsets, core.EncodeRoutes, m.metrics.EnqueuedRoute); err != nil {
		return nil, err
	}
	return &RouteTask{ID: taskID, SnapshotKey: snapKey, Subtasks: len(subsets)}, nil
}

// TrafficTask handles a started distributed traffic simulation.
type TrafficTask struct {
	ID       string
	Subtasks int
}

// StartTrafficSimulation splits the input flows into n subtasks following
// the chosen strategy and enqueues them. The route simulation (routeTask)
// must already be complete: traffic subtasks read its result files.
func (m *Master) StartTrafficSimulation(taskID string, route *RouteTask, flows []netmodel.Flow, n int, strategy Strategy, opts core.Options) (*TrafficTask, error) {
	subsets := splitFlows(flows, n, strategy)
	msg := SubtaskMsg{
		TaskID: taskID, Kind: "traffic", SnapshotKey: route.SnapshotKey, Options: opts,
		RouteTaskID: route.ID, RouteSubtasks: route.Subtasks, Strategy: strategy,
	}
	if err := enqueueSubtasks(m, msg, subsets, core.EncodeFlows, m.metrics.EnqueuedTraffic); err != nil {
		return nil, err
	}
	return &TrafficTask{ID: taskID, Subtasks: len(subsets)}, nil
}

// Wait blocks until every subtask of (taskID, kind) is done. It re-enqueues
// subtasks that failed, whose worker's lease expired, or whose message was
// lost, each up to MaxAttempts times.
func (m *Master) Wait(taskID, kind string, n int) error {
	start := time.Now()
	defer func() { m.metrics.WaitSeconds.Observe(time.Since(start).Seconds()) }()
	deadline := start.Add(m.Timeout)
	for {
		m.metrics.PollSweeps.Inc()
		recs, err := m.svc.Tasks.List(taskID)
		if err != nil {
			return err
		}
		// Queue length is fetched at most once per sweep, and only when a
		// pending record needs the lost-message heuristic.
		qlen, qlenKnown := 0, false
		done := 0
		for _, rec := range recs {
			if rec.Kind != kind {
				continue
			}
			switch rec.Status {
			case taskdb.StatusDone:
				delete(m.pendingSince, rec.Key())
				done++
			case taskdb.StatusFailed:
				delete(m.pendingSince, rec.Key())
				// Re-enqueue (the paper's master resends the message).
				if err := m.reenqueue(rec, m.metrics.ReenqueueFailed, "worker reported: "+rec.Error); err != nil {
					return err
				}
			case taskdb.StatusRunning:
				delete(m.pendingSince, rec.Key())
				if m.leaseExpired(rec) {
					if err := m.reenqueue(rec, m.metrics.ReenqueueLease, fmt.Sprintf("lease expired (worker %s presumed dead)", rec.Worker)); err != nil {
						return err
					}
				}
			case taskdb.StatusPending:
				if m.LeaseTimeout <= 0 {
					break
				}
				if !qlenKnown {
					if qlen, err = m.svc.Queue.Len(Topic); err != nil {
						qlen = 1 // unknown: assume the message is still queued
					}
					qlenKnown = true
				}
				if qlen > 0 {
					// A queued message may be this subtask's: not lost.
					delete(m.pendingSince, rec.Key())
					break
				}
				first, seen := m.pendingSince[rec.Key()]
				switch {
				case !seen:
					m.pendingSince[rec.Key()] = time.Now()
				case time.Since(first) > m.LeaseTimeout:
					// Pending for a full lease period with nothing queued:
					// the message was lost (e.g. a Pop reply that never
					// reached a worker, or a worker that died between Pop
					// and claiming the record).
					delete(m.pendingSince, rec.Key())
					if err := m.reenqueue(rec, m.metrics.ReenqueueLost, "pending with empty queue (message lost)"); err != nil {
						return err
					}
				}
			}
		}
		if done == n {
			m.metrics.Done.Add(int64(n))
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("dsim: task %s/%s timed out (%d/%d done)", taskID, kind, done, n)
		}
		time.Sleep(pollInterval)
	}
}

// leaseExpired reports whether a running subtask's worker has gone silent for
// longer than the lease.
func (m *Master) leaseExpired(rec taskdb.Record) bool {
	if m.LeaseTimeout <= 0 {
		return false
	}
	last := rec.HeartbeatAt
	if rec.StartedAt.After(last) {
		last = rec.StartedAt
	}
	return !last.IsZero() && time.Since(last) > m.LeaseTimeout
}

// reenqueue bumps the subtask's attempt epoch (fencing out the superseded
// attempt) and resends its message, counting the given cause. Exhausting
// MaxAttempts is the only error that aborts the task: a failed push is left
// to the lost-pending sweep, which re-enqueues the subtask after a lease
// period instead of stranding it.
func (m *Master) reenqueue(rec taskdb.Record, causeCount *telemetry.Counter, cause string) error {
	if rec.Attempts >= m.MaxAttempts {
		return fmt.Errorf("dsim: subtask %s/%s/%d failed permanently after %d attempts: %s",
			rec.TaskID, rec.Kind, rec.SubID, rec.Attempts+1, cause)
	}
	msg, ok := m.msgs[SubtaskMsg{TaskID: rec.TaskID, Kind: rec.Kind, SubID: rec.SubID}.key()]
	if !ok {
		return fmt.Errorf("dsim: no recorded message for %s/%s/%d", rec.TaskID, rec.Kind, rec.SubID)
	}
	causeCount.Inc()
	m.Events.Log("subtask.reenqueue",
		telemetry.F("subtask", rec.Key()),
		telemetry.F("attempt", rec.Attempts+1),
		telemetry.F("cause", cause))
	rec.Status = taskdb.StatusPending
	rec.Attempts++
	rec.Worker = ""
	rec.Error = cause
	rec.EnqueuedAt = time.Now()
	rec.HeartbeatAt = time.Time{}
	// The record write must land before the push: a worker may pop the new
	// message immediately, and its claim (same epoch) must not be clobbered
	// by this pending write arriving late.
	if _, err := m.svc.Tasks.FencedUpsert(rec); err != nil {
		return err
	}
	msg.Attempt = rec.Attempts
	sp := m.stampTrace(&msg)
	sp.SetTag("cause", cause)
	enc, err := msg.encode()
	if err != nil {
		sp.End()
		return err
	}
	err = m.svc.Queue.Push(Topic, enc)
	sp.End()
	if err != nil {
		// Push already retried by the substrate wrapper; the record stays
		// pending and the lost-pending sweep will re-enqueue it.
		return nil
	}
	return nil
}

// CollectRouteResults merges the RIB rows of all route subtasks into one
// global RIB. Every result file is written in canonical order, so the files
// are decoded concurrently and k-way merged; rows that several subtasks
// derived identically (each subtask simulates the whole network, so the
// routes it originates itself, such as connected ones) land adjacent in the
// total order and collapse to one.
func (m *Master) CollectRouteResults(t *RouteTask) (*netmodel.GlobalRIB, error) {
	segs := make([][]netmodel.Route, t.Subtasks)
	errs := make([]error, t.Subtasks)
	par.ForEach(0, t.Subtasks, func(i int) {
		data, err := m.svc.Store.Get(resultKey(t.ID, "route", i))
		if err == nil {
			segs[i], err = core.DecodeRoutes(bytes.NewReader(data))
		}
		errs[i] = err
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if len(segs) == 1 {
		return netmodel.NewGlobalRIBFromSorted(segs[0]), nil
	}
	rows := slices.CompactFunc(netmodel.MergeSortedRoutes(segs), netmodel.Route.Identical)
	return netmodel.NewGlobalRIBFromSorted(rows), nil
}

// TrafficSummary is the aggregated result of a distributed traffic
// simulation.
type TrafficSummary struct {
	Load  netmodel.LinkLoad
	Paths []netmodel.FlowPath
	// LoadedRIBFiles reports, per subtask, how many route-result files were
	// loaded — the Figure 5(d) metric.
	LoadedRIBFiles []int
}

// CollectTrafficResults aggregates per-subtask link loads (summing across
// subtasks, as the paper's master does) and concatenates flow paths. A
// subtask whose result or task-DB record cannot be read fails the collection.
func (m *Master) CollectTrafficResults(t *TrafficTask) (*TrafficSummary, error) {
	out := &TrafficSummary{Load: make(netmodel.LinkLoad)}
	for i := 0; i < t.Subtasks; i++ {
		data, err := m.svc.Store.Get(resultKey(t.ID, "traffic", i))
		if err != nil {
			return nil, err
		}
		paths, load, err := wire.DecodeTrafficResult(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("dsim: decoding traffic result %d: %w", i, err)
		}
		for id, v := range load {
			out.Load[id] += v
		}
		out.Paths = append(out.Paths, paths...)
		rec, ok, err := m.svc.Tasks.Get(t.ID, "traffic", i)
		if err != nil {
			return nil, fmt.Errorf("dsim: reading traffic subtask %d's record: %w", i, err)
		}
		if !ok {
			return nil, fmt.Errorf("dsim: no record of traffic subtask %d", i)
		}
		out.LoadedRIBFiles = append(out.LoadedRIBFiles, rec.LoadedRIBFiles)
	}
	slices.SortFunc(out.Paths, func(a, b netmodel.FlowPath) int {
		return netmodel.CompareFlows(a.Flow, b.Flow)
	})
	return out, nil
}

// SubtaskDurations returns the per-subtask run times of a task kind (the
// Figure 5(c) CDF input).
func (m *Master) SubtaskDurations(taskID, kind string) ([]time.Duration, error) {
	recs, err := m.svc.Tasks.List(taskID)
	if err != nil {
		return nil, err
	}
	var out []time.Duration
	for _, rec := range recs {
		if rec.Kind == kind && rec.Status == taskdb.StatusDone {
			out = append(out, time.Duration(rec.DurationMs)*time.Millisecond)
		}
	}
	return out, nil
}
