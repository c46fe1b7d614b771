package dsim

import (
	"hoyan/internal/bgp"
	"hoyan/internal/netmodel"
	"hoyan/internal/telemetry"
)

// stripeImbalanceBuckets grade the worst/mean decision count across a BGP
// run's work units: 1.0 is perfectly balanced, anything past ~2 means one
// unit (usually a big aggregation independence group) dominated wall time.
var stripeImbalanceBuckets = []float64{1, 1.1, 1.25, 1.5, 2, 3, 5}

// WorkerMetrics are one worker's pre-registered telemetry instruments. Every
// field is non-nil (NewWorkerMetrics with a nil registry yields detached
// instruments), so the hot path is a plain atomic op with no branching.
type WorkerMetrics struct {
	// Subtask outcomes.
	SubtasksRoute   *telemetry.Counter // hoyan_worker_subtasks_total{kind=route}
	SubtasksTraffic *telemetry.Counter
	Failures        *telemetry.Counter
	StaleSkipped    *telemetry.Counter
	Heartbeats      *telemetry.Counter
	PopEmpty        *telemetry.Counter
	PopErrors       *telemetry.Counter

	// Cache and transfer counters (the CacheStats compatibility view reads
	// these).
	SnapshotHits   *telemetry.Counter
	SnapshotMisses *telemetry.Counter
	RIBHits        *telemetry.Counter
	RIBMisses      *telemetry.Counter
	BytesFetched   *telemetry.Counter
	BytesSaved     *telemetry.Counter
	CacheEvictions *telemetry.Counter

	// RIB tables traffic subtasks loaded, and the ones they built because the
	// forwarder looked them up (tables are built lazily).
	RIBTablesLoaded *telemetry.Counter
	RIBTablesBuilt  *telemetry.Counter

	// Interner table sizes of the worker's cached engines (gauges: the
	// indexed core's ID-table footprint, refreshed after every subtask).
	InternDevices    *telemetry.Gauge
	InternLinks      *telemetry.Gauge
	InternPrefixes   *telemetry.Gauge
	InternTableBytes *telemetry.Gauge

	// Work-unit activity of the worker's cold BGP runs (see bgp.ParStats; the
	// series keep the names of the per-round striping they used to count):
	// rounds run inside units, units run, and the per-run worst/mean ratio
	// of (table, prefix) decisions per unit.
	BGPParallelRounds  *telemetry.Counter   // bgp_parallel_rounds_total
	BGPStripes         *telemetry.Counter   // bgp_stripes_total
	BGPStripeImbalance *telemetry.Histogram // bgp_stripe_imbalance_ratio

	// Per-stage wall time (the §5-style measurement seam: where does a
	// subtask spend its time).
	QueueWaitSeconds *telemetry.Histogram
	DecodeSeconds    *telemetry.Histogram
	RestoreSeconds   *telemetry.Histogram
	EngineSeconds    *telemetry.Histogram
	EncodeSeconds    *telemetry.Histogram
	PutSeconds       *telemetry.Histogram
	SubtaskSeconds   *telemetry.Histogram
}

// NewWorkerMetrics registers the worker metric set in reg (nil reg = detached
// instruments, telemetry disabled but all call sites stay valid).
func NewWorkerMetrics(reg *telemetry.Registry) *WorkerMetrics {
	stage := func(name string) *telemetry.Histogram {
		return reg.Histogram("hoyan_worker_stage_seconds",
			"per-stage wall time of subtask execution",
			telemetry.DurationBuckets, telemetry.L("stage", name))
	}
	return &WorkerMetrics{
		SubtasksRoute: reg.Counter("hoyan_worker_subtasks_total",
			"subtasks executed", telemetry.L("kind", "route")),
		SubtasksTraffic: reg.Counter("hoyan_worker_subtasks_total",
			"subtasks executed", telemetry.L("kind", "traffic")),
		Failures:     reg.Counter("hoyan_worker_subtask_failures_total", "subtasks that reported failure"),
		StaleSkipped: reg.Counter("hoyan_worker_stale_messages_total", "messages skipped because a newer attempt owns the subtask"),
		Heartbeats:   reg.Counter("hoyan_worker_heartbeats_total", "lease heartbeats sent"),
		PopEmpty:     reg.Counter("hoyan_worker_pop_empty_total", "queue polls that timed out empty"),
		PopErrors:    reg.Counter("hoyan_worker_pop_errors_total", "transient queue pop errors ridden out"),

		SnapshotHits:   reg.Counter("hoyan_worker_snapshot_cache_total", "snapshot/engine cache lookups", telemetry.L("result", "hit")),
		SnapshotMisses: reg.Counter("hoyan_worker_snapshot_cache_total", "snapshot/engine cache lookups", telemetry.L("result", "miss")),
		RIBHits:        reg.Counter("hoyan_worker_rib_cache_total", "route-RIB file cache lookups", telemetry.L("result", "hit")),
		RIBMisses:      reg.Counter("hoyan_worker_rib_cache_total", "route-RIB file cache lookups", telemetry.L("result", "miss")),
		BytesFetched:   reg.Counter("hoyan_worker_store_bytes_fetched_total", "object-store bytes downloaded"),
		BytesSaved:     reg.Counter("hoyan_worker_store_bytes_saved_total", "encoded RIB bytes served from cache instead of the store"),
		CacheEvictions: reg.Counter("hoyan_worker_cache_evictions_total", "entries evicted from the worker caches"),

		RIBTablesLoaded: reg.Counter("hoyan_worker_rib_tables_total", "(device, VRF) tables traffic subtasks loaded or built", telemetry.L("state", "loaded")),
		RIBTablesBuilt:  reg.Counter("hoyan_worker_rib_tables_total", "(device, VRF) tables traffic subtasks loaded or built", telemetry.L("state", "built")),

		InternDevices:    reg.Gauge("hoyan_intern_devices", "devices interned into dense IDs"),
		InternLinks:      reg.Gauge("hoyan_intern_links", "links interned into dense IDs"),
		InternPrefixes:   reg.Gauge("hoyan_intern_prefixes", "prefixes interned into dense IDs"),
		InternTableBytes: reg.Gauge("hoyan_intern_table_bytes", "approximate bytes held by the interner's two-way ID tables"),

		BGPParallelRounds: reg.Counter("bgp_parallel_rounds_total", "BGP fixpoint rounds run inside concurrently running work units"),
		BGPStripes:        reg.Counter("bgp_stripes_total", "work units run by multi-unit BGP fixpoints"),
		BGPStripeImbalance: reg.Histogram("bgp_stripe_imbalance_ratio",
			"worst/mean (table, prefix) decisions per work unit, one sample per multi-unit run", stripeImbalanceBuckets),

		QueueWaitSeconds: stage("mq_wait"),
		DecodeSeconds:    stage("decode"),
		RestoreSeconds:   stage("snapshot_restore"),
		EngineSeconds:    stage("engine_run"),
		EncodeSeconds:    stage("result_encode"),
		PutSeconds:       stage("objstore_put"),
		SubtaskSeconds: reg.Histogram("hoyan_worker_subtask_seconds",
			"whole-subtask wall time", telemetry.DurationBuckets),
	}
}

// MasterMetrics are the master's pre-registered telemetry instruments.
type MasterMetrics struct {
	EnqueuedRoute   *telemetry.Counter // hoyan_master_subtasks_enqueued_total{kind=route}
	EnqueuedTraffic *telemetry.Counter
	Done            *telemetry.Counter
	ReenqueueFailed *telemetry.Counter // hoyan_master_reenqueues_total{cause=...}
	ReenqueueLease  *telemetry.Counter
	ReenqueueLost   *telemetry.Counter
	ReenqueueResume *telemetry.Counter
	PollSweeps      *telemetry.Counter
	UploadBytes     *telemetry.Counter
	WaitSeconds     *telemetry.Histogram
}

// NewMasterMetrics registers the master metric set in reg (nil reg = detached
// instruments).
func NewMasterMetrics(reg *telemetry.Registry) *MasterMetrics {
	reenq := func(cause string) *telemetry.Counter {
		return reg.Counter("hoyan_master_reenqueues_total",
			"subtasks re-enqueued, by cause", telemetry.L("cause", cause))
	}
	return &MasterMetrics{
		EnqueuedRoute: reg.Counter("hoyan_master_subtasks_enqueued_total",
			"subtasks enqueued", telemetry.L("kind", "route")),
		EnqueuedTraffic: reg.Counter("hoyan_master_subtasks_enqueued_total",
			"subtasks enqueued", telemetry.L("kind", "traffic")),
		Done:            reg.Counter("hoyan_master_subtasks_done_total", "subtasks observed done"),
		ReenqueueFailed: reenq("worker_failed"),
		ReenqueueLease:  reenq("lease_expired"),
		ReenqueueLost:   reenq("message_lost"),
		ReenqueueResume: reenq("master_resume"),
		PollSweeps:      reg.Counter("hoyan_master_poll_sweeps_total", "task-DB monitoring sweeps"),
		UploadBytes:     reg.Counter("hoyan_master_upload_bytes_total", "snapshot and input bytes uploaded to the object store"),
		WaitSeconds: reg.Histogram("hoyan_master_wait_seconds",
			"Wait() duration per task kind", telemetry.DurationBuckets),
	}
}

// RecordIntern refreshes the interner-size gauges from one engine's stats.
// A nil st (index disabled) is a no-op, so call sites need no branching.
func (m *WorkerMetrics) RecordIntern(st *netmodel.InternStats) {
	if st == nil {
		return
	}
	m.InternDevices.Set(float64(st.Devices))
	m.InternLinks.Set(float64(st.Links))
	m.InternPrefixes.Set(float64(st.Prefixes))
	m.InternTableBytes.Set(float64(st.TableBytes))
}

// RecordBGPPar folds one BGP run's work-unit stats into the worker counters.
// Runs of one sequential fixpoint (Parallelism 1, one independence group,
// warm) contribute nothing.
func (m *WorkerMetrics) RecordBGPPar(p bgp.ParStats) {
	if p.ParallelRounds == 0 {
		return
	}
	m.BGPParallelRounds.Add(int64(p.ParallelRounds))
	m.BGPStripes.Add(int64(p.Stripes))
	if p.Stripes > 0 && p.SumStripePairs > 0 {
		mean := float64(p.SumStripePairs) / float64(p.Stripes)
		m.BGPStripeImbalance.Observe(float64(p.MaxStripePairs) / mean)
	}
}
