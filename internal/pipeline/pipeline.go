// Package pipeline wires the Figure 2 change-verification flow end to end:
// pre-processing (base model + base simulation, computed once and cached),
// then per-request incremental model update, route + traffic simulation of
// the updated network — centralized or distributed — and intent checking
// with counterexample output.
package pipeline

import (
	"fmt"
	"io"
	"time"

	"hoyan/internal/change"
	"hoyan/internal/config"
	"hoyan/internal/core"
	"hoyan/internal/dsim"
	"hoyan/internal/intent"
	"hoyan/internal/mq"
	"hoyan/internal/netmodel"
	"hoyan/internal/objstore"
	"hoyan/internal/telemetry"
)

// System is a Hoyan deployment over one base network: it owns the
// pre-processed base model, input routes/flows, and the cached base
// simulation results every change verification compares against.
//
// Opts.Parallelism reaches every simulation the system runs: the centralized
// path passes it straight to the engine, and the distributed path ships it to
// workers inside each subtask message.
type System struct {
	Base   *config.Network
	Inputs []netmodel.Route
	Flows  []netmodel.Flow
	Opts   core.Options

	// Workers > 0 runs the updated-network simulation on a local
	// distributed cluster with that many working servers; 0 simulates
	// centralized (single server, as the original Hoyan).
	Workers int
	// Subtasks used when distributed (the paper uses 100 for routes and 128
	// for flows at full scale).
	RouteSubtasks   int
	TrafficSubtasks int

	// Telemetry gives each distributed run a metric registry and tracer per
	// role; the aggregated snapshot and spans land in LastRunReport.
	Telemetry bool

	baseEng    *core.Engine
	baseSnap   *intent.Snapshot
	lastReport RunReport
}

// StageReport is one pipeline stage's wall time and object-store bytes moved
// (in + out deltas across the stage).
type StageReport struct {
	Name     string
	Duration time.Duration
	Bytes    int64
}

// RunReport is the full observability record of one distributed simulation
// run.
type RunReport struct {
	TaskID string
	// Stages is the master-side per-stage breakdown, in execution order.
	Stages []StageReport
	Store  objstore.Stats
	Cache  dsim.CacheStats
	Queue  mq.Stats
	// Metrics is the fleet-wide merged metric snapshot and Spans the run's
	// trace (master + workers); both nil unless Telemetry was set.
	Metrics telemetry.Snapshot
	Spans   []telemetry.SpanRecord
}

// WriteBreakdown renders the per-stage time/bytes table plus substrate
// totals.
func (r RunReport) WriteBreakdown(w io.Writer) {
	fmt.Fprintf(w, "run %s\n", r.TaskID)
	fmt.Fprintf(w, "  %-18s %12s %14s\n", "stage", "time", "store bytes")
	var total time.Duration
	for _, st := range r.Stages {
		fmt.Fprintf(w, "  %-18s %12s %14d\n", st.Name, st.Duration.Round(time.Microsecond), st.Bytes)
		total += st.Duration
	}
	fmt.Fprintf(w, "  %-18s %12s\n", "total", total.Round(time.Microsecond))
	fmt.Fprintf(w, "  store: %d puts / %d gets, %d B in / %d B out\n",
		r.Store.Puts, r.Store.Gets, r.Store.BytesIn, r.Store.BytesOut)
	fmt.Fprintf(w, "  queue: %d pushed / %d popped\n", r.Queue.Pushes, r.Queue.Pops)
	fmt.Fprintf(w, "  cache: %d/%d snapshot hits, %d/%d RIB hits, %d B saved\n",
		r.Cache.SnapshotHits, r.Cache.SnapshotHits+r.Cache.SnapshotMisses,
		r.Cache.RIBFileHits, r.Cache.RIBFileHits+r.Cache.RIBFileMisses,
		r.Cache.BytesSaved)
	fmt.Fprintf(w, "  rib tables: %d/%d built on lookup by traffic subtasks\n",
		r.Cache.RIBTablesBuilt, r.Cache.RIBTablesLoaded)
}

// LastRunReport returns the full report of the most recent distributed
// simulation this system ran (the zero value if none has).
func (s *System) LastRunReport() RunReport { return s.lastReport }

// New creates a system over the base network.
func New(base *config.Network, inputs []netmodel.Route, flows []netmodel.Flow, opts core.Options) *System {
	return &System{Base: base, Inputs: inputs, Flows: flows, Opts: opts, RouteSubtasks: 16, TrafficSubtasks: 16}
}

// Simulate runs one route + traffic simulation of the base network on the
// configured deployment — distributed when Workers > 0, centralized
// otherwise. Distributed runs leave their full observability record in
// LastRunReport, which makes this the entry point for ops tooling that wants
// the per-stage breakdown without a change plan.
func (s *System) Simulate(taskID string) (*intent.Snapshot, error) {
	if s.Workers > 0 {
		return s.simulateDistributed(s.Base, s.Inputs, s.Flows, taskID)
	}
	return intent.SnapshotOf(core.NewEngine(s.Base, s.Opts).Run(s.Inputs, s.Flows)), nil
}

// BaseSnapshot returns the cached base simulation state, computing it on
// first use (the daily pre-processing phase). The base engine captures its
// converged state, so later non-structural change plans verify as
// incremental forks instead of from-scratch simulations.
func (s *System) BaseSnapshot() *intent.Snapshot {
	if s.baseSnap == nil {
		s.baseEng = core.NewEngine(s.Base, s.Opts)
		s.baseSnap = intent.SnapshotOf(s.baseEng.BaseRun(s.Inputs, s.Flows))
	}
	return s.baseSnap
}

// simulateDistributed runs the same pipeline on a local worker cluster,
// assembling a RunReport (per-stage time and store-byte breakdown, substrate
// counters, and — with Telemetry set — the merged metric snapshot and trace).
func (s *System) simulateDistributed(net *config.Network, inputs []netmodel.Route, flows []netmodel.Flow, taskID string) (*intent.Snapshot, error) {
	cluster, err := dsim.StartLocal(dsim.LocalOptions{Workers: s.Workers, Telemetry: s.Telemetry})
	if err != nil {
		return nil, fmt.Errorf("pipeline: starting cluster: %w", err)
	}
	storeStats := func() objstore.Stats {
		if sp, ok := cluster.Svc.Store.(objstore.StatsProvider); ok {
			return sp.Stats()
		}
		return objstore.Stats{}
	}
	report := RunReport{TaskID: taskID}
	defer func() {
		report.Store = storeStats()
		report.Cache = cluster.CacheStats()
		report.Queue = cluster.Svc.Queue.(mq.StatsProvider).Stats()
		report.Metrics = cluster.MetricsSnapshot()
		report.Spans = cluster.TraceSpans()
		s.lastReport = report
		cluster.Stop()
	}()
	m := cluster.Master
	runSpan := m.BeginRun("run " + taskID)
	defer runSpan.End()

	// stage times fn and attributes the store bytes it moved.
	stage := func(name string, fn func() error) error {
		before := storeStats()
		start := time.Now()
		err := fn()
		after := storeStats()
		report.Stages = append(report.Stages, StageReport{
			Name:     name,
			Duration: time.Since(start),
			Bytes:    (after.BytesIn + after.BytesOut) - (before.BytesIn + before.BytesOut),
		})
		return err
	}

	sim := &dsim.Simulation{
		TaskID: taskID, Net: net, Inputs: inputs, Flows: flows,
		RouteSubtasks: s.RouteSubtasks, TrafficSubtasks: s.TrafficSubtasks, Opts: s.Opts,
	}
	if err := m.Simulate(sim, stage); err != nil {
		return nil, err
	}
	snap := &intent.Snapshot{RIB: sim.RIB, Bandwidth: net.Topo.Bandwidths()}
	if sim.Summary != nil {
		snap.Paths = sim.Summary.Paths
		snap.Load = sim.Summary.Load
	}
	return snap, nil
}

// Outcome is the result of one change verification request.
type Outcome struct {
	Plan    *change.Plan
	Reports []intent.Report
	OK      bool

	BaseSnap   *intent.Snapshot
	UpdateSnap *intent.Snapshot
}

// Verify runs one change verification request: simulate the network under the
// plan and check the intents against base and updated states. On the
// centralized deployment every plan is a warm fork of the cached base run
// (change.Plan.Delta, core.Engine.WhatIf) — byte-identical to a full run of
// the applied plan, recomputing only what the delta touched. A fleet applies
// the plan to a copy of the base model and simulates it in full.
func (s *System) Verify(plan *change.Plan, intents []intent.Intent) (*Outcome, error) {
	var upSnap *intent.Snapshot
	if s.Workers > 0 {
		updated, err := plan.Apply(s.Base)
		if err != nil {
			return nil, fmt.Errorf("pipeline: applying change plan: %w", err)
		}
		upSnap, err = s.simulateDistributed(updated, plan.ApplyInputs(s.Inputs), s.Flows, "verify-"+plan.ID)
		if err != nil {
			return nil, fmt.Errorf("pipeline: distributed simulation: %w", err)
		}
	} else {
		d, err := plan.Delta(s.Base)
		if err != nil {
			return nil, fmt.Errorf("pipeline: applying change plan: %w", err)
		}
		s.BaseSnapshot() // converges baseEng on first use
		res, _, err := s.baseEng.WhatIf(nil, d, 0)
		if err != nil {
			return nil, fmt.Errorf("pipeline: applying change plan %s: %w", plan.ID, err)
		}
		upSnap = intent.SnapshotOf(res)
	}

	ctx := &intent.Context{Base: *s.BaseSnapshot(), Updated: *upSnap}
	reports, ok := intent.Verify(ctx, intents)
	return &Outcome{
		Plan: plan, Reports: reports, OK: ok,
		BaseSnap: s.BaseSnapshot(), UpdateSnap: upSnap,
	}, nil
}

// Audit runs the daily configuration-auditing use case (§6.2): it checks
// invariants against the base state alone (base == updated).
func (s *System) Audit(intents []intent.Intent) ([]intent.Report, bool) {
	snap := s.BaseSnapshot()
	ctx := &intent.Context{Base: *snap, Updated: *snap}
	return intent.Verify(ctx, intents)
}
