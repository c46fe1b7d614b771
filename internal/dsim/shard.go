package dsim

import (
	"bytes"
	"fmt"
	"net/netip"
	"slices"
	"time"

	"hoyan/internal/config"
	"hoyan/internal/core"
	"hoyan/internal/ec"
	"hoyan/internal/isis"
	"hoyan/internal/netmodel"
	"hoyan/internal/shard"
	"hoyan/internal/taskdb"
	"hoyan/internal/vsb"
	"hoyan/internal/wire"
)

// ShardVerifier drives sharded route verification over the fleet: the master
// runs the boundary-contract fixpoint (shard.Iterate) while every dirty
// shard's sealed simulation executes as a Kind "shard" subtask on the
// workers, one message per shard per contract-exchange round. The stitched
// global RIB is written as a single-file route result, so the traffic stage
// and CollectRouteResults consume it exactly like a whole-network route
// task. Results are byte-identical to the whole-network path; the win is
// that each subtask simulates only a shard's worth of devices, and a
// contained what-if re-runs only its touched shards.
type ShardVerifier struct {
	m         *Master
	snapKey   string
	net       *config.Network
	inputs    []netmodel.Route
	opts      core.Options
	numShards int
	maxRounds int

	part         *shard.Partition
	ecs          *ec.RouteECs
	repsByShard  [][]netmodel.Route
	baseIGP      *isis.Result
	baseState    *shard.State
	baseExpanded [][]netmodel.Route
	ownersByDev  map[string][]string
	met          *shard.Metrics

	// LastRounds and LastReused describe the most recent Base/WhatIf call.
	LastRounds int
	LastReused int
	// BaseFellBack records that the base fixpoint did not converge and the
	// whole-network path produced the base result.
	BaseFellBack bool
}

// NewShardVerifier prepares a sharded verification over one uploaded
// snapshot. numShards is clamped to the topology's region count; maxRounds
// <= 0 uses shard.DefaultMaxRounds. net must be the same network the
// snapshot encodes (the caller uploads it via UploadSnapshot).
func (m *Master) NewShardVerifier(snapKey string, net *config.Network, inputs []netmodel.Route, numShards, maxRounds int, opts core.Options) *ShardVerifier {
	if maxRounds <= 0 {
		maxRounds = shard.DefaultMaxRounds
	}
	return &ShardVerifier{
		m: m, snapKey: snapKey, net: net, inputs: inputs, opts: opts,
		numShards: numShards, maxRounds: maxRounds,
		part: shard.Compute(net.Topo, numShards),
		met:  shard.NewMetrics(m.reg),
	}
}

// Partition exposes the computed device partition.
func (v *ShardVerifier) Partition() *shard.Partition { return v.part }

// Metrics exposes the shard instrument bundle.
func (v *ShardVerifier) Metrics() *shard.Metrics { return v.met }

// ContractRoutes reports the converged base contract size (0 after a base
// fallback).
func (v *ShardVerifier) ContractRoutes() int {
	if v.baseState == nil {
		return 0
	}
	return v.baseState.ContractRoutes()
}

// runner builds a RoundFn that enqueues one shard subtask per dirty shard
// and waits for the round to finish. SubIDs are allocated from a sequence
// local to the task so every (taskID, "shard", sub) across rounds is unique,
// letting Wait count done records cumulatively.
func (v *ShardVerifier) runner(taskID string, downLinks []netmodel.LinkID, downNodes []string) shard.RoundFn {
	total := 0
	return func(round int, dirty []int, inbound [][]netmodel.BoundaryAdv) ([][]netmodel.BoundaryAdv, [][]netmodel.Route, error) {
		base := total
		for k, i := range dirty {
			sub := base + k
			var buf bytes.Buffer
			if err := wire.EncodeShardInput(&buf, &wire.ShardInput{
				Routes:  v.repsByShard[i],
				Inbound: inbound[i],
			}); err != nil {
				return nil, nil, err
			}
			ik := inputKey(taskID, "shard", sub)
			if err := v.m.svc.Store.Put(ik, buf.Bytes()); err != nil {
				return nil, nil, err
			}
			v.m.metrics.UploadBytes.Add(int64(buf.Len()))
			msg := SubtaskMsg{
				TaskID: taskID, Kind: "shard", SubID: sub,
				SnapshotKey: v.snapKey, InputKey: ik,
				ResultKey: resultKey(taskID, "shard", sub),
				Options:   v.opts,
				NumShards: v.part.NumShards(), ShardID: i, ShardRound: round,
				DownLinks: downLinks, DownNodes: downNodes,
			}
			rec := taskdb.Record{
				TaskID: taskID, Kind: "shard", SubID: sub,
				Status: taskdb.StatusPending, EnqueuedAt: time.Now(),
			}
			if err := v.m.enqueueSubtask(msg, rec, v.m.metrics.EnqueuedShard); err != nil {
				return nil, nil, err
			}
		}
		total += len(dirty)
		if err := v.m.Wait(taskID, "shard", total); err != nil {
			return nil, nil, err
		}
		exports := make([][]netmodel.BoundaryAdv, len(dirty))
		rows := make([][]netmodel.Route, len(dirty))
		for k := range dirty {
			data, err := v.m.svc.Store.Get(resultKey(taskID, "shard", base+k))
			if err != nil {
				return nil, nil, fmt.Errorf("loading shard result %d: %w", base+k, err)
			}
			res, err := wire.DecodeShardResult(bytes.NewReader(data))
			if err != nil {
				return nil, nil, err
			}
			exports[k] = res.Exports
			rows[k] = res.Rows
		}
		return exports, rows, nil
	}
}

// Base runs the base-network contract fixpoint across the fleet and writes
// the stitched global RIB as taskID's single route-result file. When the
// fixpoint does not converge within maxRounds it falls back to the
// whole-network distributed path (counted in shard_full_fallbacks_total),
// with fallbackSubtasks route subtasks; either way the result files are
// byte-identical to a whole-network run and the returned RouteTask feeds
// StartTrafficSimulation and CollectRouteResults unchanged.
func (v *ShardVerifier) Base(taskID string, fallbackSubtasks int) (*RouteTask, error) {
	prof := v.opts.Profiles
	if prof == nil {
		prof = vsb.Defaults()
	}
	reps := v.inputs
	if !v.opts.DisableRouteECs {
		v.ecs = ec.ComputeRouteECs(v.net, prof, v.inputs, v.opts.Parallelism)
		reps = v.ecs.Representatives()
	}
	v.repsByShard = make([][]netmodel.Route, v.part.NumShards())
	for _, r := range reps {
		i := v.part.ShardOf(r.Device)
		v.repsByShard[i] = append(v.repsByShard[i], r)
	}
	v.baseIGP = isis.Compute(v.net.Topo, isis.Options{
		UseTEMetric: v.opts.UseTEMetric,
		Parallelism: v.opts.Parallelism,
	})

	allDirty := make([]int, v.part.NumShards())
	for i := range allDirty {
		allDirty[i] = i
	}
	st, err := shard.Iterate(v.part, v.maxRounds, allDirty, nil, v.runner(taskID, nil, nil))
	if err != nil {
		return nil, err
	}
	v.met.Rounds.Add(int64(st.Rounds))
	v.met.SeamMismatches.Add(int64(st.SeamChanges))
	v.LastRounds = st.Rounds
	v.LastReused = 0
	if !st.Converged {
		v.met.FullFallbacks.Inc()
		v.BaseFellBack = true
		rt, err := v.m.StartRouteSimulation(taskID, v.snapKey, v.inputs, fallbackSubtasks, v.opts)
		if err != nil {
			return nil, err
		}
		if err := v.m.Wait(taskID, "route", rt.Subtasks); err != nil {
			return nil, err
		}
		return rt, nil
	}
	v.met.ContractRoutes.Set(float64(st.ContractRoutes()))
	v.baseState = st
	v.baseExpanded = make([][]netmodel.Route, st.NumShards)
	var preRows []netmodel.Route
	for i := range st.Rows {
		// Each cached segment is canonical (ExpandRows keeps the order), so
		// every later stitch is a merge of sorted runs.
		v.baseExpanded[i] = shard.ExpandRows(v.ecs, st.Rows[i])
		preRows = append(preRows, st.Rows[i]...)
	}
	v.ownersByDev = shard.NextHopOwners(v.net.Topo, preRows)
	return v.writeRouteResult(taskID, netmodel.MergeSortedRoutes(v.baseExpanded))
}

// WhatIf verifies one topology-delta scenario through the sharded path,
// writing its stitched rows as scenTaskID's single route-result file. The
// delta must be provably contained in its touched shards; otherwise
// shard.ErrNotContained is returned (with shard_full_fallbacks_total bumped)
// and the caller should run the scenario whole-network via
// StartRouteScenario. Only down-deltas ride the subtask messages, so
// repair (up) and input-route deltas always fall back.
func (v *ShardVerifier) WhatIf(scenTaskID string, delta core.Delta) (*RouteTask, error) {
	if v.baseState == nil {
		return nil, shard.ErrNotContained
	}
	if len(delta.LinksUp)+len(delta.NodesUp) > 0 {
		v.met.FullFallbacks.Inc()
		return nil, shard.ErrNotContained
	}
	touched, ok := shard.TouchedShards(v.part, delta)
	if !ok {
		v.met.FullFallbacks.Inc()
		return nil, shard.ErrNotContained
	}
	scratch := v.net.Clone()
	if _, err := delta.Apply(scratch); err != nil {
		return nil, fmt.Errorf("dsim: scenario: %w", err)
	}
	scenIGP := isis.Compute(scratch.Topo, isis.Options{
		UseTEMetric: v.opts.UseTEMetric,
		Parallelism: v.opts.Parallelism,
	})
	if !shard.Contained(v.net, v.part, touched, v.baseIGP, scenIGP, delta, v.ownersByDev) {
		v.met.FullFallbacks.Inc()
		return nil, shard.ErrNotContained
	}
	dirty := make([]int, 0, len(touched))
	for i := range touched {
		dirty = append(dirty, i)
	}
	slices.Sort(dirty)
	st, err := shard.Iterate(v.part, v.maxRounds, dirty, v.baseState,
		v.runner(scenTaskID, delta.LinksDown, delta.NodesDown))
	if err != nil {
		return nil, err
	}
	v.met.Rounds.Add(int64(st.Rounds))
	v.met.SeamMismatches.Add(int64(st.SeamChanges))
	v.LastRounds = st.Rounds
	if !st.Converged {
		v.met.FullFallbacks.Inc()
		return nil, shard.ErrNotContained
	}
	v.met.ContractRoutes.Set(float64(st.ContractRoutes()))
	segs := make([][]netmodel.Route, len(st.Rows))
	reused := 0
	for i := range st.Rows {
		if shard.SameRows(st.Rows[i], v.baseState.Rows[i]) {
			segs[i] = v.baseExpanded[i] // already sorted
			reused++
			continue
		}
		segs[i] = shard.ExpandRows(v.ecs, st.Rows[i])
	}
	v.LastReused = reused
	return v.writeRouteResult(scenTaskID, netmodel.MergeSortedRoutes(segs))
}

// writeRouteResult stores stitched, globally-sorted rows as the task's
// single route-result file and records a done route subtask covering their
// full address range, so traffic subtasks (ordering heuristic) and
// CollectRouteResults read the sharded result like any other route task.
func (v *ShardVerifier) writeRouteResult(taskID string, rows []netmodel.Route) (*RouteTask, error) {
	var buf bytes.Buffer
	if err := core.EncodeRoutes(&buf, rows); err != nil {
		return nil, err
	}
	if err := v.m.svc.Store.Put(resultKey(taskID, "route", 0), buf.Bytes()); err != nil {
		return nil, err
	}
	v.m.metrics.UploadBytes.Add(int64(buf.Len()))
	rec := taskdb.Record{
		TaskID: taskID, Kind: "route", SubID: 0, Status: taskdb.StatusDone,
		EnqueuedAt: time.Now(), FinishedAt: time.Now(),
	}
	var lo, hi netip.Addr
	for i := range rows {
		l := rows[i].Prefix.Masked().Addr()
		h := netmodel.LastAddr(rows[i].Prefix)
		if !lo.IsValid() || l.Compare(lo) < 0 {
			lo = l
		}
		if !hi.IsValid() || h.Compare(hi) > 0 {
			hi = h
		}
	}
	if lo.IsValid() {
		rec.RangeLo, rec.RangeHi = lo.String(), hi.String()
	}
	if err := v.m.svc.Tasks.Upsert(rec); err != nil {
		return nil, err
	}
	return &RouteTask{ID: taskID, SnapshotKey: v.snapKey, Subtasks: 1}, nil
}
