package shard

import (
	"errors"

	"hoyan/internal/bgp"
	"hoyan/internal/config"
	"hoyan/internal/core"
	"hoyan/internal/ec"
	"hoyan/internal/netmodel"
	"hoyan/internal/par"
	"hoyan/internal/telemetry"
)

// ErrNotContained signals that a what-if delta cannot be proven to stay
// inside the touched shards (or that the contract fixpoint did not converge);
// the caller must take the whole-network path instead.
var ErrNotContained = errors.New("shard: delta not contained, take the whole-network path")

// Options configures the in-process sharded verifier.
type Options struct {
	// Shards is the requested shard count (clamped by Compute).
	Shards int
	// MaxRounds bounds the contract fixpoint (<=0: DefaultMaxRounds).
	MaxRounds int
	// Sim configures the underlying core engines.
	Sim core.Options
	// Registry receives the shard_* metrics (nil: detached).
	Registry *telemetry.Registry
}

// Engine runs sharded verification in process: the base network is verified
// once through the contract fixpoint, and intra-shard what-if deltas re-run
// only the touched shards against the warm-started contract state. Results
// are byte-identical to the whole-network core engine; the point is that
// each sealed run covers only a shard's worth of devices.
type Engine struct {
	net       *config.Network
	inputs    []netmodel.Route
	opts      core.Options
	part      *Partition
	maxRounds int
	met       *Metrics

	baseEng     *core.Engine
	ecs         *ec.RouteECs
	repsByShard [][]netmodel.Route
	baseState   *State
	baseRIB     *netmodel.GlobalRIB
	baseRows    []netmodel.Route
	// baseExpanded caches each shard's EC-expanded rows so untouched shards
	// stitch into what-if results without re-expanding.
	baseExpanded [][]netmodel.Route
	ownersByDev  map[string][]string
	baseFellBack bool
}

// New prepares a sharded engine over the base network snapshot.
func New(net *config.Network, inputs []netmodel.Route, opts Options) *Engine {
	return &Engine{
		net:       net,
		inputs:    inputs,
		opts:      opts.Sim,
		part:      Compute(net.Topo, opts.Shards),
		maxRounds: opts.MaxRounds,
		met:       NewMetrics(opts.Registry),
	}
}

// Partition exposes the computed device partition.
func (e *Engine) Partition() *Partition { return e.part }

// Metrics exposes the shard instruments.
func (e *Engine) Metrics() *Metrics { return e.met }

// splitReps partitions the representative input routes by originating device.
// Rows at devices outside the topology go to shard 0, where the seal skips
// them — exactly as the whole-network originate path would.
func (e *Engine) splitReps(reps []netmodel.Route) [][]netmodel.Route {
	out := make([][]netmodel.Route, e.part.NumShards())
	for _, r := range reps {
		i := e.part.ShardOf(r.Device)
		out[i] = append(out[i], r)
	}
	return out
}

// runner builds a RoundFn running sealed simulations on eng. Dirty shards of
// one contract round are mutually independent (each reads only its frozen
// inbound contract and writes its own indexed slot), so they fan out on the
// par pool under Options.Sim.Parallelism; within a shard, the sealed BGP
// fixpoint is sequential. Slot-indexed results keep the round
// outcome byte-identical however the shards interleave. Parallelism 1 is
// the sequential reference; the per-shard fleet parallelism of dsim is
// unaffected.
func (e *Engine) runner(eng *core.Engine) RoundFn {
	return func(round int, dirty []int, inbound [][]netmodel.BoundaryAdv) ([][]netmodel.BoundaryAdv, [][]netmodel.Route, error) {
		exports := make([][]netmodel.BoundaryAdv, len(dirty))
		rows := make([][]netmodel.Route, len(dirty))
		par.ForEach(e.opts.Parallelism, len(dirty), func(k int) {
			i := dirty[k]
			res := eng.RouteSimulationSealed(e.repsByShard[i], &bgp.Seal{
				Inside:  e.part.Members(i),
				Inbound: inbound[i],
			})
			exports[k] = res.BGP.BoundaryOut
			rows[k] = res.GlobalRIB().Rows()
		})
		return exports, rows, nil
	}
}

// Base runs the base-network contract fixpoint and stitches the global RIB.
// When the fixpoint does not converge within MaxRounds, it falls back to the
// whole-network engine (counted in shard_full_fallbacks_total); either way
// the returned RIB is byte-identical to core.Engine.RouteSimulation's.
func (e *Engine) Base() (*netmodel.GlobalRIB, error) {
	if e.baseRIB != nil {
		return e.baseRIB, nil
	}
	e.baseEng = core.NewEngine(e.net, e.opts)
	reps := e.inputs
	if !e.opts.DisableRouteECs {
		e.ecs = ec.ComputeRouteECs(e.net, e.baseEng.Profiles(), e.inputs, e.opts.Parallelism)
		reps = e.ecs.Representatives()
	}
	e.repsByShard = e.splitReps(reps)

	allDirty := make([]int, e.part.NumShards())
	for i := range allDirty {
		allDirty[i] = i
	}
	st, err := Iterate(e.part, e.maxRounds, allDirty, nil, e.runner(e.baseEng))
	if err != nil {
		return nil, err
	}
	e.met.Rounds.Add(int64(st.Rounds))
	e.met.SeamMismatches.Add(int64(st.SeamChanges))
	if !st.Converged {
		e.met.FullFallbacks.Inc()
		e.baseFellBack = true
		res := e.baseEng.RouteSimulation(e.inputs)
		e.baseRIB = res.GlobalRIB()
		e.baseRows = e.baseRIB.Rows()
		return e.baseRIB, nil
	}
	e.met.ContractRoutes.Set(float64(st.ContractRoutes()))
	e.baseState = st
	e.baseExpanded = make([][]netmodel.Route, st.NumShards)
	var preRows []netmodel.Route
	for i := range st.Rows {
		// Each cached segment is canonical (ExpandRows keeps the order), so
		// every later stitch is a merge of sorted runs.
		e.baseExpanded[i] = ExpandRows(e.ecs, st.Rows[i])
		preRows = append(preRows, st.Rows[i]...)
	}
	e.baseRIB = netmodel.NewGlobalRIBFromSorted(netmodel.MergeSortedRoutes(e.baseExpanded))
	e.baseRows = e.baseRIB.Rows()
	e.ownersByDev = NextHopOwners(e.net.Topo, preRows)
	return e.baseRIB, nil
}

// Result is the outcome of a contained what-if run.
type Result struct {
	// RIB is the stitched scenario global RIB, byte-identical to a
	// whole-network re-simulation of the scenario.
	RIB *netmodel.GlobalRIB
	// Eng is the scenario core engine (for traffic simulation).
	Eng *core.Engine
	// Rounds counts the contract rounds this what-if spent.
	Rounds int
	// ReusedShards counts shards whose base rows were stitched unchanged.
	ReusedShards int
}

// WhatIf re-verifies a topology-delta scenario through the sharded path:
// when the delta is contained in its touched shards, only those shards (plus
// any shard whose seam contract shifts) re-run sealed on the scenario
// engine, warm-started from the base contract state. scratch must be the
// base network with the delta already applied (the caller owns it for the
// duration). Returns ErrNotContained when the scenario must take the
// whole-network path.
func (e *Engine) WhatIf(scratch *config.Network, delta core.Delta) (*Result, error) {
	if e.baseState == nil {
		return nil, ErrNotContained
	}
	touched, ok := TouchedShards(e.part, delta)
	if !ok {
		e.met.FullFallbacks.Inc()
		return nil, ErrNotContained
	}
	scenEng := core.NewEngine(scratch, e.opts)
	if !Contained(e.net, e.part, touched, e.baseEng.IGP(), scenEng.IGP(), delta, e.ownersByDev) {
		e.met.FullFallbacks.Inc()
		return nil, ErrNotContained
	}
	var dirty []int
	for i := 0; i < e.part.NumShards(); i++ {
		if touched[i] {
			dirty = append(dirty, i)
		}
	}
	st, err := Iterate(e.part, e.maxRounds, dirty, e.baseState, e.runner(scenEng))
	if err != nil {
		return nil, err
	}
	e.met.Rounds.Add(int64(st.Rounds))
	e.met.SeamMismatches.Add(int64(st.SeamChanges))
	if !st.Converged {
		e.met.FullFallbacks.Inc()
		return nil, ErrNotContained
	}
	e.met.ContractRoutes.Set(float64(st.ContractRoutes()))
	segs := make([][]netmodel.Route, len(st.Rows))
	reused := 0
	for i := range st.Rows {
		if SameRows(st.Rows[i], e.baseState.Rows[i]) {
			segs[i] = e.baseExpanded[i] // already sorted
			reused++
			continue
		}
		segs[i] = ExpandRows(e.ecs, st.Rows[i])
	}
	return &Result{
		RIB:          netmodel.NewGlobalRIBFromSorted(netmodel.MergeSortedRoutes(segs)),
		Eng:          scenEng,
		Rounds:       st.Rounds,
		ReusedShards: reused,
	}, nil
}

// SameRows reports whether two slices share identity (same backing array,
// length, and offset) — the marker Iterate leaves on shards it never re-ran.
func SameRows(a, b []netmodel.Route) bool {
	if len(a) != len(b) {
		return false
	}
	return len(a) == 0 || &a[0] == &b[0]
}

// ExpandRows applies the EC expansion to flat per-shard rows by
// reconstructing the per-(device, vrf) tables and expanding each — the same
// clones core.Engine.RouteSimulation installs on its live tables, so the
// stitched multiset matches the whole-network run's. rows must be in
// canonical order (every sealed run emits them so); the result then is too:
// tables come back in the order they first appear and each is emitted
// through RIB.AppendSorted, so no stitch path sorts a segment again.
func ExpandRows(ecs *ec.RouteECs, rows []netmodel.Route) []netmodel.Route {
	if ecs == nil || len(rows) == 0 {
		return rows
	}
	type tk struct{ dev, vrf string }
	ribs := make(map[tk]*netmodel.RIB)
	var order []tk
	for _, r := range rows {
		k := tk{r.Device, r.VRF}
		t, ok := ribs[k]
		if !ok {
			t = netmodel.NewRIB(r.Device, r.VRF)
			ribs[k] = t
			order = append(order, k)
		}
		t.Add(r)
	}
	var out []netmodel.Route
	for _, k := range order {
		t := ribs[k]
		ecs.ExpandRIB(t)
		out = t.AppendSorted(out)
	}
	return out
}
