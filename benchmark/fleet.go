package main

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
	"time"

	"hoyan/internal/core"
	"hoyan/internal/gen"
	"hoyan/internal/intent"
	"hoyan/internal/isis"
	"hoyan/internal/pipeline"
)

const fleetWorkers = 2

// fleetOutput is what one distributed run produced.
type fleetOutput struct {
	ribRows    int
	ribDigest  string
	loadDigest string
	paths      int
}

// fleetInstance is fleet_run: one operation is a whole-network route +
// traffic simulation on a fresh two-worker local fleet over in-memory
// substrates, default subtask counts.
type fleetInstance struct {
	e     *env
	g     *gen.Output
	first fleetOutput      // the warm-up run's output; every later one must match
	snap  *intent.Snapshot // the warm-up run's state, for the cross-check and wire probes
	runs  int

	reports []pipeline.RunReport // of the traced runs
}

func setupFleet(e *env) (instance, error) {
	f := &fleetInstance{e: e, g: gen.Generate(wan8(e.seed))}
	snap, _, err := f.simulate(false)
	if err != nil {
		return nil, err
	}
	f.snap = snap
	f.first = fleetOutputOf(snap)
	return f, nil
}

func fleetOutputOf(snap *intent.Snapshot) fleetOutput {
	return fleetOutput{
		ribRows: snap.RIB.Len(), ribDigest: ribDigest(snap.RIB),
		loadDigest: loadDigest(snap.Load), paths: len(snap.Paths),
	}
}

func (f *fleetInstance) simulate(telemetry bool) (*intent.Snapshot, pipeline.RunReport, error) {
	sys := pipeline.New(f.g.Net, f.g.Inputs, f.g.Flows, core.Options{})
	sys.Workers = fleetWorkers
	sys.Telemetry = telemetry
	f.runs++
	snap, err := sys.Simulate("bench-" + strconv.Itoa(f.runs))
	return snap, sys.LastRunReport(), err
}

func (f *fleetInstance) check(snap *intent.Snapshot) error {
	if got := fleetOutputOf(snap); got != f.first {
		return fmt.Errorf("output differs from the first run: got %+v, want %+v", got, f.first)
	}
	return nil
}

func (f *fleetInstance) op(int) error {
	snap, _, err := f.simulate(false)
	if err != nil {
		return err
	}
	return f.check(snap)
}

// tracedOp switches the fleet's own telemetry on (a registry and tracer per
// role) and files the master's stage breakdown and every worker span under
// the operation's span.
func (f *fleetInstance) tracedOp(int) error {
	tr := f.e.tr
	root := tr.StartRoot("op")
	start := time.Now()
	snap, rep, err := f.simulate(true)
	root.End()
	if err != nil {
		return err
	}
	f.reports = append(f.reports, rep)
	// Stages run back to back on the master, so their starts follow from
	// their durations.
	at := start
	for _, st := range rep.Stages {
		tr.RecordSpan(root.Context(), "dsim."+st.Name, at, st.Duration)
		at = at.Add(st.Duration)
	}
	for _, s := range rep.Spans {
		tr.Record(s)
	}
	return f.check(snap)
}

// crossCheck compares the fleet's result with the centralized engine's: same
// RIB, same flow count, link loads equal up to summation order (the master
// adds per-subtask loads, the engine per-flow).
func (f *fleetInstance) crossCheck() error {
	res := core.NewEngine(f.g.Net, core.Options{}).Run(f.g.Inputs, f.g.Flows)
	rib := res.Routes.GlobalRIB()
	if got, want := f.first.ribRows, rib.Len(); got != want {
		return fmt.Errorf("fleet RIB has %d rows, centralized %d", got, want)
	}
	if got, want := f.first.ribDigest, ribDigest(rib); got != want {
		return fmt.Errorf("fleet RIB digest %s, centralized %s", got, want)
	}
	want := res.Traffic.Traffic.Load
	if len(f.snap.Load) != len(want) {
		return fmt.Errorf("fleet loads %d links, centralized %d", len(f.snap.Load), len(want))
	}
	for id, w := range want {
		if g := f.snap.Load[id]; math.Abs(g-w) > 1e-9*math.Max(math.Abs(w), 1) {
			return fmt.Errorf("link %s: fleet load %v, centralized %v", id, g, w)
		}
	}
	return nil
}

func (f *fleetInstance) layers() map[string]float64 {
	tr := f.e.tr
	probe := tr.StartRoot("probe").Context()
	span(tr, probe, "isis.spf", func() { isis.Compute(f.g.Net.Topo, isis.Options{}) })
	// The wire codec on its own, over the payloads a run moves: the global
	// RIB's rows and the network snapshot.
	rows := f.snap.RIB.Rows()
	var routes, snapshot bytes.Buffer
	span(tr, probe, "wire.encode_routes", func() { core.EncodeRoutes(&routes, rows) })
	routesBytes := routes.Len()
	span(tr, probe, "wire.decode_routes", func() { core.DecodeRoutes(&routes) })
	span(tr, probe, "wire.snapshot_encode", func() { core.TakeSnapshot(f.g.Net).Encode(&snapshot) })

	m := map[string]float64{
		"netmodel.rib_rows":   float64(f.first.ribRows),
		"traffic.flows":       float64(f.first.paths),
		"wire.routes_bytes":   float64(routesBytes),
		"wire.snapshot_bytes": float64(snapshot.Len()),
	}
	// Per run: the master's stages by name, and every span name's total over
	// the run — for the workers' stage spans that is time summed over all
	// subtasks (worker time, not wall time: workers overlap).
	perRun := map[string][]float64{}
	for _, rep := range f.reports {
		run := map[string]float64{}
		for _, st := range rep.Stages {
			run[st.Name] = st.Duration.Seconds()
		}
		for _, s := range rep.Spans {
			run[s.Name] += s.Duration.Seconds()
		}
		for name, v := range run {
			perRun[name] = append(perRun[name], v)
		}
	}
	for metric, name := range map[string]string{
		"dsim.upload_snapshot_s": "upload_snapshot", "dsim.route_wait_s": "route_wait",
		"dsim.route_collect_s": "route_collect", "dsim.traffic_wait_s": "traffic_wait",
		"dsim.traffic_collect_s": "traffic_collect", "dsim.worker_engine_s": "engine.run",
		"dsim.worker_encode_s": "result.encode", "dsim.worker_ribs_load_s": "ribs.load",
	} {
		m[metric] = median(perRun[name])
	}
	if n := len(f.reports); n > 0 {
		// Exact counts, identical run to run: the last run's.
		rep := f.reports[n-1]
		m["dsim.snapshot_cache_hit_share"] = share(float64(rep.Cache.SnapshotHits), float64(rep.Cache.SnapshotHits+rep.Cache.SnapshotMisses))
		m["dsim.rib_cache_hit_share"] = share(float64(rep.Cache.RIBFileHits), float64(rep.Cache.RIBFileHits+rep.Cache.RIBFileMisses))
		m["objstore.puts"] = float64(rep.Store.Puts)
		m["objstore.gets"] = float64(rep.Store.Gets)
		m["objstore.bytes_in"] = float64(rep.Store.BytesIn)
		m["objstore.bytes_out"] = float64(rep.Store.BytesOut)
		m["mq.pushed"] = float64(rep.Queue.Pushes)
	}
	ix := indexSpans(tr.Spans())
	m["trace.unattributed_share"] = median(ix.selfShares("op"))
	ix.layerTimes(m, "isis.spf", "wire.encode_routes", "wire.decode_routes", "wire.snapshot_encode")
	return m
}

func (f *fleetInstance) facts() map[string]string {
	return map[string]string{
		"rib_rows":    strconv.Itoa(f.first.ribRows),
		"rib_digest":  f.first.ribDigest,
		"load_digest": f.first.loadDigest,
		"flow_paths":  strconv.Itoa(f.first.paths),
	}
}

func (f *fleetInstance) info() map[string]any {
	info := fixtureInfo("wan8", f.g)
	info["workers"], info["rib_rows"] = fleetWorkers, f.first.ribRows
	return info
}

func (f *fleetInstance) close() {}
