package main

import (
	"fmt"
	"net/netip"
	"runtime"
	"strconv"
	"time"

	"hoyan/internal/config"
	"hoyan/internal/core"
	"hoyan/internal/gen"
	"hoyan/internal/intent"
	"hoyan/internal/isis"
	"hoyan/internal/kfail"
	"hoyan/internal/netmodel"
	"hoyan/internal/telemetry"
)

// kfailChunk is how many links one operation fails, one at a time. A whole
// sweep of the fixture's 169 links takes ~10 s on two cores — too long to
// repeat inside a run — so a run walks the sweep in 13 operations of 13 links
// and starts over: every link is still swept, in operations short enough to
// take a median over.
const kfailChunk = 13

// kfailInstance is kfail_sweep: one operation is a K=1 failure sweep
// (kfail.Check) over the next kfailChunk links of the fixture, each scenario a
// warm fork of a base run that was converged in set-up.
type kfailInstance struct {
	e       *env
	g       *gen.Output
	eng     *core.Engine
	base    *core.Result
	intents []intent.Intent

	chunks [][]kfail.Element
	// violations[c] is chunk c's violation count at its first sweep (-1 before);
	// every later sweep of the chunk must match.
	violations []int

	reg        *telemetry.Registry // incr_* counters of the traced sweeps
	checkWalls []float64           // wall time of each traced kfail.Check
}

func setupKfail(e *env) (instance, error) {
	k := &kfailInstance{e: e, g: gen.Generate(wan6(e.seed))}
	k.eng = core.NewEngine(k.g.Net, core.Options{})
	k.base = k.eng.BaseRun(k.g.Inputs, k.g.Flows)

	// The sweep's property: region 0's aggregate stays reachable on every
	// route reflector (reads the fork's merged global RIB), and no link runs
	// above the failure-free peak utilization (reads the fork's forwarding
	// result; a few failures do push one past it). Both are cheap to evaluate,
	// so a sweep measures the fork engine, not the intent language.
	var rrs []string
	for _, name := range k.g.Net.DeviceNames() {
		if len(name) > 3 && name[:3] == "rr-" {
			rrs = append(rrs, name)
		}
	}
	peak := 0.0
	for _, l := range k.g.Net.Topo.Links() {
		peak = max(peak, k.base.Traffic.Traffic.Load[l.ID()]/l.Bandwidth)
	}
	k.intents = []intent.Intent{
		intent.ReachIntent{Prefix: netip.MustParsePrefix("10.0.0.0/16"), Devices: rrs, Want: true},
		intent.LoadIntent{MaxUtilization: 1.001 * peak},
	}

	// Chunk c takes every n-th link of the topology's link list starting at c,
	// so each chunk spans every region and link kind and costs about the same;
	// the seed decides the order the chunks are swept in.
	links := k.g.Net.Topo.Links()
	n := (len(links) + kfailChunk - 1) / kfailChunk
	k.chunks = make([][]kfail.Element, n)
	order := e.rng("kfail-order").Perm(n)
	for i, l := range links {
		c := order[i%n]
		k.chunks[c] = append(k.chunks[c], kfail.Element{Link: l.ID()})
	}
	k.violations = make([]int, len(k.chunks))
	for c := range k.violations {
		k.violations[c] = -1
	}
	return k, k.op(0) // warm-up
}

func (k *kfailInstance) sweep(i int, o kfail.Options) error {
	c := i % len(k.chunks)
	o.K, o.Engine, o.Elements = 1, k.eng, k.chunks[c]
	res, err := kfail.Check(k.g.Net, k.g.Inputs, k.g.Flows, k.intents, o)
	if err != nil {
		return err
	}
	if res.Scenarios != len(k.chunks[c]) {
		return fmt.Errorf("chunk %d: swept %d scenarios, want %d", c, res.Scenarios, len(k.chunks[c]))
	}
	if k.violations[c] < 0 {
		k.violations[c] = len(res.Violations)
	}
	if len(res.Violations) != k.violations[c] {
		return fmt.Errorf("chunk %d: %d violations, its first sweep found %d", c, len(res.Violations), k.violations[c])
	}
	return nil
}

func (k *kfailInstance) op(i int) error { return k.sweep(i, kfail.Options{}) }

// tracedOp is the same sweep with kfail's own per-scenario spans and
// work-avoidance counters switched on.
func (k *kfailInstance) tracedOp(i int) error {
	if k.reg == nil {
		k.reg = telemetry.NewRegistry()
	}
	root := k.e.tr.StartRoot("op")
	start := time.Now()
	err := k.sweep(i, kfail.Options{Tracer: k.e.tr, Registry: k.reg})
	k.checkWalls = append(k.checkWalls, time.Since(start).Seconds())
	root.End()
	return err
}

// failLink takes one link down on scratch and returns the delta and the undo.
func failLink(scratch *config.Network, id netmodel.LinkID) (core.Delta, func()) {
	scratch.Topo.SetLinkUp(id, false)
	return core.Delta{LinksDown: []netmodel.LinkID{id}}, func() { scratch.Topo.SetLinkUp(id, true) }
}

// sampleLinks draws n distinct links of the fixture from the named stream.
func (k *kfailInstance) sampleLinks(stream string, n int) []netmodel.LinkID {
	links := k.g.Net.Topo.Links()
	var out []netmodel.LinkID
	for _, i := range k.e.rng(stream).Perm(len(links))[:min(n, len(links))] {
		out = append(out, links[i].ID())
	}
	return out
}

// crossCheck replays five seeded scenarios both ways: as a warm fork, and as
// a from-scratch engine on the failed topology (the path
// core.Options.DisableIncremental takes). RIB and link loads must agree.
func (k *kfailInstance) crossCheck() error {
	scratch := k.g.Net.Clone()
	for _, id := range k.sampleLinks("kfail-crosscheck", 5) {
		d, undo := failLink(scratch, id)
		warm, _ := k.eng.Fork(scratch, d)
		cold := core.NewEngine(scratch, core.Options{}).Run(k.g.Inputs, k.g.Flows)
		undo()
		if a, b := ribDigest(warm.Routes.GlobalRIB()), ribDigest(cold.Routes.GlobalRIB()); a != b {
			return fmt.Errorf("link %s down: warm fork RIB %s, from-scratch %s", id, a, b)
		}
		if a, b := loadDigest(warm.Traffic.Traffic.Load), loadDigest(cold.Traffic.Traffic.Load); a != b {
			return fmt.Errorf("link %s down: warm fork loads %s, from-scratch %s", id, a, b)
		}
	}
	return nil
}

// layers drives its own sequential fork loop over a seeded sample of links:
// from outside kfail.Check only whole scenarios are visible, here each public
// call of a scenario gets its span and its ForkStats.
func (k *kfailInstance) layers() map[string]float64 {
	tr := k.e.tr
	probe := tr.StartRoot("probe").Context()
	probeBase(tr, probe, k.g.Net)

	bw := bandwidths(k.g.Net)
	baseSnap := snapshotOf(k.base, bw)
	scratch := k.g.Net.Clone()
	var tot forkTotals
	for _, id := range k.sampleLinks("kfail-layers", 48) {
		sc := tr.StartRoot("scenario")
		d, undo := failLink(scratch, id)
		var res *core.Result
		var st core.ForkStats
		// One core per fork, as kfail.Check runs them under scenario workers.
		span(tr, sc.Context(), "core.fork", func() { res, st, _ = k.eng.ForkCtxN(nil, scratch, d, 1) })
		span(tr, sc.Context(), "netmodel.rib_merge", func() { res.Routes.GlobalRIB() })
		snap := snapshotOf(res, bw)
		span(tr, sc.Context(), "intent.verify", func() {
			intent.Verify(&intent.Context{Base: baseSnap, Updated: snap}, k.intents)
		})
		sc.End()
		// The fork's SPF step on its own: the same call Fork makes first.
		span(tr, probe, "isis.recompute", func() {
			isis.Recompute(scratch.Topo, k.eng.IGP(), isis.Delta{Links: d.LinksDown}, isis.Options{Parallelism: 1})
		})
		undo()
		tot.add(st)
	}

	ix := indexSpans(tr.Spans())
	m := tot.metrics(ix.durations("core.fork"))
	m["netmodel.rib_rows"] = float64(k.base.Routes.GlobalRIB().Len())
	if s, ok := k.reg.Gather().Find("incr_full_fallbacks_total"); ok {
		m["core.full_fallbacks"] += s.Value
	}
	// What kfail.Check adds around its forks, per operation: its wall time
	// minus the scenario spans it recorded spread over its scenario workers.
	if n := len(k.checkWalls); n > 0 {
		workers := float64(min(runtime.GOMAXPROCS(0), kfailChunk))
		m["kfail.overhead_s"] = (sum(k.checkWalls) - sum(ix.durations("kfail.scenario"))/workers) / float64(n)
	}
	ix.layerTimes(m, "isis.spf", "core.new_engine", "isis.recompute", "netmodel.rib_merge", "intent.verify")
	return m
}

func (k *kfailInstance) facts() map[string]string {
	scenarios, violations := 0, 0
	for c := range k.chunks {
		if k.violations[c] < 0 { // a short run may not have reached every chunk
			k.op(c)
		}
		scenarios += len(k.chunks[c])
		violations += k.violations[c]
	}
	return map[string]string{
		"base_rib_digest": ribDigest(k.base.Routes.GlobalRIB()),
		"base_rib_rows":   strconv.Itoa(k.base.Routes.GlobalRIB().Len()),
		"scenarios":       strconv.Itoa(scenarios),
		"violations":      strconv.Itoa(violations),
	}
}

func (k *kfailInstance) info() map[string]any {
	info := fixtureInfo("wan6", k.g)
	info["scenarios_per_op"], info["ops_per_sweep"] = kfailChunk, len(k.chunks)
	return info
}

func (k *kfailInstance) close() {}
