package main

import (
	"fmt"
	"net/netip"
	"strconv"
	"strings"

	"hoyan/internal/change"
	"hoyan/internal/core"
	"hoyan/internal/ec"
	"hoyan/internal/gen"
	"hoyan/internal/intent"
	"hoyan/internal/netmodel"
)

const (
	churnDeltas = 8  // distinct input deltas a run cycles through
	churnSize   = 10 // routes dropped and prefixes added per delta
)

var churnIntents = []intent.Intent{
	intent.RouteIntent{Spec: "POST |> count() >= PRE |> count()"},
	intent.LoadIntent{MaxUtilization: 0.8},
}

// churnInstance is route_churn: one operation forks the converged base under
// an input-route delta (no topology change), materializes the global RIB,
// checks intents against (base, updated) and digests the result.
type churnInstance struct {
	e        *env
	g        *gen.Output
	eng      *core.Engine
	base     *core.Result
	bw       map[netmodel.LinkID]float64
	baseSnap intent.Snapshot

	deltas []core.Delta
	// first[d] is delta d's output at its first occurrence; repeats must agree.
	first [churnDeltas]string
	tot   forkTotals // ForkStats of the traced operations
}

func setupChurn(e *env) (instance, error) {
	c := &churnInstance{e: e, g: gen.Generate(wan6(e.seed))}
	c.eng = core.NewEngine(c.g.Net, core.Options{})
	c.base = c.eng.BaseRun(c.g.Inputs, c.g.Flows)
	c.bw = bandwidths(c.g.Net)
	c.baseSnap = snapshotOf(c.base, c.bw)

	// Each delta withdraws churnSize seeded input routes and announces
	// churnSize prefixes the network has never seen (10.(100+d).j.0/24, outside
	// every region's aggregate), cloned from a seeded DC route so they travel
	// the long DC propagation path.
	rnd := e.rng("churn")
	var dcRoutes []netmodel.Route
	for _, r := range c.g.Inputs {
		if strings.HasPrefix(r.Device, "dc-") {
			dcRoutes = append(dcRoutes, r)
		}
	}
	for d := 0; d < churnDeltas; d++ {
		var delta core.Delta
		for _, i := range rnd.Perm(len(c.g.Inputs))[:churnSize] {
			delta.DropInputs = append(delta.DropInputs, c.g.Inputs[i])
		}
		for j := 0; j < churnSize; j++ {
			r := dcRoutes[rnd.Intn(len(dcRoutes))]
			r.Prefix = netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(100 + d), byte(j), 0}), 24)
			delta.AddInputs = append(delta.AddInputs, r)
		}
		c.deltas = append(c.deltas, delta)
	}
	return c, c.op(0) // warm-up
}

func churnOutput(res *core.Result, reports []intent.Report) string {
	return ribDigest(res.Routes.GlobalRIB()) + "/" + loadDigest(res.Traffic.Traffic.Load) + "/" + verdicts(reports)
}

func (c *churnInstance) check(d int, got string) error {
	if c.first[d] == "" {
		c.first[d] = got
	}
	if got != c.first[d] {
		return fmt.Errorf("delta %d: output %s differs from its first occurrence %s", d, got, c.first[d])
	}
	return nil
}

func (c *churnInstance) op(i int) error {
	d := i % churnDeltas
	res, _ := c.eng.Fork(c.g.Net, c.deltas[d])
	snap := snapshotOf(res, c.bw) // materializes the fork's global RIB
	reports, _ := intent.Verify(&intent.Context{Base: c.baseSnap, Updated: snap}, churnIntents)
	return c.check(d, churnOutput(res, reports))
}

func (c *churnInstance) tracedOp(i int) error {
	tr := c.e.tr
	d := i % churnDeltas
	root := tr.StartRoot("op")
	rc := root.Context()
	var res *core.Result
	var st core.ForkStats
	span(tr, rc, "core.fork", func() { res, st = c.eng.Fork(c.g.Net, c.deltas[d]) })
	span(tr, rc, "netmodel.rib_merge", func() { res.Routes.GlobalRIB() })
	snap := snapshotOf(res, c.bw)
	var reports []intent.Report
	span(tr, rc, "intent.verify", func() {
		reports, _ = intent.Verify(&intent.Context{Base: c.baseSnap, Updated: snap}, churnIntents)
	})
	var got string
	span(tr, rc, "netmodel.digest", func() { got = churnOutput(res, reports) })
	root.End()
	c.tot.add(st)
	return c.check(d, got)
}

// edited applies a delta to the base inputs the way the engine does, through
// the change plan's own rule (drop by route key, then append).
func (c *churnInstance) edited(d core.Delta) []netmodel.Route {
	plan := change.Plan{NewInputs: d.AddInputs, DropInputs: d.DropInputs}
	return plan.ApplyInputs(c.g.Inputs)
}

// crossCheck re-runs three of the deltas from scratch — a new engine over the
// edited input set — and compares with the fork's output.
func (c *churnInstance) crossCheck() error {
	for _, d := range c.e.rng("churn-crosscheck").Perm(churnDeltas)[:3] {
		if err := c.op(d); err != nil { // the fork's side, recorded in c.first[d]
			return err
		}
		res := core.NewEngine(c.g.Net, core.Options{}).Run(c.edited(c.deltas[d]), c.g.Flows)
		snap := snapshotOf(res, c.bw)
		reports, _ := intent.Verify(&intent.Context{Base: c.baseSnap, Updated: snap}, churnIntents)
		if got := churnOutput(res, reports); got != c.first[d] {
			return fmt.Errorf("delta %d: from-scratch run gives %s, fork gave %s", d, got, c.first[d])
		}
	}
	return nil
}

func (c *churnInstance) layers() map[string]float64 {
	tr := c.e.tr
	probe := tr.StartRoot("probe").Context()
	probeBase(tr, probe, c.g.Net)
	// Calls a fork makes inside itself, or a service makes on its result,
	// repeated here on their own for every delta.
	var reduction float64
	baseRIB := c.base.Routes.GlobalRIB()
	for _, d := range c.deltas {
		inputs := c.edited(d)
		span(tr, probe, "ec.route_classes", func() {
			reduction = ec.ComputeRouteECs(c.g.Net, c.eng.Profiles(), inputs, 0).Reduction()
		})
		res, _ := c.eng.Fork(c.g.Net, d)
		span(tr, probe, "netmodel.diff", func() { baseRIB.Diff(res.Routes.GlobalRIB()) })
	}

	ix := indexSpans(tr.Spans())
	m := c.tot.metrics(ix.durations("core.fork"))
	m["ec.route_reduction"] = reduction
	m["netmodel.rib_rows"] = float64(baseRIB.Len())
	m["trace.unattributed_share"] = median(ix.selfShares("op"))
	ix.layerTimes(m, "isis.spf", "core.new_engine", "ec.route_classes", "netmodel.rib_merge",
		"intent.verify", "netmodel.digest", "netmodel.diff")
	return m
}

func (c *churnInstance) facts() map[string]string {
	f := map[string]string{
		"base_rib_digest": ribDigest(c.base.Routes.GlobalRIB()),
		"base_rib_rows":   strconv.Itoa(c.base.Routes.GlobalRIB().Len()),
	}
	for d := range c.first {
		if c.first[d] == "" { // a short run may not have reached every delta
			c.op(d)
		}
		f["delta_"+strconv.Itoa(d)] = c.first[d]
	}
	return f
}

func (c *churnInstance) info() map[string]any {
	info := fixtureInfo("wan6", c.g)
	info["deltas"], info["delta_size"] = churnDeltas, churnSize
	return info
}

func (c *churnInstance) close() {}
