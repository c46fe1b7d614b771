package main

import (
	"fmt"
	"strconv"

	"hoyan/internal/bgp"
	"hoyan/internal/config"
	"hoyan/internal/core"
	"hoyan/internal/ec"
	"hoyan/internal/gen"
	"hoyan/internal/intent"
	"hoyan/internal/isis"
	"hoyan/internal/netmodel"
	"hoyan/internal/pipeline"
)

// coldIntents is what the audit checks: one RCL route intent, which holds,
// and one load intent, which the generated traffic violates on a few links —
// so verdict and counterexample output are both produced.
var coldIntents = []intent.Intent{
	intent.RouteIntent{Spec: "POST |> count() >= PRE |> count()"},
	intent.LoadIntent{MaxUtilization: 0.8},
}

// coldOutput is what one cold verification produced.
type coldOutput struct {
	ribRows    int
	ribDigest  string
	loadDigest string
	verdicts   string
}

// coldInstance is cold_verify: configuration texts in, audit verdict and RIB
// digest out — what `hoyan -configs` does, each operation from nothing.
type coldInstance struct {
	e     *env
	g     *gen.Output
	texts map[string]string
	bytes int
	first coldOutput // the warm-up operation's output; every later one must match

	// Work counters and RIB of the last traced operation.
	counts struct{ reduction, rounds, parRounds, imbalance, rows, flows float64 }
	rib    *netmodel.GlobalRIB
}

func setupCold(e *env) (instance, error) {
	c := &coldInstance{e: e, g: gen.Generate(wan10(e.seed))}
	c.texts = c.g.ConfigTexts()
	for _, t := range c.texts {
		c.bytes += len(t)
	}
	var err error
	if c.first, err = c.verify(); err != nil {
		return nil, err
	}
	return c, nil
}

// pairTopology is the model-building service's second input: the monitored
// topology the parsed configurations are paired with (§2.2).
func (c *coldInstance) pairTopology(n *config.Network) error {
	n.Topo = c.g.Net.Topo.Clone()
	return nil
}

// verify is the measured operation, through the pipeline's own entry point.
func (c *coldInstance) verify() (coldOutput, error) {
	net, err := config.BuildNetworkOpts(c.texts, c.pairTopology, config.BuildOptions{})
	if err != nil {
		return coldOutput{}, err
	}
	sys := pipeline.New(net, c.g.Inputs, c.g.Flows, core.Options{})
	reports, _ := sys.Audit(coldIntents)
	snap := sys.BaseSnapshot()
	return coldOutput{
		ribRows:    snap.RIB.Len(),
		ribDigest:  ribDigest(snap.RIB),
		loadDigest: loadDigest(snap.Load),
		verdicts:   verdicts(reports),
	}, nil
}

func (c *coldInstance) check(got coldOutput) error {
	if got != c.first {
		return fmt.Errorf("output differs from the first operation: got %+v, want %+v", got, c.first)
	}
	return nil
}

func (c *coldInstance) op(int) error {
	got, err := c.verify()
	if err != nil {
		return err
	}
	return c.check(got)
}

// tracedOp replaces Audit by the same sequence stitched from the layers'
// public calls, one span each, and must reproduce verify's output.
func (c *coldInstance) tracedOp(int) error {
	tr := c.e.tr
	root := tr.StartRoot("op")
	rc := root.Context()
	opts := core.Options{}

	var net *config.Network
	var err error
	span(tr, rc, "config.parse", func() {
		net, err = config.BuildNetworkOpts(c.texts, c.pairTopology, config.BuildOptions{})
	})
	if err != nil {
		root.End()
		return err
	}
	var eng *core.Engine
	span(tr, rc, "core.new_engine", func() { eng = core.NewEngine(net, opts) })
	var ecs *ec.RouteECs
	span(tr, rc, "ec.route_classes", func() {
		ecs = ec.ComputeRouteECs(net, eng.Profiles(), c.g.Inputs, opts.Parallelism)
	})
	var res *bgp.Result
	span(tr, rc, "bgp.fixpoint", func() {
		res = bgp.Simulate(net, eng.IGP(), ecs.Representatives(), bgp.Options{
			Profiles: eng.Profiles(), Parallelism: opts.Parallelism,
		})
	})
	span(tr, rc, "ec.expand", func() {
		for _, t := range res.Tables() {
			ecs.ExpandRIB(res.RIB(t.Device, t.VRF))
		}
	})
	routes := &core.RouteResult{BGP: res, ECStats: ecs}
	var rib *netmodel.GlobalRIB
	span(tr, rc, "netmodel.rib_merge", func() { rib = routes.GlobalRIB() })
	var traffic *core.TrafficResult
	span(tr, rc, "traffic.simulate", func() {
		traffic = eng.TrafficSimulation(routes, rib.Rows(), c.g.Flows)
	})
	snap := snapshotOf(&core.Result{Routes: routes, Traffic: traffic}, bandwidths(net))
	var reports []intent.Report
	span(tr, rc, "intent.verify", func() {
		reports, _ = intent.Verify(&intent.Context{Base: snap, Updated: snap}, coldIntents)
	})
	got := coldOutput{ribRows: rib.Len(), loadDigest: loadDigest(snap.Load), verdicts: verdicts(reports)}
	span(tr, rc, "netmodel.digest", func() { got.ribDigest = ribDigest(rib) })
	root.End()

	c.rib = rib
	c.counts.reduction = ecs.Reduction()
	c.counts.rounds = float64(res.Rounds)
	c.counts.parRounds = float64(res.Par.ParallelRounds)
	if res.Par.SumStripePairs > 0 {
		// Worst stripe over mean stripe, over all parallel rounds.
		c.counts.imbalance = float64(res.Par.MaxStripePairs) * float64(res.Par.Stripes) / float64(res.Par.SumStripePairs)
	}
	c.counts.rows = float64(rib.Len())
	c.counts.flows = float64(len(traffic.Traffic.Paths))
	return c.check(got)
}

// crossCheck has nothing independent of the engine to compare with (ROADMAP
// item 6); the golden digests for goldenSeed and op-to-op agreement are this
// workload's checks.
func (c *coldInstance) crossCheck() error { return nil }

func (c *coldInstance) layers() map[string]float64 {
	tr := c.e.tr
	// Probes outside any operation: layers the engine runs inside a call the
	// stitched sequence cannot split.
	probe := tr.StartRoot("probe").Context()
	span(tr, probe, "isis.spf", func() { isis.Compute(c.g.Net.Topo, isis.Options{}) })
	span(tr, probe, "ec.flow_classes", func() {
		ec.ComputeFlowECs(c.g.Net, ec.RIBPrefixes(c.rib.Rows()), c.g.Flows, 0)
	})

	ix := indexSpans(tr.Spans())
	m := map[string]float64{
		"config.bytes":             float64(c.bytes),
		"ec.route_reduction":       c.counts.reduction,
		"bgp.rounds":               c.counts.rounds,
		"bgp.par_rounds":           c.counts.parRounds,
		"bgp.stripe_imbalance":     c.counts.imbalance,
		"netmodel.rib_rows":        c.counts.rows,
		"traffic.flows":            c.counts.flows,
		"trace.unattributed_share": median(ix.selfShares("op")),
	}
	ix.layerTimes(m, "config.parse", "isis.spf", "core.new_engine", "ec.route_classes",
		"bgp.fixpoint", "ec.expand", "netmodel.rib_merge", "ec.flow_classes",
		"traffic.simulate", "intent.verify", "netmodel.digest")
	return m
}

func (c *coldInstance) facts() map[string]string {
	return map[string]string{
		"rib_rows":    strconv.Itoa(c.first.ribRows),
		"rib_digest":  c.first.ribDigest,
		"load_digest": c.first.loadDigest,
		"verdicts":    c.first.verdicts,
	}
}

func (c *coldInstance) info() map[string]any {
	info := fixtureInfo("wan10", c.g)
	info["config_bytes"], info["rib_rows"] = c.bytes, c.first.ribRows
	return info
}

func (c *coldInstance) close() {}
