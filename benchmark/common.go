package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"slices"
	"strings"

	"hoyan/internal/config"
	"hoyan/internal/core"
	"hoyan/internal/gen"
	"hoyan/internal/intent"
	"hoyan/internal/isis"
	"hoyan/internal/netmodel"
	"hoyan/internal/telemetry"
)

// ribDigest is the benchmark's own digest of a global RIB: sha256 over the
// length-prefixed binary signature of every row, in the RIB's canonical
// (sorted) order. Rows that netmodel.CompareRoutes cannot tell apart — it
// ignores attributes, so duplicate input routes produce such ties, and their
// relative order varies run to run — are ordered by signature first. It is
// deliberately not serve's lane-summed digest, so the two cannot share a bug.
func ribDigest(g *netmodel.GlobalRIB) string {
	h := sha256.New()
	var n [4]byte
	write := func(sig []byte) {
		binary.BigEndian.PutUint32(n[:], uint32(len(sig)))
		h.Write(n[:])
		h.Write(sig)
	}
	buf := netmodel.GetSigBuf()
	defer netmodel.PutSigBuf(buf)
	rows := g.Rows()
	for i := 0; i < len(rows); {
		j := i + 1
		for j < len(rows) && netmodel.CompareRoutes(rows[i], rows[j]) == 0 {
			j++
		}
		if j == i+1 {
			*buf = rows[i].AppendSignature((*buf)[:0])
			write(*buf)
		} else {
			tied := make([][]byte, 0, j-i)
			for k := i; k < j; k++ {
				tied = append(tied, rows[k].AppendSignature(nil))
			}
			slices.SortFunc(tied, bytes.Compare)
			for _, sig := range tied {
				write(sig)
			}
		}
		i = j
	}
	return hex.EncodeToString(h.Sum(nil))
}

// loadDigest hashes the link-load vector in link-name order, bit-exact.
func loadDigest(load netmodel.LinkLoad) string {
	ids := make([]netmodel.LinkID, 0, len(load))
	for id := range load {
		ids = append(ids, id)
	}
	slices.SortFunc(ids, func(a, b netmodel.LinkID) int { return strings.Compare(a.String(), b.String()) })
	h := sha256.New()
	var v [8]byte
	for _, id := range ids {
		h.Write([]byte(id.String()))
		binary.BigEndian.PutUint64(v[:], math.Float64bits(load[id]))
		h.Write(v[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

func bandwidths(net *config.Network) map[netmodel.LinkID]float64 {
	out := make(map[netmodel.LinkID]float64, len(net.Topo.Links()))
	for _, l := range net.Topo.Links() {
		out[l.ID()] = l.Bandwidth
	}
	return out
}

// snapshotOf is the intent-layer view of a simulation result, with an eager
// global RIB.
func snapshotOf(res *core.Result, bw map[netmodel.LinkID]float64) intent.Snapshot {
	snap := intent.Snapshot{RIB: res.Routes.GlobalRIB(), Bandwidth: bw}
	if res.Traffic != nil {
		snap.Paths = res.Traffic.Traffic.Paths
		snap.Load = res.Traffic.Traffic.Load
	}
	return snap
}

func verdicts(reports []intent.Report) string {
	var b strings.Builder
	for _, r := range reports {
		if r.Satisfied {
			b.WriteByte('S')
		} else {
			b.WriteByte('V')
		}
	}
	return b.String()
}

// span runs fn inside a child span of parent.
func span(tr *telemetry.Tracer, parent telemetry.SpanContext, name string, fn func()) {
	sp := tr.StartChild(parent, name)
	fn()
	sp.End()
}

// spanIndex answers the per-layer questions asked of a finished trace.
type spanIndex struct {
	spans    []telemetry.SpanRecord
	children map[string][]telemetry.SpanRecord
}

func indexSpans(spans []telemetry.SpanRecord) *spanIndex {
	ix := &spanIndex{spans: spans, children: map[string][]telemetry.SpanRecord{}}
	for _, s := range spans {
		if s.ParentID != "" {
			ix.children[s.ParentID] = append(ix.children[s.ParentID], s)
		}
	}
	return ix
}

// durations lists the wall time of every span called name, in seconds.
func (ix *spanIndex) durations(name string) []float64 {
	var out []float64
	for _, s := range ix.spans {
		if s.Name == name {
			out = append(out, s.Duration.Seconds())
		}
	}
	return out
}

// layerTimes sets m["<name>_s"] to the median wall time of the spans called
// name, for each name: span names are the per-layer metric names without the
// unit suffix.
func (ix *spanIndex) layerTimes(m map[string]float64, names ...string) {
	for _, name := range names {
		m[name+"_s"] = median(ix.durations(name))
	}
}

func asInterval(s telemetry.SpanRecord) interval {
	start := float64(s.Start.UnixNano()) / 1e9
	return interval{start, start + s.Duration.Seconds()}
}

// selfShares returns, for every span called name, its self time as a share of
// its duration: the part of the operation no layer span accounts for.
func (ix *spanIndex) selfShares(name string) []float64 {
	var out []float64
	for _, s := range ix.spans {
		if s.Name != name || s.Duration <= 0 {
			continue
		}
		kids := make([]interval, 0, len(ix.children[s.SpanID]))
		for _, c := range ix.children[s.SpanID] {
			kids = append(kids, asInterval(c))
		}
		out = append(out, selfTime(asInterval(s), kids)/s.Duration.Seconds())
	}
	return out
}

func share(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return part / whole
}

// forkTotals sums the ForkStats of a series of Engine.Fork calls.
type forkTotals struct {
	core.ForkStats
	forks, full int
}

func (t *forkTotals) add(st core.ForkStats) {
	t.forks++
	if st.Full {
		t.full++
	}
	t.SPFSources += st.SPFSources
	t.SPFReused += st.SPFReused
	t.BGPTablesTotal += st.BGPTablesTotal
	t.BGPTablesDirty += st.BGPTablesDirty
	t.BGPRounds += st.BGPRounds
	t.FlowsTotal += st.FlowsTotal
	t.FlowsReused += st.FlowsReused
}

// metrics are the fork engine's per-layer numbers: fork latency from the
// given durations, and how much of the base run the forks avoided redoing.
func (t *forkTotals) metrics(forkDurs []float64) map[string]float64 {
	return map[string]float64{
		"core.fork_s_p50":            median(forkDurs),
		"core.fork_s_p90":            percentile(forkDurs, 90),
		"isis.spf_reused_share":      share(float64(t.SPFReused), float64(t.SPFSources)),
		"bgp.tables_dirty_share":     share(float64(t.BGPTablesDirty), float64(t.BGPTablesTotal)),
		"bgp.warm_rounds":            share(float64(t.BGPRounds), float64(t.forks)),
		"traffic.flows_reused_share": share(float64(t.FlowsReused), float64(t.FlowsTotal)),
		"traffic.flows":              share(float64(t.FlowsTotal), float64(t.forks)),
		"core.full_fallbacks":        float64(t.full),
	}
}

// probeBase times, outside any operation, the two set-up layers every warm
// workload pays once: SPF and engine construction.
func probeBase(tr *telemetry.Tracer, probe telemetry.SpanContext, net *config.Network) {
	span(tr, probe, "isis.spf", func() { isis.Compute(net.Topo, isis.Options{}) })
	span(tr, probe, "core.new_engine", func() { core.NewEngine(net, core.Options{}) })
}

// fixtureInfo describes a generated fixture for the result file.
func fixtureInfo(name string, g *gen.Output) map[string]any {
	return map[string]any{
		"fixture": name, "devices": len(g.Net.Devices), "links": len(g.Net.Topo.Links()),
		"inputs": len(g.Inputs), "flows": len(g.Flows),
	}
}
