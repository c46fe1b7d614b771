package isis

import (
	"slices"

	"hoyan/internal/netmodel"
)

// Delta describes a topology change relative to the base SPF result: links
// whose Up flag flipped plus nodes that went down or came up. The topology
// passed to Recompute must already reflect the new state.
type Delta struct {
	// Links are the IDs of links whose Up state changed (either direction).
	Links []netmodel.LinkID
	// NodesDown / NodesUp are routers whose Up state flipped.
	NodesDown []string
	NodesUp   []string
}

// ReuseStats reports how much of the base result an incremental recompute
// could keep.
type ReuseStats struct {
	Sources    int // up sources in the new topology
	Reused     int // sources whose base per-source result was copied
	Recomputed int // sources re-run from scratch
}

// Diff compares one source's view between two results. distChanged holds
// destinations whose distance differs (including appearing or disappearing) —
// the only IGP input to BGP next-hop resolution. hopsChanged holds those
// whose ECMP first-hop set differs — the only IGP input to forwarding. The
// results' indexes may be distinct instances (forked topologies), but Up-flag
// deltas never change the device or link sets, so dense IDs and CSR edge
// positions are directly comparable.
func Diff(base, cur *Result, src string) (distChanged, hopsChanged map[string]bool) {
	nameOf := func(i int) string {
		if i < cur.idx.NumDevices() {
			return cur.idx.DevName(netmodel.DevID(i))
		}
		return base.idx.DevName(netmodel.DevID(i))
	}
	var brow, crow []uint32
	var bh, ch [][]int32
	if sid, ok := base.idx.DevID(src); ok {
		brow, bh = base.fdist[sid], base.fhops[sid]
	}
	if sid, ok := cur.idx.DevID(src); ok {
		crow, ch = cur.fdist[sid], cur.fhops[sid]
	}
	mark := func(set *map[string]bool, i int) {
		if *set == nil {
			*set = make(map[string]bool)
		}
		(*set)[nameOf(i)] = true
	}
	for i := 0; i < max(len(brow), len(crow)); i++ {
		if at(brow, i, infCost) != at(crow, i, infCost) {
			mark(&distChanged, i)
		}
	}
	for i := 0; i < max(len(bh), len(ch)); i++ {
		if !slices.Equal(at(bh, i, nil), at(ch, i, nil)) {
			mark(&hopsChanged, i)
		}
	}
	return distChanged, hopsChanged
}

// DiffByName is Diff for results over topologies that differ in more than Up
// flags (devices or links added, removed or re-costed): destinations match by
// device name and first hops by (neighbor, link), not by dense ID and edge
// position.
func DiffByName(base, cur *Result, src string) (distChanged, hopsChanged map[string]bool) {
	distChanged, hopsChanged = make(map[string]bool), make(map[string]bool)
	for _, r := range []*Result{base, cur} {
		for i := range r.idx.NumDevices() {
			dst := r.idx.DevName(netmodel.DevID(i))
			bc, bok := base.Cost(src, dst)
			cc, cok := cur.Cost(src, dst)
			if bok != cok || bc != cc {
				distChanged[dst] = true
			}
			if !slices.Equal(base.FirstHops(src, dst), cur.FirstHops(src, dst)) {
				hopsChanged[dst] = true
			}
		}
	}
	return distChanged, hopsChanged
}

// at returns row[i], or missing past the row's end.
func at[T any](row []T, i int, missing T) T {
	if i < len(row) {
		return row[i]
	}
	return missing
}

// Recompute derives the SPF result of the changed topology from a base
// result, re-running Dijkstra only for sources whose shortest-path DAG the
// delta can touch and sharing the base per-source rows for everyone else
// (the Result accessors are read-only, so sharing is safe).
//
// The touched test is conservative but exact in the failure direction: a
// removed edge changes a source's distances or ECMP first-hop sets only if it
// was tight (dist[s][A] + cost(A→B) == dist[s][B] in either direction), and a
// restored edge only if it creates an equal-or-better path to one endpoint.
// Any node coming up falls back to a full recompute — new sources invalidate
// every DAG bound through them only rarely, and change plans that re-enable
// routers are not a hot path.
//
// It returns the new result, the set of touched sources (everything the
// delta tests flagged, including sources that are themselves down now, plus
// up sources absent from the base), and the reuse statistics.
func Recompute(topo *netmodel.Topology, base *Result, d Delta, opts Options) (*Result, map[string]bool, ReuseStats) {
	ix := topo.Index()
	n := ix.NumDevices()
	var srcs []netmodel.DevID
	for i := 0; i < n; i++ {
		if ix.Node(netmodel.DevID(i)).Up {
			srcs = append(srcs, netmodel.DevID(i))
		}
	}
	if base == nil || len(d.NodesUp) > 0 {
		touched := make(map[string]bool, len(srcs))
		for _, sid := range srcs {
			touched[ix.DevName(sid)] = true
		}
		return solve(ix, srcs, opts), touched, ReuseStats{Sources: len(srcs), Recomputed: len(srcs)}
	}

	touched := make(map[netmodel.DevID]bool)
	// A downed node touches every source that could reach it (their DAGs may
	// route through it, and its disappearance as a destination matters to
	// consumers either way).
	for _, x := range d.NodesDown {
		xid, ok := ix.DevID(x)
		if !ok {
			continue
		}
		for s, row := range base.fdist {
			if row != nil && int(xid) < len(row) && row[xid] != infCost {
				touched[netmodel.DevID(s)] = true
			}
		}
	}
	for _, id := range d.Links {
		l := topo.Link(id)
		if l == nil {
			continue
		}
		aid, aok := ix.DevID(l.A)
		bid, bok := ix.DevID(l.B)
		if !aok || !bok {
			continue
		}
		cAB := l.DirCost(l.A)
		cBA := l.DirCost(l.B)
		for s, row := range base.fdist {
			sid := netmodel.DevID(s)
			if row == nil || touched[sid] {
				continue
			}
			dA, dB := row[aid], row[bid]
			okA, okB := dA != infCost, dB != infCost
			if l.Up {
				// Link restored: it matters when it offers an equal-or-better
				// path to either endpoint (equal matters too — ECMP first-hop
				// sets grow on ties) or reaches a previously cut-off endpoint.
				if okA && (!okB || dA+cAB <= dB) {
					touched[sid] = true
				} else if okB && (!okA || dB+cBA <= dA) {
					touched[sid] = true
				}
			} else if okA && okB && (dA+cAB == dB || dB+cBA == dA) {
				// Link failed: only tight edges appear in any shortest-path
				// DAG; removing a slack edge changes nothing.
				touched[sid] = true
			}
		}
	}

	var redo, reuse []netmodel.DevID
	for _, sid := range srcs {
		if !touched[sid] && int(sid) < len(base.fdist) && base.fdist[sid] != nil {
			reuse = append(reuse, sid)
			continue
		}
		touched[sid] = true
		redo = append(redo, sid)
	}
	r := solve(ix, redo, opts)
	for _, sid := range reuse {
		r.fdist[sid], r.fhops[sid] = base.fdist[sid], base.fhops[sid]
	}
	touchedNames := make(map[string]bool, len(touched))
	for sid := range touched {
		if int(sid) < n {
			touchedNames[ix.DevName(sid)] = true
		}
	}
	return r, touchedNames, ReuseStats{Sources: len(srcs), Reused: len(reuse), Recomputed: len(redo)}
}
