// Package isis simulates the WAN's link-state IGP: shortest-path-first
// computation with equal-cost multipath over the physical topology, including
// the IS-IS traffic-engineering metric extension (RFC 5305).
//
// The SPF result feeds three consumers: BGP best-path selection (IGP cost to
// the next hop), recursive next-hop resolution in the FIB, and SR tunnel
// path computation.
package isis

import (
	"context"
	"slices"

	"hoyan/internal/netmodel"
	"hoyan/internal/par"
)

// Options tunes the SPF computation.
type Options struct {
	// Parallelism bounds the worker pool running per-source Dijkstra
	// (par conventions: 0 = GOMAXPROCS, 1 = sequential).
	Parallelism int

	// Ctx, when non-nil, is polled before each per-source Dijkstra; once it
	// is done the remaining sources return empty rows and the (incomplete)
	// result must be discarded by the caller.
	Ctx context.Context
}

// ctxDone reports whether opts carries a cancelled context.
func (o Options) ctxDone() bool {
	return o.Ctx != nil && o.Ctx.Err() != nil
}

// FirstHop is one equal-cost first hop from a source toward a destination.
type FirstHop struct {
	Device string          // neighbor device
	Link   netmodel.LinkID // link from the source to Device
}

// infCost is the unreachable sentinel in flat distance rows.
const infCost = ^uint32(0)

// Result holds the all-pairs SPF outcome as flat per-DevID rows over the
// topology's CSR index: fdist[src][dst] is the distance (infCost =
// unreachable, nil row = source down/unknown) and fhops[src][dst] the sorted
// CSR edge positions of the ECMP first hops.
type Result struct {
	idx   *netmodel.TopoIndex
	fdist [][]uint32
	fhops [][][]int32
}

// Compute runs Dijkstra from every up node of the topology. Sources are
// independent, so they fan out over Options.Parallelism workers; each worker
// fills only its own source's rows, so the outcome is identical at any
// parallelism.
func Compute(topo *netmodel.Topology, opts Options) *Result {
	ix := topo.Index()
	var srcs []netmodel.DevID
	for i := 0; i < ix.NumDevices(); i++ {
		if ix.Node(netmodel.DevID(i)).Up {
			srcs = append(srcs, netmodel.DevID(i))
		}
	}
	return solve(ix, srcs, opts)
}

// solve returns a result over ix with a Dijkstra run for every source in
// srcs and no rows for any other.
func solve(ix *netmodel.TopoIndex, srcs []netmodel.DevID, opts Options) *Result {
	n := ix.NumDevices()
	r := &Result{idx: ix, fdist: make([][]uint32, n), fhops: make([][][]int32, n)}
	type perSrc struct {
		dist []uint32
		hops [][]int32
	}
	slots := par.Map(opts.Parallelism, len(srcs), func(i int) perSrc {
		if opts.ctxDone() {
			return perSrc{}
		}
		dist, hops := sssp(ix, srcs[i], opts)
		return perSrc{dist: dist, hops: hops}
	})
	for i, sid := range srcs {
		r.fdist[sid] = slots[i].dist
		r.fhops[sid] = slots[i].hops
	}
	return r
}

// pqItem / pq is a hand-rolled binary heap over dense IDs; container/heap
// boxes every push through an interface, which shows up at WAN scale.
// Tie-break by DevID == tie-break by device name.
type pqItem struct {
	dev  netmodel.DevID
	dist uint32
}

type pq []pqItem

func (q pq) less(i, j int) bool {
	if q[i].dist != q[j].dist {
		return q[i].dist < q[j].dist
	}
	return q[i].dev < q[j].dev
}

func (q *pq) push(it pqItem) {
	*q = append(*q, it)
	i := len(*q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !q.less(i, p) {
			break
		}
		(*q)[i], (*q)[p] = (*q)[p], (*q)[i]
		i = p
	}
}

func (q *pq) pop() pqItem {
	h := *q
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	*q = h[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		s := i
		if l < n && (*q).less(l, s) {
			s = l
		}
		if r < n && (*q).less(r, s) {
			s = r
		}
		if s == i {
			break
		}
		h[i], h[s] = h[s], h[i]
		i = s
	}
	return top
}

// sssp is single-source shortest paths with ECMP first-hop tracking over the
// CSR index. First hops are stored as CSR edge positions of the source's own
// adjacency row, kept sorted ascending at the end — ascending position order
// is (neighbor name, link) order.
func sssp(ix *netmodel.TopoIndex, src netmodel.DevID, opts Options) ([]uint32, [][]int32) {
	n := ix.NumDevices()
	dist := make([]uint32, n)
	for i := range dist {
		dist[i] = infCost
	}
	hops := make([][]int32, n)
	done := make([]bool, n)

	dist[src] = 0
	q := pq{{dev: src}}
	for len(q) > 0 {
		it := q.pop()
		if done[it.dev] || it.dist != dist[it.dev] {
			continue
		}
		done[it.dev] = true
		lo, hi := ix.EdgeRange(it.dev)
		for pos := lo; pos < hi; pos++ {
			if !ix.EdgeUp(pos) {
				continue
			}
			nb := ix.EdgeDev(pos)
			nd := it.dist + ix.EdgeCost(pos)
			old := dist[nb]
			switch {
			case nd < old: // infCost is the max uint32, so "unseen" folds in
				dist[nb] = nd
				hops[nb] = hopsVia(src, it.dev, pos, hops, nil)
				q.push(pqItem{dev: nb, dist: nd})
			case nd == old && old != infCost:
				hops[nb] = hopsVia(src, it.dev, pos, hops, hops[nb])
			}
		}
	}
	for d := range hops {
		slices.Sort(hops[d])
	}
	return dist, hops
}

// hopsVia merges the first hops for reaching a neighbor through `via` (edge
// position pos when via is the source itself, otherwise via's own first-hop
// set) into cur, deduplicating with a linear scan — hop sets are tiny, so
// this beats a map.
func hopsVia(src, via netmodel.DevID, pos int32, hops [][]int32, cur []int32) []int32 {
	if via == src {
		if cur == nil {
			return []int32{pos}
		}
		if !slices.Contains(cur, pos) {
			cur = append(cur, pos)
		}
		return cur
	}
	if cur == nil {
		return append([]int32(nil), hops[via]...)
	}
	for _, p := range hops[via] {
		if !slices.Contains(cur, p) {
			cur = append(cur, p)
		}
	}
	return cur
}

// EdgeIndex returns the topology index the result was computed against.
func (r *Result) EdgeIndex() *netmodel.TopoIndex { return r.idx }

// CostID is Cost over dense IDs, for hot paths that already hold them.
func (r *Result) CostID(src, dst netmodel.DevID) (uint32, bool) {
	if src == dst {
		return 0, true
	}
	row := r.fdist[src]
	if row == nil {
		return 0, false
	}
	d := row[dst]
	return d, d != infCost
}

// FirstHopEdges returns the ECMP first hops from src toward dst as CSR edge
// positions of src's adjacency row, sorted ascending (nil when unreachable or
// src == dst). The slice is shared; callers must not modify it.
func (r *Result) FirstHopEdges(src, dst netmodel.DevID) []int32 {
	rows := r.fhops[src]
	if rows == nil {
		return nil
	}
	return rows[dst]
}

// Cost returns the IGP metric from src to dst; ok is false when dst is
// unreachable.
func (r *Result) Cost(src, dst string) (uint32, bool) {
	if src == dst {
		return 0, true
	}
	sid, ok := r.idx.DevID(src)
	if !ok {
		return 0, false
	}
	did, ok := r.idx.DevID(dst)
	if !ok {
		return 0, false
	}
	return r.CostID(sid, did)
}

// FirstHops returns the ECMP first hops from src toward dst (nil when
// unreachable or src == dst), in (neighbor name, link) order.
func (r *Result) FirstHops(src, dst string) []FirstHop {
	sid, ok := r.idx.DevID(src)
	if !ok {
		return nil
	}
	did, ok := r.idx.DevID(dst)
	if !ok {
		return nil
	}
	ps := r.FirstHopEdges(sid, did)
	if len(ps) == 0 {
		return nil
	}
	out := make([]FirstHop, len(ps))
	for i, p := range ps {
		out[i] = FirstHop{
			Device: r.idx.DevName(r.idx.EdgeDev(p)),
			Link:   r.idx.LinkIDAt(r.idx.EdgeLinkIdx(p)),
		}
	}
	return out
}

// Reachable reports whether dst is reachable from src.
func (r *Result) Reachable(src, dst string) bool {
	_, ok := r.Cost(src, dst)
	return ok
}

// Path returns one concrete shortest path from src to dst as a hop list
// (device names), choosing the lexically first ECMP branch at each step.
// Used by SR tunnel materialization and diagnosis graphs.
func (r *Result) Path(src, dst string) []string {
	if src == dst {
		return []string{src}
	}
	if !r.Reachable(src, dst) {
		return nil
	}
	path := []string{src}
	cur := src
	for cur != dst {
		fhs := r.FirstHops(cur, dst)
		if len(fhs) == 0 {
			return nil
		}
		cur = fhs[0].Device
		path = append(path, cur)
		if len(path) > r.idx.NumDevices()+1 {
			return nil // defensive: must not happen on a consistent result
		}
	}
	return path
}

// Routes materializes IS-IS RIB entries on device src: one route per remote
// loopback, with one row per ECMP first hop, mirroring how the production
// system installs IGP routes alongside BGP ones. Destinations come in
// ascending DevID order, which is sorted-name order, and next-hop addresses
// (the neighbor-side interface address) straight off the first-hop edge's
// link.
func (r *Result) Routes(topo *netmodel.Topology, src string) []netmodel.Route {
	ix := r.idx
	sid, ok := ix.DevID(src)
	if topo.Node(src) == nil || !ok || r.fdist[sid] == nil {
		return nil
	}
	var out []netmodel.Route
	row := r.fdist[sid]
	attrs := &netmodel.Attrs{Preference: 15} // every row's, shared
	for did := 0; did < ix.NumDevices(); did++ {
		if netmodel.DevID(did) == sid || row[did] == infCost {
			continue
		}
		dn := ix.Node(netmodel.DevID(did))
		if !dn.Loopback.IsValid() {
			continue
		}
		p, err := dn.Loopback.Prefix(dn.Loopback.BitLen())
		if err != nil {
			continue
		}
		for _, pos := range r.fhops[sid][did] {
			l := ix.EdgeLink(pos)
			nh := l.AAddr
			if ix.EdgeFromA(pos) {
				nh = l.BAddr
			}
			out = append(out, netmodel.Route{
				Device:    src,
				VRF:       netmodel.DefaultVRF,
				Prefix:    p,
				Protocol:  netmodel.ProtoISIS,
				NextHop:   nh,
				IGPCost:   row[did],
				Attrs:     attrs,
				RouteType: netmodel.RouteBest,
				Peer:      ix.DevName(ix.EdgeDev(pos)),
				Source:    dn.Name,
			})
		}
	}
	return out
}
