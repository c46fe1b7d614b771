package wire

import (
	"bufio"
	"cmp"
	"fmt"
	"io"
	"slices"
	"strings"

	"hoyan/internal/netmodel"
)

// ---------------------------------------------------------------- routes

// EncodeRoutes writes route rows as an uncompressed binary frame: rows are
// dense after interning, so decode speed wins over size.
func EncodeRoutes(w io.Writer, routes []netmodel.Route) error {
	return encodeFrame(w, KindRoutes, false, func(e *encoder) {
		e.uvarint(uint64(len(routes)))
		for i := range routes {
			e.route(&routes[i])
		}
	})
}

func (e *encoder) route(r *netmodel.Route) {
	e.str(r.Device)
	e.str(r.VRF)
	e.prefix(r.Prefix)
	e.byte(byte(r.Protocol))
	e.addr(r.NextHop)
	a := r.Attr()
	e.communities(a.Communities)
	e.uvarint(uint64(a.LocalPref))
	e.uvarint(uint64(a.MED))
	e.uvarint(uint64(a.Weight))
	e.uvarint(uint64(a.Preference))
	e.asPath(a.ASPath)
	e.byte(byte(a.Origin))
	e.uvarint(uint64(r.IGPCost))
	e.byte(byte(r.RouteType))
	e.bool(r.ViaSR)
	e.str(r.Peer)
	e.str(r.Source)
}

// DecodeRoutes reads a route file written by EncodeRoutes.
func DecodeRoutes(r io.Reader) ([]netmodel.Route, error) {
	br := bufio.NewReader(r)
	d, err := decodeFrame(br, KindRoutes)
	if err != nil {
		return nil, err
	}
	n, err := d.uvarint()
	if err != nil {
		return nil, fmt.Errorf("wire: decoding routes: %w", err)
	}
	out := make([]netmodel.Route, 0, min(n, preallocCap))
	for i := uint64(0); i < n; i++ {
		rt, err := d.route()
		if err != nil {
			return nil, fmt.Errorf("wire: decoding route %d/%d: %w", i, n, err)
		}
		out = append(out, rt)
	}
	if err := d.end(); err != nil {
		return nil, err
	}
	return out, nil
}

func (d *decoder) route() (netmodel.Route, error) {
	var r netmodel.Route
	var err error
	read := func(f func() error) {
		if err == nil {
			err = f()
		}
	}
	read(func() (e error) { r.Device, e = d.str(); return })
	read(func() (e error) { r.VRF, e = d.str(); return })
	read(func() (e error) { r.Prefix, e = d.prefix(); return })
	read(func() (e error) {
		b, e := d.byte()
		r.Protocol = netmodel.Protocol(b)
		return e
	})
	read(func() (e error) { r.NextHop, e = d.addr(); return })
	read(func() (e error) { r.Attrs, e = d.attrs(); return })
	read(func() (e error) { r.IGPCost, e = d.u32(); return })
	read(func() (e error) {
		b, e := d.byte()
		r.RouteType = netmodel.RouteType(b)
		return e
	})
	read(func() (e error) { r.ViaSR, e = d.bool(); return })
	read(func() (e error) { r.Peer, e = d.str(); return })
	read(func() (e error) { r.Source, e = d.str(); return })
	return r, err
}

// attrs reads a row's attribute set. Rows whose encoded attributes repeat
// share the set decoded first, so a frame allocates one set per distinct
// tuple, not per row; the zero tuple decodes to nil, the zero set.
func (d *decoder) attrs() (*netmodel.Attrs, error) {
	var k attrKey
	var err error
	read := func(f func() error) {
		if err == nil {
			err = f()
		}
	}
	read(func() (e error) { k.comms, e = d.communities(); return })
	read(func() (e error) { k.localPref, e = d.u32(); return })
	read(func() (e error) { k.med, e = d.u32(); return })
	read(func() (e error) { k.weight, e = d.u32(); return })
	read(func() (e error) { k.preference, e = d.u32(); return })
	read(func() (e error) { k.path, e = d.asPath(); return })
	read(func() (e error) {
		b, e := d.byte()
		k.origin = netmodel.Origin(b)
		return e
	})
	if err != nil {
		return nil, err
	}
	if a, ok := d.sets[k]; ok {
		return a, nil
	}
	var r netmodel.Route
	r.SetAttrs(&netmodel.Attrs{
		Communities: d.comms[k.comms], LocalPref: k.localPref, MED: k.med, Weight: k.weight,
		Preference: k.preference, ASPath: d.asPaths[k.path], Origin: k.origin,
	})
	if d.sets == nil {
		d.sets = make(map[attrKey]*netmodel.Attrs)
	}
	d.sets[k] = r.Attrs
	return r.Attrs, nil
}

// ---------------------------------------------------------------- flows

// EncodeFlows writes flows as an uncompressed binary frame.
func EncodeFlows(w io.Writer, flows []netmodel.Flow) error {
	return encodeFrame(w, KindFlows, false, func(e *encoder) {
		e.uvarint(uint64(len(flows)))
		for i := range flows {
			e.flow(&flows[i])
		}
	})
}

func (e *encoder) flow(f *netmodel.Flow) {
	e.addr(f.Src)
	e.addr(f.Dst)
	e.uvarint(uint64(f.SrcPort))
	e.uvarint(uint64(f.DstPort))
	e.byte(byte(f.Proto))
	e.str(f.Ingress)
	e.f64(f.Volume)
}

// DecodeFlows reads a flow file written by EncodeFlows.
func DecodeFlows(r io.Reader) ([]netmodel.Flow, error) {
	br := bufio.NewReader(r)
	d, err := decodeFrame(br, KindFlows)
	if err != nil {
		return nil, err
	}
	n, err := d.uvarint()
	if err != nil {
		return nil, fmt.Errorf("wire: decoding flows: %w", err)
	}
	out := make([]netmodel.Flow, 0, min(n, preallocCap))
	for i := uint64(0); i < n; i++ {
		f, err := d.flow()
		if err != nil {
			return nil, fmt.Errorf("wire: decoding flow %d/%d: %w", i, n, err)
		}
		out = append(out, f)
	}
	if err := d.end(); err != nil {
		return nil, err
	}
	return out, nil
}

func (d *decoder) flow() (netmodel.Flow, error) {
	var f netmodel.Flow
	var err error
	read := func(fn func() error) {
		if err == nil {
			err = fn()
		}
	}
	read(func() (e error) { f.Src, e = d.addr(); return })
	read(func() (e error) { f.Dst, e = d.addr(); return })
	read(func() (e error) {
		v, e := d.uvarint()
		f.SrcPort = uint16(v)
		return e
	})
	read(func() (e error) {
		v, e := d.uvarint()
		f.DstPort = uint16(v)
		return e
	})
	read(func() (e error) {
		b, e := d.byte()
		f.Proto = netmodel.IPProto(b)
		return e
	})
	read(func() (e error) { f.Ingress, e = d.str(); return })
	read(func() (e error) { f.Volume, e = d.f64(); return })
	return f, err
}

// ---------------------------------------------------------------- snapshot

// Snapshot is the wire form of a network model: per-device configuration
// text, from which the receiver derives the topology, plus the monitored
// state — the nodes and links that are down. core.Snapshot shares this
// underlying struct, so conversions between the two are free.
type Snapshot struct {
	Configs   map[string]string
	DownNodes []string
	DownLinks []netmodel.LinkID
}

// EncodeSnapshot writes the snapshot as a flate-compressed binary frame
// (configuration text dominates the payload and compresses ~5-10x).
func EncodeSnapshot(w io.Writer, s *Snapshot) error {
	return encodeFrame(w, KindSnapshot, true, func(e *encoder) {
		// Deterministic bytes: config map in sorted key order.
		names := make([]string, 0, len(s.Configs))
		for name := range s.Configs {
			names = append(names, name)
		}
		slices.Sort(names)
		e.uvarint(uint64(len(names)))
		for _, name := range names {
			e.str(name)
			e.blob(s.Configs[name])
		}
		e.uvarint(uint64(len(s.DownNodes)))
		for _, n := range s.DownNodes {
			e.str(n)
		}
		e.uvarint(uint64(len(s.DownLinks)))
		for _, id := range s.DownLinks {
			e.linkID(id)
		}
	})
}

// DecodeSnapshot reads a snapshot written by EncodeSnapshot.
func DecodeSnapshot(r io.Reader) (*Snapshot, error) {
	br := bufio.NewReader(r)
	d, err := decodeFrame(br, KindSnapshot)
	if err != nil {
		return nil, err
	}
	s := &Snapshot{Configs: make(map[string]string)}
	nc, err := d.uvarint()
	if err != nil {
		return nil, fmt.Errorf("wire: decoding snapshot configs: %w", err)
	}
	for i := uint64(0); i < nc; i++ {
		name, err := d.str()
		if err != nil {
			return nil, fmt.Errorf("wire: decoding snapshot config name %d: %w", i, err)
		}
		text, err := d.blob()
		if err != nil {
			return nil, fmt.Errorf("wire: decoding snapshot config %q: %w", name, err)
		}
		s.Configs[name] = text
	}
	nn, err := d.uvarint()
	for i := uint64(0); err == nil && i < nn; i++ {
		var n string
		if n, err = d.str(); err == nil {
			s.DownNodes = append(s.DownNodes, n)
		}
	}
	if err != nil {
		return nil, fmt.Errorf("wire: decoding snapshot down nodes: %w", err)
	}
	nl, err := d.uvarint()
	for i := uint64(0); err == nil && i < nl; i++ {
		var id netmodel.LinkID
		if id, err = d.linkID(); err == nil {
			s.DownLinks = append(s.DownLinks, id)
		}
	}
	if err != nil {
		return nil, fmt.Errorf("wire: decoding snapshot down links: %w", err)
	}
	if err := d.end(); err != nil {
		return nil, err
	}
	return s, nil
}

// ----------------------------------------------------- traffic result file

// EncodeTrafficResult writes one traffic subtask's result — its link loads
// and flow paths — as an uncompressed binary frame. Loads go in
// LinkID.String() order, so the bytes do not depend on map order (the ends
// break the tie between two IDs that print alike, as names holding brackets
// can).
func EncodeTrafficResult(w io.Writer, paths []netmodel.FlowPath, load netmodel.LinkLoad) error {
	ids := make([]netmodel.LinkID, 0, len(load))
	for id := range load {
		ids = append(ids, id)
	}
	slices.SortFunc(ids, func(a, b netmodel.LinkID) int {
		return cmp.Or(strings.Compare(a.String(), b.String()), strings.Compare(a.A, b.A), strings.Compare(a.AIface, b.AIface), strings.Compare(a.B, b.B))
	})
	return encodeFrame(w, KindTrafficResult, false, func(e *encoder) {
		e.uvarint(uint64(len(ids)))
		for _, id := range ids {
			e.linkID(id)
			e.f64(load[id])
		}
		e.uvarint(uint64(len(paths)))
		for i := range paths {
			p := &paths[i]
			e.flow(&p.Flow)
			e.uvarint(uint64(len(p.Path.Hops)))
			for _, h := range p.Path.Hops {
				e.str(h.Device)
				e.linkID(h.Link)
			}
			e.byte(byte(p.Path.Exit))
		}
	})
}

func (e *encoder) linkID(id netmodel.LinkID) {
	e.str(id.A)
	e.str(id.B)
	e.str(id.AIface)
	e.str(id.BIface)
}

// DecodeTrafficResult reads a traffic result file. A load section that
// names a link twice is ErrCorrupt: an encoder writes each link once.
func DecodeTrafficResult(r io.Reader) ([]netmodel.FlowPath, netmodel.LinkLoad, error) {
	br := bufio.NewReader(r)
	d, err := decodeFrame(br, KindTrafficResult)
	if err != nil {
		return nil, nil, err
	}
	nl, err := d.uvarint()
	if err != nil {
		return nil, nil, fmt.Errorf("wire: decoding traffic loads: %w", err)
	}
	load := make(netmodel.LinkLoad, min(nl, preallocCap))
	for i := uint64(0); i < nl; i++ {
		id, err := d.linkID()
		var v float64
		if err == nil {
			v, err = d.f64()
		}
		if _, dup := load[id]; dup && err == nil {
			err = fmt.Errorf("link %s loaded twice (%w)", id, ErrCorrupt)
		}
		if err != nil {
			return nil, nil, fmt.Errorf("wire: decoding traffic load %d: %w", i, err)
		}
		load[id] = v
	}
	np, err := d.uvarint()
	if err != nil {
		return nil, nil, fmt.Errorf("wire: decoding traffic paths: %w", err)
	}
	paths := make([]netmodel.FlowPath, 0, min(np, preallocCap))
	for i := uint64(0); i < np; i++ {
		p, err := d.flowPath()
		if err != nil {
			return nil, nil, fmt.Errorf("wire: decoding traffic path %d: %w", i, err)
		}
		paths = append(paths, p)
	}
	if err := d.end(); err != nil {
		return nil, nil, err
	}
	return paths, load, nil
}

func (d *decoder) linkID() (netmodel.LinkID, error) {
	var id netmodel.LinkID
	var err error
	read := func(fn func() error) {
		if err == nil {
			err = fn()
		}
	}
	read(func() (e error) { id.A, e = d.str(); return })
	read(func() (e error) { id.B, e = d.str(); return })
	read(func() (e error) { id.AIface, e = d.str(); return })
	read(func() (e error) { id.BIface, e = d.str(); return })
	return id, err
}

func (d *decoder) flowPath() (netmodel.FlowPath, error) {
	var fp netmodel.FlowPath
	f, err := d.flow()
	if err != nil {
		return fp, err
	}
	fp.Flow = f
	nh, err := d.uvarint()
	if err != nil {
		return fp, err
	}
	fp.Path.Hops = make([]netmodel.Hop, 0, min(nh, preallocCap))
	for i := uint64(0); i < nh; i++ {
		var h netmodel.Hop
		if h.Device, err = d.str(); err == nil {
			h.Link, err = d.linkID()
		}
		if err != nil {
			return fp, err
		}
		fp.Path.Hops = append(fp.Path.Hops, h)
	}
	exit, err := d.byte()
	if err != nil {
		return fp, err
	}
	fp.Path.Exit = netmodel.ExitReason(exit)
	return fp, nil
}
