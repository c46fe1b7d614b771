package wire

import (
	"bufio"
	"fmt"
	"io"

	"hoyan/internal/netmodel"
	"slices"
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

// Path is the wire form of netmodel.Path (dsim.PathWire aliases it).
type Path struct {
	Hops []netmodel.Hop
	Exit netmodel.ExitReason
}

// PathEntry is one flow's simulated path (dsim.PathEntry aliases it).
type PathEntry struct {
	Flow netmodel.Flow
	Path Path
}

// LoadEntry is one link's simulated volume (dsim.LoadEntry aliases it).
type LoadEntry struct {
	Link   netmodel.LinkID
	Volume float64
}

// TrafficResult is the wire form of one traffic subtask's result file
// (dsim.TrafficResultFile aliases it).
type TrafficResult struct {
	Load  []LoadEntry
	Paths []PathEntry
}

// EncodeTrafficResult writes a traffic result file as an uncompressed
// binary frame.
func EncodeTrafficResult(w io.Writer, t *TrafficResult) error {
	return encodeFrame(w, KindTrafficResult, false, func(e *encoder) {
		e.uvarint(uint64(len(t.Load)))
		for i := range t.Load {
			e.linkID(t.Load[i].Link)
			e.f64(t.Load[i].Volume)
		}
		e.uvarint(uint64(len(t.Paths)))
		for i := range t.Paths {
			p := &t.Paths[i]
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

// DecodeTrafficResult reads a traffic result file.
func DecodeTrafficResult(r io.Reader) (*TrafficResult, error) {
	br := bufio.NewReader(r)
	d, err := decodeFrame(br, KindTrafficResult)
	if err != nil {
		return nil, err
	}
	t := &TrafficResult{}
	nl, err := d.uvarint()
	if err != nil {
		return nil, fmt.Errorf("wire: decoding traffic loads: %w", err)
	}
	t.Load = make([]LoadEntry, 0, min(nl, preallocCap))
	for i := uint64(0); i < nl; i++ {
		var le LoadEntry
		if le.Link, err = d.linkID(); err == nil {
			le.Volume, err = d.f64()
		}
		if err != nil {
			return nil, fmt.Errorf("wire: decoding traffic load %d: %w", i, err)
		}
		t.Load = append(t.Load, le)
	}
	np, err := d.uvarint()
	if err != nil {
		return nil, fmt.Errorf("wire: decoding traffic paths: %w", err)
	}
	t.Paths = make([]PathEntry, 0, min(np, preallocCap))
	for i := uint64(0); i < np; i++ {
		pe, err := d.pathEntry()
		if err != nil {
			return nil, fmt.Errorf("wire: decoding traffic path %d: %w", i, err)
		}
		t.Paths = append(t.Paths, pe)
	}
	if err := d.end(); err != nil {
		return nil, err
	}
	return t, nil
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

func (d *decoder) pathEntry() (PathEntry, error) {
	var pe PathEntry
	f, err := d.flow()
	if err != nil {
		return pe, err
	}
	pe.Flow = f
	nh, err := d.uvarint()
	if err != nil {
		return pe, err
	}
	pe.Path.Hops = make([]netmodel.Hop, 0, min(nh, preallocCap))
	for i := uint64(0); i < nh; i++ {
		var h netmodel.Hop
		if h.Device, err = d.str(); err == nil {
			h.Link, err = d.linkID()
		}
		if err != nil {
			return pe, err
		}
		pe.Path.Hops = append(pe.Path.Hops, h)
	}
	exit, err := d.byte()
	if err != nil {
		return pe, err
	}
	pe.Path.Exit = netmodel.ExitReason(exit)
	return pe, nil
}
