package wire

import (
	"bufio"
	"fmt"
	"io"

	"hoyan/internal/netmodel"
)

// ShardInput is the wire form of one shard subtask's sealed-run inputs: the
// shard's slice of the representative input routes plus the inbound boundary
// contract for this contract-exchange round.
type ShardInput struct {
	Routes  []netmodel.Route
	Inbound []netmodel.BoundaryAdv
}

// ShardResult is one shard subtask's sealed-run outcome: the canonical
// outbound contract plus the shard's final (pre-expansion) route rows.
type ShardResult struct {
	Exports []netmodel.BoundaryAdv
	Rows    []netmodel.Route
}

func (e *encoder) boundaryAdv(a *netmodel.BoundaryAdv) {
	e.str(a.From)
	e.str(a.To)
	e.str(a.VRF)
	e.prefix(a.Prefix)
	e.bool(a.EBGP)
	e.addr(a.FromAddr)
	e.uvarint(uint64(len(a.Routes)))
	for i := range a.Routes {
		e.route(&a.Routes[i])
	}
}

func (d *decoder) boundaryAdv() (netmodel.BoundaryAdv, error) {
	var a netmodel.BoundaryAdv
	var err error
	read := func(fn func() error) {
		if err == nil {
			err = fn()
		}
	}
	read(func() (e error) { a.From, e = d.str(); return })
	read(func() (e error) { a.To, e = d.str(); return })
	read(func() (e error) { a.VRF, e = d.str(); return })
	read(func() (e error) { a.Prefix, e = d.prefix(); return })
	read(func() (e error) { a.EBGP, e = d.bool(); return })
	read(func() (e error) { a.FromAddr, e = d.addr(); return })
	if err != nil {
		return a, err
	}
	n, err := d.uvarint()
	if err != nil {
		return a, err
	}
	if n > 0 { // keep nil for empty payloads
		a.Routes = make([]netmodel.Route, 0, min(n, preallocCap))
	}
	for i := uint64(0); i < n; i++ {
		r, err := d.route()
		if err != nil {
			return a, err
		}
		a.Routes = append(a.Routes, r)
	}
	return a, nil
}

func (e *encoder) boundaryAdvs(advs []netmodel.BoundaryAdv) {
	e.uvarint(uint64(len(advs)))
	for i := range advs {
		e.boundaryAdv(&advs[i])
	}
}

func (d *decoder) boundaryAdvs() ([]netmodel.BoundaryAdv, error) {
	n, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	var out []netmodel.BoundaryAdv
	if n > 0 {
		out = make([]netmodel.BoundaryAdv, 0, min(n, preallocCap))
	}
	for i := uint64(0); i < n; i++ {
		a, err := d.boundaryAdv()
		if err != nil {
			return nil, fmt.Errorf("adv %d/%d: %w", i, n, err)
		}
		out = append(out, a)
	}
	return out, nil
}

// EncodeShardInput writes a shard subtask input as an uncompressed binary
// frame.
func EncodeShardInput(w io.Writer, in *ShardInput) error {
	return encodeFrame(w, KindShardInput, Options{}, func(e *encoder) {
		e.uvarint(uint64(len(in.Routes)))
		for i := range in.Routes {
			e.route(&in.Routes[i])
		}
		e.boundaryAdvs(in.Inbound)
	})
}

// DecodeShardInput reads a shard subtask input.
func DecodeShardInput(r io.Reader) (*ShardInput, error) {
	br := bufio.NewReader(r)
	d, err := decodeFrame(br, KindShardInput)
	if err != nil {
		return nil, err
	}
	in := &ShardInput{}
	n, err := d.uvarint()
	if err != nil {
		return nil, fmt.Errorf("wire: decoding shard input routes: %w", err)
	}
	if n > 0 {
		in.Routes = make([]netmodel.Route, 0, min(n, preallocCap))
	}
	for i := uint64(0); i < n; i++ {
		rt, err := d.route()
		if err != nil {
			return nil, fmt.Errorf("wire: decoding shard input route %d/%d: %w", i, n, err)
		}
		in.Routes = append(in.Routes, rt)
	}
	if in.Inbound, err = d.boundaryAdvs(); err != nil {
		return nil, fmt.Errorf("wire: decoding shard input contract: %w", err)
	}
	return in, nil
}

// EncodeShardResult writes a shard subtask result as an uncompressed binary
// frame.
func EncodeShardResult(w io.Writer, res *ShardResult) error {
	return encodeFrame(w, KindShardResult, Options{}, func(e *encoder) {
		e.boundaryAdvs(res.Exports)
		e.uvarint(uint64(len(res.Rows)))
		for i := range res.Rows {
			e.route(&res.Rows[i])
		}
	})
}

// DecodeShardResult reads a shard subtask result.
func DecodeShardResult(r io.Reader) (*ShardResult, error) {
	br := bufio.NewReader(r)
	d, err := decodeFrame(br, KindShardResult)
	if err != nil {
		return nil, err
	}
	res := &ShardResult{}
	if res.Exports, err = d.boundaryAdvs(); err != nil {
		return nil, fmt.Errorf("wire: decoding shard result contract: %w", err)
	}
	n, err := d.uvarint()
	if err != nil {
		return nil, fmt.Errorf("wire: decoding shard result rows: %w", err)
	}
	if n > 0 {
		res.Rows = make([]netmodel.Route, 0, min(n, preallocCap))
	}
	for i := uint64(0); i < n; i++ {
		rt, err := d.route()
		if err != nil {
			return nil, fmt.Errorf("wire: decoding shard result row %d/%d: %w", i, n, err)
		}
		res.Rows = append(res.Rows, rt)
	}
	return res, nil
}
