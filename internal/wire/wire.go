// Package wire implements the distributed framework's versioned compact
// binary wire format. Every blob that crosses the object store — network
// snapshots, route files, flow files, traffic result files — pays for its
// bytes twice: once in transfer and once in decode CPU on a worker. The
// format here replaces the encoding/json wire path with:
//
//   - string interning: device names, VRFs, interface names, peers, and
//     ingress devices repeat massively across rows; each distinct string is
//     transmitted once and referenced by a varint id afterwards,
//   - structural interning of AS paths and community sets (the two
//     heavy repeated BGP attributes), which also deduplicates them in memory
//     on decode — all rows sharing an AS path share one backing slice,
//   - varint integers for the uint32-ish attribute fields,
//   - raw 4/16-byte netip address and prefix encodings instead of quoted
//     dotted strings,
//   - an optional compress/flate frame (used for snapshots, whose payload is
//     device configuration text).
//
// Framing: a 6-byte header [Magic 'H' 'Y' version flags kind] precedes the
// payload. It is the only format: a blob that does not start with the header
// — empty, truncated, or anything else — is ErrCorrupt to every decoder, and
// so is a frame cut anywhere after it or followed by more bytes.
package wire

import (
	"bufio"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net/netip"

	"hoyan/internal/netmodel"
)

// Frame header constants.
const (
	// Magic is the first byte of every wire frame.
	Magic byte = 0xB1
	mark1 byte = 'H'
	mark2 byte = 'Y'

	// Version is the current format version. Decoders reject frames of any
	// other version instead of misparsing them. Version 2: a snapshot ships
	// its configurations and down sets, no topology.
	Version byte = 2

	flagFlate byte = 1 << 0

	headerLen = 6
)

// Kind tags the payload type inside a frame so a routes decoder fed a flows
// blob fails cleanly instead of producing garbage.
type Kind byte

// Payload kinds.
const (
	KindRoutes Kind = iota + 1
	KindFlows
	KindSnapshot
	KindTrafficResult
)

func (k Kind) String() string {
	switch k {
	case KindRoutes:
		return "routes"
	case KindFlows:
		return "flows"
	case KindSnapshot:
		return "snapshot"
	case KindTrafficResult:
		return "traffic-result"
	}
	return fmt.Sprintf("kind(%d)", byte(k))
}

// maxBlob bounds a single length-prefixed byte string (a device
// configuration is the largest legitimate payload). Corrupt length prefixes
// fail here instead of attempting a multi-gigabyte allocation.
const maxBlob = 1 << 28

// preallocCap bounds speculative slice preallocation from untrusted counts:
// decoders grow by append beyond it, so a corrupt count fails on EOF rather
// than on an absurd make().
const preallocCap = 1 << 16

// ErrCorrupt tags structural decode failures (bad magic trailer, dangling
// intern reference, oversized length).
var ErrCorrupt = errors.New("wire: corrupt frame")

// ---------------------------------------------------------------- encoder

// encoder writes the payload of one frame through a buffered writer, whose
// error is sticky (flush reports the first), and carries the interning
// tables. Nothing it writes per row allocates: fixed-size values go through
// the persistent small buffer (a local array would escape through the
// underlying io.Writer), interned keys are looked up without conversion, and
// a map key is allocated only when it is inserted.
type encoder struct {
	w *bufio.Writer

	small   [16]byte // a varint, a float64 or an IPv6 address
	scratch []byte

	strings map[string]uint64
	asPaths map[string]uint64
	comms   map[string]uint64
}

// newEncoder wraps w in a bufio.Writer (w itself when it already is one);
// callers must flush.
func newEncoder(w io.Writer) *encoder {
	return &encoder{
		w:       bufio.NewWriter(w),
		strings: make(map[string]uint64),
		asPaths: make(map[string]uint64),
		comms:   make(map[string]uint64),
	}
}

func (e *encoder) flush() error { return e.w.Flush() }

func (e *encoder) byte(b byte) { e.w.WriteByte(b) }

func (e *encoder) bool(b bool) {
	if b {
		e.byte(1)
	} else {
		e.byte(0)
	}
}

func (e *encoder) uvarint(v uint64) {
	n := binary.PutUvarint(e.small[:], v)
	e.w.Write(e.small[:n])
}

func (e *encoder) f64(v float64) {
	binary.LittleEndian.PutUint64(e.small[:8], math.Float64bits(v))
	e.w.Write(e.small[:8])
}

// blob writes a non-interned length-prefixed byte string (config text).
func (e *encoder) blob(s string) {
	e.uvarint(uint64(len(s)))
	e.w.WriteString(s)
}

// str writes an interned string: a varint reference for strings seen before,
// or 0 followed by the literal on first appearance (which assigns the next
// id on both sides).
func (e *encoder) str(s string) {
	if id, ok := e.strings[s]; ok {
		e.uvarint(id)
		return
	}
	e.strings[s] = uint64(len(e.strings)) + 1
	e.uvarint(0)
	e.blob(s)
}

// addr writes a netip address as a length byte (0 = zero Addr) plus raw
// bytes, preserving the 4/16-byte form.
func (e *encoder) addr(a netip.Addr) {
	n := 0
	switch {
	case !a.IsValid():
	case a.Is4():
		b := a.As4()
		n = copy(e.small[:], b[:])
	default:
		e.small = a.As16()
		n = 16
	}
	e.byte(byte(n))
	e.w.Write(e.small[:n])
}

func (e *encoder) prefix(p netip.Prefix) {
	e.addr(p.Addr())
	if p.Addr().IsValid() {
		e.byte(byte(p.Bits()))
	}
}

// asPath writes a structurally interned AS path.
func (e *encoder) asPath(p netmodel.ASPath) {
	e.scratch = e.scratch[:0]
	e.scratch = binary.AppendUvarint(e.scratch, uint64(len(p.Seq)))
	for _, a := range p.Seq {
		e.scratch = binary.AppendUvarint(e.scratch, uint64(a))
	}
	e.scratch = binary.AppendUvarint(e.scratch, uint64(len(p.Set)))
	for _, a := range p.Set {
		e.scratch = binary.AppendUvarint(e.scratch, uint64(a))
	}
	e.interned(e.asPaths)
}

// interned writes the structural value in scratch as a reference into table
// when it has been written before, else as 0 plus the value, assigning the
// next id.
func (e *encoder) interned(table map[string]uint64) {
	if id, ok := table[string(e.scratch)]; ok {
		e.uvarint(id)
		return
	}
	table[string(e.scratch)] = uint64(len(table)) + 1
	e.uvarint(0)
	e.w.Write(e.scratch)
}

// communities writes a structurally interned community set.
func (e *encoder) communities(s netmodel.CommunitySet) {
	all := s.All()
	e.scratch = e.scratch[:0]
	e.scratch = binary.AppendUvarint(e.scratch, uint64(len(all)))
	for _, c := range all {
		e.scratch = binary.AppendUvarint(e.scratch, uint64(c))
	}
	e.interned(e.comms)
}

// encodeFrame writes the header and runs body over a fresh encoder,
// finishing the flate stream when compress is set (each kind's encoder
// fixes it: snapshots compress, the rest do not). The encoder writes
// straight into the frame's bufio.Writer, or into its own one over the flate
// stream; write errors are sticky in both and surface at the flushes.
func encodeFrame(w io.Writer, kind Kind, compress bool, body func(*encoder)) error {
	bw := bufio.NewWriter(w)
	header := [headerLen]byte{Magic, mark1, mark2, Version, 0, byte(kind)}
	if compress {
		header[4] |= flagFlate
	}
	if _, err := bw.Write(header[:]); err != nil {
		return err
	}
	var e *encoder
	var fw *flate.Writer
	if compress {
		fw, _ = flate.NewWriter(bw, flate.BestSpeed)
		e = newEncoder(fw)
	} else {
		e = newEncoder(bw)
	}
	body(e)
	if err := e.flush(); err != nil {
		return err
	}
	if fw != nil {
		if err := fw.Close(); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ---------------------------------------------------------------- decoder

// decoder reads one frame's payload, mirroring the encoder's interning
// tables.
type decoder struct {
	r *bufio.Reader

	strings []string
	asPaths []netmodel.ASPath
	comms   []netmodel.CommunitySet
	// sets holds the attribute sets decoded so far, by their encoding: rows
	// whose encoded attributes repeat share one set (attrs).
	sets map[attrKey]*netmodel.Attrs
}

// attrKey is a row's encoded attribute tuple, its interned community set and
// AS path by their table indexes.
type attrKey struct {
	comms, path                        int
	localPref, med, weight, preference uint32
	origin                             netmodel.Origin
}

// decodeFrame validates the frame header at the front of br and returns a
// decoder over the (possibly decompressed) payload.
func decodeFrame(br *bufio.Reader, want Kind) (*decoder, error) {
	var header [headerLen]byte
	if _, err := io.ReadFull(br, header[:]); err != nil {
		return nil, fmt.Errorf("wire: %s header truncated: %w (%w)", want, err, ErrCorrupt)
	}
	if header[0] != Magic || header[1] != mark1 || header[2] != mark2 {
		return nil, fmt.Errorf("wire: bad %s frame marker %q (%w)", want, header[:3], ErrCorrupt)
	}
	if header[3] != Version {
		return nil, fmt.Errorf("wire: unsupported %s frame version %d (have %d)", want, header[3], Version)
	}
	if Kind(header[5]) != want {
		return nil, fmt.Errorf("wire: frame holds %s, want %s (%w)", Kind(header[5]), want, ErrCorrupt)
	}
	if header[4]&^flagFlate != 0 {
		return nil, fmt.Errorf("wire: unknown %s frame flags %#x (%w)", want, header[4], ErrCorrupt)
	}
	d := &decoder{r: br}
	if header[4]&flagFlate != 0 {
		d.r = bufio.NewReader(flate.NewReader(br))
	}
	return d, nil
}

// truncated makes a payload that ends before its last field ErrCorrupt: the
// encoder ends a frame only after its last field, so running out of bytes
// (io.EOF, or io.ErrUnexpectedEOF inside a field or a flate stream) means
// the blob was cut. A flate stream that does not inflate is ErrCorrupt too;
// any other error is the source reader's own and passes through.
func truncated(err error) error {
	switch err.(type) {
	case nil:
		return nil
	case flate.CorruptInputError:
		return fmt.Errorf("wire: %w (%w)", err, ErrCorrupt)
	}
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return fmt.Errorf("wire: frame truncated: %w (%w)", io.ErrUnexpectedEOF, ErrCorrupt)
	}
	return err
}

// end checks that the payload ends where its last field did: a byte past it
// is ErrCorrupt, and a flate stream is read to its end, so one cut after the
// last field's bytes still shows.
func (d *decoder) end() error {
	_, err := d.r.ReadByte()
	switch err {
	case io.EOF:
		return nil
	case nil:
		return fmt.Errorf("wire: bytes past the end of the frame (%w)", ErrCorrupt)
	}
	return truncated(err)
}

func (d *decoder) byte() (byte, error) {
	b, err := d.r.ReadByte()
	return b, truncated(err)
}

func (d *decoder) bool() (bool, error) {
	b, err := d.byte()
	return b != 0, err
}

// uvarint reads a varint as binary.ReadUvarint does; one that runs past 64
// bits is ErrCorrupt.
func (d *decoder) uvarint() (uint64, error) {
	var v uint64
	for i := range binary.MaxVarintLen64 {
		b, err := d.byte()
		if err != nil {
			return 0, err
		}
		if b < 0x80 {
			if i == binary.MaxVarintLen64-1 && b > 1 {
				break
			}
			return v | uint64(b)<<(7*i), nil
		}
		v |= uint64(b&0x7f) << (7 * i)
	}
	return 0, fmt.Errorf("wire: varint overflows 64 bits (%w)", ErrCorrupt)
}

func (d *decoder) u32() (uint32, error) {
	v, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	if v > math.MaxUint32 {
		return 0, fmt.Errorf("wire: value %d overflows uint32 (%w)", v, ErrCorrupt)
	}
	return uint32(v), nil
}

func (d *decoder) f64() (float64, error) {
	var b [8]byte
	if err := d.read(b[:]); err != nil {
		return 0, err
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b[:])), nil
}

func (d *decoder) blob() (string, error) {
	n, err := d.uvarint()
	if err != nil {
		return "", err
	}
	if n > maxBlob {
		return "", fmt.Errorf("wire: blob length %d exceeds limit (%w)", n, ErrCorrupt)
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(d.r, b); err != nil {
		return "", truncated(err)
	}
	return string(b), nil
}

func (d *decoder) str() (string, error) {
	id, err := d.uvarint()
	if err != nil {
		return "", err
	}
	if id == 0 {
		s, err := d.blob()
		if err != nil {
			return "", err
		}
		d.strings = append(d.strings, s)
		return s, nil
	}
	if id > uint64(len(d.strings)) {
		return "", fmt.Errorf("wire: string ref %d out of table (%d entries) (%w)", id, len(d.strings), ErrCorrupt)
	}
	return d.strings[id-1], nil
}

func (d *decoder) addr() (netip.Addr, error) {
	n, err := d.byte()
	if err != nil {
		return netip.Addr{}, err
	}
	switch n {
	case 0:
		return netip.Addr{}, nil
	case 4, 16:
		var b [16]byte
		if err := d.read(b[:n]); err != nil {
			return netip.Addr{}, err
		}
		if n == 4 {
			return netip.AddrFrom4([4]byte(b[:4])), nil
		}
		return netip.AddrFrom16(b), nil
	}
	return netip.Addr{}, fmt.Errorf("wire: address length %d (%w)", n, ErrCorrupt)
}

// read fills b byte by byte: a small fixed-size field read this way stays on
// the caller's stack, where io.ReadFull through an interface would move it
// to the heap.
func (d *decoder) read(b []byte) error {
	for i := range b {
		c, err := d.byte()
		if err != nil {
			return err
		}
		b[i] = c
	}
	return nil
}

func (d *decoder) prefix() (netip.Prefix, error) {
	a, err := d.addr()
	if err != nil || !a.IsValid() {
		return netip.Prefix{}, err
	}
	bits, err := d.byte()
	if err != nil {
		return netip.Prefix{}, err
	}
	if int(bits) > a.BitLen() {
		return netip.Prefix{}, fmt.Errorf("wire: prefix bits %d exceed %d-bit address (%w)", bits, a.BitLen(), ErrCorrupt)
	}
	return netip.PrefixFrom(a, int(bits)), nil
}

func (d *decoder) asnList() ([]netmodel.ASN, error) {
	n, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	out := make([]netmodel.ASN, 0, min(n, preallocCap))
	for i := uint64(0); i < n; i++ {
		v, err := d.u32()
		if err != nil {
			return nil, err
		}
		out = append(out, netmodel.ASN(v))
	}
	return out, nil
}

// asPath reads an interned AS path and returns its index in the decoder's
// table.
func (d *decoder) asPath() (int, error) {
	id, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	if id == 0 {
		seq, err := d.asnList()
		if err != nil {
			return 0, err
		}
		set, err := d.asnList()
		if err != nil {
			return 0, err
		}
		d.asPaths = append(d.asPaths, netmodel.ASPath{Seq: seq, Set: set})
		return len(d.asPaths) - 1, nil
	}
	if id > uint64(len(d.asPaths)) {
		return 0, fmt.Errorf("wire: as-path ref %d out of table (%d entries) (%w)", id, len(d.asPaths), ErrCorrupt)
	}
	return int(id - 1), nil
}

// communities reads an interned community set and returns its index in the
// decoder's table.
func (d *decoder) communities() (int, error) {
	id, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	if id == 0 {
		n, err := d.uvarint()
		if err != nil {
			return 0, err
		}
		var set netmodel.CommunitySet
		for i := uint64(0); i < n; i++ {
			v, err := d.u32()
			if err != nil {
				return 0, err
			}
			set = set.Add(netmodel.Community(v))
		}
		d.comms = append(d.comms, set)
		return len(d.comms) - 1, nil
	}
	if id > uint64(len(d.comms)) {
		return 0, fmt.Errorf("wire: community-set ref %d out of table (%d entries) (%w)", id, len(d.comms), ErrCorrupt)
	}
	return int(id - 1), nil
}
