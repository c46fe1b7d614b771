package netmodel

import (
	"encoding/binary"
	"net/netip"
)

// AppendSignature appends an injective binary encoding of the route to dst:
// equal signatures iff every field is equal. It breaks key ties in
// CompareRoutes and is what the digests hash per row.
func (r *Route) AppendSignature(dst []byte) []byte {
	dst = sigStr(dst, r.Device)
	dst = sigStr(dst, r.VRF)
	dst = sigPrefix(dst, r.Prefix)
	dst = append(dst, byte(r.Protocol))
	dst = sigAddr(dst, r.NextHop)
	a := r.Attr()
	cs := a.Communities.All()
	dst = binary.AppendUvarint(dst, uint64(len(cs)))
	for _, c := range cs {
		dst = binary.AppendUvarint(dst, uint64(c))
	}
	dst = binary.AppendUvarint(dst, uint64(a.LocalPref))
	dst = binary.AppendUvarint(dst, uint64(a.MED))
	dst = binary.AppendUvarint(dst, uint64(a.Weight))
	dst = binary.AppendUvarint(dst, uint64(a.Preference))
	dst = binary.AppendUvarint(dst, uint64(len(a.ASPath.Seq)))
	for _, asn := range a.ASPath.Seq {
		dst = binary.AppendUvarint(dst, uint64(asn))
	}
	dst = binary.AppendUvarint(dst, uint64(len(a.ASPath.Set)))
	for _, asn := range a.ASPath.Set {
		dst = binary.AppendUvarint(dst, uint64(asn))
	}
	dst = append(dst, byte(a.Origin))
	dst = binary.AppendUvarint(dst, uint64(r.IGPCost))
	dst = append(dst, byte(r.RouteType))
	dst = sigBool(dst, r.ViaSR)
	dst = sigStr(dst, r.Peer)
	dst = sigStr(dst, r.Source)
	return dst
}

func sigStr(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func sigBool(dst []byte, b bool) []byte {
	if b {
		return append(dst, 1)
	}
	return append(dst, 0)
}

func sigAddr(dst []byte, a netip.Addr) []byte {
	if !a.IsValid() {
		return append(dst, 0)
	}
	b16 := a.As16()
	dst = append(dst, 1)
	return append(dst, b16[:]...)
}

func sigPrefix(dst []byte, p netip.Prefix) []byte {
	dst = sigAddr(dst, p.Addr())
	return append(dst, byte(p.Bits()))
}
