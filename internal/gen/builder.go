package gen

import (
	"encoding/binary"
	"net/netip"

	"hoyan/internal/config"
	"hoyan/internal/netmodel"
)

// Builder wires devices into a network: it registers each device with the
// topology, numbers point-to-point links with consecutive /30s from one
// address pool, and configures both sides of a BGP session. The synthetic
// WAN, the case-study networks and the test fixtures are all built with it.
type Builder struct {
	Net *config.Network

	pool     netip.Prefix
	nextLink int
}

// NewBuilder returns a builder over an empty network whose link subnets are
// taken in order from pool (wrapping around when it is exhausted).
func NewBuilder(pool netip.Prefix) *Builder {
	return &Builder{Net: config.NewNetwork(), pool: pool.Masked()}
}

// Device adds a router whose loopback is also its router ID.
func (b *Builder) Device(name, vendor string, asn netmodel.ASN, lo netip.Addr) *config.Device {
	d := config.NewDevice(name, vendor)
	d.ASN = asn
	d.Loopback = lo
	d.RouterID = lo
	b.Net.Devices[name] = d
	b.Net.Topo.AddNode(netmodel.Node{Name: name, Loopback: lo})
	return d
}

// Link wires a and bdev with the pool's next /30: interfaces "to-<peer>" on
// both sides, with the same IS-IS cost and bandwidth in each direction.
func (b *Builder) Link(a, bdev string, cost uint32, bandwidth float64) *netmodel.Link {
	b.nextLink++
	base4 := b.pool.Addr().As4()
	size := uint64(1) << (32 - b.pool.Bits())
	off := uint32(uint64(b.nextLink*4) % size)
	var v [4]byte
	binary.BigEndian.PutUint32(v[:], binary.BigEndian.Uint32(base4[:])+off)
	base := netip.AddrFrom4(v)
	aAddr := base.Next()
	bAddr := aAddr.Next()
	aIf, bIf := "to-"+bdev, "to-"+a
	b.Net.Devices[a].Interfaces[aIf] = &config.Interface{Name: aIf, Addr: netip.PrefixFrom(aAddr, 30), ISISCost: cost, Bandwidth: bandwidth}
	b.Net.Devices[bdev].Interfaces[bIf] = &config.Interface{Name: bIf, Addr: netip.PrefixFrom(bAddr, 30), ISISCost: cost, Bandwidth: bandwidth}
	return b.Net.Topo.AddLink(netmodel.Link{
		A: a, B: bdev, AIface: aIf, BIface: bIf,
		ANet: netip.PrefixFrom(base, 30), BNet: netip.PrefixFrom(base, 30),
		AAddr: aAddr, BAddr: bAddr,
		CostAB: cost, CostBA: cost, Bandwidth: bandwidth,
	})
}

// EBGP configures a session over the direct link between a and bdev and
// returns a's neighbor (toward bdev) and bdev's (toward a).
func (b *Builder) EBGP(a, bdev string) (na, nb *config.Neighbor) {
	l := b.Net.Topo.FindLink(a, bdev)
	aAddr, bAddr := l.AAddr, l.BAddr
	if l.A != a {
		aAddr, bAddr = bAddr, aAddr
	}
	da, db := b.Net.Devices[a], b.Net.Devices[bdev]
	na = &config.Neighbor{Addr: bAddr, RemoteAS: db.ASN, VRF: netmodel.DefaultVRF}
	nb = &config.Neighbor{Addr: aAddr, RemoteAS: da.ASN, VRF: netmodel.DefaultVRF}
	da.Neighbors = append(da.Neighbors, na)
	db.Neighbors = append(db.Neighbors, nb)
	return na, nb
}

// IBGP configures a loopback session between a and bdev and returns a's
// neighbor and bdev's. bdev sets next-hop-self toward a, as an edge router
// does toward its reflector.
func (b *Builder) IBGP(a, bdev string) (na, nb *config.Neighbor) {
	da, db := b.Net.Devices[a], b.Net.Devices[bdev]
	na = &config.Neighbor{Addr: db.Loopback, RemoteAS: db.ASN, VRF: netmodel.DefaultVRF, UpdateSource: true}
	nb = &config.Neighbor{Addr: da.Loopback, RemoteAS: da.ASN, VRF: netmodel.DefaultVRF, UpdateSource: true, NextHopSelf: true}
	da.Neighbors = append(da.Neighbors, na)
	db.Neighbors = append(db.Neighbors, nb)
	return na, nb
}
