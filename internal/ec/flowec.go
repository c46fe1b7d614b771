package ec

import (
	"math"
	"net/netip"
	"slices"

	"hoyan/internal/config"
	"hoyan/internal/netmodel"
	"hoyan/internal/par"
	"hoyan/internal/policy"
)

// Atoms partitions an address family's space into maximal intervals such
// that every address in an interval is covered by exactly the same set of
// prefixes. Two flow destinations in the same atom therefore have identical
// longest-prefix matches on every RIB built from those prefixes.
type Atoms struct {
	// boundaries are the sorted interval start addresses (4-byte and
	// 16-byte families kept separately).
	v4 []netip.Addr
	v6 []netip.Addr
}

// NewAtoms builds the atom partition induced by the given prefixes.
func NewAtoms(prefixes []netip.Prefix) *Atoms {
	seen4 := map[netip.Addr]bool{}
	seen6 := map[netip.Addr]bool{}
	add := func(a netip.Addr) {
		if a.Is4() || a.Is4In6() {
			seen4[a] = true
		} else {
			seen6[a] = true
		}
	}
	for _, p := range prefixes {
		add(p.Masked().Addr())
		last := netmodel.LastAddr(p)
		if next := last.Next(); next.IsValid() {
			add(next)
		}
	}
	a := &Atoms{}
	for b := range seen4 {
		a.v4 = append(a.v4, b)
	}
	for b := range seen6 {
		a.v6 = append(a.v6, b)
	}
	slices.SortFunc(a.v4, netip.Addr.Compare)
	slices.SortFunc(a.v6, netip.Addr.Compare)
	return a
}

// Atom returns the atom index of addr: addresses in the same atom are
// covered by the same prefix set. Negative indices denote "before the first
// boundary" (covered by nothing).
func (a *Atoms) Atom(addr netip.Addr) int {
	bs := a.v4
	if addr.Is6() && !addr.Is4In6() {
		bs = a.v6
	}
	// Largest boundary <= addr.
	lo, hi := 0, len(bs)
	for lo < hi {
		mid := (lo + hi) / 2
		if bs[mid].Compare(addr) <= 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo - 1
}

// FlowClass is one flow equivalence class. Rep is the simulated
// representative, the class's first flow in input order, and First its
// position in the input; Volume is the summed volume of all members, so
// simulating the representative with Volume reproduces the class's total
// load.
type FlowClass struct {
	Rep    netmodel.Flow
	First  int
	Flows  []netmodel.Flow
	Volume float64
}

// FlowECs partitions flows into equivalence classes.
type FlowECs struct {
	Classes []FlowClass
	Inputs  int
}

// Representatives returns one flow per class carrying the class's total
// volume.
func (e *FlowECs) Representatives() []netmodel.Flow {
	out := make([]netmodel.Flow, len(e.Classes))
	for i, c := range e.Classes {
		f := c.Rep
		f.Volume = c.Volume
		out[i] = f
	}
	return out
}

// flowKey is the equivalence signature of a flow.
type flowKey struct {
	ingress          string
	dstAtom, srcAtom int
	proto            netmodel.IPProto
	sportBkt, dpBkt  int
}

// ComputeFlowECs partitions flows. ribPrefixes must contain every prefix
// appearing in the simulated RIBs (the route-simulation result's prefixes;
// in the pre-processing service, the input routes' prefixes plus locally
// originated ones). ACL and PBR rule fields refine the partition so that
// classmates are indistinguishable to packet filters.
//
// Per-flow signature computation (atom binary searches) fans out over
// parallelism workers (0 = GOMAXPROCS, 1 = sequential) into per-flow slots;
// classes are grouped sequentially in input order afterwards, keeping the
// partition identical at any parallelism.
func ComputeFlowECs(net *config.Network, ribPrefixes []netip.Prefix, flows []netmodel.Flow, parallelism int) *FlowECs {
	dstAtoms := NewAtoms(ribPrefixes)

	// ACL/PBR-induced refinements.
	var srcPrefixes []netip.Prefix
	sportB := map[uint16]bool{}
	dportB := map[uint16]bool{}
	protoSensitive := false
	collect := func(e policy.ACLEntry) {
		if e.Src.IsValid() {
			srcPrefixes = append(srcPrefixes, e.Src)
		}
		if e.Dst.IsValid() {
			// Destination filters are already covered by RIB prefixes only
			// if they coincide; add them to be exact.
			srcPrefixes = append(srcPrefixes, e.Dst) // see dstExtra below
		}
		if e.SrcPortHi != 0 {
			sportB[e.SrcPortLo] = true
			sportB[e.SrcPortHi+1] = true
		}
		if e.DstPortHi != 0 {
			dportB[e.DstPortLo] = true
			dportB[e.DstPortHi+1] = true
		}
		if e.Proto != 0 {
			protoSensitive = true
		}
	}
	var dstExtra []netip.Prefix
	for _, name := range net.DeviceNames() {
		d := net.Devices[name]
		for _, acl := range d.ACLs {
			for _, e := range acl.Entries {
				collect(e)
				if e.Dst.IsValid() {
					dstExtra = append(dstExtra, e.Dst)
				}
			}
		}
		for _, rules := range d.PBRPolicies {
			for _, r := range rules {
				collect(r.Match)
				if r.Match.Dst.IsValid() {
					dstExtra = append(dstExtra, r.Match.Dst)
				}
			}
		}
	}
	if len(dstExtra) > 0 {
		dstAtoms = NewAtoms(append(append([]netip.Prefix(nil), ribPrefixes...), dstExtra...))
	}
	srcAtoms := NewAtoms(srcPrefixes)
	sports := portBuckets(sportB)
	dports := portBuckets(dportB)

	keys := par.Map(parallelism, len(flows), func(i int) flowKey {
		f := flows[i]
		key := flowKey{
			ingress:  f.Ingress,
			dstAtom:  dstAtoms.Atom(f.Dst),
			srcAtom:  srcAtoms.Atom(f.Src),
			sportBkt: bucketOf(sports, f.SrcPort),
			dpBkt:    bucketOf(dports, f.DstPort),
		}
		if protoSensitive {
			key.proto = f.Proto
		}
		return key
	})

	out := &FlowECs{Inputs: len(flows)}
	bySig := map[flowKey]int{}
	for i, f := range flows {
		key := keys[i]
		idx, ok := bySig[key]
		if !ok {
			idx = len(out.Classes)
			bySig[key] = idx
			out.Classes = append(out.Classes, FlowClass{Rep: f, First: i})
		}
		out.Classes[idx].Flows = append(out.Classes[idx].Flows, f)
		out.Classes[idx].Volume += f.Volume
	}
	return out
}

// Kept maps each class to the class of base, a partition of the same flows,
// that has the same representative and a bit-identical Volume, or to -1.
// Representatives are first flows in input order, so a class that survives a
// change of the partition keeps its representative, the part of a split class
// that holds the old representative keeps it, and a merged class's
// representative is one of the old ones. Only a class whose Volume is also
// unchanged forwards exactly as its base class did: a fan-out's link shares
// are successive divisions of Volume.
func (e *FlowECs) Kept(base *FlowECs) []int32 {
	out := make([]int32, len(e.Classes))
	k := 0 // classes of both come in order of First
	for i, c := range e.Classes {
		for k < len(base.Classes) && base.Classes[k].First < c.First {
			k++
		}
		out[i] = -1
		if k < len(base.Classes) && base.Classes[k].First == c.First &&
			math.Float64bits(base.Classes[k].Volume) == math.Float64bits(c.Volume) {
			out[i] = int32(k)
		}
	}
	return out
}

// portBuckets turns boundary points into a sorted boundary list.
func portBuckets(b map[uint16]bool) []uint16 {
	out := make([]uint16, 0, len(b))
	for p := range b {
		out = append(out, p)
	}
	slices.Sort(out)
	return out
}

// bucketOf returns the index of the bucket containing port.
func bucketOf(boundaries []uint16, port uint16) int {
	lo, hi := 0, len(boundaries)
	for lo < hi {
		mid := (lo + hi) / 2
		if boundaries[mid] <= port {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// RIBPrefixes collects the distinct prefixes of a set of routes — the input
// the flow-EC computation needs — in order of first appearance.
func RIBPrefixes(routes []netmodel.Route) []netip.Prefix {
	seen := map[netip.Prefix]bool{}
	var out []netip.Prefix
	for i := range routes {
		if p := routes[i].Prefix; !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	return out
}
