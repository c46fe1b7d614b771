package bgp

import (
	"net/netip"
	"slices"

	"hoyan/internal/config"
	"hoyan/internal/netmodel"
)

// refreshAggregate recomputes one aggregate's activation and contributor AS
// information in table k's record t, which the caller owns. It reports
// whether the local candidate for the aggregate changed.
func (s *sim) refreshAggregate(k tableKey, t *table, a config.Aggregate) bool {
	contributors := s.contributors(t.rib, a.Prefix)
	active := len(contributors) > 0

	wasOn := t.aggOn.Get(a.Prefix)

	d := s.net.Devices[k.dev]
	prof := s.profileOf(k.dev)

	// Remove any existing aggregate candidate.
	var kept []cand
	var old *cand
	for _, c := range t.locals.Get(a.Prefix) {
		if c.route.Protocol == netmodel.ProtoAggregate {
			cc := c
			old = &cc
			continue
		}
		kept = append(kept, c)
	}

	if !active {
		t.aggOn.Set(a.Prefix, false)
		t.setLocals(a.Prefix, kept)
		return wasOn || old != nil
	}

	// Build the aggregate's AS path from contributors.
	var asPath netmodel.ASPath
	if a.ASSet {
		set := map[netmodel.ASN]bool{}
		for _, r := range contributors {
			for _, asn := range r.ASPath.Seq {
				set[asn] = true
			}
			for _, asn := range r.ASPath.Set {
				set[asn] = true
			}
		}
		for asn := range set {
			asPath.Set = append(asPath.Set, asn)
		}
		slices.Sort(asPath.Set)
	} else if prof.AggregateKeepsCommonASPrefix {
		// VSB: without as-set, some vendors keep the contributors' common
		// leading AS sequence; others emit an empty path.
		asPath.Seq = commonASPrefix(contributors)
	}

	newCand := cand{local: true, route: netmodel.Route{
		Device: k.dev, VRF: k.vrf, Prefix: a.Prefix,
		Protocol: netmodel.ProtoAggregate, NextHop: d.Loopback,
		LocalPref: 100, Origin: netmodel.OriginIGP, ASPath: asPath,
		Source: k.dev, Peer: "aggregate",
	}}
	t.setLocals(a.Prefix, append(kept, newCand))
	t.aggOn.Set(a.Prefix, true)
	if old == nil || !old.route.ASPath.Equal(asPath) {
		return true
	}
	return !wasOn
}

// contributors returns the best routes strictly more specific than the
// aggregate prefix.
func (s *sim) contributors(rib *netmodel.RIB, agg netip.Prefix) []netmodel.Route {
	if rib == nil {
		return nil
	}
	var out []netmodel.Route
	for _, p := range rib.Prefixes() {
		if p == agg || p.Bits() <= agg.Bits() || !agg.Contains(p.Addr()) {
			continue
		}
		for _, r := range rib.Best(p) {
			if r.Protocol != netmodel.ProtoAggregate {
				out = append(out, r)
			}
		}
	}
	return out
}

// commonASPrefix computes the longest common leading AS sequence of the
// contributors' paths.
func commonASPrefix(rs []netmodel.Route) []netmodel.ASN {
	if len(rs) == 0 {
		return nil
	}
	common := append([]netmodel.ASN(nil), rs[0].ASPath.Seq...)
	for _, r := range rs[1:] {
		seq := r.ASPath.Seq
		n := 0
		for n < len(common) && n < len(seq) && common[n] == seq[n] {
			n++
		}
		common = common[:n]
		if len(common) == 0 {
			break
		}
	}
	return common
}
