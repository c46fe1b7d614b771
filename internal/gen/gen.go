// Package gen generates synthetic WAN (and WAN+DCN) snapshots: topology,
// per-device vendor configurations, input routes, and input flows. It is the
// repository's substitute for Alibaba's production network (see DESIGN.md):
// seeded and deterministic, with the structural features the paper's
// evaluation depends on — regions with route reflectors, core/border/DC
// tiers, two vendor dialects, route policies, aggregates, VRFs, SR policies,
// PBR, ACLs, ISP peers, and realistic route-propagation diversity (ISP
// routes travel few hops; DC routes travel many).
package gen

import (
	"fmt"
	"math/rand"
	"net/netip"
	"strconv"
	"strings"

	"hoyan/internal/config"
	"hoyan/internal/netmodel"
	"hoyan/internal/policy"
)

// Profile sizes a synthetic network.
type Profile struct {
	Name    string
	Seed    int64
	Regions int

	CoresPerRegion   int
	BordersPerRegion int
	RRsPerRegion     int
	DCsPerRegion     int
	ISPsPerRegion    int

	// DCNCorePerRegion adds DCN core-layer routers hanging off each DC
	// gateway (the WAN+DCN profile of Figure 1/5).
	DCNCorePerRegion int

	// PrefixesPerDC / PrefixesPerISP control input route counts.
	PrefixesPerDC  int
	PrefixesPerISP int

	// Flows is the total number of input flows.
	Flows int
}

// WAN returns a baseline WAN profile scaled by k (k=1 ≈ small test network;
// larger k grows towards the paper's >2000 routers).
func WAN(k int) Profile {
	if k < 1 {
		k = 1
	}
	return Profile{
		Name:             fmt.Sprintf("wan-x%d", k),
		Seed:             42,
		Regions:          2 + k,
		CoresPerRegion:   2 + k,
		BordersPerRegion: 2,
		RRsPerRegion:     1,
		DCsPerRegion:     2,
		ISPsPerRegion:    1,
		PrefixesPerDC:    8 * k,
		PrefixesPerISP:   6 * k,
		Flows:            200 * k,
	}
}

// WANDCN extends WAN(k) with DCN core layers (the WAN+DCN profile whose
// simulation the original centralized Hoyan could not complete).
func WANDCN(k int) Profile {
	p := WAN(k)
	p.Name = fmt.Sprintf("wan+dcn-x%d", k)
	p.DCNCorePerRegion = 4 * k
	return p
}

// Scale2017 approximates the 2017 requirement row of Table 1 (hundreds of
// routers, O(10^4) prefixes) at laptop scale.
func Scale2017() Profile { return WAN(2) }

// Scale2024 approximates the 2024 requirement row (>2000 routers, O(10^6)
// prefixes) — scaled down but proportionally larger than Scale2017.
func Scale2024() Profile { return WAN(6) }

// Output is a generated snapshot plus its simulation inputs.
type Output struct {
	Net    *config.Network
	Inputs []netmodel.Route
	Flows  []netmodel.Flow
	// Prefixes lists every generated input prefix (workload metadata).
	Prefixes []netip.Prefix
}

// builder state.
type builder struct {
	*Builder
	p   Profile
	rnd *rand.Rand

	dcRouters     []string
	borderRouters []string
	ispRouters    []string
	allWAN        []string
	prefixes      []netip.Prefix
	inputs        []netmodel.Route
}

const wanASN = netmodel.ASN(65000)

// Generate builds the network and inputs for a profile.
func Generate(p Profile) *Output {
	b := &builder{Builder: NewBuilder(netip.MustParsePrefix("172.16.0.0/12")), p: p, rnd: rand.New(rand.NewSource(p.Seed))}
	for r := 0; r < p.Regions; r++ {
		b.buildRegion(r)
	}
	b.interRegionLinks()
	b.ibgpMesh()
	b.buildInputs()
	flows := b.buildFlows()
	return &Output{Net: b.Network(), Inputs: b.inputs, Flows: flows, Prefixes: b.prefixes}
}

// WithDuplicateInputs returns the inputs plus a copy of every fifth one that
// carries one more community: the duplicate input keys WAN(k) has from k = 9
// up, on a fixture of any size. After EC expansion they leave RIB rows that
// tie on every column netmodel.CompareRouteKeys reads, and rows that are
// fully Identical — what the tests of the canonical order need. It is a
// test fixture the bgp, core and dsim tests share, exported because test
// files cannot import each other across packages.
func WithDuplicateInputs(inputs []netmodel.Route) []netmodel.Route {
	out := append([]netmodel.Route(nil), inputs...)
	for i := 0; i < len(inputs); i += 5 {
		dup := inputs[i]
		a := *dup.Attr()
		a.Communities = a.Communities.Add(netmodel.NewCommunity(65000, 777))
		dup.SetAttrs(&a)
		out = append(out, dup)
	}
	return out
}

// ConfigTexts serializes every device into its vendor dialect — the input of
// the network-model-building service.
func (o *Output) ConfigTexts() map[string]string {
	out := make(map[string]string, len(o.Net.Devices))
	for name, d := range o.Net.Devices {
		out[name] = config.Serialize(d)
	}
	return out
}

func (b *builder) vendorFor(i int) string {
	if i%2 == 0 {
		return "alpha"
	}
	return "beta"
}

func (b *builder) device(name, vendor string, asn netmodel.ASN, lo netip.Addr) *config.Device {
	d := b.Device(name, vendor, asn, lo)
	d.ISISEnabled = asn == wanASN
	d.MaxPaths = 4
	return d
}

// loopback allocates loopbacks from 100.64.0.0/10: 100.64+region, class, idx.
func loopback(region, class, idx int) netip.Addr {
	return netip.AddrFrom4([4]byte{100, byte(64 + region), byte(class), byte(idx + 1)})
}

// link wires two WAN devices with a 10G link.
func (b *builder) link(a, bdev string, cost uint32) { b.Link(a, bdev, cost, 1e10) }

func (b *builder) buildRegion(r int) {
	p := b.p
	var cores, borders, rrs, dcs []string

	for i := 0; i < p.RRsPerRegion; i++ {
		name := fmt.Sprintf("rr-%d-%d", r, i)
		b.device(name, b.vendorFor(r+i), wanASN, loopback(r, 1, i))
		rrs = append(rrs, name)
	}
	for i := 0; i < p.CoresPerRegion; i++ {
		name := fmt.Sprintf("core-%d-%d", r, i)
		b.device(name, b.vendorFor(i), wanASN, loopback(r, 2, i))
		cores = append(cores, name)
	}
	for i := 0; i < p.BordersPerRegion; i++ {
		name := fmt.Sprintf("border-%d-%d", r, i)
		b.device(name, b.vendorFor(r+i+1), wanASN, loopback(r, 3, i))
		borders = append(borders, name)
	}
	for i := 0; i < p.DCsPerRegion; i++ {
		name := fmt.Sprintf("dc-%d-%d", r, i)
		b.device(name, b.vendorFor(i+1), wanASN, loopback(r, 4, i))
		dcs = append(dcs, name)
	}

	// Intra-region fabric: core ring, everything else dual-homed to cores.
	for i := range cores {
		b.link(cores[i], cores[(i+1)%len(cores)], 10)
	}
	attach := func(name string, idx int) {
		b.link(name, cores[idx%len(cores)], 10)
		if len(cores) > 1 {
			b.link(name, cores[(idx+1)%len(cores)], 10)
		}
	}
	for i, name := range rrs {
		attach(name, i)
	}
	for i, name := range borders {
		attach(name, i+1)
	}
	for i, name := range dcs {
		attach(name, i+2)
	}

	// ISP peers: separate AS devices linked to borders.
	for i := 0; i < p.ISPsPerRegion; i++ {
		name := fmt.Sprintf("isp-%d-%d", r, i)
		asn := netmodel.ASN(64600 + 10*r + i)
		d := b.device(name, "alpha", asn, loopback(r, 5, i))
		// The ISP's external side, covering injected routes' next hops.
		d.Interfaces["upstream"] = &config.Interface{
			Name: "upstream",
			Addr: netip.PrefixFrom(netip.AddrFrom4([4]byte{203, 0, 113, byte(r*8 + i*4 + 1)}), 30),
		}
		border := borders[i%len(borders)]
		b.link(name, border, 10)
		b.ebgpPair(border, name)
		b.ispRouters = append(b.ispRouters, name)
	}

	// DCN core layer (WAN+DCN profile): chains below each DC gateway.
	for i := 0; i < p.DCNCorePerRegion; i++ {
		name := fmt.Sprintf("dcn-%d-%d", r, i)
		b.device(name, b.vendorFor(i), wanASN, loopback(r, 6, i))
		b.link(name, dcs[i%len(dcs)], 10)
		b.allWAN = append(b.allWAN, name)
	}

	b.configureRegionPolicies(r, borders, dcs)

	b.dcRouters = append(b.dcRouters, dcs...)
	b.borderRouters = append(b.borderRouters, borders...)
	b.allWAN = append(b.allWAN, rrs...)
	b.allWAN = append(b.allWAN, cores...)
	b.allWAN = append(b.allWAN, borders...)
	b.allWAN = append(b.allWAN, dcs...)
}

// ebgpPair configures the eBGP session between a WAN border and an ISP
// device over their direct link.
func (b *builder) ebgpPair(border, isp string) {
	nb, ni := b.EBGP(border, isp)
	nb.ImportPolicy, nb.ExportPolicy = "RM_ISP_IN", "RM_ISP_OUT"
	ni.ImportPolicy = "RM_WAN_IN"
	// ISP-side permissive import policy (so beta ISPs would also work).
	b.Net.Devices[isp].RouteMaps["RM_WAN_IN"] = &policy.RouteMap{Name: "RM_WAN_IN", Nodes: []*policy.Node{
		{Seq: 10, Action: policy.ActionPermit},
	}}
}

// configureRegionPolicies installs the border import/export policies and the
// per-region DC aggregates/filters.
func (b *builder) configureRegionPolicies(r int, borders, dcs []string) {
	regionComm := netmodel.NewCommunity(65000, uint16(r))
	noExport := netmodel.MustCommunity("65000:999")

	for _, name := range borders {
		d := b.Net.Devices[name]
		// Bogon filter: the WAN's own DC space must not come in from ISPs.
		d.PrefixLists["PL_BOGON"] = &policy.PrefixList{Name: "PL_BOGON", Family: policy.FamilyIPv4, Entries: []policy.PrefixEntry{
			{Permit: true, Prefix: netip.MustParsePrefix("10.0.0.0/8"), Le: 32},
		}}
		d.CommunityLists["CL_NOEXPORT"] = &policy.CommunityList{Name: "CL_NOEXPORT", Entries: []policy.CommunityEntry{
			{Permit: true, Community: noExport},
		}}
		// AS-path filter for a blocked transit AS. The pattern deliberately
		// distinguishes a correct regex engine (matches the standalone AS
		// 6540 only, which never occurs) from the historically flawed
		// substring matcher (which also hits 65400/65403 — §5.3).
		d.ASPathLists["AP_BLOCKED_TRANSIT"] = &policy.ASPathList{Name: "AP_BLOCKED_TRANSIT", Entries: []policy.ASPathEntry{
			{Permit: true, Regex: `(^|.* )6540( .*|$)`},
		}}
		d.RouteMaps["RM_ISP_IN"] = &policy.RouteMap{Name: "RM_ISP_IN", Nodes: []*policy.Node{
			{Seq: 10, Action: policy.ActionDeny, Matches: []policy.Match{{Kind: policy.MatchPrefixList, ListName: "PL_BOGON"}}},
			{Seq: 12, Action: policy.ActionDeny, Matches: []policy.Match{{Kind: policy.MatchASPathList, ListName: "AP_BLOCKED_TRANSIT"}}},
			{Seq: 20, Action: policy.ActionPermit, Sets: []policy.Set{
				{Kind: policy.SetLocalPref, Value: 80},
				{Kind: policy.AddCommunity, Community: netmodel.NewCommunity(64600, uint16(r))},
			}},
		}}
		d.RouteMaps["RM_ISP_OUT"] = &policy.RouteMap{Name: "RM_ISP_OUT", Nodes: []*policy.Node{
			{Seq: 10, Action: policy.ActionDeny, Matches: []policy.Match{{Kind: policy.MatchCommunityList, ListName: "CL_NOEXPORT"}}},
			{Seq: 20, Action: policy.ActionPermit},
		}}
		// A couple of static routes toward the ISP side on even borders.
		if r%2 == 0 {
			d.Statics = append(d.Statics, config.StaticRoute{
				VRF:        netmodel.DefaultVRF,
				Prefix:     netip.MustParsePrefix(fmt.Sprintf("192.168.%d.0/24", r)),
				NextHop:    d.Loopback,
				Preference: 1,
			})
		}
	}

	for i, name := range dcs {
		d := b.Net.Devices[name]
		// Per-region aggregate on the first DC gateway.
		if i == 0 {
			d.Aggregates = append(d.Aggregates, config.Aggregate{
				VRF: netmodel.DefaultVRF, Prefix: netip.MustParsePrefix(fmt.Sprintf("10.%d.0.0/16", r)),
			})
		}
		// Region community tag applied to everything leaving the DC gateway.
		d.RouteMaps["RM_TAG"] = &policy.RouteMap{Name: "RM_TAG", Nodes: []*policy.Node{
			{Seq: 10, Action: policy.ActionPermit, Sets: []policy.Set{
				{Kind: policy.AddCommunity, Community: regionComm},
			}},
		}}
		// One VRF per first-DC with an RT pair (exercises leaking).
		if i == 0 {
			d.VRFs["svc"] = &config.VRF{Name: "svc", RD: fmt.Sprintf("65000:%d", r),
				ImportRTs: []string{"rt-svc"}, ExportRTs: []string{"rt-svc"}}
		}
	}

	// One SR policy per region: first border steers to the next region's
	// first border.
	if len(borders) > 0 {
		d := b.Net.Devices[borders[0]]
		next := (r + 1) % b.p.Regions
		d.SRPolicies = append(d.SRPolicies, &config.SRPolicy{
			Name:     fmt.Sprintf("SR-R%d", next),
			Endpoint: loopback(next, 3, 0),
			Color:    uint32(100 + next),
		})
	}
}

// interRegionLinks wires each region's cores to the next region's cores
// (ring plus one chord for diversity).
func (b *builder) interRegionLinks() {
	p := b.p
	if p.Regions < 2 {
		return
	}
	for r := 0; r < p.Regions; r++ {
		next := (r + 1) % p.Regions
		if next == r {
			continue
		}
		b.link(fmt.Sprintf("core-%d-0", r), fmt.Sprintf("core-%d-0", next), 100)
		b.link(fmt.Sprintf("core-%d-1", r), fmt.Sprintf("core-%d-1", next), 100)
	}
	if p.Regions > 3 {
		b.link("core-0-0", fmt.Sprintf("core-%d-0", p.Regions/2), 150)
	}
}

// ibgpMesh makes every WAN router an RR client of its region's reflectors
// and full-meshes the reflectors across regions.
func (b *builder) ibgpMesh() {
	p := b.p
	var allRRs []string
	for r := 0; r < p.Regions; r++ {
		for i := 0; i < p.RRsPerRegion; i++ {
			allRRs = append(allRRs, fmt.Sprintf("rr-%d-%d", r, i))
		}
	}
	session := func(a, bdev string, clientOfA bool) {
		na, _ := b.IBGP(a, bdev)
		na.RRClient = clientOfA
	}
	for r := 0; r < p.Regions; r++ {
		rr := fmt.Sprintf("rr-%d-0", r)
		for _, name := range b.allWAN {
			if name == rr || !inRegion(name, r) || isRR(name) {
				continue
			}
			session(rr, name, true)
		}
	}
	// RR full mesh (non-client).
	for i := 0; i < len(allRRs); i++ {
		for j := i + 1; j < len(allRRs); j++ {
			session(allRRs[i], allRRs[j], false)
		}
	}
}

func isRR(name string) bool { return strings.HasPrefix(name, "rr-") }

// inRegion parses the "<class>-<region>-<idx>" device naming convention.
func inRegion(name string, r int) bool {
	parts := strings.Split(name, "-")
	if len(parts) != 3 {
		return false
	}
	region, err := strconv.Atoi(parts[1])
	return err == nil && region == r
}

// buildInputs creates the input routes: DC prefixes injected at DC gateways
// (long AS paths within the DC fabric) and internet prefixes injected at ISP
// routers (short propagation, per §3.2's diminishing-returns discussion).
func (b *builder) buildInputs() {
	p := b.p
	for r := 0; r < p.Regions; r++ {
		for i := 0; i < p.DCsPerRegion; i++ {
			dc := fmt.Sprintf("dc-%d-%d", r, i)
			for j := 0; j < p.PrefixesPerDC; j++ {
				pr := netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(r), byte(i*64 + j%64), 0}), 24)
				b.prefixes = append(b.prefixes, pr)
				comms := netmodel.NewCommunitySet(netmodel.NewCommunity(65000, uint16(r)))
				// A slice of DC routes carries the no-export community.
				if j%7 == 6 {
					comms = comms.Add(netmodel.MustCommunity("65000:999"))
				}
				b.inputs = append(b.inputs, netmodel.Route{
					Device: dc, VRF: netmodel.DefaultVRF,
					Prefix:   pr,
					Protocol: netmodel.ProtoBGP,
					NextHop:  b.Net.Devices[dc].Loopback,
					Attrs:    &netmodel.Attrs{LocalPref: 100, Communities: comms, Origin: netmodel.OriginIGP},
					Source:   dc,
				})
			}
		}
	}
	for idx, isp := range b.ispRouters {
		d := b.Net.Devices[isp]
		var nh netip.Addr
		if up := d.Interfaces["upstream"]; up != nil {
			nh = up.Addr.Addr().Next()
		} else {
			nh = d.Loopback
		}
		for j := 0; j < b.p.PrefixesPerISP; j++ {
			pr := netip.PrefixFrom(netip.AddrFrom4([4]byte{byte(20 + idx%40), byte(j / 250), byte(j % 250), 0}), 24)
			b.prefixes = append(b.prefixes, pr)
			path := netmodel.ASPath{Seq: []netmodel.ASN{netmodel.ASN(65100 + j%50)}}
			if j%3 == 0 {
				path = path.Prepend(netmodel.ASN(65400 + j%20))
			}
			b.inputs = append(b.inputs, netmodel.Route{
				Device: isp, VRF: netmodel.DefaultVRF,
				Prefix:   pr,
				Protocol: netmodel.ProtoBGP,
				NextHop:  nh,
				Attrs:    &netmodel.Attrs{ASPath: path, Origin: netmodel.OriginEGP},
				Source:   isp,
			})
		}
	}
}

// buildFlows samples flows: destinations drawn from the generated prefixes,
// ingress drawn from DC gateways and borders.
func (b *builder) buildFlows() []netmodel.Flow {
	ingresses := append(append([]string(nil), b.dcRouters...), b.borderRouters...)
	if len(ingresses) == 0 || len(b.prefixes) == 0 {
		return nil
	}
	// Traffic is skewed: most flows head to a small set of hot prefixes,
	// like production traffic (and like the paper's 10^9 flows over 10^6
	// prefixes). The skew is what makes the flow-EC technique effective.
	hot := len(b.prefixes) / 10
	if hot < 1 {
		hot = 1
	}
	flows := make([]netmodel.Flow, 0, b.p.Flows)
	for i := 0; i < b.p.Flows; i++ {
		var dstP netip.Prefix
		if b.rnd.Float64() < 0.7 {
			dstP = b.prefixes[b.rnd.Intn(hot)]
		} else {
			dstP = b.prefixes[b.rnd.Intn(len(b.prefixes))]
		}
		dst := dstP.Addr()
		for k := 0; k < 1+b.rnd.Intn(3); k++ {
			dst = dst.Next()
		}
		srcP := b.prefixes[b.rnd.Intn(len(b.prefixes))]
		flows = append(flows, netmodel.Flow{
			Ingress: ingresses[b.rnd.Intn(len(ingresses))],
			Src:     srcP.Addr().Next(),
			Dst:     dst,
			SrcPort: uint16(1024 + b.rnd.Intn(60000)),
			DstPort: []uint16{80, 443, 8080, 53}[b.rnd.Intn(4)],
			Proto:   netmodel.ProtoTCP,
			Volume:  float64(1+b.rnd.Intn(100)) * 1e6,
		})
	}
	return flows
}
