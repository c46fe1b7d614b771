package config

import (
	"slices"
	"strconv"
	"strings"

	"hoyan/internal/netmodel"
	"hoyan/internal/policy"
)

// Serialize renders the device in its own vendor's dialect. Every line is
// written with a form of that dialect's table, so ParseDevice reads back the
// same Device, with two losses, both beta's: it has no weight, and its
// route-policy node has no slot for an unset action, which renders as permit.
func Serialize(d *Device) string {
	w := &writer{dl: dialectOf(d.Vendor)}
	w.device(d)
	return w.b.String()
}

// writer renders a device with a dialect's forms.
type writer struct {
	dl    *dialect
	b     strings.Builder
	words []string
}

// emit writes the line of op's form with the given bindings, indented when
// the form belongs to a section.
func (w *writer) emit(o op, bs ...binding) {
	i := w.dl.render[o] - 1
	if w.dl.forms[i].scope > scopeRemoval {
		w.b.WriteByte(' ')
	}
	w.words = render(w.words[:0], w.dl.es[i], bs)
	for j, word := range w.words {
		if j > 0 {
			w.b.WriteByte(' ')
		}
		w.b.WriteString(word)
	}
	w.b.WriteByte('\n')
}

func (w *writer) end() { w.b.WriteString(w.dl.end + "\n") }

// bind is one binding; opt is one that is left out unless cond holds.
func bind(key string, words ...string) binding { return binding{key, words} }

func opt(cond bool, key string, words ...string) binding {
	if !cond {
		return binding{}
	}
	return binding{key, words}
}

func num[T ~uint32 | ~int | ~uint16](v T) string { return strconv.FormatInt(int64(v), 10) }

func action(permit bool) binding {
	if permit {
		return bind("action", "permit")
	}
	return bind("action", "deny")
}

func vrfIn(vrf string) binding { return opt(vrf != netmodel.DefaultVRF, "vrf", vrf) }

// device walks the model in the order configurations are written: header,
// interfaces, VRFs, BGP, route maps, filters, statics, SR and PBR policies.
func (w *writer) device(d *Device) {
	w.emit(opHostname, bind("name", d.Name))
	w.emit(opVendor, bind("vendor", w.dl.name))
	w.emit(opASN, bind("as", num(d.ASN)))
	if d.RouterID.IsValid() {
		w.emit(opRouterID, bind("addr", d.RouterID.String()))
	}
	if d.Loopback.IsValid() {
		w.emit(opLoopback, bind("addr", d.Loopback.String()))
	}
	if d.ISISEnabled {
		w.emit(opISIS)
	}
	if d.Isolated {
		w.emit(opIsolate)
	}
	w.end()
	for _, name := range sortedKeys(d.Interfaces) {
		i := d.Interfaces[name]
		w.emit(opInterface, bind("name", name))
		if i.Addr.IsValid() {
			w.emit(opIfAddr, bind("prefix", i.Addr.String()))
		}
		if i.ISISCost != 0 {
			w.emit(opISISCost, bind("cost", num(i.ISISCost)))
		}
		if i.TECost != 0 {
			w.emit(opTECost, bind("cost", num(i.TECost)))
		}
		if i.Bandwidth != 0 {
			w.emit(opBandwidth, bind("bw", strconv.FormatFloat(i.Bandwidth, 'g', -1, 64)))
		}
		if i.ACLIn != "" {
			w.emit(opACLIn, bind("acl", i.ACLIn))
		}
		if i.ACLOut != "" {
			w.emit(opACLOut, bind("acl", i.ACLOut))
		}
		if i.PBR != "" {
			w.emit(opIfPBR, bind("name", i.PBR))
		}
		w.end()
	}
	for _, name := range sortedKeys(d.VRFs) {
		v := d.VRFs[name]
		w.emit(opVRF, bind("name", name))
		if v.RD != "" {
			w.emit(opRD, bind("rd", v.RD))
		}
		for _, rt := range v.ImportRTs {
			w.emit(opImportRT, bind("rt", rt))
		}
		for _, rt := range v.ExportRTs {
			w.emit(opExportRT, bind("rt", rt))
		}
		if v.ExportPolicy != "" {
			w.emit(opVRFExportPolicy, bind("policy", v.ExportPolicy))
		}
		w.end()
	}
	if len(d.Neighbors) > 0 || len(d.Aggregates) > 0 || len(d.Redistributes) > 0 || len(d.Networks) > 0 || d.MaxPaths > 1 {
		w.bgp(d)
	}
	for _, name := range sortedKeys(d.RouteMaps) {
		nodes := d.RouteMaps[name].Nodes
		if len(nodes) == 0 { // defined but empty: it denies, unlike an undefined map
			w.emit(opRouteMap, bind("name", name))
		}
		for _, n := range nodes {
			w.node(name, n)
		}
	}
	w.filters(d)
	for _, st := range d.Statics {
		w.emit(opStatic, bind("prefix", st.Prefix.String()), bind("nh", st.NextHop.String()),
			opt(st.Preference != w.dl.staticPref, "v", num(st.Preference)), vrfIn(st.VRF))
	}
	for _, sp := range d.SRPolicies {
		w.emit(opSRPolicy, bind("name", sp.Name), bind("addr", sp.Endpoint.String()), bind("color", num(sp.Color)),
			opt(len(sp.Segments) > 0, "segments", sp.Segments...))
	}
	for _, name := range sortedKeys(d.PBRPolicies) {
		for _, r := range d.PBRPolicies[name] {
			w.emit(opPBR, append(aclBindings(r.Match), bind("name", name), bind("nh", r.NextHop.String()))...)
		}
	}
}

func (w *writer) bgp(d *Device) {
	w.emit(opBGP)
	if d.MaxPaths > 1 {
		w.emit(opMaxPaths, bind("paths", num(d.MaxPaths)))
	}
	for _, nb := range d.Neighbors {
		peer, vrf := bind("peer", nb.Addr.String()), vrfIn(nb.VRF)
		w.emit(opRemoteAS, peer, bind("as", num(nb.RemoteAS)), vrf)
		if nb.ImportPolicy != "" {
			w.emit(opImportPolicy, peer, bind("policy", nb.ImportPolicy), vrf)
		}
		if nb.ExportPolicy != "" {
			w.emit(opExportPolicy, peer, bind("policy", nb.ExportPolicy), vrf)
		}
		if nb.RRClient {
			w.emit(opRRClient, peer, vrf)
		}
		if nb.NextHopSelf {
			w.emit(opNextHopSelf, peer, vrf)
		}
		if nb.UpdateSource {
			w.emit(opUpdateSource, peer, vrf)
		}
		if nb.AddPaths > 1 {
			w.emit(opAddPaths, peer, bind("paths", num(nb.AddPaths)), vrf)
		}
	}
	for _, n := range d.Networks {
		w.emit(opNetwork, bind("prefix", n.String()))
	}
	for _, a := range d.Aggregates {
		w.emit(opAggregate, bind("prefix", a.Prefix.String()), opt(a.ASSet, "as-set"),
			opt(a.SummaryOnly, "summary-only"), vrfIn(a.VRF))
	}
	for _, r := range d.Redistributes {
		w.emit(opRedistribute, bind("proto", r.From.String()), opt(r.Policy != "", "policy", r.Policy))
	}
	w.end()
}

var matchOps = map[policy.MatchKind]op{
	policy.MatchPrefixList: opMatchPrefixList, policy.MatchCommunityList: opMatchCommunity,
	policy.MatchASPathList: opMatchASPath, policy.MatchProtocol: opMatchProtocol, policy.MatchPeerAddr: opMatchPeer,
}

var setOps = map[policy.SetKind]op{
	policy.SetLocalPref: opLocalPref, policy.SetMED: opMED, policy.SetWeight: opWeight,
	policy.SetPreference: opPreference, policy.SetCommunity: opSetCommunity, policy.AddCommunity: opAddCommunity,
	policy.DeleteCommunity: opDeleteCommunity, policy.SetNextHop: opNextHop, policy.PrependASPath: opPrepend,
	policy.ReplaceASPath: opReplaceASPath,
}

func (w *writer) node(name string, n *policy.Node) {
	act := binding{} // alpha leaves an unset action out, beta writes permit
	if n.Action != policy.ActionUnset {
		act = action(n.Action == policy.ActionPermit)
	}
	w.emit(opNode, bind("name", name), act, bind("seq", num(n.Seq)))
	for _, m := range n.Matches {
		w.emit(matchOps[m.Kind], bind("list", m.ListName), bind("proto", m.Protocol.String()), bind("peer", m.Addr.String()))
	}
	for _, st := range n.Sets {
		asns := make([]string, len(st.ASPath.Seq))
		for i, a := range st.ASPath.Seq {
			asns[i] = num(a)
		}
		if st.Kind == policy.PrependASPath {
			asns = []string{num(st.ASN)}
		}
		w.emit(setOps[st.Kind], bind("v", num(st.Value)), bind("count", num(st.Value)),
			bind("comm", st.Community.String()), bind("nh", st.NextHop.String()), bind("asn", asns...),
			opt(st.Kind == policy.SetCommunity, "comm", st.Communities.Strings()...))
	}
	w.end()
}

// filters writes the prefix, community and AS-path lists and the ACLs.
func (w *writer) filters(d *Device) {
	for _, name := range sortedKeys(d.PrefixLists) {
		l := d.PrefixLists[name]
		o := opPrefixList
		if l.Family == policy.FamilyIPv6 {
			o = opPrefixList6
		}
		for i, e := range l.Entries {
			w.emit(o, bind("list", name), bind("index", num((i+1)*10)), action(e.Permit), bind("prefix", e.Prefix.String()),
				opt(e.Ge != 0, "ge", num(e.Ge)), opt(e.Le != 0, "le", num(e.Le)))
		}
	}
	for _, name := range sortedKeys(d.CommunityLists) {
		for _, e := range d.CommunityLists[name].Entries {
			w.emit(opCommunityList, bind("list", name), action(e.Permit), bind("comm", e.Community.String()))
		}
	}
	for _, name := range sortedKeys(d.ASPathLists) {
		for _, e := range d.ASPathLists[name].Entries {
			w.emit(opASPathList, bind("list", name), action(e.Permit), bind("regex", `"`+e.Regex+`"`))
		}
	}
	for _, name := range sortedKeys(d.ACLs) {
		for _, e := range d.ACLs[name].Entries {
			w.emit(opACL, append(aclBindings(e), bind("acl", name), action(e.Permit))...)
		}
	}
}

// aclBindings are the ACL match options an entry sets.
func aclBindings(e policy.ACLEntry) []binding {
	proto := num(uint32(e.Proto))
	switch e.Proto {
	case netmodel.ProtoTCP:
		proto = "tcp"
	case netmodel.ProtoUDP:
		proto = "udp"
	}
	return []binding{
		opt(e.Proto != 0, "ipproto", proto),
		opt(e.Src.IsValid(), "src", e.Src.String()),
		opt(e.Dst.IsValid(), "dst", e.Dst.String()),
		opt(e.SrcPortHi != 0, "sport", num(e.SrcPortLo)+"-"+num(e.SrcPortHi)),
		opt(e.DstPortHi != 0, "dport", num(e.DstPortLo)+"-"+num(e.DstPortHi)),
	}
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}
