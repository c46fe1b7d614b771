package config

// scope is where a statement form applies. A top-level form applies in any
// section and closes it; a removal form applies in any section, starts with
// the dialect's removal word and leaves the section open; the rest apply
// only inside the section a header line opened.
type scope uint8

const (
	scopeTop scope = iota
	scopeRemoval
	scopeIface
	scopeVRF
	scopeBGP
	scopeNode
)

// form is one statement form: a template scoped to a section and bound to
// the op a matching line performs. The first of a dialect's forms bound to
// an op is the one the renderer writes; later ones are parse-only spellings.
type form struct {
	scope scope
	tmpl  string
	op    op
}

// dialect is a vendor's configuration language: every difference between
// the vendors is a value here.
type dialect struct {
	name       string
	end        string // closes the open section
	no         string // starts a removal
	staticPref uint32 // preference of a static route that names none
	forms      []form

	es     [][]elem         // forms[i] compiled
	byWord map[string][]int // indexes of the forms by their first word
	render [numOps]int      // index of the form each op renders with, +1
}

// The two dialects. Forms of one scope sharing a first word are tried in
// table order and the first that matches the whole line wins, so a narrower
// spelling comes before a wider one. "..." marks the words the vendor's CLI
// ignores.
var (
	alpha = newDialect("alpha", "!", "no", 1, []form{
		{scopeTop, "hostname <name>", opHostname},
		{scopeTop, "vendor <vendor> ...", opVendor},
		{scopeTop, "asn <as>", opASN},
		{scopeTop, "router-id <addr>", opRouterID},
		{scopeTop, "loopback <addr>", opLoopback},
		{scopeTop, "isis enable", opISIS},
		{scopeTop, "isolate ...", opIsolate},
		{scopeTop, "interface <name>", opInterface},
		{scopeTop, "vrf <name>", opVRF},
		{scopeTop, "router bgp", opBGP},
		{scopeTop, "route-map <name> [<action>] <seq> ...", opNode},
		{scopeTop, "route-map <name>", opRouteMap},
		{scopeTop, "ip prefix-list <list> <action> <prefix> {ge <ge> | le <le>}", opPrefixList},
		{scopeTop, "ipv6 prefix-list <list> <action> <prefix> {ge <ge> | le <le>}", opPrefixList6},
		{scopeTop, "ip|ipv6 community-list <list> <action> <comm>", opCommunityList},
		{scopeTop, "ip|ipv6 as-path-list <list> <action> <regex+>", opASPathList},
		{scopeTop, "ip|ipv6 access-list <acl> <action> " + aclMatch, opACL},
		{scopeTop, "ip|ipv6 route <prefix> <nh> {pref <v> | vrf <vrf>}", opStatic},
		{scopeTop, "sr-policy <name> endpoint <addr> color <color> [segments <segments...>]", opSRPolicy},
		{scopeTop, "pbr-policy <name> " + aclMatch + " next-hop <nh>", opPBR},

		{scopeIface, "ip address <prefix>", opIfAddr},
		{scopeIface, "isis cost <cost>", opISISCost},
		{scopeIface, "isis te-cost <cost>", opTECost},
		{scopeIface, "isis enable", opISISInInterface},
		{scopeIface, "bandwidth <bw>", opBandwidth},
		{scopeIface, "acl-in <acl>", opACLIn},
		{scopeIface, "acl-out <acl>", opACLOut},
		{scopeIface, "pbr <name>", opIfPBR},

		{scopeVRF, "rd <rd>", opRD},
		{scopeVRF, "route-target import <rt>", opImportRT},
		{scopeVRF, "route-target export <rt>", opExportRT},
		{scopeVRF, "export-policy <policy>", opVRFExportPolicy},

		{scopeBGP, "max-paths <paths>", opMaxPaths},
		{scopeBGP, "neighbor <peer> remote-as <as> [vrf <vrf>]", opRemoteAS},
		{scopeBGP, "neighbor <peer> route-map <policy> in [vrf <vrf>]", opImportPolicy},
		{scopeBGP, "neighbor <peer> route-map <policy> out [vrf <vrf>]", opExportPolicy},
		{scopeBGP, "neighbor <peer> route-reflector-client ... [vrf <vrf>]", opRRClient},
		{scopeBGP, "neighbor <peer> next-hop-self ... [vrf <vrf>]", opNextHopSelf},
		{scopeBGP, "neighbor <peer> update-source ... [vrf <vrf>]", opUpdateSource},
		{scopeBGP, "neighbor <peer> add-paths <paths> [vrf <vrf>]", opAddPaths},
		{scopeBGP, "network <prefix>", opNetwork},
		{scopeBGP, "aggregate-address <prefix> {as-set | summary-only | vrf <vrf>}", opAggregate},
		{scopeBGP, "redistribute <proto> [route-map <policy>]", opRedistribute},

		{scopeNode, "match ip-prefix <list> ...", opMatchPrefixList},
		{scopeNode, "match community <list> ...", opMatchCommunity},
		{scopeNode, "match as-path <list> ...", opMatchASPath},
		{scopeNode, "match protocol <proto> ...", opMatchProtocol},
		{scopeNode, "match peer <peer> ...", opMatchPeer},
		{scopeNode, "set local-preference <v> ...", opLocalPref},
		{scopeNode, "set med <v> ...", opMED},
		{scopeNode, "set weight <v> ...", opWeight},
		{scopeNode, "set preference <v> ...", opPreference},
		{scopeNode, "set community <comm+>", opSetCommunity},
		{scopeNode, "set community add <comm>", opAddCommunity},
		{scopeNode, "set community delete <comm>", opDeleteCommunity},
		{scopeNode, "set next-hop <nh> ...", opNextHop},
		{scopeNode, "set as-path prepend <asn> <count>", opPrepend},
		{scopeNode, "set as-path prepend <asn> ...", opPrepend},
		{scopeNode, "set as-path replace <asn+>", opReplaceASPath},

		{scopeRemoval, "isolate ...", opNoIsolate},
		{scopeRemoval, "route-map <name>", opNoRouteMap},
		{scopeRemoval, "route-map <name> [<word>] <seq>", opNoNode},
		{scopeRemoval, "neighbor <peer> vrf <vrf>", opNoNeighbor},
		{scopeRemoval, "neighbor <peer> route-map in", opNoImportPolicy},
		{scopeRemoval, "neighbor <peer> route-map <word>", opNoExportPolicy},
		{scopeRemoval, "neighbor <peer> ...", opNoNeighbor},
		{scopeRemoval, "ip route <prefix> <nh> vrf <vrf>", opNoStatic},
		{scopeRemoval, "ip route <prefix> <nh> ...", opNoStatic},
		{scopeRemoval, "ip prefix-list <list>", opNoPrefixList},
		{scopeRemoval, "ip community-list <list>", opNoCommunityList},
		{scopeRemoval, "ip access-list <acl>", opNoACL},
		{scopeRemoval, "aggregate-address <prefix> ...", opNoAggregate},
		{scopeRemoval, "sr-policy <name>", opNoSRPolicy},
		{scopeRemoval, "pbr-policy <name>", opNoPBR},
		{scopeRemoval, "network <prefix>", opNoNetwork},
	})

	// beta has no weight: the renderer writes it as a comment, so a
	// round trip through beta loses it, as it does on the real vendor. Its
	// prefix-list entries carry an index the renderer numbers by position.
	beta = newDialect("beta", "#", "undo", 60, []form{
		{scopeTop, "sysname <name>", opHostname},
		{scopeTop, "vendor <vendor> ...", opVendor},
		{scopeTop, "as-number <as>", opASN},
		{scopeTop, "router-id <addr>", opRouterID},
		{scopeTop, "loopback <addr>", opLoopback},
		{scopeTop, "isis enable", opISIS},
		{scopeTop, "isolate ...", opIsolate},
		{scopeTop, "interface <name>", opInterface},
		{scopeTop, "ip vpn-instance <name>", opVRF},
		{scopeTop, "bgp ...", opBGP},
		{scopeTop, "route-policy <name> <action> node <seq>", opNode},
		{scopeTop, "route-policy <name>", opRouteMap},
		{scopeTop, "ip ip-prefix <list> index <index> <action> <prefix> {greater-equal <ge> | less-equal <le>}", opPrefixList},
		{scopeTop, "ip ipv6-prefix <list> index <index> <action> <prefix> {greater-equal <ge> | less-equal <le>}", opPrefixList6},
		{scopeTop, "ip community-filter <list> <action> <comm>", opCommunityList},
		{scopeTop, "ip as-path-filter <list> <action> <regex+>", opASPathList},
		{scopeTop, "acl <acl> rule <action> " + aclMatch, opACL},
		{scopeTop, "ip route-static <prefix> <nh> {preference <v> | vpn-instance <vrf>}", opStatic},
		{scopeTop, "sr-policy <name> endpoint <addr> color <color> [segments <segments...>]", opSRPolicy},
		{scopeTop, "policy-based-route <name> " + aclMatch + " next-hop <nh>", opPBR},

		{scopeIface, "ip address <prefix>", opIfAddr},
		{scopeIface, "isis cost <cost>", opISISCost},
		{scopeIface, "isis te-cost <cost>", opTECost},
		{scopeIface, "isis enable", opISISInInterface},
		{scopeIface, "bandwidth <bw>", opBandwidth},
		{scopeIface, "traffic-filter inbound acl <acl>", opACLIn},
		{scopeIface, "traffic-filter outbound acl <acl>", opACLOut},
		{scopeIface, "pbr <name>", opIfPBR},

		{scopeVRF, "rd <rd>", opRD},
		{scopeVRF, "vpn-target <rt> import", opImportRT},
		{scopeVRF, "vpn-target <rt> export", opExportRT},
		{scopeVRF, "export route-policy <policy>", opVRFExportPolicy},

		{scopeBGP, "maximum load-balancing <paths>", opMaxPaths},
		{scopeBGP, "peer <peer> as-number <as> [vpn-instance <vrf>]", opRemoteAS},
		{scopeBGP, "peer <peer> route-policy <policy> import [vpn-instance <vrf>]", opImportPolicy},
		{scopeBGP, "peer <peer> route-policy <policy> export [vpn-instance <vrf>]", opExportPolicy},
		{scopeBGP, "peer <peer> reflect-client ... [vpn-instance <vrf>]", opRRClient},
		{scopeBGP, "peer <peer> next-hop-local ... [vpn-instance <vrf>]", opNextHopSelf},
		{scopeBGP, "peer <peer> connect-interface loopback [vpn-instance <vrf>]", opUpdateSource},
		{scopeBGP, "peer <peer> connect-interface ... [vpn-instance <vrf>]", opUpdateSource},
		{scopeBGP, "peer <peer> add-paths <paths> [vpn-instance <vrf>]", opAddPaths},
		{scopeBGP, "network <prefix>", opNetwork},
		{scopeBGP, "aggregate <prefix> {as-set | summary-only | vpn-instance <vrf>}", opAggregate},
		{scopeBGP, "import-route <proto> [route-policy <policy>]", opRedistribute},

		{scopeNode, "if-match ip-prefix|ipv6-prefix <list> ...", opMatchPrefixList},
		{scopeNode, "if-match community-filter <list> ...", opMatchCommunity},
		{scopeNode, "if-match as-path-filter <list> ...", opMatchASPath},
		{scopeNode, "if-match protocol <proto> ...", opMatchProtocol},
		{scopeNode, "if-match peer <peer> ...", opMatchPeer},
		{scopeNode, "apply local-preference <v> ...", opLocalPref},
		{scopeNode, "apply cost <v> ...", opMED},
		{scopeNode, "// weight <v> not supported on beta", opWeight},
		{scopeNode, "apply preference <v> ...", opPreference},
		{scopeNode, "apply community <comm+>", opSetCommunity},
		{scopeNode, "apply community <comm> additive", opAddCommunity},
		{scopeNode, "apply community delete <comm>", opDeleteCommunity},
		{scopeNode, "apply ip-address next-hop <nh>", opNextHop},
		{scopeNode, "apply as-path <asn> <count> additive", opPrepend},
		{scopeNode, "apply as-path <asn> ... additive", opPrepend},
		{scopeNode, "apply as-path <asn...> overwrite", opReplaceASPath},

		{scopeRemoval, "isolate ...", opNoIsolate},
		{scopeRemoval, "route-policy <name>", opNoRouteMap},
		{scopeRemoval, "route-policy <name> <word> node <seq>", opNoNode},
		{scopeRemoval, "peer <peer> vpn-instance <vrf>", opNoNeighbor},
		{scopeRemoval, "peer <peer> route-policy import", opNoImportPolicy},
		{scopeRemoval, "peer <peer> route-policy <word>", opNoExportPolicy},
		{scopeRemoval, "peer <peer> ...", opNoNeighbor},
		{scopeRemoval, "ip route-static <prefix> <nh> vpn-instance <vrf>", opNoStatic},
		{scopeRemoval, "ip route-static <prefix> <nh> ...", opNoStatic},
		{scopeRemoval, "ip ip-prefix|ipv6-prefix <list>", opNoPrefixList},
		{scopeRemoval, "ip community-filter <list>", opNoCommunityList},
		{scopeRemoval, "acl <acl>", opNoACL},
		{scopeRemoval, "aggregate <prefix> ...", opNoAggregate},
		{scopeRemoval, "sr-policy <name>", opNoSRPolicy},
		{scopeRemoval, "network <prefix>", opNoNetwork},
	})
)

// aclMatch is the ACL match both dialects spell alike.
const aclMatch = "{proto <ipproto> | src <src> | dst <dst> | sport <sport> | dport <dport>}"

func newDialect(name, end, no string, staticPref uint32, forms []form) *dialect {
	dl := &dialect{name: name, end: end, no: no, staticPref: staticPref, forms: forms, byWord: map[string][]int{}}
	for i, f := range forms {
		es := compile(f.tmpl)
		if es[0].kind != elemLit {
			panic("config: template " + f.tmpl + " does not start with a word")
		}
		dl.es = append(dl.es, es)
		for _, w := range es[0].words {
			dl.byWord[w] = append(dl.byWord[w], i)
		}
		if dl.render[f.op] == 0 {
			dl.render[f.op] = i + 1
		}
	}
	return dl
}

// dialectOf is the dialect a vendor name selects; anything but beta is
// alpha, as it always was.
func dialectOf(vendor string) *dialect {
	if vendor == beta.name {
		return beta
	}
	return alpha
}
