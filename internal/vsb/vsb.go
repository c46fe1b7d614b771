// Package vsb models vendor-specific behaviours (VSBs): the semantic
// differences between router vendors that the paper's accuracy-diagnosis
// framework uncovered (Table 5). Every VSB is a field of Profile; the
// simulator consults the profile of a device's vendor at each affected code
// path.
//
// Two synthetic vendors, alpha and beta, instantiate divergent profiles.
// Differential testing between them (and between a faithful and a flawed
// profile of the same vendor) reproduces the paper's accuracy campaign.
package vsb

// Profile captures one vendor's interpretation of the ambiguous behaviours
// in Table 5 of the paper. Field comments quote the table's description.
type Profile struct {
	// Vendor is the profile's vendor name.
	Vendor string

	// AcceptOnMissingPolicy: whether route updates are accepted when no
	// policy is defined on the neighbor. Consulted for eBGP sessions only;
	// every vendor accepts policy-less iBGP updates.
	AcceptOnMissingPolicy bool

	// AcceptOnUndefinedPolicy: whether route updates are accepted when an
	// undefined (referenced but never declared) policy is applied.
	AcceptOnUndefinedPolicy bool

	// AcceptOnNoMatch: whether route updates are accepted when they match no
	// explicit policy node (the "default route policy").
	AcceptOnNoMatch bool

	// UndefinedFilterMatchesAll: whether an undefined filter (prefix list,
	// community list, AS-path list) referenced from a policy is treated as
	// always matching.
	UndefinedFilterMatchesAll bool

	// PermitOnNoAction: whether a route update is accepted when a matching
	// policy node has no explicit permit or deny action.
	PermitOnNoAction bool

	// EBGPPreference / IBGPPreference: the default route preference
	// (administrative distance) attribute for eBGP and iBGP routes.
	EBGPPreference uint32
	IBGPPreference uint32

	// RedistributionWeight: the default weight set when routes are
	// redistributed into BGP (0 when no default weight is set).
	RedistributionWeight uint32

	// AddOwnASNAfterPolicyOverwrite: whether a device's own ASN is added
	// after a policy overwrites the AS path.
	AddOwnASNAfterPolicyOverwrite bool

	// AggregateKeepsCommonASPrefix: when aggregating routes without AS-set,
	// whether the common prefix of the contributors' AS paths is added to
	// the aggregate's AS path.
	AggregateKeepsCommonASPrefix bool

	// VRFExportPolicyOnGlobalLeak: whether a VRF's export policy is applied
	// to global iBGP routes that are leaked into VPNv4.
	VRFExportPolicyOnGlobalLeak bool

	// ReLeakRoutes: whether routes leaked into global VPNv4 from a VRF are
	// re-leaked into another VRF based on route targets.
	ReLeakRoutes bool

	// RedistributeDirect32: whether /32 routes produced by direct
	// connections can be redistributed.
	RedistributeDirect32 bool

	// SendDirect32ToPeer: whether /32 routes produced by direct connections
	// can be sent to peers if redistribution is permitted.
	SendDirect32ToPeer bool

	// SRTunnelIGPCostZero: whether a route's IGP cost is treated as 0 when
	// its destination is reached via an SR tunnel (the Figure 9 root cause).
	SRTunnelIGPCostZero bool

	// SubViewInheritsOptions: which configuration options are inherited in
	// sub-views; modelled as all-or-nothing inheritance of address-family
	// sub-view policy bindings.
	SubViewInheritsOptions bool

	// IsolationViaPolicy: whether devices are isolated through policies
	// (true) or through specific isolation configuration (false).
	IsolationViaPolicy bool

	// IPPrefixFilterPermitsIPv6: the Figure 10(b) behaviour — an "ip-prefix"
	// (IPv4) filter applied to IPv6 routes checks only IPv4 prefixes and
	// permits all IPv6 prefixes by default.
	IPPrefixFilterPermitsIPv6 bool
}

// Vendor names used throughout the repository.
const (
	VendorAlpha = "alpha"
	VendorBeta  = "beta"
)

// Alpha returns the profile of the synthetic vendor alpha (IOS-flavoured
// semantics: permissive defaults, weight in use, SR changes IGP cost — alpha
// is "vendor A" in the Figure 9 case study).
func Alpha() Profile {
	return Profile{
		Vendor:                        VendorAlpha,
		AcceptOnMissingPolicy:         true,
		AcceptOnUndefinedPolicy:       true,
		AcceptOnNoMatch:               false,
		UndefinedFilterMatchesAll:     true,
		PermitOnNoAction:              true,
		EBGPPreference:                20,
		IBGPPreference:                200,
		RedistributionWeight:          32768,
		AddOwnASNAfterPolicyOverwrite: true,
		AggregateKeepsCommonASPrefix:  true,
		VRFExportPolicyOnGlobalLeak:   false,
		ReLeakRoutes:                  false,
		RedistributeDirect32:          true,
		SendDirect32ToPeer:            true,
		SRTunnelIGPCostZero:           true,
		SubViewInheritsOptions:        true,
		IsolationViaPolicy:            true,
		IPPrefixFilterPermitsIPv6:     true,
	}
}

// Beta returns the profile of the synthetic vendor beta (VRP-flavoured
// semantics: restrictive defaults, no weight, SR does not change IGP cost).
func Beta() Profile {
	return Profile{
		Vendor:                        VendorBeta,
		AcceptOnMissingPolicy:         false,
		AcceptOnUndefinedPolicy:       false,
		AcceptOnNoMatch:               true,
		UndefinedFilterMatchesAll:     false,
		PermitOnNoAction:              false,
		EBGPPreference:                255,
		IBGPPreference:                255,
		RedistributionWeight:          0,
		AddOwnASNAfterPolicyOverwrite: false,
		AggregateKeepsCommonASPrefix:  false,
		VRFExportPolicyOnGlobalLeak:   true,
		ReLeakRoutes:                  true,
		RedistributeDirect32:          false,
		SendDirect32ToPeer:            false,
		SRTunnelIGPCostZero:           false,
		SubViewInheritsOptions:        false,
		IsolationViaPolicy:            false,
		IPPrefixFilterPermitsIPv6:     false,
	}
}

// Profiles maps vendor names to faithful profiles; the form the simulator
// consumes.
type Profiles map[string]Profile

// Defaults returns faithful profiles for all known vendors.
func Defaults() Profiles {
	return Profiles{VendorAlpha: Alpha(), VendorBeta: Beta()}
}

// For returns the profile for vendor, falling back to Alpha's semantics for
// unknown vendors (mirroring Hoyan's "model new vendors like the closest
// known one until diagnosed" practice).
func (ps Profiles) For(vendor string) Profile {
	if p, ok := ps[vendor]; ok {
		return p
	}
	p := Alpha()
	p.Vendor = vendor
	return p
}

// Mutation identifies one VSB field for fault injection: the accuracy
// campaign flips single fields of the "model under test" profile and checks
// the diagnosis framework localizes the divergence.
type Mutation string

// All mutations, one per Table 5 row (plus the Figure 10(b) filter VSB).
const (
	MutMissingPolicy      Mutation = "missing-route-policy"
	MutUndefinedPolicy    Mutation = "undefined-route-policy"
	MutDefaultPolicy      Mutation = "default-route-policy"
	MutUndefinedFilter    Mutation = "undefined-policy-filter"
	MutNoExplicitAction   Mutation = "no-explicit-permit-deny"
	MutDefaultPreference  Mutation = "default-bgp-preference"
	MutRedistWeight       Mutation = "weight-after-redistribution"
	MutAddOwnASN          Mutation = "adding-own-asn"
	MutCommonASPrefix     Mutation = "common-as-path-prefix"
	MutVRFExportPolicy    Mutation = "vrf-export-policy"
	MutReLeak             Mutation = "re-leaking-routes"
	MutRedistDirect32     Mutation = "redistributing-32-route"
	MutSend32ToPeer       Mutation = "sending-32-route-to-peer"
	MutSRIGPCost          Mutation = "igp-cost-for-sr"
	MutInheritViews       Mutation = "inheriting-views"
	MutDeviceIsolation    Mutation = "device-isolation"
	MutIPPrefixIPv6Filter Mutation = "ip-prefix-ipv6-filter"
)

// AllMutations lists every VSB mutation in Table 5 order.
var AllMutations = []Mutation{
	MutMissingPolicy, MutUndefinedPolicy, MutDefaultPolicy, MutUndefinedFilter,
	MutNoExplicitAction, MutDefaultPreference, MutRedistWeight, MutAddOwnASN,
	MutCommonASPrefix, MutVRFExportPolicy, MutReLeak, MutRedistDirect32,
	MutSend32ToPeer, MutSRIGPCost, MutInheritViews, MutDeviceIsolation,
	MutIPPrefixIPv6Filter,
}

// Apply flips the VSB named by m on a copy of p, returning the mutated
// profile. Boolean fields are inverted; numeric fields are set to the other
// vendor's convention.
func (m Mutation) Apply(p Profile) Profile {
	switch m {
	case MutMissingPolicy:
		p.AcceptOnMissingPolicy = !p.AcceptOnMissingPolicy
	case MutUndefinedPolicy:
		p.AcceptOnUndefinedPolicy = !p.AcceptOnUndefinedPolicy
	case MutDefaultPolicy:
		p.AcceptOnNoMatch = !p.AcceptOnNoMatch
	case MutUndefinedFilter:
		p.UndefinedFilterMatchesAll = !p.UndefinedFilterMatchesAll
	case MutNoExplicitAction:
		p.PermitOnNoAction = !p.PermitOnNoAction
	case MutDefaultPreference:
		if p.EBGPPreference == 20 {
			p.EBGPPreference, p.IBGPPreference = 255, 255
		} else {
			p.EBGPPreference, p.IBGPPreference = 20, 200
		}
	case MutRedistWeight:
		if p.RedistributionWeight == 0 {
			p.RedistributionWeight = 32768
		} else {
			p.RedistributionWeight = 0
		}
	case MutAddOwnASN:
		p.AddOwnASNAfterPolicyOverwrite = !p.AddOwnASNAfterPolicyOverwrite
	case MutCommonASPrefix:
		p.AggregateKeepsCommonASPrefix = !p.AggregateKeepsCommonASPrefix
	case MutVRFExportPolicy:
		p.VRFExportPolicyOnGlobalLeak = !p.VRFExportPolicyOnGlobalLeak
	case MutReLeak:
		p.ReLeakRoutes = !p.ReLeakRoutes
	case MutRedistDirect32:
		p.RedistributeDirect32 = !p.RedistributeDirect32
	case MutSend32ToPeer:
		p.SendDirect32ToPeer = !p.SendDirect32ToPeer
	case MutSRIGPCost:
		p.SRTunnelIGPCostZero = !p.SRTunnelIGPCostZero
	case MutInheritViews:
		p.SubViewInheritsOptions = !p.SubViewInheritsOptions
	case MutDeviceIsolation:
		p.IsolationViaPolicy = !p.IsolationViaPolicy
	case MutIPPrefixIPv6Filter:
		p.IPPrefixFilterPermitsIPv6 = !p.IPPrefixFilterPermitsIPv6
	}
	return p
}

// Description returns the Table 5 description for the mutation.
func (m Mutation) Description() string {
	switch m {
	case MutMissingPolicy:
		return "Whether route updates are accepted when no policy is defined."
	case MutUndefinedPolicy:
		return "Whether route updates are accepted when an undefined policy is applied."
	case MutDefaultPolicy:
		return "Whether route updates are accepted when they match no explicit policy."
	case MutUndefinedFilter:
		return "Whether an undefined filter is treated as always matching or not."
	case MutNoExplicitAction:
		return "Whether a route update is accepted when a matching policy has no explicit permit or deny action."
	case MutDefaultPreference:
		return "The default route preference attribute for iBGP and eBGP."
	case MutRedistWeight:
		return "Whether a default weight is set when routes are redistributed into BGP."
	case MutAddOwnASN:
		return "Whether a device's own ASN is added after a policy overwrites the AS path."
	case MutCommonASPrefix:
		return "When aggregating routes without using AS-set, whether the common prefix is added to the AS path."
	case MutVRFExportPolicy:
		return "Whether a VRF's export policy is applied to global iBGP routes that are leaked into VPNv4."
	case MutReLeak:
		return "Whether routes leaked into global VPNv4 from VRF should be re-leaked into another VRF based on RT."
	case MutRedistDirect32:
		return "Whether /32 routes produced by direct connections can be redistributed."
	case MutSend32ToPeer:
		return "Whether /32 routes produced by direct connections can be sent to peers if redistribution is permitted."
	case MutSRIGPCost:
		return "Whether a route's IGP cost is treated as 0 when its destination is reached via SR tunnel."
	case MutInheritViews:
		return "Which configuration options are inherited in sub-views."
	case MutDeviceIsolation:
		return "Whether devices are isolated through policies or specific configurations."
	case MutIPPrefixIPv6Filter:
		return "Whether an IPv4 prefix filter applied to IPv6 routes permits all IPv6 prefixes by default."
	}
	return string(m)
}
