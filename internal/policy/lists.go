// Package policy implements Hoyan's route-policy engine: prefix lists,
// community lists, AS-path lists, route maps (ordered permit/deny nodes with
// match and set clauses), and packet ACLs.
//
// Evaluation is parameterized by a vsb.Profile so the same policy text can be
// interpreted under different vendors' semantics — the mechanism behind the
// paper's accuracy-diagnosis campaign (§5) and the Figure 10(b) case study.
package policy

import (
	"fmt"
	"net/netip"
	"regexp"
	"sync"

	"hoyan/internal/netmodel"
	"hoyan/internal/vsb"
)

// Family is the address family a filter was declared for.
type Family uint8

// Address families.
const (
	FamilyIPv4 Family = iota
	FamilyIPv6
)

func (f Family) String() string {
	if f == FamilyIPv6 {
		return "ipv6"
	}
	return "ipv4"
}

// FamilyOf returns the family of a prefix.
func FamilyOf(p netip.Prefix) Family {
	if p.Addr().Is6() && !p.Addr().Is4In6() {
		return FamilyIPv6
	}
	return FamilyIPv4
}

// PrefixEntry is one line of a prefix list. Ge/Le extend the match to more
// specific prefix lengths; zero means "exact length only".
type PrefixEntry struct {
	Permit bool
	Prefix netip.Prefix
	Ge     int // minimum prefix length; 0 = exact
	Le     int // maximum prefix length; 0 = exact unless Ge is set
}

// Matches reports whether p matches the entry's prefix+length constraints.
func (e PrefixEntry) Matches(p netip.Prefix) bool {
	if FamilyOf(e.Prefix) != FamilyOf(p) {
		return false
	}
	if p.Bits() < e.Prefix.Bits() || !e.Prefix.Contains(p.Addr()) {
		return false
	}
	lo, hi := e.Prefix.Bits(), e.Prefix.Bits()
	if e.Ge > 0 {
		lo = e.Ge
		hi = p.Addr().BitLen()
	}
	if e.Le > 0 {
		hi = e.Le
	}
	return p.Bits() >= lo && p.Bits() <= hi
}

// PrefixList is a named, ordered list of prefix entries. Family records the
// command used to declare it ("ip-prefix" vs "ipv6-prefix"), which matters
// for the Figure 10(b) VSB.
type PrefixList struct {
	Name    string
	Family  Family
	Entries []PrefixEntry
}

// Match evaluates the list against prefix p under the given vendor profile.
// The first matching entry decides permit/deny; no match denies.
//
// VSB (Figure 10b): when an IPv4 list is applied to an IPv6 prefix and the
// profile has IPPrefixFilterPermitsIPv6, every IPv6 prefix is permitted.
func (l *PrefixList) Match(p netip.Prefix, prof vsb.Profile) bool {
	if l.Family == FamilyIPv4 && FamilyOf(p) == FamilyIPv6 {
		return prof.IPPrefixFilterPermitsIPv6
	}
	for _, e := range l.Entries {
		if e.Matches(p) {
			return e.Permit
		}
	}
	return false
}

// CommunityEntry is one line of a community list.
type CommunityEntry struct {
	Permit    bool
	Community netmodel.Community
}

// CommunityList is a named list of community entries. A route matches an
// entry when its community set contains the entry's community.
type CommunityList struct {
	Name    string
	Entries []CommunityEntry
}

// Match evaluates the list against a route's community set.
func (l *CommunityList) Match(cs netmodel.CommunitySet) bool {
	for _, e := range l.Entries {
		if cs.Contains(e.Community) {
			return e.Permit
		}
	}
	return false
}

// ASPathEntry is one line of an AS-path list: a regular expression over the
// textual AS path.
type ASPathEntry struct {
	Permit bool
	Regex  string
}

// Compile prepares (and caches) the entry's regular expression, reporting
// whether it is valid. Matching compiles on demand, so calling Compile is
// optional — a warm-up/validation hook for parsers.
func (e *ASPathEntry) Compile() error {
	_, err := compiledASPathRegex(e.Regex)
	return err
}

// regexCache memoizes compiled AS-path regexes process-wide. The same small
// set of patterns recurs across thousands of devices and every parallel
// worker, so caching here both removes recompilation from the hot path and
// keeps concurrent Match calls free of per-entry lazy-init races.
var regexCache sync.Map // regex string -> regexCacheEntry

type regexCacheEntry struct {
	re  *regexp.Regexp // nil when the pattern does not compile
	err error
}

func compiledASPathRegex(pattern string) (*regexp.Regexp, error) {
	if v, ok := regexCache.Load(pattern); ok {
		e := v.(regexCacheEntry)
		return e.re, e.err
	}
	re, err := regexp.Compile(pattern)
	if err != nil {
		re = nil
	}
	v, _ := regexCache.LoadOrStore(pattern, regexCacheEntry{re: re, err: err})
	e := v.(regexCacheEntry)
	return e.re, e.err
}

// ASPathList is a named list of AS-path regex entries.
type ASPathList struct {
	Name    string
	Entries []ASPathEntry
}

// Match evaluates the list against the textual AS path. Entries with
// invalid regexes never match.
func (l *ASPathList) Match(aspath string) bool {
	for i := range l.Entries {
		e := &l.Entries[i]
		if re, _ := compiledASPathRegex(e.Regex); re != nil && re.MatchString(aspath) {
			return e.Permit
		}
	}
	return false
}

// ACLEntry is one line of a packet ACL. Zero-valued prefixes match any
// address; zero port bounds match any port; Proto 0 matches any protocol.
type ACLEntry struct {
	Permit    bool
	Src, Dst  netip.Prefix
	Proto     netmodel.IPProto
	SrcPortLo uint16
	SrcPortHi uint16
	DstPortLo uint16
	DstPortHi uint16
}

// Matches reports whether the flow matches this entry.
func (e ACLEntry) Matches(f netmodel.Flow) bool {
	if e.Src.IsValid() && !e.Src.Contains(f.Src) {
		return false
	}
	if e.Dst.IsValid() && !e.Dst.Contains(f.Dst) {
		return false
	}
	if e.Proto != 0 && e.Proto != f.Proto {
		return false
	}
	if e.SrcPortHi != 0 && (f.SrcPort < e.SrcPortLo || f.SrcPort > e.SrcPortHi) {
		return false
	}
	if e.DstPortHi != 0 && (f.DstPort < e.DstPortLo || f.DstPort > e.DstPortHi) {
		return false
	}
	return true
}

// ACL is a named packet filter with an implicit trailing deny.
type ACL struct {
	Name    string
	Entries []ACLEntry
}

// Permits reports whether the ACL permits the flow (implicit deny).
func (a *ACL) Permits(f netmodel.Flow) bool {
	for _, e := range a.Entries {
		if e.Matches(f) {
			return e.Permit
		}
	}
	return false
}

func (f Family) GoString() string { return fmt.Sprintf("policy.Family(%d)", uint8(f)) }
