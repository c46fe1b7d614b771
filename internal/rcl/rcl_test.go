package rcl

import (
	"net/netip"
	"strings"
	"testing"

	"hoyan/internal/netmodel"
)

// figure6 builds the paper's Figure 6 base and updated global RIBs.
func figure6() (base, updated *netmodel.GlobalRIB) {
	mk := func(dev, vrf, prefix, comms string, lp uint32, nh string) netmodel.Route {
		cs, _ := netmodel.ParseCommunitySet(comms)
		return netmodel.Route{
			Device: dev, VRF: vrf,
			Prefix:    netip.MustParsePrefix(prefix),
			Protocol:  netmodel.ProtoBGP,
			NextHop:   netip.MustParseAddr(nh),
			Attrs:     &netmodel.Attrs{Communities: cs, LocalPref: lp},
			RouteType: netmodel.RouteBest,
		}
	}
	base = netmodel.NewGlobalRIB([]netmodel.Route{
		mk("A", "global", "10.0.0.0/24", "100:1", 100, "2.0.0.1"),
		mk("A", "vrf1", "20.0.0.0/24", "100:1,200:1", 10, "3.0.0.1"),
		mk("B", "global", "10.0.0.0/24", "100:1", 200, "4.0.0.1"),
	})
	updated = netmodel.NewGlobalRIB([]netmodel.Route{
		mk("A", "global", "10.0.0.0/24", "100:1", 300, "2.0.0.1"),
		mk("A", "vrf1", "20.0.0.0/24", "100:1,200:1", 10, "3.0.0.1"),
		mk("B", "global", "10.0.0.0/24", "100:1", 300, "4.0.0.1"),
	})
	return base, updated
}

func check(t *testing.T, spec string, base, updated *netmodel.GlobalRIB) *Result {
	t.Helper()
	g, err := Parse(spec)
	if err != nil {
		t.Fatalf("parse %q: %v", spec, err)
	}
	res, err := Check(g, base, updated)
	if err != nil {
		t.Fatalf("check %q: %v", spec, err)
	}
	return res
}

func TestPaperSection41Examples(t *testing.T) {
	base, updated := figure6()

	// Intent (a): routes with prefix 10.0.0.0/24 have local preference 300
	// after the change.
	res := check(t, "prefix = 10.0.0.0/24 => POST |> distVals(localPref) = {300}", base, updated)
	if !res.Holds {
		t.Errorf("intent (a) must hold: %v", res.Violations)
	}

	// Intent (b): routes with other prefixes remain unchanged.
	res = check(t, "prefix != 10.0.0.0/24 => PRE = POST", base, updated)
	if !res.Holds {
		t.Errorf("intent (b) must hold: %v", res.Violations)
	}

	// The negated form of (a) on the base RIB fails (base has 100 and 200).
	res = check(t, "prefix = 10.0.0.0/24 => PRE |> distVals(localPref) = {300}", base, updated)
	if res.Holds {
		t.Error("base RIB must violate localPref=300")
	}
	if len(res.Violations) == 0 {
		t.Fatal("want counterexamples")
	}
	if !strings.Contains(res.Violations[0].Detail, "{100, 200}") {
		t.Errorf("violation detail = %q", res.Violations[0].Detail)
	}
	if len(res.Violations[0].Routes) == 0 {
		t.Error("violation should carry example routes")
	}
}

func TestUseCaseUnchangedRoutes(t *testing.T) {
	base, updated := figure6()
	spec := `forall device in {A, B}:
	  forall prefix in {10.0.0.0/24, 20.0.0.0/24}:
	    routeType = BEST => PRE |> distVals(nexthop) = POST |> distVals(nexthop)`
	if res := check(t, spec, base, updated); !res.Holds {
		t.Errorf("next hops unchanged, intent must hold: %v", res.Violations)
	}
}

func TestUseCaseBlockedCommunity(t *testing.T) {
	base, updated := figure6()
	// The updated RIB still has routes with community 100:1 on A and B.
	spec := `forall device in {A, B}: POST||(communities has 100:1) |> count() = 0`
	res := check(t, spec, base, updated)
	if res.Holds {
		t.Error("intent must be violated (communities still present)")
	}
	// Two violations: one per device group.
	if len(res.Violations) != 2 {
		t.Errorf("violations = %d, want 2", len(res.Violations))
	}
	if !strings.Contains(res.Violations[0].Context, "forall device=A") {
		t.Errorf("context = %q", res.Violations[0].Context)
	}
}

func TestUseCaseConditionalChange(t *testing.T) {
	// Re-route: prefixes whose base next hop was {2.0.0.1} must move to
	// {9.9.9.9}; prefix 10.0.0.0/24 on A has base next hop 2.0.0.1 but still
	// points there after the change -> violated.
	base, updated := figure6()
	spec := `forall device in {A}: forall prefix:
	  (PRE |> distVals(nexthop) = {2.0.0.1}) imply (POST |> distVals(nexthop) = {9.9.9.9})`
	res := check(t, spec, base, updated)
	if res.Holds {
		t.Error("conditional change intent must be violated")
	}
	// And the vacuous case holds: base next hop not matching means no claim.
	spec2 := `forall device in {A}: forall prefix:
	  (PRE |> distVals(nexthop) = {1.2.3.4}) imply (POST |> distVals(nexthop) = {9.9.9.9})`
	if res := check(t, spec2, base, updated); !res.Holds {
		t.Errorf("vacuous imply must hold: %v", res.Violations)
	}
}

func TestForallGroupsAllValues(t *testing.T) {
	base, updated := figure6()
	// Every prefix must have exactly 1 distinct next hop per device — true
	// in Figure 6.
	spec := `forall device: forall prefix: POST |> distCnt(nexthop) = 1`
	if res := check(t, spec, base, updated); !res.Holds {
		t.Errorf("%v", res.Violations)
	}
	// Group over the whole table without per-device split: 10.0.0.0/24 has
	// two next hops (A and B rows).
	spec = `forall prefix: POST |> distCnt(nexthop) = 1`
	if res := check(t, spec, base, updated); res.Holds {
		t.Error("10.0.0.0/24 has 2 next hops across devices")
	}
}

func TestArithmeticAndRelational(t *testing.T) {
	base, updated := figure6()
	if res := check(t, "POST |> count() = PRE |> count()", base, updated); !res.Holds {
		t.Error("row counts equal")
	}
	if res := check(t, "POST |> count() >= 2 and PRE |> count() <= 3", base, updated); !res.Holds {
		t.Error("relational composition")
	}
	if res := check(t, "POST |> count() + 1 = 4", base, updated); !res.Holds {
		t.Error("arithmetic")
	}
	if res := check(t, "POST |> count() * 2 - 2 = 4", base, updated); !res.Holds {
		t.Error("arithmetic chain")
	}
}

func TestPredicateOperators(t *testing.T) {
	base, updated := figure6()
	cases := []struct {
		spec string
		want bool
	}{
		{"vrf = vrf1 => POST |> count() = 1", true},
		{"device in {A} and vrf = global => POST |> distVals(localPref) = {300}", true},
		{"not vrf = vrf1 => POST |> count() = 2", true},
		{"localPref >= 300 => POST |> count() = 2", true},
		{"communities contains 200:1 => POST |> distVals(device) = {A}", true},
		{"vrf = vrf1 or vrf = global => POST |> count() = 3", true},
		{"vrf = nosuchvrf => POST |> count() = 0", true},
	}
	for _, tc := range cases {
		if res := check(t, tc.spec, base, updated); res.Holds != tc.want {
			t.Errorf("%q = %v, want %v (%v)", tc.spec, res.Holds, tc.want, res.Violations)
		}
	}
}

func TestMatchesPredicate(t *testing.T) {
	r := netmodel.Route{
		Device: "A", VRF: "global",
		Prefix:    netip.MustParsePrefix("10.0.0.0/24"),
		NextHop:   netip.MustParseAddr("2.0.0.1"),
		Attrs:     &netmodel.Attrs{ASPath: netmodel.ASPath{Seq: []netmodel.ASN{65001, 123, 65002}}},
		RouteType: netmodel.RouteBest,
	}
	g := netmodel.NewGlobalRIB([]netmodel.Route{r})
	res := check(t, `aspath matches ".* 123 .*" => POST |> count() = 1`, g, g)
	if !res.Holds {
		t.Errorf("%v", res.Violations)
	}
	// Entire-string semantics: "123" alone must not match.
	res = check(t, `POST||(aspath matches "123") |> count() = 0`, g, g)
	if !res.Holds {
		t.Errorf("anchored match: %v", res.Violations)
	}
}

func TestRIBInequalityIntent(t *testing.T) {
	base, updated := figure6()
	if res := check(t, "PRE != POST", base, updated); !res.Holds {
		t.Error("RIBs differ")
	}
	if res := check(t, "PRE = PRE", base, updated); !res.Holds {
		t.Error("identity")
	}
	res := check(t, "PRE = POST", base, updated)
	if res.Holds {
		t.Error("must be violated")
	}
	if len(res.Violations) == 0 || len(res.Violations[0].Routes) == 0 {
		t.Error("diff rows expected as counterexample")
	}
}

func TestFilterChaining(t *testing.T) {
	base, updated := figure6()
	spec := "POST||device = A||vrf = global |> count() = 1"
	if res := check(t, spec, base, updated); !res.Holds {
		t.Errorf("%v", res.Violations)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"bogusfield = 3 => PRE = POST",
		"PRE == = POST",
		"forall nosuchfield: PRE = POST",
		"POST |> distVals() = {1}",
		"POST |> count(device) = 1",
		"POST |> frobnicate(device) = 1",
		"prefix = 10.0.0.0/24 =>",
		"PRE = POST extra",
		`aspath matches unquoted => PRE = POST`,
	}
	for _, spec := range bad {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) should fail", spec)
		}
	}
}

func TestCanonicalStringRoundTrip(t *testing.T) {
	specs := []string{
		"prefix = 10.0.0.0/24 => POST |> distVals(localPref) = {300}",
		"forall device in {R1, R2}: forall prefix: (PRE |> distVals(nexthop) = {1.2.3.4}) imply (POST |> distVals(nexthop) = {10.2.3.4})",
		"PRE != POST",
		"POST||(communities has 100:1) |> count() = 0",
		"not (PRE = POST) and POST |> count() >= 1",
	}
	for _, spec := range specs {
		g1, err := Parse(spec)
		if err != nil {
			t.Fatalf("parse %q: %v", spec, err)
		}
		canon := String(g1)
		g2, err := Parse(canon)
		if err != nil {
			t.Fatalf("reparse %q: %v", canon, err)
		}
		if String(g2) != canon {
			t.Errorf("canonical form unstable: %q vs %q", canon, String(g2))
		}
	}
}

func TestUnicodeAliases(t *testing.T) {
	base, updated := figure6()
	spec := "prefix = 10.0.0.0/24 ⇒ POST ▷ distVals(localPref) = {300}"
	if res := check(t, spec, base, updated); !res.Holds {
		t.Errorf("unicode spelling: %v", res.Violations)
	}
}

func TestSizeMetric(t *testing.T) {
	// Size counts internal nodes, the Figure 8 metric.
	cases := []struct {
		spec string
		want int
	}{
		// guarded(1) + pred(1) + evalcmp(1) + agg(1) = 4
		{"prefix = 10.0.0.0/24 => POST |> distVals(localPref) = {300}", 4},
		// ribcmp(1) = 1
		{"PRE = POST", 1},
		// forall(1) + evalcmp(1) + agg(1) + filter(1) + pred(1) = 5
		{"forall device in {A, B}: POST||(communities has 100:1) |> count() = 0", 5},
	}
	for _, tc := range cases {
		g := MustParse(tc.spec)
		if got := g.Size(); got != tc.want {
			t.Errorf("Size(%q) = %d, want %d", tc.spec, got, tc.want)
		}
	}
}

func TestViolationStringIncludesContext(t *testing.T) {
	base, updated := figure6()
	res := check(t, "forall device in {A, B}: POST||(communities has 100:1) |> count() = 0", base, updated)
	if res.Holds {
		t.Fatal("should fail")
	}
	s := res.Violations[0].String()
	if !strings.Contains(s, "forall device=") || !strings.Contains(s, "count()") {
		t.Errorf("violation string = %q", s)
	}
}

func TestOrRollsBackViolations(t *testing.T) {
	base, updated := figure6()
	// Left side fails, right side holds: no violations should remain.
	res := check(t, "PRE = POST or POST |> count() = 3", base, updated)
	if !res.Holds {
		t.Fatal("or must hold")
	}
	if len(res.Violations) != 0 {
		t.Errorf("violations should be rolled back: %v", res.Violations)
	}
}

func TestForallInEquivalentToConjunction(t *testing.T) {
	// forall χ in {v1, v2}: g  ≡  (χ=v1 => g') and (χ=v2 => g') where the
	// guard restricts both RIBs (Figure 11 semantics).
	base, updated := figure6()
	forall := check(t, "forall device in {A, B}: POST |> count() >= 1", base, updated)
	conj := check(t, "(device = A => POST |> count() >= 1) and (device = B => POST |> count() >= 1)", base, updated)
	if forall.Holds != conj.Holds {
		t.Errorf("forall-in %v != conjunction %v", forall.Holds, conj.Holds)
	}
}

func TestGuardEquivalentToFilter(t *testing.T) {
	// p => e ⊙ v over PRE/POST ≡ the same comparison with the predicate
	// pushed into filters.
	base, updated := figure6()
	guard := check(t, "vrf = global => POST |> count() = 2", base, updated)
	filt := check(t, "POST||vrf = global |> count() = 2", base, updated)
	if guard.Holds != filt.Holds || !guard.Holds {
		t.Errorf("guard %v vs filter %v", guard.Holds, filt.Holds)
	}
}

func TestNotInvolution(t *testing.T) {
	base, updated := figure6()
	specs := []string{"PRE = POST", "POST |> count() = 3", "prefix = 10.0.0.0/24 => PRE = POST"}
	for _, spec := range specs {
		direct := check(t, spec, base, updated)
		double := check(t, "not not ("+spec+")", base, updated)
		if direct.Holds != double.Holds {
			t.Errorf("double negation differs for %q", spec)
		}
	}
}

func TestEvalErrors(t *testing.T) {
	base, updated := figure6()
	bad := []string{
		"POST |> count() / 0 = 1",               // division by zero
		"POST |> distVals(nexthop) > {1.1.1.1}", // relational on sets
		"POST |> distVals(nexthop) + 1 = 2",     // arithmetic on sets
		"communities > 100:1 => PRE = POST",     // relational on set field
	}
	for _, spec := range bad {
		g, err := Parse(spec)
		if err != nil {
			continue // rejected at parse time is fine too
		}
		if _, err := Check(g, base, updated); err == nil {
			t.Errorf("Check(%q) should fail", spec)
		}
	}
}

// TestPrefixPredicateAllocs pins the per-row cost of the predicate that opens
// most specifications: a prefix comparison that does not match allocates
// nothing — no error text built in advance, no prefix string, no boxed field.
func TestPrefixPredicateAllocs(t *testing.T) {
	c := &checker{}
	p := &CmpPred{Field: netmodel.FieldPrefix, Op: OpEq, Value: "255.255.255.255/32"}
	r := netmodel.Route{Device: "A", VRF: "global", Prefix: netip.MustParsePrefix("2001:db8:aaaa:bbbb:cccc:dddd:eeee:0/112")}
	allocs := testing.AllocsPerRun(100, func() {
		if ok, err := c.evalPredicate(p, r); ok || err != nil {
			t.Fatalf("evalPredicate = %v, %v", ok, err)
		}
	})
	if allocs != 0 {
		t.Errorf("a non-matching prefix comparison allocates %v times per row, want 0", allocs)
	}
}

// TestPrefixPredicateIsTextual checks the stack-buffer comparison against the
// definition it replaces, cmpOrdered over Prefix.String(), for every operator.
func TestPrefixPredicateIsTextual(t *testing.T) {
	prefixes := []netip.Prefix{
		{}, netip.MustParsePrefix("10.0.0.0/8"), netip.MustParsePrefix("10.0.0.0/24"),
		netip.MustParsePrefix("9.255.0.1/32"), netip.MustParsePrefix("::ffff:10.0.0.0/104"),
		netip.MustParsePrefix("2001:db8::/32"),
	}
	lits := []string{"10.0.0.0/24", "10.0.0.0/8", "2001:db8::/32", "invalid Prefix", "", "zzz", "::ffff:10.0.0.0/104"}
	for _, pfx := range prefixes {
		for _, lit := range lits {
			for _, op := range []CmpOp{OpEq, OpNeq, OpLt, OpLe, OpGt, OpGe} {
				if got, want := comparePrefixText(op, pfx, lit), cmpOrdered(op, pfx.String(), lit); got != want {
					t.Errorf("%q %s %q = %v, want %v", pfx.String(), op, lit, got, want)
				}
			}
		}
	}
}

// TestRegexCompiledOncePerCheck: a matches-predicate's pattern is compiled at
// its first row and the error of a bad pattern still names the predicate.
func TestRegexCompiledOncePerCheck(t *testing.T) {
	base, updated := figure6()
	g, err := Parse(`POST||(device matches "A|B") |> count() = 3`)
	if err != nil {
		t.Fatal(err)
	}
	c := &checker{}
	if holds, err := c.intent(g, base.Rows(), updated.Rows()); err != nil || !holds {
		t.Fatalf("intent = %v, %v", holds, err)
	}
	if len(c.regexps) != 1 {
		t.Errorf("%d compiled patterns cached for one predicate over 3 rows, want 1", len(c.regexps))
	}
	bad, err := Parse(`POST||(device matches "(") |> count() = 0`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Check(bad, base, updated); err == nil || !strings.Contains(err.Error(), `device matches "("`) {
		t.Errorf("bad pattern: err = %v, want one naming the predicate", err)
	}
}

// MustParse panics on error; for test tables.
func MustParse(src string) Intent {
	g, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return g
}
