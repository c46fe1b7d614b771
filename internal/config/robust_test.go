package config_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"hoyan/internal/config"
	"hoyan/internal/gen"
)

// The keywords the hand-written parsers switched on, kept as a floor; the
// truncation test adds every literal word of the dialect's forms, so a word
// added to a table is tested without editing this list. Uploaded
// configurations reach the parser unvalidated (hoyand's POST /v1/networks),
// so a keyword cut short of its arguments must come back as a parse error,
// never as a panic.
var (
	alphaKeywords = strings.Fields(`access-list acl-in acl-out add add-paths aggregate aggregate-address
		as-path as-path-list as-set asn bandwidth bgp community community-list delete direct export-policy
		hostname in interface ip ip-prefix ipv6 isis isolate local-preference loopback match max-paths med
		neighbor network next-hop next-hop-self no out pbr pbr-policy peer pref preference prefix-list prepend
		protocol rd redistribute remote-as replace route route-map route-reflector-client route-target router
		router-id set sr-policy static summary-only update-source vendor vrf weight`)
	alphaSections = []string{"", "interface e0", "vrf v1", "router bgp 65001", "route-map RM permit 10"}

	betaKeywords = strings.Fields(`acl add-paths additive aggregate apply as-number as-path as-path-filter
		as-set bandwidth bgp community community-filter connect-interface cost export if-match import
		import-route inbound interface ip ip-address ip-prefix ipv6-prefix isis isolate local-preference
		loopback maximum network next-hop-local outbound overwrite pbr peer policy-based-route preference
		protocol rd reflect-client route-policy route-static router-id sr-policy summary-only sysname
		traffic-filter undo vendor vpn-instance vpn-target`)
	betaSections = []string{"", "interface e0", "ip vpn-instance v1", "bgp 65001", "route-policy RP permit node 10"}
)

// keywords is the union of the floor list and the dialect's form words.
func keywords(floor []string, vendor string) []string {
	words := append(slices.Clone(floor), config.FormWords(vendor)...)
	slices.Sort(words)
	return slices.Compact(words)
}

// truncatedCommands puts every keyword alone on a line — and after the
// removal prefix, and after every other keyword, which reaches the two-word
// commands ("ip route-static", "peer X as-number") cut off after the second —
// at top level and inside every section.
func truncatedCommands(header string, sections, keywords []string, removal string) []string {
	var out []string
	for _, sec := range sections {
		open := header
		if sec != "" {
			open += sec + "\n"
		}
		for _, kw := range keywords {
			out = append(out, open+" "+kw+"\n", open+" "+removal+" "+kw+"\n")
			for _, kw2 := range keywords {
				out = append(out, open+" "+kw+" "+kw2+"\n")
			}
		}
	}
	return out
}

// parseIn is the named dialect's parser, whatever a text's stanzas say.
func parseIn(vendor string) func(name, text string) (*config.Device, error) {
	return func(name, text string) (*config.Device, error) { return config.ParseIn(vendor, name, text) }
}

// parseNoPanic runs one parser on text and turns a panic into an error the
// caller reports with the input that caused it.
func parseNoPanic(parse func(name, text string) (*config.Device, error), text string) (panicked error) {
	defer func() {
		if r := recover(); r != nil {
			panicked = fmt.Errorf("%v", r)
		}
	}()
	_, _ = parse("X", text)
	return nil
}

func TestTruncatedCommandsNeverPanic(t *testing.T) {
	dialects := []struct {
		name   string
		parse  func(name, text string) (*config.Device, error)
		inputs []string
	}{
		{"alpha", parseIn("alpha"), truncatedCommands("hostname X\n", alphaSections, keywords(alphaKeywords, "alpha"), "no")},
		{"beta", parseIn("beta"), truncatedCommands("sysname X\n", betaSections, keywords(betaKeywords, "beta"), "undo")},
	}
	for _, d := range dialects {
		for _, text := range d.inputs {
			if err := parseNoPanic(d.parse, text); err != nil {
				t.Errorf("%s: %q panics: %v", d.name, text, err)
			}
		}
	}

	// The shapes that once crashed a parser, as errors: a cut-short beta
	// line, and a session line that names only its VRF.
	for _, c := range []struct{ vendor, text string }{
		{"beta", "sysname x\nas-number"},
		{"beta", "sysname x\nbgp\n network\n"},
		{"alpha", "router bgp\n neighbor 1.1.1.1 vrf V\n"},
		{"beta", "bgp\n peer 1.1.1.1 vpn-instance V\n"},
	} {
		if _, err := config.ParseIn(c.vendor, "x", c.text); err == nil {
			t.Errorf("%s %q: want a parse error", c.vendor, c.text)
		}
	}
}

// TestLongOptionLines parses lines of a million repeated options. An option
// set is matched in a loop, so such a line costs no stack: an uploaded
// configuration of one long line comes back as a device or a parse error,
// never as a stack overflow, which no recover can catch.
func TestLongOptionLines(t *testing.T) {
	const n = 1 << 20
	for _, c := range []struct {
		vendor, text string
		ok           bool
	}{
		{"alpha", "router bgp\n aggregate-address 10.0.0.0/8" + strings.Repeat(" as-set", n) + " summary-only\n", true},
		{"alpha", "ip access-list A permit" + strings.Repeat(" src any", n) + "\n", true},
		{"alpha", "pbr-policy P" + strings.Repeat(" src any", n) + "\n", false},
		{"beta", "bgp\n aggregate 10.0.0.0/8" + strings.Repeat(" as-set", n) + "\n", true},
		{"beta", "ip ip-prefix L index 1 permit 10.0.0.0/8" + strings.Repeat(" greater-equal 9", n) + " less-equal 24\n", true},
		{"beta", "policy-based-route P" + strings.Repeat(" dport 80", n) + " next-hop x\n", false},
	} {
		d, err := config.ParseIn(c.vendor, "X", c.text)
		if c.ok != (err == nil) {
			t.Errorf("%s %.60q...: parse error %v, want ok=%v", c.vendor, c.text, err, c.ok)
			continue
		}
		if _, isPE := err.(*config.ParseError); err != nil && !isPE {
			t.Errorf("%s %.60q...: want a *ParseError, got %T", c.vendor, c.text, err)
		}
		if d != nil && len(d.Aggregates) == 1 && !d.Aggregates[0].ASSet {
			t.Errorf("%s: aggregate lost its as-set: %+v", c.vendor, d.Aggregates[0])
		}
	}
}

// fuzzSeeds is one generated device configuration per role in the given
// dialect, plus the inputs that once crashed a parser.
func fuzzSeeds(f *testing.F, vendor string) {
	out := gen.Generate(gen.WAN(1))
	texts := out.ConfigTexts()
	seen := map[string]bool{}
	for _, name := range out.Net.DeviceNames() {
		role := strings.SplitN(name, "-", 2)[0]
		if out.Net.Devices[name].Vendor != vendor || seen[role] {
			continue
		}
		seen[role] = true
		f.Add(texts[name])
	}
	if len(seen) == 0 {
		f.Fatalf("gen.WAN(1) has no %s device", vendor)
	}
	f.Add("sysname x\nas-number")
	f.Add("sysname x\nbgp\n network\n")
}

// fuzzParser: no input panics the parser, and whatever parses serializes to
// a text that parses to the same serialization (parse → serialize is a fixed
// point after one round).
func fuzzParser(f *testing.F, parse func(name, text string) (*config.Device, error), serialize func(*config.Device) string) {
	f.Fuzz(func(t *testing.T, text string) {
		d, err := parse("X", text)
		if err != nil {
			return
		}
		once := serialize(d)
		d2, err := parse("X", once)
		if err != nil {
			t.Fatalf("serialized form does not parse: %v\n%s", err, once)
		}
		if twice := serialize(d2); twice != once {
			t.Fatalf("serialize is not a fixed point:\n--- once\n%s\n--- twice\n%s", once, twice)
		}
	})
}

func FuzzParseAlpha(f *testing.F) {
	fuzzSeeds(f, "alpha")
	fuzzParser(f, parseIn("alpha"), config.Serialize)
}

func FuzzParseBeta(f *testing.F) {
	fuzzSeeds(f, "beta")
	fuzzParser(f, parseIn("beta"), config.Serialize)
}

// TestGeneratedConfigDigests pins the bytes of every generated configuration:
// serialization feeds the snapshot wire bytes and the benchmark's config
// texts, so any byte-level change to the renderer fails here.
func TestGeneratedConfigDigests(t *testing.T) {
	for _, c := range []struct {
		k    int
		want string
	}{
		{1, "f345c028f1a3de6a5a83d101639460a1a5f19cf9cd1bdc2f9ef9c86f6e9762c0"},
		{2, "996c6fbf148837c6cf89ab7c8c1cf7496ade78dcab29fefba321ce34babf1e11"},
		{4, "b53feec61b32370a2ae95f69e7072880f818867bbf7089bce3606fd103f7a1aa"},
		{10, "dccd76df9c7323b187986bdb0adfe985a85726e2fa899be1a464d8356f0e13c1"},
	} {
		texts := gen.Generate(gen.WAN(c.k)).ConfigTexts()
		h := sha256.New()
		names := make([]string, 0, len(texts))
		for name := range texts {
			names = append(names, name)
		}
		slices.Sort(names)
		for _, name := range names {
			h.Write([]byte(name + "\x00" + texts[name] + "\x00"))
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != c.want {
			t.Errorf("WAN(%d): config digest %s, want %s", c.k, got, c.want)
		}
	}
}

// TestParallelBuildMatchesSequential parses the generated configurations on
// several goroutines at once: the dialect tables and ops are shared by every
// parse, so under -race this is the check that nothing in them is written.
func TestParallelBuildMatchesSequential(t *testing.T) {
	texts := gen.Generate(gen.WAN(1)).ConfigTexts()
	seq, err := config.BuildNetworkOpts(texts, nil, config.BuildOptions{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := config.BuildNetworkOpts(texts, nil, config.BuildOptions{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Error("parallel build differs from sequential")
	}
}
