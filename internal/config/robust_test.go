package config_test

import (
	"fmt"
	"strings"
	"testing"

	"hoyan/internal/config"
	"hoyan/internal/gen"
)

// Every keyword either parser switches on. Uploaded configurations reach the
// parsers unvalidated (hoyand's POST /v1/networks), so a keyword cut short of
// its arguments must come back as a parse error, never as a panic.
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
		{"alpha", config.ParseAlpha, truncatedCommands("hostname X\n", alphaSections, alphaKeywords, "no")},
		{"beta", config.ParseBeta, truncatedCommands("sysname X\n", betaSections, betaKeywords, "undo")},
	}
	for _, d := range dialects {
		for _, text := range d.inputs {
			if err := parseNoPanic(d.parse, text); err != nil {
				t.Errorf("%s: %q panics: %v", d.name, text, err)
			}
		}
	}

	// The two shapes that crashed ParseBeta, as errors.
	for _, text := range []string{"sysname x\nas-number", "sysname x\nbgp\n network\n"} {
		if _, err := config.ParseBeta("x", text); err == nil {
			t.Errorf("ParseBeta(%q): want a parse error", text)
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
	fuzzParser(f, config.ParseAlpha, config.SerializeAlpha)
}

func FuzzParseBeta(f *testing.F) {
	fuzzSeeds(f, "beta")
	fuzzParser(f, config.ParseBeta, config.SerializeBeta)
}
