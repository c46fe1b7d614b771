package config

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"unicode"

	"hoyan/internal/par"
	"slices"
)

// DetectVendor inspects a configuration text and returns the dialect it is
// written in ("alpha" or "beta"), based on the vendor stanza or, failing
// that, dialect-specific keywords.
func DetectVendor(text string) string {
	for _, l := range splitLines(text) {
		f := strings.Fields(l.raw)
		if len(f) == 2 && f[0] == "vendor" {
			return f[1]
		}
		switch f[0] {
		case "hostname":
			return "alpha"
		case "sysname":
			return "beta"
		}
	}
	return "alpha"
}

// ParseDevice parses one device configuration text in the dialect
// DetectVendor names.
func ParseDevice(name, text string) (*Device, error) {
	return dialectOf(DetectVendor(text)).parse(name, text)
}

func (dl *dialect) parse(name, text string) (*Device, error) {
	d := NewDevice(name, dl.name)
	lines := splitLines(text)
	d.Lines = len(lines)
	if err := dl.apply(d, lines); err != nil {
		return nil, err
	}
	return d, nil
}

// BuildOptions tunes network-model building.
type BuildOptions struct {
	// Parallelism bounds the worker pool parsing device configurations
	// (par conventions: 0 = GOMAXPROCS, 1 = sequential).
	Parallelism int
}

// BuildNetworkOpts is the network-model-building service (§2.2): it parses
// all device configuration texts and derives the topology from them
// (Network.Topology) into the base network model. Two or more devices that
// derive no link are no network to verify: ErrNoLinks. Each device text
// parses independently on the worker pool into its own slot (devices are
// sorted by name first, so the reported error is the lexically-first failing
// device at any parallelism); the Network is then assembled single-threaded.
//
// topoOf, when set, runs last and may mark the monitored state on net.Topo
// (nodes and links down). Only the benchmark passes it: it installs a clone
// of the generator's topology, which equals the derived one.
func BuildNetworkOpts(configs map[string]string, topoOf func(net *Network) error, opts BuildOptions) (*Network, error) {
	names := make([]string, 0, len(configs))
	for name := range configs {
		names = append(names, name)
	}
	slices.Sort(names)

	devs := make([]*Device, len(names))
	errs := make([]error, len(names))
	par.ForEach(opts.Parallelism, len(names), func(i int) {
		devs[i], errs[i] = ParseDevice(names[i], configs[names[i]])
	})

	net := NewNetwork()
	for i := range names {
		if errs[i] != nil {
			return nil, fmt.Errorf("config: building model: %w", errs[i])
		}
		net.Devices[devs[i].Name] = devs[i]
	}
	if net.Topo = net.Topology(); len(net.Devices) >= 2 && len(net.Topo.Links()) == 0 {
		return nil, ErrNoLinks
	}
	if topoOf != nil {
		if err := topoOf(net); err != nil {
			return nil, err
		}
	}
	return net, nil
}

// LoadDir builds the network from a directory with one configuration file
// per device, named after the device (any extension).
func LoadDir(dir string, opts BuildOptions) (*Network, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	configs := make(map[string]string, len(entries))
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		text, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		configs[strings.TrimSuffix(e.Name(), filepath.Ext(e.Name()))] = string(text)
	}
	return BuildNetworkOpts(configs, nil, opts)
}

// ApplyCommands applies a block of change-plan command lines to the device,
// using the device's own dialect, maintaining section context across lines
// exactly like a CLI session. The device is modified in place; callers apply
// change plans to a Clone of the base model.
func ApplyCommands(d *Device, commands string) error {
	return dialectOf(d.Vendor).apply(d, splitLines(commands))
}

// apply runs the lines as one CLI session over d.
func (dl *dialect) apply(d *Device, lines []cfgLine) error {
	p := &parser{dl: dl, d: d}
	for _, l := range lines {
		if err := p.line(l); err != nil {
			return err
		}
	}
	for _, rm := range d.RouteMaps {
		rm.SortNodes()
	}
	return nil
}

// line matches one line against the forms its first word names that the
// open section allows, its own section's before the top-level ones, and
// applies the first that matches the whole line. This is the one place a
// configuration line is parsed.
func (p *parser) line(l cfgLine) error {
	words := strings.Fields(l.raw)
	if words[0] == p.dl.end {
		p.reset()
		return nil
	}
	first, scopes := 0, []scope{p.sec, scopeTop}
	if p.sec == scopeTop {
		scopes = scopes[1:]
	}
	if words[0] == p.dl.no {
		first, scopes = 1, []scope{scopeRemoval}
	}
	m := &p.m
	m.words, m.far, m.farKey = words, first, ""
	reason := "unknown command"
	if first < len(words) {
		for _, sc := range scopes {
			for _, i := range p.dl.byWord[words[first]] {
				f := p.dl.forms[i]
				if f.scope != sc || !m.match(p.dl.es[i], first) {
					continue
				}
				if f.scope == scopeTop {
					p.reset()
				}
				if err := apply[f.op](p, m.a); err != nil {
					return p.fail(l, first, err.Error())
				}
				return nil
			}
		}
		if len(p.dl.byWord[words[first]]) > 0 {
			reason = words[first] + " outside its section"
		}
	}
	switch {
	case m.farKey != "":
		reason = "bad " + m.farKey
	case m.far == len(words):
		reason = "incomplete command"
	case m.far > first:
		reason = fmt.Sprintf("unexpected %q", words[m.far])
	}
	return p.fail(l, m.far, reason)
}

func (p *parser) fail(l cfgLine, w int, reason string) error {
	return &ParseError{Device: p.d.Name, Line: l.n, Col: column(l.raw, w), Text: strings.TrimSpace(l.raw), Reason: reason}
}

// column is the 1-based column of word w of the line, or of the place just
// past its last word when the line has no word w.
func column(raw string, w int) int {
	at := 0
	for i := 0; ; i++ {
		start := strings.IndexFunc(raw[at:], func(r rune) bool { return !unicode.IsSpace(r) })
		if start < 0 {
			return at + 1
		}
		if at += start; i == w {
			return at + 1
		}
		end := strings.IndexFunc(raw[at:], unicode.IsSpace)
		if end < 0 {
			return len(raw) + 1
		}
		at += end
	}
}

// ParseError reports a configuration line that could not be parsed, and the
// 1-based column of the word where matching failed.
type ParseError struct {
	Device string
	Line   int
	Col    int
	Text   string
	Reason string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("config: %s line %d:%d: %s: %q", e.Device, e.Line, e.Col, e.Reason, e.Text)
}

// cfgLine is one non-empty, non-comment line and its 1-based line number.
type cfgLine struct {
	n   int
	raw string
}

func splitLines(text string) []cfgLine {
	out := make([]cfgLine, 0, strings.Count(text, "\n")+1)
	for i, raw := range strings.Split(text, "\n") {
		s := strings.TrimSpace(raw)
		if s == "" || strings.HasPrefix(s, "//") {
			continue
		}
		out = append(out, cfgLine{n: i + 1, raw: raw})
	}
	return out
}
