package config

import (
	"fmt"
	"net/netip"
	"slices"
	"strconv"
	"strings"

	"hoyan/internal/netmodel"
)

// A statement form's template is a line of words:
//
//	word      a literal; "ip|ipv6" accepts either and renders the first
//	<key>     one typed slot; slotTypes maps the key to its type
//	<key...>  zero or more slots of that type; <key+> one or more
//	...       any further words, ignored and never rendered
//	[ ... ]   an optional group
//	{a | b}   keyed options in any order, each any number of times (the
//	          last occurrence wins)
//
// A group or option without slots binds its first word as a key when it is
// taken, so "{as-set | summary-only}" reports which flags the line carried.
// Rendering a group or option takes place when every key it binds is bound.

type elemKind uint8

const (
	elemLit elemKind = iota
	elemSlot
	elemList
	elemRest
	elemOpt
	elemSet
)

type elem struct {
	kind  elemKind
	words []string // elemLit: the accepted words
	key   string   // elemSlot, elemList: the binding key
	typ   *slotType
	min   int      // elemList: fewest words
	sub   []elem   // elemOpt: the group
	alts  [][]elem // elemSet: the options
}

// slotType accepts one word. A word equal to none is accepted and left
// unbound: "src any" matches everything, which an unset prefix already does.
type slotType struct {
	ok   func(string) bool
	none string
	zero string // rendered for a required slot with nothing bound
}

func anyWord(string) bool { return true }

func isUint32(s string) bool { _, err := strconv.ParseUint(s, 10, 32); return err == nil }

func isInt(s string) bool { _, err := strconv.ParseInt(s, 10, 32); return err == nil }

func isAddr(s string) bool { _, err := netip.ParseAddr(s); return err == nil }

func isPrefix(s string) bool { _, err := netip.ParsePrefix(s); return err == nil }

func isCommunity(s string) bool { _, err := netmodel.ParseCommunity(s); return err == nil }

func isProtocol(s string) bool { _, err := protoFromString(s); return err == nil }

func isFloat(s string) bool { _, err := parseFloat(s); return err == nil }

func isPorts(s string) bool { _, _, err := parsePortRange(s); return err == nil }

func isIPProto(s string) bool {
	n, err := strconv.ParseUint(s, 10, 32)
	return s == "tcp" || s == "udp" || err == nil && n <= 255
}

func isAction(s string) bool { return s == "permit" || s == "deny" }

var (
	wordT     = &slotType{ok: anyWord}
	uintT     = &slotType{ok: isUint32}
	intT      = &slotType{ok: isInt}
	addrT     = &slotType{ok: isAddr}
	prefixT   = &slotType{ok: isPrefix}
	anyPfxT   = &slotType{ok: isPrefix, none: "any"}
	commT     = &slotType{ok: isCommunity}
	protoT    = &slotType{ok: isProtocol}
	ipProtoT  = &slotType{ok: isIPProto, none: "any"}
	floatT    = &slotType{ok: isFloat}
	portsT    = &slotType{ok: isPorts}
	actionT   = &slotType{ok: isAction, zero: "permit"}
	slotTypes = map[string]*slotType{
		"name": wordT, "vendor": wordT, "list": wordT, "policy": wordT, "vrf": wordT,
		"rd": wordT, "rt": wordT, "acl": wordT, "index": wordT, "word": wordT,
		"regex": wordT, "segments": wordT,
		"as": uintT, "v": uintT, "cost": uintT, "color": uintT, "count": uintT, "asn": uintT,
		"seq": intT, "paths": intT, "ge": intT, "le": intT,
		"addr": addrT, "peer": addrT, "nh": addrT,
		"prefix": prefixT, "src": anyPfxT, "dst": anyPfxT,
		"comm": commT, "proto": protoT, "ipproto": ipProtoT, "bw": floatT,
		"sport": portsT, "dport": portsT, "action": actionT,
	}
)

// compile turns a template into its elements; a malformed template is a
// programming error in a dialect table.
func compile(tmpl string) []elem {
	var toks []string
	for _, w := range strings.Fields(tmpl) {
		for strings.HasPrefix(w, "[") || strings.HasPrefix(w, "{") {
			toks, w = append(toks, w[:1]), w[1:]
		}
		var closers []string
		for strings.HasSuffix(w, "]") || strings.HasSuffix(w, "}") {
			closers, w = append([]string{w[len(w)-1:]}, closers...), w[:len(w)-1]
		}
		toks = append(append(toks, w), closers...)
	}
	es, rest := compileSeq(toks, tmpl)
	if len(rest) != 0 {
		panic(fmt.Sprintf("config: template %q: unbalanced %q", tmpl, rest[0]))
	}
	checkSets(es, true, tmpl)
	return es
}

// checkSets holds option sets to the shape the matcher takes greedily: a
// set sits at the top level of its template, every option is a fixed run
// of words starting with a literal no other option of the set starts
// with, and the set ends the line or is followed by a literal no option
// starts with. Each word then starts at most one option, and one that does
// can end the set only by failing the line.
func checkSets(es []elem, top bool, tmpl string) {
	for x, e := range es {
		for _, sub := range append([][]elem{e.sub}, e.alts...) {
			checkSets(sub, false, tmpl)
		}
		if e.kind != elemSet {
			continue
		}
		var firsts []string
		starts := func(words []string) bool {
			return slices.ContainsFunc(words, func(w string) bool { return slices.Contains(firsts, w) })
		}
		for _, alt := range e.alts {
			if !top || len(alt) == 0 || alt[0].kind != elemLit || !fixedLen(alt) || starts(alt[0].words) {
				panic(fmt.Sprintf("config: template %q: option set the matcher cannot take greedily", tmpl))
			}
			firsts = append(firsts, alt[0].words...)
		}
		if x+1 < len(es) && (es[x+1].kind != elemLit || starts(es[x+1].words)) {
			panic(fmt.Sprintf("config: template %q: option set followed by one of its options", tmpl))
		}
	}
}

func compileSeq(toks []string, tmpl string) ([]elem, []string) {
	var es []elem
	for len(toks) > 0 {
		t := toks[0]
		switch {
		case t == "]" || t == "}" || t == "|":
			return es, toks
		case t == "[":
			sub, rest := compileSeq(toks[1:], tmpl)
			if len(rest) == 0 || rest[0] != "]" {
				panic(fmt.Sprintf("config: template %q: unclosed [", tmpl))
			}
			es, toks = append(es, elem{kind: elemOpt, sub: sub}), rest[1:]
		case t == "{":
			e := elem{kind: elemSet}
			rest := toks
			for len(rest) > 0 && rest[0] != "}" {
				var alt []elem
				alt, rest = compileSeq(rest[1:], tmpl)
				e.alts = append(e.alts, alt)
			}
			if len(rest) == 0 {
				panic(fmt.Sprintf("config: template %q: unclosed {", tmpl))
			}
			es, toks = append(es, e), rest[1:]
		case t == "...":
			es, toks = append(es, elem{kind: elemRest}), toks[1:]
		case strings.HasPrefix(t, "<"):
			key := strings.Trim(t, "<>")
			e := elem{kind: elemSlot}
			if k, ok := strings.CutSuffix(key, "..."); ok {
				e.kind, key = elemList, k
			} else if k, ok := strings.CutSuffix(key, "+"); ok {
				e.kind, e.min, key = elemList, 1, k
			}
			e.key, e.typ = key, slotTypes[key]
			if e.typ == nil {
				panic(fmt.Sprintf("config: template %q: slot <%s> has no type", tmpl, key))
			}
			es, toks = append(es, e), toks[1:]
		default:
			es, toks = append(es, elem{kind: elemLit, words: strings.Split(t, "|")}), toks[1:]
		}
	}
	return es, nil
}

// binding is one key a matched line bound, with its words.
type binding struct {
	key   string
	words []string
}

// args are the bindings of one matched line, in match order; a key bound
// twice reads as its last binding.
type args []binding

func (a args) get(key string) ([]string, bool) {
	for i := len(a) - 1; i >= 0; i-- {
		if a[i].key == key {
			return a[i].words, true
		}
	}
	return nil, false
}

func (a args) has(key string) bool { _, ok := a.get(key); return ok }

func (a args) str(key string) string {
	w, _ := a.get(key)
	return strings.Join(w, " ")
}

// The typed readers re-parse words the matcher has already accepted.
func (a args) addr(key string) netip.Addr { v, _ := netip.ParseAddr(a.str(key)); return v }

func (a args) prefix(key string) netip.Prefix { v, _ := netip.ParsePrefix(a.str(key)); return v }

func (a args) uint(key string) uint32 {
	v, _ := strconv.ParseUint(a.str(key), 10, 32)
	return uint32(v)
}

func (a args) int(key string) int { v, _ := strconv.ParseInt(a.str(key), 10, 32); return int(v) }

func (a args) comm(key string) netmodel.Community {
	v, _ := netmodel.ParseCommunity(a.str(key))
	return v
}

// matcher matches one line's words against a form, backtracking: an
// optional group is tried taken first, a list or "..." shortest first,
// and an option set takes every option it can, which is its only way
// through. The first way through the whole line wins. far remembers the
// furthest word any attempt failed at, which is where the line's error
// points.
type matcher struct {
	words  []string
	a      args
	far    int
	farKey string
}

func (m *matcher) fail(i int, key string) {
	if i > m.far || i == m.far && m.farKey == "" {
		m.far, m.farKey = i, key
	}
}

// match reports whether es matches words[i:] to the end of the line. A
// trailing optional group of fixed length owns the line's last words when
// they match it, as "neighbor A route-map vrf in" reads "vrf in" as the VRF.
func (m *matcher) match(es []elem, i int) bool {
	m.a = m.a[:0]
	end := len(m.words)
	if g := es[len(es)-1]; g.kind == elemOpt && fixedLen(g.sub) && end-i > len(g.sub) {
		far, farKey := m.far, m.farKey
		if m.group(g.sub, end-len(g.sub), func(int) bool { return true }) {
			es, end = es[:len(es)-1], end-len(g.sub)
		}
		m.far, m.farKey = far, farKey
	}
	return m.seq(es, i, func(j int) bool {
		if j == end {
			return true
		}
		m.fail(j, "")
		return false
	})
}

func fixedLen(es []elem) bool {
	for _, e := range es {
		if e.kind != elemLit && e.kind != elemSlot {
			return false
		}
	}
	return true
}

// bound binds key to words and matches rest from word j; the binding is
// undone when rest fails.
func (m *matcher) bound(key string, words []string, rest []elem, j int, k func(int) bool) bool {
	n := len(m.a)
	m.a = append(m.a, binding{key, words})
	if m.seq(rest, j, k) {
		return true
	}
	m.a = m.a[:n]
	return false
}

// seq matches es from word i, then hands the next word's index to k.
func (m *matcher) seq(es []elem, i int, k func(int) bool) bool {
	if len(es) == 0 {
		return k(i)
	}
	e, rest := &es[0], es[1:]
	switch e.kind {
	case elemLit:
		if i < len(m.words) && slices.Contains(e.words, m.words[i]) {
			return m.seq(rest, i+1, k)
		}
		m.fail(i, "")
		return false
	case elemSlot:
		switch {
		case i == len(m.words) || m.words[i] != e.typ.none && !e.typ.ok(m.words[i]):
			m.fail(i, e.key)
			return false
		case m.words[i] == e.typ.none:
			return m.seq(rest, i+1, k)
		}
		return m.bound(e.key, m.words[i:i+1], rest, i+1, k)
	case elemList:
		for j := i; ; j++ {
			if j-i >= e.min && m.bound(e.key, m.words[i:j], rest, j, k) {
				return true
			}
			if j == len(m.words) || !e.typ.ok(m.words[j]) {
				m.fail(j, e.key)
				return false
			}
		}
	case elemRest:
		for j := i; j <= len(m.words); j++ {
			if m.seq(rest, j, k) {
				return true
			}
		}
		return false
	}
	next := func(j int) bool { return m.seq(rest, j, k) }
	if e.kind == elemOpt {
		return m.group(e.sub, i, next) || next(i)
	}
	return m.set(e.alts, i, next)
}

// set matches an option set from word i, then hands the next word's index
// to next. checkSets makes taking every option that matches the only way
// through a set, so the options are taken in a loop with no backtracking:
// a line of a million options costs no stack, and an option taken again
// overwrites its binding, so it costs no bindings either.
func (m *matcher) set(alts [][]elem, i int, next func(int) bool) bool {
	n := len(m.a)
	took := func(j int) bool { i = j; return true }
options:
	for {
		for _, alt := range alts {
			at := len(m.a)
			if !m.group(alt, i, took) {
				continue
			}
			for at < len(m.a) {
				b := m.a[at]
				if x := slices.IndexFunc(m.a[n:at], func(o binding) bool { return o.key == b.key }); x >= 0 {
					m.a[n+x] = b
					m.a = slices.Delete(m.a, at, at+1)
				} else {
					at++
				}
			}
			continue options
		}
		break
	}
	if next(i) {
		return true
	}
	m.a = m.a[:n]
	return false
}

// group matches an optional group or option; one without slots binds its
// first word.
func (m *matcher) group(es []elem, i int, k func(int) bool) bool {
	if flag := flagOf(es); flag != "" {
		return m.bound(flag, nil, es, i, k)
	}
	return m.seq(es, i, k)
}

// flagOf is the key a slot-less group binds, or "".
func flagOf(es []elem) string {
	for _, e := range es {
		if e.kind != elemLit {
			return ""
		}
	}
	return es[0].words[0]
}

// render appends the form's words for a's bindings: a group renders when
// every key it binds is bound, a required slot with nothing bound renders
// its type's zero.
func render(out []string, es []elem, a args) []string {
	for _, e := range es {
		switch e.kind {
		case elemLit:
			out = append(out, e.words[0])
		case elemSlot, elemList:
			w, ok := a.get(e.key)
			if !ok {
				w = []string{e.typ.zero}
			}
			out = append(out, w...)
		case elemOpt:
			if bound(e.sub, a) {
				out = render(out, e.sub, a)
			}
		case elemSet:
			for _, alt := range e.alts {
				if bound(alt, a) {
					out = render(out, alt, a)
				}
			}
		}
	}
	return out
}

func bound(es []elem, a args) bool {
	if flag := flagOf(es); flag != "" {
		return a.has(flag)
	}
	for _, e := range es {
		if (e.kind == elemSlot || e.kind == elemList) && !a.has(e.key) {
			return false
		}
	}
	return true
}
