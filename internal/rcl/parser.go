package rcl

import (
	"fmt"

	"hoyan/internal/netmodel"
)

// Parse compiles a specification text into an intent AST.
func Parse(src string) (Intent, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	g, err := p.intent()
	if err != nil {
		return nil, err
	}
	if p.peek().kind != tokEOF {
		return nil, p.errf("unexpected %s after intent", p.peek())
	}
	return g, nil
}

type parser struct {
	toks []token
	pos  int
}

func (p *parser) peek() token   { return p.toks[p.pos] }
func (p *parser) next() token   { t := p.toks[p.pos]; p.pos++; return t }
func (p *parser) save() int     { return p.pos }
func (p *parser) restore(m int) { p.pos = m }

func (p *parser) errf(format string, args ...any) error {
	return &SyntaxError{Pos: p.peek().pos, Reason: fmt.Sprintf(format, args...)}
}

func (p *parser) expect(k tokenKind, what string) (token, error) {
	if p.peek().kind != k {
		return token{}, p.errf("expected %s, found %s", what, p.peek())
	}
	return p.next(), nil
}

func (p *parser) word(w string) bool {
	if p.peek().kind == tokWord && p.peek().text == w {
		p.next()
		return true
	}
	return false
}

func isFieldName(s string) bool {
	for _, f := range netmodel.FieldNames {
		if f == s {
			return true
		}
	}
	return false
}

// ---- intents ----

// intent := implyIntent
func (p *parser) intent() (Intent, error) { return p.implyIntent() }

func (p *parser) implyIntent() (Intent, error) {
	l, err := p.orIntent()
	if err != nil {
		return nil, err
	}
	for p.word("imply") {
		r, err := p.orIntent()
		if err != nil {
			return nil, err
		}
		l = &BoolIntent{Op: "imply", L: l, R: r}
	}
	return l, nil
}

func (p *parser) orIntent() (Intent, error) {
	l, err := p.andIntent()
	if err != nil {
		return nil, err
	}
	for p.word("or") {
		r, err := p.andIntent()
		if err != nil {
			return nil, err
		}
		l = &BoolIntent{Op: "or", L: l, R: r}
	}
	return l, nil
}

func (p *parser) andIntent() (Intent, error) {
	l, err := p.unaryIntent()
	if err != nil {
		return nil, err
	}
	for p.word("and") {
		r, err := p.unaryIntent()
		if err != nil {
			return nil, err
		}
		l = &BoolIntent{Op: "and", L: l, R: r}
	}
	return l, nil
}

func (p *parser) unaryIntent() (Intent, error) {
	if p.word("not") {
		g, err := p.unaryIntent()
		if err != nil {
			return nil, err
		}
		return &NotIntent{G: g}, nil
	}
	return p.baseIntent()
}

func (p *parser) baseIntent() (Intent, error) {
	// forall field [in {..}] : g
	if p.word("forall") {
		field, err := p.expect(tokWord, "field name")
		if err != nil {
			return nil, err
		}
		if !isFieldName(field.text) {
			return nil, p.errf("unknown field %q", field.text)
		}
		var values []string
		if p.word("in") {
			values, err = p.setLiteral()
			if err != nil {
				return nil, err
			}
			if values == nil {
				values = []string{}
			}
		}
		if _, err := p.expect(tokColon, "':'"); err != nil {
			return nil, err
		}
		g, err := p.intent()
		if err != nil {
			return nil, err
		}
		return &ForallIntent{Field: field.text, Values: values, G: g}, nil
	}

	// Attempt 1: guarded intent "p => g".
	mark := p.save()
	if pr, err := p.predicate(); err == nil && p.peek().kind == tokArrow {
		p.next()
		g, err := p.intent()
		if err != nil {
			return nil, err
		}
		return &GuardedIntent{P: pr, G: g}, nil
	}
	p.restore(mark)

	// Attempt 2: RIB comparison "r1 (=|!=) r2".
	if r1, err := p.transform(); err == nil && (p.peek().kind == tokEq || p.peek().kind == tokNeq) {
		opTok := p.next()
		if r2, err := p.transform(); err == nil && p.peek().kind != tokPipe {
			return &RIBCmpIntent{Neq: opTok.kind == tokNeq, L: r1, R: r2}, nil
		}
		p.restore(mark)
	} else {
		p.restore(mark)
	}

	// Attempt 3: evaluation comparison "e1 ⊙ e2".
	if e1, err := p.eval(); err == nil {
		op, ok := p.cmpOp()
		if ok {
			e2, err := p.eval()
			if err != nil {
				return nil, err
			}
			return &EvalCmpIntent{Op: op, L: e1, R: e2}, nil
		}
	}
	p.restore(mark)

	// Attempt 4: parenthesized intent.
	if p.peek().kind == tokLParen {
		p.next()
		g, err := p.intent()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen, "')'"); err != nil {
			return nil, err
		}
		return g, nil
	}
	return nil, p.errf("cannot parse intent at %s", p.peek())
}

func (p *parser) cmpOp() (CmpOp, bool) {
	switch p.peek().kind {
	case tokEq:
		p.next()
		return OpEq, true
	case tokNeq:
		p.next()
		return OpNeq, true
	case tokLt:
		p.next()
		return OpLt, true
	case tokLe:
		p.next()
		return OpLe, true
	case tokGt:
		p.next()
		return OpGt, true
	case tokGe:
		p.next()
		return OpGe, true
	}
	return "", false
}

// ---- predicates ----

func (p *parser) predicate() (Predicate, error) { return p.implyPred() }

func (p *parser) implyPred() (Predicate, error) {
	l, err := p.orPred()
	if err != nil {
		return nil, err
	}
	for p.word("imply") {
		r, err := p.orPred()
		if err != nil {
			return nil, err
		}
		l = &BoolPred{Op: "imply", L: l, R: r}
	}
	return l, nil
}

func (p *parser) orPred() (Predicate, error) {
	l, err := p.andPred()
	if err != nil {
		return nil, err
	}
	for p.word("or") {
		r, err := p.andPred()
		if err != nil {
			return nil, err
		}
		l = &BoolPred{Op: "or", L: l, R: r}
	}
	return l, nil
}

func (p *parser) andPred() (Predicate, error) {
	l, err := p.unaryPred()
	if err != nil {
		return nil, err
	}
	for p.word("and") {
		r, err := p.unaryPred()
		if err != nil {
			return nil, err
		}
		l = &BoolPred{Op: "and", L: l, R: r}
	}
	return l, nil
}

func (p *parser) unaryPred() (Predicate, error) {
	if p.word("not") {
		pr, err := p.unaryPred()
		if err != nil {
			return nil, err
		}
		return &NotPred{P: pr}, nil
	}
	if p.peek().kind == tokLParen {
		mark := p.save()
		p.next()
		pr, err := p.predicate()
		if err == nil && p.peek().kind == tokRParen {
			p.next()
			return pr, nil
		}
		p.restore(mark)
		return nil, p.errf("bad parenthesized predicate")
	}
	return p.basePred()
}

func (p *parser) basePred() (Predicate, error) {
	tok := p.peek()
	if tok.kind != tokWord || !isFieldName(tok.text) {
		return nil, p.errf("expected field name, found %s", tok)
	}
	field := p.next().text
	switch {
	case p.word("contains") || p.word("has"):
		v, err := p.value()
		if err != nil {
			return nil, err
		}
		return &ContainsPred{Field: field, Value: v}, nil
	case p.word("in"):
		vs, err := p.setLiteral()
		if err != nil {
			return nil, err
		}
		return &InPred{Field: field, Values: vs}, nil
	case p.word("matches"):
		s, err := p.expect(tokString, "quoted regex")
		if err != nil {
			return nil, err
		}
		return &MatchesPred{Field: field, Regex: s.text}, nil
	default:
		op, ok := p.cmpOp()
		if !ok {
			return nil, p.errf("expected predicate operator after %q", field)
		}
		v, err := p.value()
		if err != nil {
			return nil, err
		}
		return &CmpPred{Field: field, Op: op, Value: v}, nil
	}
}

// ---- transformations ----

func (p *parser) transform() (Transform, error) {
	var t Transform
	switch {
	case p.word("PRE"):
		t = &SelectRIB{Post: false}
	case p.word("POST"):
		t = &SelectRIB{Post: true}
	case p.peek().kind == tokLParen:
		mark := p.save()
		p.next()
		inner, err := p.transform()
		if err != nil || p.peek().kind != tokRParen {
			p.restore(mark)
			return nil, p.errf("bad parenthesized transformation")
		}
		p.next()
		t = inner
	default:
		return nil, p.errf("expected PRE or POST, found %s", p.peek())
	}
	for p.peek().kind == tokFilter {
		p.next()
		var pr Predicate
		var err error
		if p.peek().kind == tokLParen {
			p.next()
			pr, err = p.predicate()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tokRParen, "')'"); err != nil {
				return nil, err
			}
		} else {
			pr, err = p.basePred()
			if err != nil {
				return nil, err
			}
		}
		t = &FilterRIB{R: t, P: pr}
	}
	return t, nil
}

// ---- evaluations ----

func (p *parser) eval() (Eval, error) {
	l, err := p.evalTerm()
	if err != nil {
		return nil, err
	}
	for {
		var op string
		switch p.peek().kind {
		case tokPlus:
			op = "+"
		case tokMinus:
			op = "-"
		case tokStar:
			op = "*"
		case tokSlash:
			op = "/"
		default:
			return l, nil
		}
		p.next()
		r, err := p.evalTerm()
		if err != nil {
			return nil, err
		}
		l = &ArithEval{Op: op, L: l, R: r}
	}
}

func (p *parser) evalTerm() (Eval, error) {
	switch p.peek().kind {
	case tokNumber:
		return &LitEval{Value: p.next().text, Number: true}, nil
	case tokLBrace:
		vs, err := p.setLiteral()
		if err != nil {
			return nil, err
		}
		return &SetEval{Values: vs}, nil
	case tokLParen:
		mark := p.save()
		p.next()
		e, err := p.eval()
		if err == nil && p.peek().kind == tokRParen {
			p.next()
			return e, nil
		}
		p.restore(mark)
	}
	// "r |> f(field)" or a bare word literal.
	mark := p.save()
	if r, err := p.transform(); err == nil {
		if _, err := p.expect(tokPipe, "'|>'"); err != nil {
			return nil, err
		}
		fn, err := p.expect(tokWord, "aggregate function")
		if err != nil {
			return nil, err
		}
		var agg AggFunc
		switch fn.text {
		case "count":
			agg = AggCount
		case "distCnt":
			agg = AggDistCnt
		case "distVals":
			agg = AggDistVals
		default:
			return nil, p.errf("unknown aggregate function %q", fn.text)
		}
		if _, err := p.expect(tokLParen, "'('"); err != nil {
			return nil, err
		}
		field := ""
		if p.peek().kind == tokWord {
			field = p.next().text
			if !isFieldName(field) {
				return nil, p.errf("unknown field %q", field)
			}
		}
		if _, err := p.expect(tokRParen, "')'"); err != nil {
			return nil, err
		}
		if agg != AggCount && field == "" {
			return nil, p.errf("%s needs a field argument", agg)
		}
		if agg == AggCount && field != "" {
			return nil, p.errf("count() takes no argument")
		}
		return &AggEval{R: r, F: agg, Field: field}, nil
	}
	p.restore(mark)
	if p.peek().kind == tokWord {
		return &LitEval{Value: p.next().text}, nil
	}
	return nil, p.errf("cannot parse evaluation at %s", p.peek())
}

// ---- shared ----

func (p *parser) setLiteral() ([]string, error) {
	if _, err := p.expect(tokLBrace, "'{'"); err != nil {
		return nil, err
	}
	vs := []string{}
	for p.peek().kind != tokRBrace {
		v, err := p.value()
		if err != nil {
			return nil, err
		}
		vs = append(vs, v)
		if p.peek().kind == tokComma {
			p.next()
			continue
		}
		break
	}
	if _, err := p.expect(tokRBrace, "'}'"); err != nil {
		return nil, err
	}
	return vs, nil
}

func (p *parser) value() (string, error) {
	switch p.peek().kind {
	case tokWord, tokNumber:
		return p.next().text, nil
	case tokString:
		return p.next().text, nil
	}
	return "", p.errf("expected value, found %s", p.peek())
}
