package rcl

import (
	"fmt"
	"net/netip"
	"regexp"
	"strconv"
	"strings"

	"hoyan/internal/netmodel"
	"slices"
)

// Violation is one concrete counterexample for an unsatisfied intent: the
// violated sub-expression, the grouping context it occurred under, a
// human-readable detail, and up to MaxExampleRoutes related routes.
type Violation struct {
	Expr    string
	Context string
	Detail  string
	Routes  []netmodel.Route
}

func (v Violation) String() string {
	s := v.Expr
	if v.Context != "" {
		s = v.Context + ": " + s
	}
	if v.Detail != "" {
		s += " — " + v.Detail
	}
	return s
}

// MaxExampleRoutes caps the routes attached to one violation.
const MaxExampleRoutes = 5

// Result is the outcome of checking an intent.
type Result struct {
	Holds      bool
	Violations []Violation
}

// Check evaluates intent g against the base (PRE) and updated (POST) global
// RIBs, per the Appendix A semantics, collecting counterexamples for
// violated sub-intents.
func Check(g Intent, base, updated *netmodel.GlobalRIB) (*Result, error) {
	c := &checker{}
	holds, err := c.intent(g, base.Rows(), updated.Rows())
	if err != nil {
		return nil, err
	}
	return &Result{Holds: holds, Violations: c.violations}, nil
}

// EvalError reports a type or domain error during evaluation.
type EvalError struct {
	Expr   string
	Reason string
}

func (e *EvalError) Error() string {
	return fmt.Sprintf("rcl: evaluating %s: %s", e.Expr, e.Reason)
}

type checker struct {
	ctx        []string
	violations []Violation
	// regexps holds each matches-predicate's pattern, compiled at its first
	// row and reused for every other row of the check.
	regexps map[*MatchesPred]*regexp.Regexp
}

func (c *checker) context() string { return strings.Join(c.ctx, " > ") }

func (c *checker) violate(expr, detail string, routes []netmodel.Route) {
	if len(routes) > MaxExampleRoutes {
		routes = routes[:MaxExampleRoutes]
	}
	c.violations = append(c.violations, Violation{
		Expr: expr, Context: c.context(), Detail: detail,
		Routes: append([]netmodel.Route(nil), routes...),
	})
}

// ---- intent evaluation (Figure 11 (d)) ----

func (c *checker) intent(g Intent, M, N []netmodel.Route) (bool, error) {
	switch g := g.(type) {
	case *RIBCmpIntent:
		l, err := c.transform(g.L, M, N)
		if err != nil {
			return false, err
		}
		r, err := c.transform(g.R, M, N)
		if err != nil {
			return false, err
		}
		gl, gr := netmodel.NewGlobalRIB(l), netmodel.NewGlobalRIB(r)
		equal := gl.Equal(gr)
		holds := equal != g.Neq
		if !holds {
			if g.Neq {
				c.violate(g.intentString(), "RIBs are identical", gl.Rows())
			} else {
				onlyL, onlyR := gl.Diff(gr)
				c.violate(g.intentString(),
					fmt.Sprintf("%d rows only in %s, %d rows only in %s",
						len(onlyL), g.L.transString(), len(onlyR), g.R.transString()),
					append(onlyL, onlyR...))
			}
		}
		return holds, nil

	case *EvalCmpIntent:
		l, err := c.eval(g.L, M, N)
		if err != nil {
			return false, err
		}
		r, err := c.eval(g.R, M, N)
		if err != nil {
			return false, err
		}
		holds, err := compareValues(g.Op, l, r)
		if err != nil {
			return false, &EvalError{Expr: g.intentString(), Reason: err.Error()}
		}
		if !holds {
			c.violate(g.intentString(),
				fmt.Sprintf("left = %s, right = %s", l, r),
				exampleRows(g.L, g.R, M, N))
		}
		return holds, nil

	case *GuardedIntent:
		fm, err := c.filter(M, g.P)
		if err != nil {
			return false, err
		}
		fn, err := c.filter(N, g.P)
		if err != nil {
			return false, err
		}
		return c.intent(g.G, fm, fn)

	case *ForallIntent:
		values := g.Values
		if values == nil {
			values = distinctFieldValues(g.Field, M, N)
		}
		holds := true
		for _, v := range values {
			pm := fieldEquals(g.Field, v, M)
			pn := fieldEquals(g.Field, v, N)
			c.ctx = append(c.ctx, fmt.Sprintf("forall %s=%s", g.Field, v))
			ok, err := c.intent(g.G, pm, pn)
			c.ctx = c.ctx[:len(c.ctx)-1]
			if err != nil {
				return false, err
			}
			if !ok {
				holds = false
			}
		}
		return holds, nil

	case *BoolIntent:
		// Sub-intent violations are recorded speculatively and rolled back
		// when the composition holds anyway.
		mark := len(c.violations)
		l, err := c.intent(g.L, M, N)
		if err != nil {
			return false, err
		}
		r, err := c.intent(g.R, M, N)
		if err != nil {
			return false, err
		}
		var holds bool
		switch g.Op {
		case "and":
			holds = l && r
		case "or":
			holds = l || r
		case "imply":
			holds = !l || r
		}
		if holds {
			c.violations = c.violations[:mark]
		}
		return holds, nil

	case *NotIntent:
		mark := len(c.violations)
		inner, err := c.intent(g.G, M, N)
		if err != nil {
			return false, err
		}
		c.violations = c.violations[:mark] // inner violations are inverted
		if inner {
			c.violate(g.intentString(), "negated intent holds", nil)
		}
		return !inner, nil
	}
	return false, &EvalError{Expr: fmt.Sprintf("%T", g), Reason: "unknown intent node"}
}

// exampleRows picks context rows for an evaluation-comparison violation: the
// filtered rows of the first aggregate operand.
func exampleRows(l, r Eval, M, N []netmodel.Route) []netmodel.Route {
	for _, e := range []Eval{l, r} {
		if agg, ok := e.(*AggEval); ok {
			c := &checker{}
			rows, err := c.transform(agg.R, M, N)
			if err == nil {
				return rows
			}
		}
	}
	return nil
}

// ---- transformations (Figure 11 (b)) ----

func (c *checker) transform(t Transform, M, N []netmodel.Route) ([]netmodel.Route, error) {
	switch t := t.(type) {
	case *SelectRIB:
		if t.Post {
			return N, nil
		}
		return M, nil
	case *FilterRIB:
		rows, err := c.transform(t.R, M, N)
		if err != nil {
			return nil, err
		}
		return c.filter(rows, t.P)
	}
	return nil, &EvalError{Expr: fmt.Sprintf("%T", t), Reason: "unknown transformation node"}
}

func (c *checker) filter(rows []netmodel.Route, p Predicate) ([]netmodel.Route, error) {
	var out []netmodel.Route
	for _, r := range rows {
		ok, err := c.evalPredicate(p, r)
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, r)
		}
	}
	return out, nil
}

// ---- predicates (Figure 11 (a)) ----

// evalPredicate runs once per row of every filtered RIB, so it builds a
// predicate's text only when it has an error to report.
func (c *checker) evalPredicate(p Predicate, r netmodel.Route) (bool, error) {
	switch p := p.(type) {
	case *CmpPred:
		if p.Field == netmodel.FieldPrefix {
			return comparePrefixText(p.Op, r.Prefix, p.Value), nil
		}
		fv, ok := r.Field(p.Field)
		if !ok {
			return false, &EvalError{Expr: p.predString(), Reason: "unknown field"}
		}
		return compareFieldValue(p, fv)
	case *ContainsPred:
		fv, ok := r.Field(p.Field)
		if !ok {
			return false, &EvalError{Expr: p.predString(), Reason: "unknown field"}
		}
		set, ok := fv.([]string)
		if !ok {
			return false, &EvalError{Expr: p.predString(), Reason: "contains requires a set-valued field"}
		}
		for _, v := range set {
			if v == p.Value {
				return true, nil
			}
		}
		return false, nil
	case *InPred:
		fv, ok := r.Field(p.Field)
		if !ok {
			return false, &EvalError{Expr: p.predString(), Reason: "unknown field"}
		}
		s := fieldString(fv)
		for _, v := range p.Values {
			if s == v {
				return true, nil
			}
		}
		return false, nil
	case *MatchesPred:
		fv, ok := r.Field(p.Field)
		if !ok {
			return false, &EvalError{Expr: p.predString(), Reason: "unknown field"}
		}
		re := c.regexps[p]
		if re == nil {
			var err error
			if re, err = regexp.Compile("^(?:" + p.Regex + ")$"); err != nil {
				return false, &EvalError{Expr: p.predString(), Reason: err.Error()}
			}
			if c.regexps == nil {
				c.regexps = map[*MatchesPred]*regexp.Regexp{}
			}
			c.regexps[p] = re
		}
		return re.MatchString(fieldString(fv)), nil
	case *BoolPred:
		l, err := c.evalPredicate(p.L, r)
		if err != nil {
			return false, err
		}
		rr, err := c.evalPredicate(p.R, r)
		if err != nil {
			return false, err
		}
		switch p.Op {
		case "and":
			return l && rr, nil
		case "or":
			return l || rr, nil
		case "imply":
			return !l || rr, nil
		}
		return false, &EvalError{Expr: p.predString(), Reason: "unknown operator"}
	case *NotPred:
		v, err := c.evalPredicate(p.P, r)
		return !v, err
	}
	return false, &EvalError{Expr: fmt.Sprintf("%T", p), Reason: "unknown predicate node"}
}

// compareFieldValue compares a route field against p's literal: numerically
// when both sides are numeric, textually otherwise.
func compareFieldValue(p *CmpPred, fv any) (bool, error) {
	switch v := fv.(type) {
	case int64:
		n, err := strconv.ParseInt(p.Value, 10, 64)
		if err != nil {
			return false, &EvalError{Expr: p.predString(), Reason: fmt.Sprintf("numeric field compared to %q", p.Value)}
		}
		return cmpOrdered(p.Op, v, n), nil
	case string:
		return cmpOrdered(p.Op, v, p.Value), nil
	case []string:
		joined := strings.Join(v, ",")
		switch p.Op {
		case OpEq:
			return joined == p.Value, nil
		case OpNeq:
			return joined != p.Value, nil
		}
		return false, &EvalError{Expr: p.predString(), Reason: "relational comparison on a set-valued field"}
	}
	return false, &EvalError{Expr: p.predString(), Reason: "unsupported field type"}
}

// comparePrefixText is cmpOrdered(op, pfx.String(), lit) — the prefix column
// compares as text like every string column — with the text rendered into a
// stack buffer: "prefix = …" opens most specifications and meets every row,
// and Route.Field would allocate the string and box it each time.
func comparePrefixText(op CmpOp, pfx netip.Prefix, lit string) bool {
	var buf [64]byte // the longest rendering, an IPv6 /128, is 43 bytes
	// String's text for a zero Prefix; AppendTo appends nothing for one.
	text := append(buf[:0], "invalid Prefix"...)
	if pfx.IsValid() {
		text = pfx.AppendTo(buf[:0])
	}
	// Comparing string(text) in place borrows the buffer; handing the string
	// to cmpOrdered would copy it to the heap first.
	var c int64
	switch {
	case string(text) < lit:
		c = -1
	case string(text) > lit:
		c = 1
	}
	return cmpOrdered(op, c, 0)
}

func cmpOrdered[T int64 | string](op CmpOp, a, b T) bool {
	switch op {
	case OpEq:
		return a == b
	case OpNeq:
		return a != b
	case OpLt:
		return a < b
	case OpLe:
		return a <= b
	case OpGt:
		return a > b
	case OpGe:
		return a >= b
	}
	return false
}

func fieldString(fv any) string {
	switch v := fv.(type) {
	case string:
		return v
	case int64:
		return strconv.FormatInt(v, 10)
	case []string:
		return strings.Join(v, ",")
	}
	return fmt.Sprint(fv)
}

// ---- evaluations (Figure 11 (c)) ----

// Value is the result of a RIB evaluation: a number, a string, or a set.
type Value struct {
	Kind ValueKind
	Num  float64
	Str  string
	Set  []string // sorted
}

// ValueKind discriminates Value.
type ValueKind int

// Value kinds.
const (
	NumValue ValueKind = iota
	StrValue
	SetValue
)

func (v Value) String() string {
	switch v.Kind {
	case NumValue:
		if v.Num == float64(int64(v.Num)) {
			return strconv.FormatInt(int64(v.Num), 10)
		}
		return strconv.FormatFloat(v.Num, 'g', -1, 64)
	case StrValue:
		return v.Str
	case SetValue:
		return "{" + strings.Join(v.Set, ", ") + "}"
	}
	return "?"
}

func (c *checker) eval(e Eval, M, N []netmodel.Route) (Value, error) {
	switch e := e.(type) {
	case *LitEval:
		if e.Number {
			n, _ := strconv.ParseFloat(e.Value, 64)
			return Value{Kind: NumValue, Num: n}, nil
		}
		return Value{Kind: StrValue, Str: e.Value}, nil
	case *SetEval:
		set := append([]string(nil), e.Values...)
		slices.Sort(set)
		return Value{Kind: SetValue, Set: slices.Compact(set)}, nil
	case *AggEval:
		rows, err := c.transform(e.R, M, N)
		if err != nil {
			return Value{}, err
		}
		switch e.F {
		case AggCount:
			return Value{Kind: NumValue, Num: float64(len(rows))}, nil
		case AggDistCnt:
			vals, err := distVals(e.Field, rows, e.evalString())
			if err != nil {
				return Value{}, err
			}
			return Value{Kind: NumValue, Num: float64(len(vals))}, nil
		case AggDistVals:
			vals, err := distVals(e.Field, rows, e.evalString())
			if err != nil {
				return Value{}, err
			}
			return Value{Kind: SetValue, Set: vals}, nil
		}
		return Value{}, &EvalError{Expr: e.evalString(), Reason: "unknown aggregate"}
	case *ArithEval:
		l, err := c.eval(e.L, M, N)
		if err != nil {
			return Value{}, err
		}
		r, err := c.eval(e.R, M, N)
		if err != nil {
			return Value{}, err
		}
		if l.Kind != NumValue || r.Kind != NumValue {
			return Value{}, &EvalError{Expr: e.evalString(), Reason: "arithmetic on non-numeric values"}
		}
		switch e.Op {
		case "+":
			return Value{Kind: NumValue, Num: l.Num + r.Num}, nil
		case "-":
			return Value{Kind: NumValue, Num: l.Num - r.Num}, nil
		case "*":
			return Value{Kind: NumValue, Num: l.Num * r.Num}, nil
		case "/":
			if r.Num == 0 {
				return Value{}, &EvalError{Expr: e.evalString(), Reason: "division by zero"}
			}
			return Value{Kind: NumValue, Num: l.Num / r.Num}, nil
		}
	}
	return Value{}, &EvalError{Expr: fmt.Sprintf("%T", e), Reason: "unknown evaluation node"}
}

func distVals(field string, rows []netmodel.Route, expr string) ([]string, error) {
	seen := map[string]bool{}
	var out []string
	for _, r := range rows {
		fv, ok := r.Field(field)
		if !ok {
			return nil, &EvalError{Expr: expr, Reason: "unknown field " + field}
		}
		s := fieldString(fv)
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	slices.Sort(out)
	return out, nil
}

// compareValues implements e1 ⊙ e2: numbers compare numerically, strings
// textually (with numeric coercion when both look numeric), sets support
// only equality.
func compareValues(op CmpOp, l, r Value) (bool, error) {
	if l.Kind == SetValue || r.Kind == SetValue {
		if l.Kind != SetValue || r.Kind != SetValue {
			return false, fmt.Errorf("comparing a set to a non-set")
		}
		eq := len(l.Set) == len(r.Set)
		if eq {
			for i := range l.Set {
				if l.Set[i] != r.Set[i] {
					eq = false
					break
				}
			}
		}
		switch op {
		case OpEq:
			return eq, nil
		case OpNeq:
			return !eq, nil
		}
		return false, fmt.Errorf("relational comparison on sets")
	}
	if l.Kind == NumValue && r.Kind == NumValue {
		return cmpFloat(op, l.Num, r.Num), nil
	}
	// Coerce strings that are numeric.
	ln, lok := strconv.ParseFloat(l.String(), 64)
	rn, rok := strconv.ParseFloat(r.String(), 64)
	if lok == nil && rok == nil {
		return cmpFloat(op, ln, rn), nil
	}
	return cmpOrdered(op, l.String(), r.String()), nil
}

func cmpFloat(op CmpOp, a, b float64) bool {
	switch op {
	case OpEq:
		return a == b
	case OpNeq:
		return a != b
	case OpLt:
		return a < b
	case OpLe:
		return a <= b
	case OpGt:
		return a > b
	case OpGe:
		return a >= b
	}
	return false
}

// distinctFieldValues implements the forall-χ grouping domain
// V = {τ_χ | τ ∈ M ∨ τ ∈ N}.
func distinctFieldValues(field string, M, N []netmodel.Route) []string {
	seen := map[string]bool{}
	var out []string
	for _, rows := range [][]netmodel.Route{M, N} {
		for _, r := range rows {
			fv, ok := r.Field(field)
			if !ok {
				continue
			}
			s := fieldString(fv)
			if !seen[s] {
				seen[s] = true
				out = append(out, s)
			}
		}
	}
	slices.Sort(out)
	return out
}

// fieldEquals filters rows whose field value (canonical string form) equals v.
func fieldEquals(field, v string, rows []netmodel.Route) []netmodel.Route {
	var out []netmodel.Route
	for _, r := range rows {
		fv, ok := r.Field(field)
		if ok && fieldString(fv) == v {
			out = append(out, r)
		}
	}
	return out
}
