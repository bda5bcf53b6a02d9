package amosql

import (
	"fmt"
	"strconv"
	"strings"

	"partdiff/internal/types"
)

// parser is a recursive-descent parser pulling tokens from the lexer as
// it goes. The grammar is LL(1): tok is the one token of lookahead, and
// prevPos the offset of the token consumed before it (the statement
// sources end there).
type parser struct {
	lex     *lexer
	tok     token
	prevPos int
	// lexErr is the lexer's first failure. The token stream ends there
	// (tok reads as end of input), and every error the parser then
	// reports is this one.
	lexErr error
}

func newParser(src string) *parser {
	p := &parser{lex: newLexer(src)}
	p.next()
	return p
}

// next reads the following token into tok.
func (p *parser) next() {
	t, err := p.lex.next()
	if err != nil {
		p.lexErr = err
		t = token{kind: tokEOF, pos: p.lex.pos, line: p.lex.line}
	}
	p.tok = t
}

// Parse parses a sequence of semicolon-terminated statements.
func Parse(src string) ([]Stmt, error) {
	out, _, err := ParseWithSources(src)
	return out, err
}

// ParseWithSources parses like Parse and additionally returns, for each
// statement, its exact source text (semicolon included) — the session
// journals schema statements verbatim for snapshot/WAL recovery. The
// whole of src is parsed before anything is returned: one malformed
// statement anywhere fails them all.
func ParseWithSources(src string) ([]Stmt, []string, error) {
	p := newParser(src)
	var out []Stmt
	var srcs []string
	for !p.atEOF() {
		if p.peekSym(";") {
			p.advance() // stray semicolon
			continue
		}
		start := p.peek().pos
		s, err := p.statement()
		if err != nil {
			return nil, nil, err
		}
		if err := p.expectSym(";"); err != nil {
			return nil, nil, err
		}
		out = append(out, s)
		srcs = append(srcs, src[start:p.prevPos+1]) // through the semicolon just consumed
	}
	if p.lexErr != nil {
		return nil, nil, p.lexErr
	}
	return out, srcs, nil
}

// ParseOne parses exactly one statement (trailing semicolon optional).
func ParseOne(src string) (Stmt, error) {
	p := newParser(src)
	s, err := p.statement()
	if err != nil {
		return nil, err
	}
	if p.peekSym(";") {
		p.advance()
	}
	if !p.atEOF() {
		return nil, p.errf("unexpected %s after statement", p.peek())
	}
	if p.lexErr != nil {
		return nil, p.lexErr
	}
	return s, nil
}

func (p *parser) peek() token { return p.tok }

func (p *parser) atEOF() bool { return p.tok.kind == tokEOF }

func (p *parser) advance() token {
	t := p.tok
	if t.kind != tokEOF {
		p.prevPos = t.pos
		p.next()
	}
	return t
}

func (p *parser) errf(format string, args ...any) error {
	if p.lexErr != nil {
		return p.lexErr
	}
	return fmt.Errorf("line %d: %s", p.peek().line, fmt.Sprintf(format, args...))
}

// peekKw reports whether the next token is the given keyword
// (case-insensitive).
func (p *parser) peekKw(kw string) bool {
	t := p.peek()
	return t.kind == tokIdent && strings.EqualFold(t.text, kw)
}

func (p *parser) acceptKw(kw string) bool {
	if p.peekKw(kw) {
		p.advance()
		return true
	}
	return false
}

func (p *parser) expectKw(kw string) error {
	if !p.acceptKw(kw) {
		return p.errf("expected %q, found %s", kw, p.peek())
	}
	return nil
}

func (p *parser) peekSym(s string) bool {
	t := p.peek()
	return t.kind == tokSymbol && t.text == s
}

func (p *parser) acceptSym(s string) bool {
	if p.peekSym(s) {
		p.advance()
		return true
	}
	return false
}

func (p *parser) expectSym(s string) error {
	if !p.acceptSym(s) {
		return p.errf("expected %q, found %s", s, p.peek())
	}
	return nil
}

func (p *parser) expectIdent() (string, error) {
	t := p.peek()
	if t.kind != tokIdent {
		return "", p.errf("expected identifier, found %s", t)
	}
	p.advance()
	return t.text, nil
}

// statement parses one statement (without the trailing semicolon).
func (p *parser) statement() (Stmt, error) {
	switch {
	case p.peekKw("create"):
		return p.createStmt()
	case p.peekKw("set"), p.peekKw("add"), p.peekKw("remove"):
		return p.updateStmt()
	case p.peekKw("select"):
		p.advance()
		q, err := p.selectQuery()
		if err != nil {
			return nil, err
		}
		return SelectStmt{Query: *q}, nil
	case p.peekKw("activate"):
		p.advance()
		name, args, err := p.ruleRef()
		if err != nil {
			return nil, err
		}
		return ActivateStmt{Rule: name, Args: args}, nil
	case p.peekKw("deactivate"):
		p.advance()
		name, args, err := p.ruleRef()
		if err != nil {
			return nil, err
		}
		return DeactivateStmt{Rule: name, Args: args}, nil
	case p.peekKw("explain"):
		p.advance()
		if p.acceptKw("rule") {
			name, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			return ExplainStmt{Rule: name}, nil
		}
		if err := p.expectKw("select"); err != nil {
			return nil, err
		}
		q, err := p.selectQuery()
		if err != nil {
			return nil, err
		}
		return ExplainStmt{Query: q}, nil
	case p.peekKw("delete"):
		p.advance()
		var vars []string
		for {
			t := p.peek()
			if t.kind != tokIfaceVar {
				return nil, p.errf("expected interface variable after delete, found %s", t)
			}
			p.advance()
			vars = append(vars, t.text)
			if !p.acceptSym(",") {
				break
			}
		}
		return DeleteInstances{Vars: vars}, nil
	case p.peekKw("declare"):
		return p.declareStmt()
	case p.peekKw("begin"), p.peekKw("commit"), p.peekKw("rollback"):
		kw := strings.ToLower(p.advance().text)
		return TxnStmt{Kind: kw}, nil
	default:
		return nil, p.errf("unexpected %s at start of statement", p.peek())
	}
}

// declareStmt parses: declare NAME CAPABILITY; — the capability is the
// remaining token run before the semicolon ("readonly", "append only",
// "read-write", ...), validated by the executor via
// storage.ParseCapability.
func (p *parser) declareStmt() (Stmt, error) {
	p.advance() // declare
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	var sb strings.Builder
	for !p.peekSym(";") && !p.atEOF() {
		t := p.peek()
		if t.kind != tokIdent && !(t.kind == tokSymbol && t.text == "-") {
			return nil, p.errf("unexpected %s in capability", t)
		}
		p.advance()
		if t.text == "-" {
			sb.WriteString("-")
			continue
		}
		if sb.Len() > 0 && !strings.HasSuffix(sb.String(), "-") {
			sb.WriteString(" ")
		}
		sb.WriteString(strings.ToLower(t.text))
	}
	if sb.Len() == 0 {
		return nil, p.errf("expected a capability after \"declare %s\"", name)
	}
	return DeclareStmt{Name: name, Capability: sb.String()}, nil
}

func (p *parser) createStmt() (Stmt, error) {
	p.advance() // create
	switch {
	case p.peekKw("type"):
		p.advance()
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		var unders []string
		if p.acceptKw("under") {
			for {
				u, err := p.expectIdent()
				if err != nil {
					return nil, err
				}
				unders = append(unders, u)
				if !p.acceptSym(",") {
					break
				}
			}
		}
		return CreateType{Name: name, Unders: unders}, nil

	case p.peekKw("function"), p.peekKw("shared"):
		shared := p.acceptKw("shared")
		if err := p.expectKw("function"); err != nil {
			return nil, err
		}
		return p.createFunction(shared)

	case p.peekKw("rule"), p.peekKw("nervous"):
		nervous := p.acceptKw("nervous")
		if err := p.expectKw("rule"); err != nil {
			return nil, err
		}
		return p.createRule(nervous)

	default:
		// create TYPE instances :v1, :v2;
		typeName, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if err := p.expectKw("instances"); err != nil {
			return nil, err
		}
		var vars []string
		for {
			t := p.peek()
			if t.kind != tokIfaceVar {
				return nil, p.errf("expected interface variable, found %s", t)
			}
			p.advance()
			vars = append(vars, t.text)
			if !p.acceptSym(",") {
				break
			}
		}
		return CreateInstances{TypeName: typeName, Vars: vars}, nil
	}
}

func (p *parser) createFunction(shared bool) (Stmt, error) {
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	params, err := p.paramList()
	if err != nil {
		return nil, err
	}
	if err := p.expectSym("->"); err != nil {
		return nil, err
	}
	result, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	cf := CreateFunction{Name: name, Params: params, Result: result, Shared: shared}
	if p.acceptKw("as") {
		if err := p.expectKw("select"); err != nil {
			return nil, err
		}
		q, err := p.selectQuery()
		if err != nil {
			return nil, err
		}
		cf.Body = q
	}
	return cf, nil
}

// paramList parses "(" [TYPE [NAME] {"," TYPE [NAME]}] ")".
func (p *parser) paramList() ([]ParamDecl, error) {
	if err := p.expectSym("("); err != nil {
		return nil, err
	}
	var out []ParamDecl
	if p.acceptSym(")") {
		return out, nil
	}
	for {
		typ, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		d := ParamDecl{Type: typ}
		if p.peek().kind == tokIdent && !p.peekSym(",") {
			d.Name = p.advance().text
		}
		out = append(out, d)
		if p.acceptSym(",") {
			continue
		}
		break
	}
	if err := p.expectSym(")"); err != nil {
		return nil, err
	}
	return out, nil
}

// declList parses "TYPE NAME {"," TYPE NAME}" (names required).
func (p *parser) declList() ([]ParamDecl, error) {
	var out []ParamDecl
	for {
		typ, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		out = append(out, ParamDecl{Type: typ, Name: name})
		if !p.acceptSym(",") {
			break
		}
	}
	return out, nil
}

func (p *parser) createRule(nervous bool) (Stmt, error) {
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	params, err := p.paramList()
	if err != nil {
		return nil, err
	}
	if err := p.expectKw("as"); err != nil {
		return nil, err
	}
	r := CreateRule{Name: name, Params: params, Nervous: nervous}
	if p.acceptKw("on") {
		for {
			ev, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			r.Events = append(r.Events, ev)
			if !p.acceptSym(",") {
				break
			}
		}
	}
	if err := p.expectKw("when"); err != nil {
		return nil, err
	}
	if p.acceptKw("for") {
		if err := p.expectKw("each"); err != nil {
			return nil, err
		}
		r.ForEach, err = p.declList()
		if err != nil {
			return nil, err
		}
		if err := p.expectKw("where"); err != nil {
			return nil, err
		}
	}
	r.Where, err = p.expr()
	if err != nil {
		return nil, err
	}
	if err := p.expectKw("do"); err != nil {
		return nil, err
	}
	r.ActionProc, err = p.expectIdent()
	if err != nil {
		return nil, err
	}
	r.ActionArgs, err = p.argList()
	if err != nil {
		return nil, err
	}
	if p.acceptKw("priority") {
		t := p.peek()
		neg := false
		if p.acceptSym("-") {
			neg = true
			t = p.peek()
		}
		if t.kind != tokInt {
			return nil, p.errf("expected integer priority, found %s", t)
		}
		p.advance()
		n, _ := strconv.ParseInt(t.text, 10, 64)
		if neg {
			n = -n
		}
		r.Priority = n
	}
	return r, nil
}

func (p *parser) selectQuery() (*SelectQuery, error) {
	var q SelectQuery
	for {
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		q.Exprs = append(q.Exprs, e)
		if !p.acceptSym(",") {
			break
		}
	}
	if p.acceptKw("for") {
		if err := p.expectKw("each"); err != nil {
			return nil, err
		}
		decls, err := p.declList()
		if err != nil {
			return nil, err
		}
		q.ForEach = decls
		if p.acceptKw("where") {
			w, err := p.expr()
			if err != nil {
				return nil, err
			}
			q.Where = w
		}
	} else if p.acceptKw("where") {
		w, err := p.expr()
		if err != nil {
			return nil, err
		}
		q.Where = w
	}
	return &q, nil
}

func (p *parser) updateStmt() (Stmt, error) {
	op := strings.ToLower(p.advance().text)
	fn, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	args, err := p.argList()
	if err != nil {
		return nil, err
	}
	if err := p.expectSym("="); err != nil {
		return nil, err
	}
	val, err := p.expr()
	if err != nil {
		return nil, err
	}
	return UpdateStmt{Op: op, Fn: fn, Args: args, Value: val}, nil
}

func (p *parser) ruleRef() (string, []Expr, error) {
	name, err := p.expectIdent()
	if err != nil {
		return "", nil, err
	}
	args, err := p.argList()
	if err != nil {
		return "", nil, err
	}
	return name, args, nil
}

// argList parses "(" [expr {"," expr}] ")".
func (p *parser) argList() ([]Expr, error) {
	if err := p.expectSym("("); err != nil {
		return nil, err
	}
	var out []Expr
	if p.acceptSym(")") {
		return out, nil
	}
	for {
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		out = append(out, e)
		if !p.acceptSym(",") {
			break
		}
	}
	if err := p.expectSym(")"); err != nil {
		return nil, err
	}
	return out, nil
}

// Expression grammar, loosest first:
//
//	expr     := orExpr
//	orExpr   := andExpr { "or" andExpr }
//	andExpr  := notExpr { "and" notExpr }
//	notExpr  := "not" notExpr | cmpExpr
//	cmpExpr  := addExpr [ ("="|"!="|"<"|"<="|">"|">=") addExpr ]
//	addExpr  := mulExpr { ("+"|"-") mulExpr }
//	mulExpr  := unary { ("*"|"/") unary }
//	unary    := "-" unary | primary
//	primary  := literal | :iface | ident [ "(" args ")" ] | "(" expr ")"
func (p *parser) expr() (Expr, error) { return p.orExpr() }

func (p *parser) orExpr() (Expr, error) {
	l, err := p.andExpr()
	if err != nil {
		return nil, err
	}
	for p.acceptKw("or") {
		r, err := p.andExpr()
		if err != nil {
			return nil, err
		}
		l = Binary{Op: "or", L: l, R: r}
	}
	return l, nil
}

func (p *parser) andExpr() (Expr, error) {
	l, err := p.notExpr()
	if err != nil {
		return nil, err
	}
	for p.acceptKw("and") {
		r, err := p.notExpr()
		if err != nil {
			return nil, err
		}
		l = Binary{Op: "and", L: l, R: r}
	}
	return l, nil
}

func (p *parser) notExpr() (Expr, error) {
	if p.acceptKw("not") {
		x, err := p.notExpr()
		if err != nil {
			return nil, err
		}
		return Unary{Op: "not", X: x}, nil
	}
	return p.cmpExpr()
}

func (p *parser) cmpExpr() (Expr, error) {
	l, err := p.addExpr()
	if err != nil {
		return nil, err
	}
	for _, op := range []string{"<=", ">=", "!=", "==", "=", "<", ">"} {
		if p.peekSym(op) {
			p.advance()
			r, err := p.addExpr()
			if err != nil {
				return nil, err
			}
			if op == "==" {
				op = "="
			}
			return Binary{Op: op, L: l, R: r}, nil
		}
	}
	return l, nil
}

func (p *parser) addExpr() (Expr, error) {
	l, err := p.mulExpr()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.acceptSym("+"):
			r, err := p.mulExpr()
			if err != nil {
				return nil, err
			}
			l = Binary{Op: "+", L: l, R: r}
		case p.acceptSym("-"):
			r, err := p.mulExpr()
			if err != nil {
				return nil, err
			}
			l = Binary{Op: "-", L: l, R: r}
		default:
			return l, nil
		}
	}
}

func (p *parser) mulExpr() (Expr, error) {
	l, err := p.unary()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.acceptSym("*"):
			r, err := p.unary()
			if err != nil {
				return nil, err
			}
			l = Binary{Op: "*", L: l, R: r}
		case p.acceptSym("/"):
			r, err := p.unary()
			if err != nil {
				return nil, err
			}
			l = Binary{Op: "/", L: l, R: r}
		default:
			return l, nil
		}
	}
}

func (p *parser) unary() (Expr, error) {
	if p.acceptSym("-") {
		x, err := p.unary()
		if err != nil {
			return nil, err
		}
		return Unary{Op: "-", X: x}, nil
	}
	return p.primary()
}

func (p *parser) primary() (Expr, error) {
	t := p.peek()
	switch t.kind {
	case tokInt:
		p.advance()
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, p.errf("bad integer %q", t.text)
		}
		return ConstExpr{Value: types.Int(n)}, nil
	case tokFloat:
		p.advance()
		f, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return nil, p.errf("bad float %q", t.text)
		}
		return ConstExpr{Value: types.Float(f)}, nil
	case tokString:
		p.advance()
		return ConstExpr{Value: types.Str(t.text)}, nil
	case tokIfaceVar:
		p.advance()
		return IfaceRef{Name: t.text}, nil
	case tokIdent:
		switch strings.ToLower(t.text) {
		case "true":
			p.advance()
			return ConstExpr{Value: types.Bool(true)}, nil
		case "false":
			p.advance()
			return ConstExpr{Value: types.Bool(false)}, nil
		}
		p.advance()
		if p.peekSym("(") {
			args, err := p.argList()
			if err != nil {
				return nil, err
			}
			return Call{Fn: t.text, Args: args}, nil
		}
		return VarRef{Name: t.text}, nil
	case tokSymbol:
		if t.text == "(" {
			p.advance()
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			if err := p.expectSym(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
	}
	return nil, p.errf("unexpected %s in expression", t)
}
