package amosql

import (
	"math/rand"
	"strings"
	"testing"
)

func mustParseOne(t *testing.T, src string) Stmt {
	t.Helper()
	s, err := ParseOne(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return s
}

func TestParseCreateType(t *testing.T) {
	s := mustParseOne(t, `create type item;`).(CreateType)
	if s.Name != "item" || len(s.Unders) != 0 {
		t.Errorf("%+v", s)
	}
	s = mustParseOne(t, `create type perishable under item;`).(CreateType)
	if s.Name != "perishable" || len(s.Unders) != 1 || s.Unders[0] != "item" {
		t.Errorf("%+v", s)
	}
	s = mustParseOne(t, `create type amphibious under car, boat;`).(CreateType)
	if len(s.Unders) != 2 || s.Unders[0] != "car" || s.Unders[1] != "boat" {
		t.Errorf("%+v", s)
	}
}

func TestParseCreateInstances(t *testing.T) {
	s := mustParseOne(t, `create item instances :item1, :item2;`).(CreateInstances)
	if s.TypeName != "item" || len(s.Vars) != 2 || s.Vars[0] != "item1" || s.Vars[1] != "item2" {
		t.Errorf("%+v", s)
	}
}

func TestParseCreateStoredFunction(t *testing.T) {
	s := mustParseOne(t, `create function quantity(item) -> integer;`).(CreateFunction)
	if s.Name != "quantity" || len(s.Params) != 1 || s.Params[0].Type != "item" ||
		s.Params[0].Name != "" || s.Result != "integer" || s.Body != nil || s.Shared {
		t.Errorf("%+v", s)
	}
	s = mustParseOne(t, `create function delivery_time(item i, supplier s) -> integer;`).(CreateFunction)
	if len(s.Params) != 2 || s.Params[0].Name != "i" || s.Params[1].Type != "supplier" {
		t.Errorf("%+v", s)
	}
}

func TestParseCreateDerivedFunction(t *testing.T) {
	// The paper's threshold function, verbatim.
	s := mustParseOne(t, `
create function threshold(item i) -> integer
    as
    select consume_freq(i) *
        delivery_time(i, s) + min_stock(i)
    for each supplier s where supplies(s) = i;`).(CreateFunction)
	if s.Body == nil || len(s.Body.Exprs) != 1 {
		t.Fatalf("%+v", s)
	}
	if len(s.Body.ForEach) != 1 || s.Body.ForEach[0].Type != "supplier" || s.Body.ForEach[0].Name != "s" {
		t.Errorf("for each: %+v", s.Body.ForEach)
	}
	// Precedence: (consume_freq(i) * delivery_time(i,s)) + min_stock(i)
	top, ok := s.Body.Exprs[0].(Binary)
	if !ok || top.Op != "+" {
		t.Fatalf("expr=%s", s.Body.Exprs[0])
	}
	if mul, ok := top.L.(Binary); !ok || mul.Op != "*" {
		t.Errorf("expr=%s", s.Body.Exprs[0])
	}
	if s.Body.Where == nil {
		t.Error("where lost")
	}
}

func TestParseSharedFunction(t *testing.T) {
	s := mustParseOne(t, `create shared function v(item i) -> integer as select quantity(i) for each item j where j = i;`).(CreateFunction)
	if !s.Shared {
		t.Error("shared flag")
	}
}

func TestParseCreateRule(t *testing.T) {
	// The paper's monitor_items rule, verbatim.
	s := mustParseOne(t, `
create rule monitor_items() as
     when for each item i
     where quantity(i) < threshold(i)
     do order(i, max_stock(i) - quantity(i));`).(CreateRule)
	if s.Name != "monitor_items" || len(s.Params) != 0 || s.Nervous {
		t.Errorf("%+v", s)
	}
	if len(s.ForEach) != 1 || s.ForEach[0].Name != "i" {
		t.Errorf("for each: %+v", s.ForEach)
	}
	if cmp, ok := s.Where.(Binary); !ok || cmp.Op != "<" {
		t.Errorf("where=%s", s.Where)
	}
	if s.ActionProc != "order" || len(s.ActionArgs) != 2 {
		t.Errorf("action: %s %v", s.ActionProc, s.ActionArgs)
	}
}

func TestParseParameterizedRule(t *testing.T) {
	// The paper's monitor_item rule (no for-each clause).
	s := mustParseOne(t, `
create rule monitor_item(item i) as
    when quantity(i) < threshold(i)
    do order(i, max_stock(i) - quantity(i));`).(CreateRule)
	if len(s.Params) != 1 || s.Params[0].Name != "i" || len(s.ForEach) != 0 {
		t.Errorf("%+v", s)
	}
}

func TestParseNervousRuleWithPriority(t *testing.T) {
	s := mustParseOne(t, `create nervous rule r(item i) as when quantity(i) < 5 do order(i, 1) priority 7;`).(CreateRule)
	if !s.Nervous || s.Priority != 7 {
		t.Errorf("%+v", s)
	}
	s = mustParseOne(t, `create rule r2(item i) as when quantity(i) < 5 do order(i, 1) priority -3;`).(CreateRule)
	if s.Priority != -3 {
		t.Errorf("%+v", s)
	}
}

func TestParseUpdates(t *testing.T) {
	s := mustParseOne(t, `set max_stock(:item1) = 5000;`).(UpdateStmt)
	if s.Op != "set" || s.Fn != "max_stock" || len(s.Args) != 1 {
		t.Errorf("%+v", s)
	}
	if _, ok := s.Args[0].(IfaceRef); !ok {
		t.Errorf("arg: %+v", s.Args[0])
	}
	if mustParseOne(t, `add supplies(:sup1) = :item1;`).(UpdateStmt).Op != "add" {
		t.Error("add op")
	}
	if mustParseOne(t, `remove supplies(:sup1) = :item1;`).(UpdateStmt).Op != "remove" {
		t.Error("remove op")
	}
}

func TestParseSelect(t *testing.T) {
	s := mustParseOne(t, `select i, quantity(i) for each item i where quantity(i) < 100;`).(SelectStmt)
	if len(s.Query.Exprs) != 2 || len(s.Query.ForEach) != 1 || s.Query.Where == nil {
		t.Errorf("%+v", s.Query)
	}
	// select without for-each
	s = mustParseOne(t, `select quantity(:item1);`).(SelectStmt)
	if len(s.Query.Exprs) != 1 || s.Query.ForEach != nil {
		t.Errorf("%+v", s.Query)
	}
}

func TestParseActivateDeactivate(t *testing.T) {
	a := mustParseOne(t, `activate monitor_items();`).(ActivateStmt)
	if a.Rule != "monitor_items" || len(a.Args) != 0 {
		t.Errorf("%+v", a)
	}
	d := mustParseOne(t, `deactivate monitor_item(:item1);`).(DeactivateStmt)
	if d.Rule != "monitor_item" || len(d.Args) != 1 {
		t.Errorf("%+v", d)
	}
}

func TestParseTxn(t *testing.T) {
	for _, kw := range []string{"begin", "commit", "rollback"} {
		s := mustParseOne(t, kw+";").(TxnStmt)
		if s.Kind != kw {
			t.Errorf("%+v", s)
		}
	}
}

func TestParseBooleanPredicates(t *testing.T) {
	s := mustParseOne(t, `select i for each item i where quantity(i) < 5 and not flagged(i) or quantity(i) > 100;`).(SelectStmt)
	top, ok := s.Query.Where.(Binary)
	if !ok || top.Op != "or" {
		t.Fatalf("where=%s", s.Query.Where)
	}
	left, ok := top.L.(Binary)
	if !ok || left.Op != "and" {
		t.Fatalf("left=%s", top.L)
	}
	if neg, ok := left.R.(Unary); !ok || neg.Op != "not" {
		t.Errorf("negation: %s", left.R)
	}
}

func TestParseParenthesesAndUnaryMinus(t *testing.T) {
	s := mustParseOne(t, `select (1 + 2) * -3;`).(SelectStmt)
	top, ok := s.Query.Exprs[0].(Binary)
	if !ok || top.Op != "*" {
		t.Fatalf("expr=%s", s.Query.Exprs[0])
	}
	if add, ok := top.L.(Binary); !ok || add.Op != "+" {
		t.Errorf("paren grouping: %s", top.L)
	}
	if neg, ok := top.R.(Unary); !ok || neg.Op != "-" {
		t.Errorf("unary minus: %s", top.R)
	}
}

func TestParseMultipleStatements(t *testing.T) {
	stmts, err := Parse(`create type item; create function quantity(item) -> integer;;`)
	if err != nil {
		t.Fatal(err)
	}
	if len(stmts) != 2 {
		t.Errorf("%d statements", len(stmts))
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		`create;`,
		`create type;`,
		`create function f(item -> integer;`,
		`create rule r() as quantity(i) < 5 do order(i);`,                      // missing when
		`create rule r() as when for each item i quantity(i) < 5 do order(i);`, // missing where
		`set f(1) 2;`,
		`select ;`,
		`activate;`,
		`frobnicate everything;`,
		`select 1 +;`,
		`create item instances item1;`, // not an interface variable
		`select 1`,                     // ParseOne tolerates, Parse needs semicolon
	}
	for _, src := range bad[:len(bad)-1] {
		if _, err := Parse(src); err == nil {
			t.Errorf("accepted %q", src)
		}
	}
	if _, err := Parse(`select 1`); err == nil {
		t.Error("Parse should require terminating semicolon")
	}
	if _, err := ParseOne(`select 1; select 2;`); err == nil {
		t.Error("ParseOne should reject trailing statements")
	}
	if _, err := ParseOne(`select 1`); err != nil {
		t.Errorf("ParseOne should tolerate missing semicolon: %v", err)
	}
}

// TestParseLexErrorsSurface: the parser pulls tokens as it goes, so a
// lexical error is met wherever the parser has got to — and is reported
// as itself, not as the "found end of input" it looks like from inside
// the grammar.
func TestParseLexErrorsSurface(t *testing.T) {
	for _, src := range []string{
		`select 'abc;`,
		`select 1; select 'abc;`,
		`select 1 + 'abc;`,
		`set f(1) = 'abc`,
		`create function f(item) -> integer; select 'x`,
	} {
		_, err := Parse(src)
		if err == nil || !strings.Contains(err.Error(), "unterminated string literal") {
			t.Errorf("Parse(%q) = %v, want the unterminated-string error", src, err)
		}
	}
	if _, err := ParseOne(`select 'abc`); err == nil || !strings.Contains(err.Error(), "unterminated") {
		t.Errorf("ParseOne = %v, want the unterminated-string error", err)
	}
	// Statement sources still end at their own semicolon.
	_, srcs, err := ParseWithSources("create type a ;\n\n create type b;;")
	if err != nil || len(srcs) != 2 || srcs[0] != "create type a ;" || srcs[1] != "create type b;" {
		t.Errorf("sources = %q, %v", srcs, err)
	}
}

func TestParseStringAndBoolLiterals(t *testing.T) {
	s := mustParseOne(t, `select 'abc', true, false;`).(SelectStmt)
	if len(s.Query.Exprs) != 3 {
		t.Fatalf("%+v", s.Query)
	}
	if c := s.Query.Exprs[0].(ConstExpr); c.Value.S != "abc" {
		t.Error("string literal")
	}
	if c := s.Query.Exprs[1].(ConstExpr); !c.Value.AsBool() {
		t.Error("true literal")
	}
}

// TestParserNeverPanics_Quick feeds random byte soup and random
// token-remixes of valid statements into the parser: it must return an
// error or a statement, never panic.
func TestParserNeverPanics_Quick(t *testing.T) {
	corpus := []string{
		paperFragment1, paperFragment2,
		`create type item; set f(:a) = 1 + 2 * 3; select i for each item i where not (a(i) = 2);`,
		`explain rule r; delete :x; activate r(1, 'two', true);`,
	}
	r := rand.New(rand.NewSource(7))
	defer func() {
		if p := recover(); p != nil {
			t.Fatalf("parser panicked: %v", p)
		}
	}()
	for i := 0; i < 3000; i++ {
		var src string
		switch i % 3 {
		case 0: // random bytes
			b := make([]byte, r.Intn(60))
			for j := range b {
				b[j] = byte(32 + r.Intn(95))
			}
			src = string(b)
		case 1: // token soup from corpus
			toks, err := tokenize(corpus[r.Intn(len(corpus))])
			if err != nil {
				continue
			}
			var sb strings.Builder
			for j := 0; j < r.Intn(25); j++ {
				tk := toks[r.Intn(len(toks))]
				if tk.kind == tokEOF {
					continue
				}
				sb.WriteString(tk.text)
				sb.WriteByte(' ')
			}
			src = sb.String()
		default: // corpus with random truncation
			c := corpus[r.Intn(len(corpus))]
			src = c[:r.Intn(len(c)+1)]
		}
		Parse(src) // error or success, never panic
	}
}

const paperFragment1 = `
create function threshold(item i) -> integer as
    select consume_freq(i) * delivery_time(i, s) + min_stock(i)
    for each supplier s where supplies(s) = i;`

const paperFragment2 = `
create rule monitor_items() as
    when for each item i where quantity(i) < threshold(i)
    do order(i, max_stock(i) - quantity(i)) priority 3;`

func TestExprStringRendering(t *testing.T) {
	s := mustParseOne(t, `select max_stock(i) - quantity(i) for each item i;`).(SelectStmt)
	if got := s.Query.Exprs[0].String(); got != "(max_stock(i) - quantity(i))" {
		t.Errorf("String()=%q", got)
	}
}
