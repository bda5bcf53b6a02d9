package amosql

import "testing"

// tokenize drains the lexer: all tokens of src, the end-of-input token
// last. (The parser pulls them one at a time.)
func tokenize(src string) ([]token, error) {
	l := newLexer(src)
	var out []token
	for {
		t, err := l.next()
		if err != nil {
			return nil, err
		}
		out = append(out, t)
		if t.kind == tokEOF {
			return out, nil
		}
	}
}

func TestTokenizeBasics(t *testing.T) {
	toks, err := tokenize(`create function f(item i) -> integer;`)
	if err != nil {
		t.Fatal(err)
	}
	wantTexts := []string{"create", "function", "f", "(", "item", "i", ")", "->", "integer", ";"}
	if len(toks) != len(wantTexts)+1 {
		t.Fatalf("tokens: %v", toks)
	}
	for i, w := range wantTexts {
		if toks[i].text != w {
			t.Errorf("token %d = %q want %q", i, toks[i].text, w)
		}
	}
	if toks[len(toks)-1].kind != tokEOF {
		t.Error("missing EOF")
	}
}

func TestTokenizeInterfaceVariables(t *testing.T) {
	toks, _ := tokenize(`set quantity(:item1) = 120;`)
	var found bool
	for _, tk := range toks {
		if tk.kind == tokIfaceVar && tk.text == "item1" {
			found = true
		}
	}
	if !found {
		t.Errorf("interface variable not lexed: %v", toks)
	}
}

func TestTokenizeNumbers(t *testing.T) {
	toks, _ := tokenize(`42 3.25 7`)
	if toks[0].kind != tokInt || toks[0].text != "42" {
		t.Errorf("int: %v", toks[0])
	}
	if toks[1].kind != tokFloat || toks[1].text != "3.25" {
		t.Errorf("float: %v", toks[1])
	}
	if toks[2].kind != tokInt {
		t.Errorf("int: %v", toks[2])
	}
}

func TestTokenizeStrings(t *testing.T) {
	toks, err := tokenize(`'hello' "wo\nrld"`)
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].kind != tokString || toks[0].text != "hello" {
		t.Errorf("string: %+v", toks[0])
	}
	if toks[1].text != "wo\nrld" {
		t.Errorf("escape: %q", toks[1].text)
	}
	if _, err := tokenize(`'unterminated`); err == nil {
		t.Error("unterminated string should error")
	}
}

func TestTokenizeComments(t *testing.T) {
	toks, _ := tokenize("a -- line comment\nb /* block\ncomment */ c")
	texts := []string{}
	for _, tk := range toks {
		if tk.kind != tokEOF {
			texts = append(texts, tk.text)
		}
	}
	if len(texts) != 3 || texts[0] != "a" || texts[1] != "b" || texts[2] != "c" {
		t.Errorf("tokens=%v", texts)
	}
}

func TestTokenizeOperators(t *testing.T) {
	toks, _ := tokenize(`-> <= >= != < > = + - * /`)
	want := []string{"->", "<=", ">=", "!=", "<", ">", "=", "+", "-", "*", "/"}
	for i, w := range want {
		if toks[i].kind != tokSymbol || toks[i].text != w {
			t.Errorf("op %d: %+v want %q", i, toks[i], w)
		}
	}
}

func TestLineTracking(t *testing.T) {
	toks, _ := tokenize("a\nb\n\nc")
	if toks[0].line != 1 || toks[1].line != 2 || toks[2].line != 4 {
		t.Errorf("lines: %d %d %d", toks[0].line, toks[1].line, toks[2].line)
	}
}
