// Package amosql implements a substantial subset of AMOSQL, the query
// language of AMOS (§3 of the paper): type and function definitions
// (stored, derived, shared), CA rule definitions, instance creation,
// stored-function updates (set/add/remove), declarative select queries,
// rule activation/deactivation, and transaction control.
//
// Statements are compiled into the ObjectLog IR (internal/objectlog)
// exactly as described in §3.2: stored functions become facts (base
// relations), derived functions become Horn clauses, and rule conditions
// become condition functions monitored for changes.
package amosql

import (
	"fmt"
	"strings"
	"unicode"
)

// tokenKind classifies lexical tokens.
type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokIfaceVar // :name interface variable
	tokInt
	tokFloat
	tokString
	tokSymbol // punctuation and operators
)

func (k tokenKind) String() string {
	switch k {
	case tokEOF:
		return "end of input"
	case tokIdent:
		return "identifier"
	case tokIfaceVar:
		return "interface variable"
	case tokInt:
		return "integer"
	case tokFloat:
		return "float"
	case tokString:
		return "string"
	case tokSymbol:
		return "symbol"
	default:
		return "token"
	}
}

// token is one lexical token with its source position.
type token struct {
	kind tokenKind
	text string
	pos  int // byte offset, for error messages
	line int
}

func (t token) String() string {
	if t.kind == tokEOF {
		return "end of input"
	}
	return fmt.Sprintf("%q", t.text)
}

// lexer tokenizes AMOSQL source.
type lexer struct {
	src  string
	pos  int
	line int
}

func newLexer(src string) *lexer { return &lexer{src: src, line: 1} }

// multi-character operators, longest first.
var multiOps = []string{"->", "<=", ">=", "!=", "=="}

// next returns the next token.
func (l *lexer) next() (token, error) {
	l.skipSpaceAndComments()
	if l.pos >= len(l.src) {
		return token{kind: tokEOF, pos: l.pos, line: l.line}, nil
	}
	start, startLine := l.pos, l.line
	c := l.src[l.pos]
	switch {
	case c == ':' && l.pos+1 < len(l.src) && isIdentStart(rune(l.src[l.pos+1])):
		l.pos++
		name := l.ident()
		return token{kind: tokIfaceVar, text: name, pos: start, line: startLine}, nil
	case isIdentStart(rune(c)):
		return token{kind: tokIdent, text: l.ident(), pos: start, line: startLine}, nil
	case c >= '0' && c <= '9':
		return l.number(start, startLine)
	case c == '\'' || c == '"':
		return l.stringLit(start, startLine)
	}
	for _, op := range multiOps {
		if strings.HasPrefix(l.src[l.pos:], op) {
			l.pos += len(op)
			return token{kind: tokSymbol, text: op, pos: start, line: startLine}, nil
		}
	}
	l.pos++
	return token{kind: tokSymbol, text: l.src[start:l.pos], pos: start, line: startLine}, nil
}

func (l *lexer) skipSpaceAndComments() {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == '\n':
			l.line++
			l.pos++
		case c == ' ' || c == '\t' || c == '\r':
			l.pos++
		case strings.HasPrefix(l.src[l.pos:], "--"):
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		case strings.HasPrefix(l.src[l.pos:], "/*"):
			end := strings.Index(l.src[l.pos+2:], "*/")
			if end < 0 {
				l.pos = len(l.src)
				return
			}
			l.line += strings.Count(l.src[l.pos:l.pos+2+end+2], "\n")
			l.pos += 2 + end + 2
		default:
			return
		}
	}
}

func isIdentStart(r rune) bool {
	return unicode.IsLetter(r) || r == '_'
}

func isIdentPart(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_'
}

func (l *lexer) ident() string {
	start := l.pos
	for l.pos < len(l.src) && isIdentPart(rune(l.src[l.pos])) {
		l.pos++
	}
	return l.src[start:l.pos]
}

func (l *lexer) number(start, startLine int) (token, error) {
	isFloat := false
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c >= '0' && c <= '9' {
			l.pos++
			continue
		}
		// A dot counts as a decimal point only when followed by a digit.
		if c == '.' && !isFloat && l.pos+1 < len(l.src) &&
			l.src[l.pos+1] >= '0' && l.src[l.pos+1] <= '9' {
			isFloat = true
			l.pos++
			continue
		}
		break
	}
	kind := tokInt
	if isFloat {
		kind = tokFloat
	}
	return token{kind: kind, text: l.src[start:l.pos], pos: start, line: startLine}, nil
}

func (l *lexer) stringLit(start, startLine int) (token, error) {
	quote := l.src[l.pos]
	l.pos++
	var sb strings.Builder
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == quote {
			l.pos++
			return token{kind: tokString, text: sb.String(), pos: start, line: startLine}, nil
		}
		if c == '\\' && l.pos+1 < len(l.src) {
			l.pos++
			switch l.src[l.pos] {
			case 'n':
				sb.WriteByte('\n')
			case 't':
				sb.WriteByte('\t')
			default:
				sb.WriteByte(l.src[l.pos])
			}
			l.pos++
			continue
		}
		if c == '\n' {
			l.line++
		}
		sb.WriteByte(c)
		l.pos++
	}
	return token{}, fmt.Errorf("line %d: unterminated string literal", startLine)
}
