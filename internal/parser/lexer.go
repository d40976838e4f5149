// Package parser implements a concrete syntax for Sequence Datalog
// programs and instances, mirroring the paper's notation in ASCII:
//
//	S($x) :- R($x), a.$x = $x.a.
//	T($u.<$s>.$v) :- R($u.$s.$v), S($s).
//	A :- T($x), T($y), $x != $y.
//	---                            % stratum separator
//	S2($x) :- S($x).
//
// Atomic variables are @x, path variables $x, packing <e>, the empty
// path "eps", negation "!" (or "not"), and rules terminate with a dot.
// A dot is concatenation when immediately (without whitespace) followed
// by a term start; otherwise it terminates the rule. The Unicode forms
// ·, ←, ¬, ≠ and ε are also accepted.
package parser

import (
	"fmt"
	"strings"
	"unicode"

	"seqlog/internal/value"
)

type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokQuoted
	tokAtomVar
	tokPathVar
	tokLParen
	tokRParen
	tokLAngle
	tokRAngle
	tokComma
	tokDot     // concatenation
	tokTermDot // rule terminator
	tokArrow   // :- or <- or ←
	tokEq      // =
	tokNeq     // != or ≠
	tokBang    // ! or ¬ or not
	tokSep     // --- (stratum separator)
	tokEps     // eps or ε
)

func (k tokenKind) String() string {
	switch k {
	case tokEOF:
		return "end of input"
	case tokIdent:
		return "identifier"
	case tokQuoted:
		return "quoted atom"
	case tokAtomVar:
		return "@variable"
	case tokPathVar:
		return "$variable"
	case tokLParen:
		return "'('"
	case tokRParen:
		return "')'"
	case tokLAngle:
		return "'<'"
	case tokRAngle:
		return "'>'"
	case tokComma:
		return "','"
	case tokDot:
		return "'.'"
	case tokTermDot:
		return "end of rule '.'"
	case tokArrow:
		return "':-'"
	case tokEq:
		return "'='"
	case tokNeq:
		return "'!='"
	case tokBang:
		return "'!'"
	case tokSep:
		return "'---'"
	case tokEps:
		return "'eps'"
	}
	return "?"
}

type token struct {
	kind tokenKind
	text string
	// atom is the interned form of text, set at lex time for tokIdent
	// and tokQuoted so downstream layers build expressions from
	// interned values instead of raw strings.
	atom value.Value
	line int
	col  int
}

// Error is a parse error with position information.
type Error struct {
	Line, Col int
	Msg       string
}

func (e *Error) Error() string {
	return fmt.Sprintf("%d:%d: %s", e.Line, e.Col, e.Msg)
}

type lexer struct {
	src  []rune
	pos  int
	line int
	col  int
}

func newLexer(src string) *lexer {
	return &lexer{src: []rune(src), line: 1, col: 1}
}

func (l *lexer) errf(format string, args ...any) *Error {
	return &Error{Line: l.line, Col: l.col, Msg: fmt.Sprintf(format, args...)}
}

func (l *lexer) peek() rune {
	if l.pos >= len(l.src) {
		return 0
	}
	return l.src[l.pos]
}

func (l *lexer) peekAt(off int) rune {
	if l.pos+off >= len(l.src) {
		return 0
	}
	return l.src[l.pos+off]
}

func (l *lexer) advance() rune {
	r := l.src[l.pos]
	l.pos++
	if r == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return r
}

func isIdentRune(r rune) bool {
	return r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9' || r == '_'
}

func isTermStart(r rune) bool {
	return isIdentRune(r) || r == '@' || r == '$' || r == '<' || r == '\'' || r == 'ε'
}

func (l *lexer) skipSpaceAndComments() {
	for l.pos < len(l.src) {
		r := l.peek()
		switch {
		case unicode.IsSpace(r):
			l.advance()
		case r == '%' || r == '#':
			for l.pos < len(l.src) && l.peek() != '\n' {
				l.advance()
			}
		case r == '/' && l.peekAt(1) == '/':
			for l.pos < len(l.src) && l.peek() != '\n' {
				l.advance()
			}
		default:
			return
		}
	}
}

// tokens lexes the whole input.
func (l *lexer) tokens() ([]token, error) {
	var out []token
	for {
		l.skipSpaceAndComments()
		line, col := l.line, l.col
		if l.pos >= len(l.src) {
			out = append(out, token{kind: tokEOF, line: line, col: col})
			return out, nil
		}
		r := l.peek()
		emit := func(k tokenKind, text string) {
			tok := token{kind: k, text: text, line: line, col: col}
			if k == tokIdent || k == tokQuoted {
				tok.atom = value.Intern(text)
			}
			out = append(out, tok)
		}
		switch {
		case r == '-' && l.peekAt(1) == '-' && l.peekAt(2) == '-':
			l.advance()
			l.advance()
			l.advance()
			emit(tokSep, "---")
		case r == ':' && l.peekAt(1) == '-':
			l.advance()
			l.advance()
			emit(tokArrow, ":-")
		case r == '<' && l.peekAt(1) == '-':
			l.advance()
			l.advance()
			emit(tokArrow, "<-")
		case r == '←':
			l.advance()
			emit(tokArrow, "←")
		case r == '(':
			l.advance()
			emit(tokLParen, "(")
		case r == ')':
			l.advance()
			emit(tokRParen, ")")
		case r == '<':
			l.advance()
			emit(tokLAngle, "<")
		case r == '>':
			l.advance()
			emit(tokRAngle, ">")
		case r == ',':
			l.advance()
			emit(tokComma, ",")
		case r == '·':
			l.advance()
			emit(tokDot, "·")
		case r == '.':
			l.advance()
			if isTermStart(l.peek()) {
				emit(tokDot, ".")
			} else {
				emit(tokTermDot, ".")
			}
		case r == '=':
			l.advance()
			emit(tokEq, "=")
		case r == '≠':
			l.advance()
			emit(tokNeq, "≠")
		case r == '!' && l.peekAt(1) == '=':
			l.advance()
			l.advance()
			emit(tokNeq, "!=")
		case r == '!' || r == '¬':
			l.advance()
			emit(tokBang, string(r))
		case r == 'ε':
			l.advance()
			emit(tokEps, "ε")
		case r == '@' || r == '$':
			l.advance()
			if !isIdentRune(l.peek()) {
				return nil, l.errf("expected variable name after %q", string(r))
			}
			var b strings.Builder
			for l.pos < len(l.src) && isIdentRune(l.peek()) {
				b.WriteRune(l.advance())
			}
			if r == '@' {
				emit(tokAtomVar, b.String())
			} else {
				emit(tokPathVar, b.String())
			}
		case r == '\'':
			l.advance()
			var b strings.Builder
			for {
				if l.pos >= len(l.src) {
					return nil, l.errf("unterminated quoted atom")
				}
				c := l.advance()
				if c == '\\' && l.pos < len(l.src) {
					b.WriteRune(l.advance())
					continue
				}
				if c == '\'' {
					break
				}
				b.WriteRune(c)
			}
			emit(tokQuoted, b.String())
		case isIdentRune(r):
			var b strings.Builder
			for l.pos < len(l.src) && isIdentRune(l.peek()) {
				b.WriteRune(l.advance())
			}
			s := b.String()
			switch s {
			case "eps":
				emit(tokEps, s)
			case "not":
				emit(tokBang, s)
			default:
				emit(tokIdent, s)
			}
		default:
			return nil, l.errf("unexpected character %q", string(r))
		}
	}
}
