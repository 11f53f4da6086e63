// Package lexer turns Mini-ICC source text into tokens.
package lexer

import (
	"objinline/internal/lang/source"
	"objinline/internal/lang/token"
)

// Lexer scans one source file. Create one with New and call Next until EOF.
type Lexer struct {
	file string
	src  string
	off  int // byte offset of the next unread character
	tok  int // byte offset of the last returned token's first character
	line int
	col  int
	errs *source.ErrorList
}

// New returns a lexer over src. Diagnostics are accumulated on errs, which
// must be non-nil.
func New(file, src string, errs *source.ErrorList) *Lexer {
	return &Lexer{file: file, src: src, line: 1, col: 1, errs: errs}
}

func (l *Lexer) pos() source.Pos {
	return source.Pos{File: l.file, Line: l.line, Col: l.col}
}

func (l *Lexer) peek() byte {
	if l.off >= len(l.src) {
		return 0
	}
	return l.src[l.off]
}

func (l *Lexer) peek2() byte {
	if l.off+1 >= len(l.src) {
		return 0
	}
	return l.src[l.off+1]
}

func (l *Lexer) advance() byte {
	c := l.src[l.off]
	l.off++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

func (l *Lexer) skipSpaceAndComments() {
	for l.off < len(l.src) {
		switch c := l.peek(); {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			l.advance()
		case c == '/' && l.peek2() == '/':
			for l.off < len(l.src) && l.peek() != '\n' {
				l.advance()
			}
		case c == '/' && l.peek2() == '*':
			start := l.pos()
			l.advance()
			l.advance()
			closed := false
			for l.off < len(l.src) {
				if l.peek() == '*' && l.peek2() == '/' {
					l.advance()
					l.advance()
					closed = true
					break
				}
				l.advance()
			}
			if !closed {
				l.errs.Add(start, "unterminated block comment")
			}
		default:
			return
		}
	}
}

func isLetter(c byte) bool {
	return c == '_' || ('a' <= c && c <= 'z') || ('A' <= c && c <= 'Z')
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// Next returns the next token. After the end of input it returns EOF
// tokens indefinitely.
func (l *Lexer) Next() token.Token {
	l.skipSpaceAndComments()
	l.tok = l.off
	pos := l.pos()
	if l.off >= len(l.src) {
		return token.Token{Kind: token.EOF, Pos: pos}
	}
	c := l.advance()
	switch {
	case isLetter(c):
		start := l.off - 1
		for l.off < len(l.src) && (isLetter(l.peek()) || isDigit(l.peek())) {
			l.advance()
		}
		lit := l.src[start:l.off]
		return token.Token{Kind: token.Lookup(lit), Lit: lit, Pos: pos}
	case isDigit(c):
		return l.number(pos)
	case c == '"':
		return l.stringLit(pos)
	}
	two := func(second byte, pair, single token.Kind) token.Token {
		if l.peek() == second {
			l.advance()
			return token.Token{Kind: pair, Pos: pos}
		}
		return token.Token{Kind: single, Pos: pos}
	}
	switch c {
	case '+':
		return token.Token{Kind: token.Plus, Pos: pos}
	case '-':
		return token.Token{Kind: token.Minus, Pos: pos}
	case '*':
		return token.Token{Kind: token.Star, Pos: pos}
	case '/':
		return token.Token{Kind: token.Slash, Pos: pos}
	case '%':
		return token.Token{Kind: token.Percent, Pos: pos}
	case '=':
		return two('=', token.Eq, token.Assign)
	case '!':
		return two('=', token.NotEq, token.Not)
	case '<':
		return two('=', token.LtEq, token.Lt)
	case '>':
		return two('=', token.GtEq, token.Gt)
	case '&':
		if l.peek() == '&' {
			l.advance()
			return token.Token{Kind: token.AndAnd, Pos: pos}
		}
	case '|':
		if l.peek() == '|' {
			l.advance()
			return token.Token{Kind: token.OrOr, Pos: pos}
		}
	case ';':
		return token.Token{Kind: token.Semicolon, Pos: pos}
	case ',':
		return token.Token{Kind: token.Comma, Pos: pos}
	case '.':
		return token.Token{Kind: token.Dot, Pos: pos}
	case ':':
		return token.Token{Kind: token.Colon, Pos: pos}
	case '(':
		return token.Token{Kind: token.LParen, Pos: pos}
	case ')':
		return token.Token{Kind: token.RParen, Pos: pos}
	case '{':
		return token.Token{Kind: token.LBrace, Pos: pos}
	case '}':
		return token.Token{Kind: token.RBrace, Pos: pos}
	case '[':
		return token.Token{Kind: token.LBrack, Pos: pos}
	case ']':
		return token.Token{Kind: token.RBrack, Pos: pos}
	}
	l.errs.Add(pos, "unexpected character %q", string(rune(c)))
	return token.Token{Kind: token.Illegal, Lit: string(rune(c)), Pos: pos}
}

func (l *Lexer) number(pos source.Pos) token.Token {
	start := l.off - 1
	for l.off < len(l.src) && isDigit(l.peek()) {
		l.advance()
	}
	kind := token.Int
	// A fractional part requires a digit after the dot so that expressions
	// like "2.abs()" (a method call on an integer) still lex as Int Dot Ident.
	if l.peek() == '.' && isDigit(l.peek2()) {
		kind = token.Float
		l.advance()
		for l.off < len(l.src) && isDigit(l.peek()) {
			l.advance()
		}
	}
	if l.peek() == 'e' || l.peek() == 'E' {
		save := l.off
		mark := *l
		l.advance()
		if l.peek() == '+' || l.peek() == '-' {
			l.advance()
		}
		if isDigit(l.peek()) {
			kind = token.Float
			for l.off < len(l.src) && isDigit(l.peek()) {
				l.advance()
			}
		} else {
			*l = mark
			l.off = save
		}
	}
	return token.Token{Kind: kind, Lit: l.src[start:l.off], Pos: pos}
}

func (l *Lexer) stringLit(pos source.Pos) token.Token {
	var buf []byte
	for {
		if l.off >= len(l.src) {
			l.errs.Add(pos, "unterminated string literal")
			break
		}
		c := l.advance()
		if c == '"' {
			break
		}
		if c == '\n' {
			l.errs.Add(pos, "newline in string literal")
			break
		}
		if c == '\\' {
			if l.off >= len(l.src) {
				l.errs.Add(pos, "unterminated string literal")
				break
			}
			e := l.advance()
			switch e {
			case 'n':
				buf = append(buf, '\n')
			case 't':
				buf = append(buf, '\t')
			case '\\':
				buf = append(buf, '\\')
			case '"':
				buf = append(buf, '"')
			default:
				l.errs.Add(pos, "unknown escape \\%c", e)
			}
			continue
		}
		buf = append(buf, c)
	}
	return token.Token{Kind: token.String, Lit: string(buf), Pos: pos}
}

// Span returns the byte offsets [start, end) of the token the last call
// to Next returned.
func (l *Lexer) Span() (start, end int) { return l.tok, l.off }

// All scans the remaining input and returns every token up to and including
// the EOF token. It is a convenience for tests and tools.
func (l *Lexer) All() []token.Token {
	var toks []token.Token
	for {
		t := l.Next()
		toks = append(toks, t)
		if t.Kind == token.EOF {
			return toks
		}
	}
}
