// Package parser builds Mini-ICC syntax trees by recursive descent.
package parser

import (
	"strconv"

	"objinline/internal/lang/ast"
	"objinline/internal/lang/lexer"
	"objinline/internal/lang/source"
	"objinline/internal/lang/token"
)

// Parse parses one source file into a Program. It returns the (possibly
// partial) tree together with any accumulated diagnostics.
func Parse(file, src string) (*ast.Program, error) {
	var errs source.ErrorList
	p := &parser{src: src, lex: lexer.New(file, src, &errs), errs: &errs}
	p.next()
	prog := p.parseProgram(file)
	return prog, errs.Err()
}

type parser struct {
	src  string
	lex  *lexer.Lexer
	tok  token.Token
	errs *source.ErrorList
	// tokStart is tok's byte offset; prevEnd is the offset just past the
	// token consumed before it. Declarations record their text with them.
	tokStart, prevEnd int
	// panicking suppresses cascading diagnostics until resynchronization.
	panicking bool
}

func (p *parser) next() {
	_, p.prevEnd = p.lex.Span()
	p.tok = p.lex.Next()
	p.tokStart, _ = p.lex.Span()
}

func (p *parser) errorf(pos source.Pos, format string, args ...any) {
	if p.panicking {
		return
	}
	p.panicking = true
	p.errs.Add(pos, format, args...)
}

func (p *parser) expect(k token.Kind) token.Token {
	t := p.tok
	if t.Kind != k {
		p.errorf(t.Pos, "expected %s, found %s", k, t)
		// Do not consume: let synchronization handle recovery.
		return token.Token{Kind: k, Pos: t.Pos}
	}
	p.panicking = false
	p.next()
	return t
}

func (p *parser) accept(k token.Kind) bool {
	if p.tok.Kind == k {
		p.next()
		return true
	}
	return false
}

// sync skips tokens until a likely statement/declaration boundary.
func (p *parser) sync() {
	for {
		switch p.tok.Kind {
		case token.EOF, token.RBrace, token.KwClass, token.KwFunc, token.KwDef:
			p.panicking = false
			return
		case token.Semicolon:
			p.next()
			p.panicking = false
			return
		}
		p.next()
	}
}

func (p *parser) parseProgram(file string) *ast.Program {
	prog := &ast.Program{File: file}
	for p.tok.Kind != token.EOF {
		switch p.tok.Kind {
		case token.KwClass:
			prog.Classes = append(prog.Classes, p.parseClass())
		case token.KwFunc:
			prog.Funcs = append(prog.Funcs, p.parseFunc(token.KwFunc))
		case token.KwVar:
			start := p.tokStart
			g := p.parseVarStmt()
			g.Text = p.src[start:p.prevEnd]
			prog.Globals = append(prog.Globals, g)
		default:
			p.errorf(p.tok.Pos, "expected declaration, found %s", p.tok)
			// Consume the offending token before resynchronizing: sync()
			// stops *at* declaration keywords, so a stray `def` (or any
			// other non-declaration token sync treats as a boundary) at top
			// level would otherwise never be consumed and loop forever.
			p.next()
			p.sync()
		}
	}
	return prog
}

func (p *parser) parseClass() *ast.ClassDecl {
	p.expect(token.KwClass)
	name := p.expect(token.Ident)
	d := &ast.ClassDecl{NamePos: name.Pos, Name: name.Lit}
	if p.accept(token.Colon) {
		d.Super = p.expect(token.Ident).Lit
	}
	p.expect(token.LBrace)
	for p.tok.Kind != token.RBrace && p.tok.Kind != token.EOF {
		switch p.tok.Kind {
		case token.KwDef:
			d.Methods = append(d.Methods, p.parseFunc(token.KwDef))
		case token.Ident:
			// One or more comma-separated field names ending in ';'.
			for {
				f := p.expect(token.Ident)
				d.Fields = append(d.Fields, &ast.FieldDecl{NamePos: f.Pos, Name: f.Lit})
				if !p.accept(token.Comma) {
					break
				}
			}
			p.expect(token.Semicolon)
		default:
			p.errorf(p.tok.Pos, "expected field or method, found %s", p.tok)
			p.sync()
		}
	}
	p.expect(token.RBrace)
	return d
}

func (p *parser) parseFunc(kw token.Kind) *ast.FuncDecl {
	p.expect(kw)
	start := p.tokStart
	name := p.expect(token.Ident)
	f := &ast.FuncDecl{NamePos: name.Pos, Name: name.Lit}
	p.expect(token.LParen)
	if p.tok.Kind != token.RParen {
		for {
			id := p.expect(token.Ident)
			f.Params = append(f.Params, &ast.Param{NamePos: id.Pos, Name: id.Lit})
			if !p.accept(token.Comma) {
				break
			}
		}
	}
	p.expect(token.RParen)
	f.Body = p.parseBlock()
	// max: a malformed declaration may consume nothing after the keyword.
	f.Text = p.src[start:max(start, p.prevEnd)]
	return f
}

func (p *parser) parseBlock() *ast.BlockStmt {
	lb := p.expect(token.LBrace)
	blk := &ast.BlockStmt{LBrace: lb.Pos}
	for p.tok.Kind != token.RBrace && p.tok.Kind != token.EOF {
		s := p.parseStmt()
		if s != nil {
			blk.Stmts = append(blk.Stmts, s)
		}
	}
	p.expect(token.RBrace)
	return blk
}

func (p *parser) parseStmt() ast.Stmt {
	switch p.tok.Kind {
	case token.KwVar:
		return p.parseVarStmt()
	case token.KwIf:
		return p.parseIf()
	case token.KwWhile:
		pos := p.tok.Pos
		p.next()
		p.expect(token.LParen)
		cond := p.parseExpr()
		p.expect(token.RParen)
		return &ast.WhileStmt{WhilePos: pos, Cond: cond, Body: p.parseBlock()}
	case token.KwFor:
		return p.parseFor()
	case token.KwReturn:
		pos := p.tok.Pos
		p.next()
		var val ast.Expr
		if p.tok.Kind != token.Semicolon {
			val = p.parseExpr()
		}
		p.expect(token.Semicolon)
		return &ast.ReturnStmt{RetPos: pos, Value: val}
	case token.KwBreak:
		pos := p.tok.Pos
		p.next()
		p.expect(token.Semicolon)
		return &ast.BreakStmt{KwPos: pos}
	case token.KwContinue:
		pos := p.tok.Pos
		p.next()
		p.expect(token.Semicolon)
		return &ast.ContinueStmt{KwPos: pos}
	case token.LBrace:
		return p.parseBlock()
	case token.Semicolon:
		p.next()
		return nil
	default:
		s := p.parseSimpleStmt()
		p.expect(token.Semicolon)
		return s
	}
}

func (p *parser) parseVarStmt() *ast.VarStmt {
	pos := p.tok.Pos
	p.expect(token.KwVar)
	name := p.expect(token.Ident)
	s := &ast.VarStmt{VarPos: pos, Name: name.Lit}
	if p.accept(token.Assign) {
		s.Init = p.parseExpr()
	}
	p.expect(token.Semicolon)
	return s
}

func (p *parser) parseIf() ast.Stmt {
	pos := p.tok.Pos
	p.expect(token.KwIf)
	p.expect(token.LParen)
	cond := p.parseExpr()
	p.expect(token.RParen)
	s := &ast.IfStmt{IfPos: pos, Cond: cond, Then: p.parseBlock()}
	if p.accept(token.KwElse) {
		if p.tok.Kind == token.KwIf {
			s.Else = p.parseIf()
		} else {
			s.Else = p.parseBlock()
		}
	}
	return s
}

func (p *parser) parseFor() ast.Stmt {
	pos := p.tok.Pos
	p.expect(token.KwFor)
	p.expect(token.LParen)
	var init ast.Stmt
	if p.tok.Kind != token.Semicolon {
		if p.tok.Kind == token.KwVar {
			vpos := p.tok.Pos
			p.next()
			name := p.expect(token.Ident)
			v := &ast.VarStmt{VarPos: vpos, Name: name.Lit}
			if p.accept(token.Assign) {
				v.Init = p.parseExpr()
			}
			init = v
		} else {
			init = p.parseSimpleStmt()
		}
	}
	p.expect(token.Semicolon)
	var cond ast.Expr
	if p.tok.Kind != token.Semicolon {
		cond = p.parseExpr()
	}
	p.expect(token.Semicolon)
	var post ast.Stmt
	if p.tok.Kind != token.RParen {
		post = p.parseSimpleStmt()
	}
	p.expect(token.RParen)
	return &ast.ForStmt{ForPos: pos, Init: init, Cond: cond, Post: post, Body: p.parseBlock()}
}

// parseSimpleStmt parses an expression or assignment statement (no
// trailing semicolon).
func (p *parser) parseSimpleStmt() ast.Stmt {
	x := p.parseExpr()
	if p.accept(token.Assign) {
		switch x.(type) {
		case *ast.Ident, *ast.FieldExpr, *ast.IndexExpr:
		default:
			p.errorf(x.Pos(), "cannot assign to this expression")
		}
		return &ast.AssignStmt{Target: x, Value: p.parseExpr()}
	}
	return &ast.ExprStmt{X: x}
}

// Operator precedence, loosest first.
var binPrec = map[token.Kind]int{
	token.OrOr:   1,
	token.AndAnd: 2,
	token.Eq:     3, token.NotEq: 3,
	token.Lt: 4, token.LtEq: 4, token.Gt: 4, token.GtEq: 4,
	token.Plus: 5, token.Minus: 5,
	token.Star: 6, token.Slash: 6, token.Percent: 6,
}

var binOps = map[token.Kind]ast.BinaryOp{
	token.OrOr:    ast.OpOr,
	token.AndAnd:  ast.OpAnd,
	token.Eq:      ast.OpEq,
	token.NotEq:   ast.OpNe,
	token.Lt:      ast.OpLt,
	token.LtEq:    ast.OpLe,
	token.Gt:      ast.OpGt,
	token.GtEq:    ast.OpGe,
	token.Plus:    ast.OpAdd,
	token.Minus:   ast.OpSub,
	token.Star:    ast.OpMul,
	token.Slash:   ast.OpDiv,
	token.Percent: ast.OpMod,
}

func (p *parser) parseExpr() ast.Expr { return p.parseBinary(1) }

func (p *parser) parseBinary(minPrec int) ast.Expr {
	x := p.parseUnary()
	for {
		prec, ok := binPrec[p.tok.Kind]
		if !ok || prec < minPrec {
			return x
		}
		op := binOps[p.tok.Kind]
		p.next()
		y := p.parseBinary(prec + 1)
		x = &ast.BinaryExpr{Op: op, X: x, Y: y}
	}
}

func (p *parser) parseUnary() ast.Expr {
	switch p.tok.Kind {
	case token.Minus:
		pos := p.tok.Pos
		p.next()
		return &ast.UnaryExpr{OpPos: pos, Op: ast.OpNeg, X: p.parseUnary()}
	case token.Not:
		pos := p.tok.Pos
		p.next()
		return &ast.UnaryExpr{OpPos: pos, Op: ast.OpNot, X: p.parseUnary()}
	}
	return p.parsePostfix(p.parsePrimary())
}

func (p *parser) parsePostfix(x ast.Expr) ast.Expr {
	for {
		switch p.tok.Kind {
		case token.Dot:
			p.next()
			name := p.expect(token.Ident)
			if p.tok.Kind == token.LParen {
				args := p.parseArgs()
				x = &ast.MethodCallExpr{Recv: x, Method: name.Lit, Args: args}
			} else {
				x = &ast.FieldExpr{Recv: x, Name: name.Lit}
			}
		case token.LBrack:
			p.next()
			idx := p.parseExpr()
			p.expect(token.RBrack)
			x = &ast.IndexExpr{Arr: x, Index: idx}
		default:
			return x
		}
	}
}

func (p *parser) parseArgs() []ast.Expr {
	p.expect(token.LParen)
	var args []ast.Expr
	if p.tok.Kind != token.RParen {
		for {
			args = append(args, p.parseExpr())
			if !p.accept(token.Comma) {
				break
			}
		}
	}
	p.expect(token.RParen)
	return args
}

func (p *parser) parsePrimary() ast.Expr {
	t := p.tok
	switch t.Kind {
	case token.Int:
		p.next()
		v, err := strconv.ParseInt(t.Lit, 10, 64)
		if err != nil {
			p.errorf(t.Pos, "invalid integer literal %q", t.Lit)
		}
		return &ast.IntLit{LitPos: t.Pos, Value: v}
	case token.Float:
		p.next()
		v, err := strconv.ParseFloat(t.Lit, 64)
		if err != nil {
			p.errorf(t.Pos, "invalid float literal %q", t.Lit)
		}
		return &ast.FloatLit{LitPos: t.Pos, Value: v}
	case token.String:
		p.next()
		return &ast.StringLit{LitPos: t.Pos, Value: t.Lit}
	case token.KwTrue:
		p.next()
		return &ast.BoolLit{LitPos: t.Pos, Value: true}
	case token.KwFalse:
		p.next()
		return &ast.BoolLit{LitPos: t.Pos, Value: false}
	case token.KwNil:
		p.next()
		return &ast.NilLit{LitPos: t.Pos}
	case token.KwSelf:
		p.next()
		return &ast.SelfExpr{LitPos: t.Pos}
	case token.KwNew:
		p.next()
		if p.tok.Kind == token.LBrack {
			p.next()
			n := p.parseExpr()
			p.expect(token.RBrack)
			return &ast.NewArrayExpr{NewPos: t.Pos, Len: n}
		}
		cls := p.expect(token.Ident)
		args := p.parseArgs()
		return &ast.NewExpr{NewPos: t.Pos, Class: cls.Lit, Args: args}
	case token.Ident:
		p.next()
		if p.tok.Kind == token.LParen {
			args := p.parseArgs()
			return &ast.CallExpr{NamePos: t.Pos, Name: t.Lit, Args: args}
		}
		return &ast.Ident{NamePos: t.Pos, Name: t.Lit}
	case token.LParen:
		p.next()
		x := p.parseExpr()
		p.expect(token.RParen)
		return x
	}
	p.errorf(t.Pos, "expected expression, found %s", t)
	p.next()
	return &ast.NilLit{LitPos: t.Pos}
}
