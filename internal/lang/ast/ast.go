// Package ast defines the abstract syntax of Mini-ICC.
//
// The tree is deliberately small: classes with fields and methods (single
// inheritance), top-level functions, and a conventional statement and
// expression language. Every object value is a reference; there is no
// syntax for inline allocation — that is the point: inline allocation is
// performed automatically by the optimizer.
package ast

import "objinline/internal/lang/source"

// Node is implemented by every syntax node.
type Node interface {
	Pos() source.Pos
}

// Program is a whole source program.
type Program struct {
	File    string
	Classes []*ClassDecl
	Funcs   []*FuncDecl
	Globals []*VarStmt // top-level "var" declarations
}

// Pos returns the program start position.
func (p *Program) Pos() source.Pos { return source.Pos{File: p.File, Line: 1, Col: 1} }

// ClassDecl declares a class, optionally extending a superclass.
type ClassDecl struct {
	NamePos source.Pos
	Name    string
	Super   string // "" if none
	Fields  []*FieldDecl
	Methods []*FuncDecl
}

// Pos returns the position of the class name.
func (d *ClassDecl) Pos() source.Pos { return d.NamePos }

// FieldDecl declares one instance variable.
type FieldDecl struct {
	NamePos source.Pos
	Name    string
}

// Pos returns the position of the field name.
func (d *FieldDecl) Pos() source.Pos { return d.NamePos }

// FuncDecl declares a top-level function or (inside a class) a method.
type FuncDecl struct {
	NamePos source.Pos
	Name    string
	Params  []*Param
	Body    *BlockStmt
	// Text is the declaration's source from its name through the closing
	// brace of its body: a substring of the parsed source.
	Text string
}

// Pos returns the position of the function name.
func (d *FuncDecl) Pos() source.Pos { return d.NamePos }

// Param is a formal parameter.
type Param struct {
	NamePos source.Pos
	Name    string
}

// Pos returns the position of the parameter name.
func (p *Param) Pos() source.Pos { return p.NamePos }

// Stmt is implemented by all statement nodes.
type Stmt interface {
	Node
	stmt()
}

// BlockStmt is a braced statement sequence.
type BlockStmt struct {
	LBrace source.Pos
	Stmts  []Stmt
}

// VarStmt declares a local or global variable with an optional initializer.
type VarStmt struct {
	VarPos source.Pos
	Name   string
	Init   Expr // may be nil
	// Text is a top-level declaration's source from "var" through ";"
	// (empty for locals): a substring of the parsed source.
	Text string
}

// AssignStmt assigns to a variable, field, or array element.
type AssignStmt struct {
	Target Expr // *Ident, *FieldExpr, or *IndexExpr
	Value  Expr
}

// ExprStmt evaluates an expression for its side effects.
type ExprStmt struct {
	X Expr
}

// IfStmt is a conditional with an optional else branch.
type IfStmt struct {
	IfPos source.Pos
	Cond  Expr
	Then  *BlockStmt
	Else  Stmt // *BlockStmt, *IfStmt, or nil
}

// WhileStmt is a pre-tested loop.
type WhileStmt struct {
	WhilePos source.Pos
	Cond     Expr
	Body     *BlockStmt
}

// ForStmt is a C-style loop; any of Init/Cond/Post may be nil.
type ForStmt struct {
	ForPos source.Pos
	Init   Stmt // *VarStmt, *AssignStmt, *ExprStmt, or nil
	Cond   Expr
	Post   Stmt
	Body   *BlockStmt
}

// ReturnStmt returns from the enclosing function, optionally with a value.
type ReturnStmt struct {
	RetPos source.Pos
	Value  Expr // may be nil
}

// BreakStmt exits the innermost loop.
type BreakStmt struct{ KwPos source.Pos }

// ContinueStmt restarts the innermost loop.
type ContinueStmt struct{ KwPos source.Pos }

// Pos implementations for statements.
func (s *BlockStmt) Pos() source.Pos    { return s.LBrace }
func (s *VarStmt) Pos() source.Pos      { return s.VarPos }
func (s *AssignStmt) Pos() source.Pos   { return s.Target.Pos() }
func (s *ExprStmt) Pos() source.Pos     { return s.X.Pos() }
func (s *IfStmt) Pos() source.Pos       { return s.IfPos }
func (s *WhileStmt) Pos() source.Pos    { return s.WhilePos }
func (s *ForStmt) Pos() source.Pos      { return s.ForPos }
func (s *ReturnStmt) Pos() source.Pos   { return s.RetPos }
func (s *BreakStmt) Pos() source.Pos    { return s.KwPos }
func (s *ContinueStmt) Pos() source.Pos { return s.KwPos }

func (*BlockStmt) stmt()    {}
func (*VarStmt) stmt()      {}
func (*AssignStmt) stmt()   {}
func (*ExprStmt) stmt()     {}
func (*IfStmt) stmt()       {}
func (*WhileStmt) stmt()    {}
func (*ForStmt) stmt()      {}
func (*ReturnStmt) stmt()   {}
func (*BreakStmt) stmt()    {}
func (*ContinueStmt) stmt() {}

// Expr is implemented by all expression nodes.
type Expr interface {
	Node
	expr()
}

// IntLit is an integer literal.
type IntLit struct {
	LitPos source.Pos
	Value  int64
}

// FloatLit is a floating-point literal.
type FloatLit struct {
	LitPos source.Pos
	Value  float64
}

// StringLit is a string literal.
type StringLit struct {
	LitPos source.Pos
	Value  string
}

// BoolLit is true or false.
type BoolLit struct {
	LitPos source.Pos
	Value  bool
}

// NilLit is the nil reference.
type NilLit struct{ LitPos source.Pos }

// SelfExpr is the receiver inside a method.
type SelfExpr struct{ LitPos source.Pos }

// Ident references a variable (local, parameter, or global).
type Ident struct {
	NamePos source.Pos
	Name    string
}

// BinaryOp enumerates binary operators.
type BinaryOp int

// Binary operators.
const (
	OpAdd BinaryOp = iota
	OpSub
	OpMul
	OpDiv
	OpMod
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpAnd // && with short-circuit evaluation
	OpOr  // || with short-circuit evaluation
)

var binOpNames = [...]string{"+", "-", "*", "/", "%", "==", "!=", "<", "<=", ">", ">=", "&&", "||"}

// String returns the operator's spelling.
func (op BinaryOp) String() string { return binOpNames[op] }

// BinaryExpr applies a binary operator.
type BinaryExpr struct {
	Op   BinaryOp
	X, Y Expr
}

// UnaryOp enumerates unary operators.
type UnaryOp int

// Unary operators.
const (
	OpNeg UnaryOp = iota // -x
	OpNot                // !x
)

// String returns the operator's spelling.
func (op UnaryOp) String() string {
	if op == OpNeg {
		return "-"
	}
	return "!"
}

// UnaryExpr applies a unary operator.
type UnaryExpr struct {
	OpPos source.Pos
	Op    UnaryOp
	X     Expr
}

// CallExpr calls a top-level function or builtin by name.
type CallExpr struct {
	NamePos source.Pos
	Name    string
	Args    []Expr
}

// MethodCallExpr dynamically dispatches a method on a receiver.
type MethodCallExpr struct {
	Recv   Expr
	Method string
	Args   []Expr
}

// FieldExpr reads a field of an object.
type FieldExpr struct {
	Recv Expr
	Name string
}

// IndexExpr reads an array element.
type IndexExpr struct {
	Arr   Expr
	Index Expr
}

// NewExpr allocates an object and runs its constructor ("init" method).
type NewExpr struct {
	NewPos source.Pos
	Class  string
	Args   []Expr
}

// NewArrayExpr allocates an array of the given length, filled with nil.
type NewArrayExpr struct {
	NewPos source.Pos
	Len    Expr
}

// Pos implementations for expressions.
func (e *IntLit) Pos() source.Pos         { return e.LitPos }
func (e *FloatLit) Pos() source.Pos       { return e.LitPos }
func (e *StringLit) Pos() source.Pos      { return e.LitPos }
func (e *BoolLit) Pos() source.Pos        { return e.LitPos }
func (e *NilLit) Pos() source.Pos         { return e.LitPos }
func (e *SelfExpr) Pos() source.Pos       { return e.LitPos }
func (e *Ident) Pos() source.Pos          { return e.NamePos }
func (e *BinaryExpr) Pos() source.Pos     { return e.X.Pos() }
func (e *UnaryExpr) Pos() source.Pos      { return e.OpPos }
func (e *CallExpr) Pos() source.Pos       { return e.NamePos }
func (e *MethodCallExpr) Pos() source.Pos { return e.Recv.Pos() }
func (e *FieldExpr) Pos() source.Pos      { return e.Recv.Pos() }
func (e *IndexExpr) Pos() source.Pos      { return e.Arr.Pos() }
func (e *NewExpr) Pos() source.Pos        { return e.NewPos }
func (e *NewArrayExpr) Pos() source.Pos   { return e.NewPos }

func (*IntLit) expr()         {}
func (*FloatLit) expr()       {}
func (*StringLit) expr()      {}
func (*BoolLit) expr()        {}
func (*NilLit) expr()         {}
func (*SelfExpr) expr()       {}
func (*Ident) expr()          {}
func (*BinaryExpr) expr()     {}
func (*UnaryExpr) expr()      {}
func (*CallExpr) expr()       {}
func (*MethodCallExpr) expr() {}
func (*FieldExpr) expr()      {}
func (*IndexExpr) expr()      {}
func (*NewExpr) expr()        {}
func (*NewArrayExpr) expr()   {}
