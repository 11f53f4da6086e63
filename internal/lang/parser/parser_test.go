package parser_test

import (
	"strings"
	"testing"

	"objinline/internal/lang/ast"
	"objinline/internal/lang/parser"
)

func parse(t *testing.T, src string) *ast.Program {
	t.Helper()
	prog, err := parser.Parse("t.icc", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return prog
}

func parseErr(t *testing.T, src, frag string) {
	t.Helper()
	_, err := parser.Parse("t.icc", src)
	if err == nil {
		t.Fatalf("expected parse error for %q", src)
	}
	if !strings.Contains(err.Error(), frag) {
		t.Fatalf("error %q does not mention %q", err, frag)
	}
}

// roundTrip checks Print(parse(src)) is a fixpoint under re-parsing.
func roundTrip(t *testing.T, src string) {
	t.Helper()
	p1 := parse(t, src)
	s1 := ast.Print(p1)
	p2, err := parser.Parse("t.icc", s1)
	if err != nil {
		t.Fatalf("reparse failed: %v\nprinted:\n%s", err, s1)
	}
	s2 := ast.Print(p2)
	if s1 != s2 {
		t.Fatalf("print not stable:\nfirst:\n%s\nsecond:\n%s", s1, s2)
	}
}

func TestClassDecls(t *testing.T) {
	p := parse(t, `
class A { x; y, z; def m(a, b) { return a; } }
class B : A { w; }
`)
	if len(p.Classes) != 2 {
		t.Fatalf("classes = %d", len(p.Classes))
	}
	a := p.Classes[0]
	if a.Name != "A" || a.Super != "" || len(a.Fields) != 3 || len(a.Methods) != 1 {
		t.Errorf("A = %+v", a)
	}
	if a.Fields[1].Name != "y" || a.Fields[2].Name != "z" {
		t.Errorf("comma fields broken: %v %v", a.Fields[1].Name, a.Fields[2].Name)
	}
	b := p.Classes[1]
	if b.Super != "A" {
		t.Errorf("B.Super = %q", b.Super)
	}
}

func TestPrecedence(t *testing.T) {
	p := parse(t, `func main() { var x = 1 + 2 * 3 - 4 / 2; }`)
	init := p.Funcs[0].Body.Stmts[0].(*ast.VarStmt).Init
	if got := ast.ExprString(init); got != "((1 + (2 * 3)) - (4 / 2))" {
		t.Errorf("precedence: %s", got)
	}

	p = parse(t, `func main() { var x = a < b && c == d || !e; }`)
	init = p.Funcs[0].Body.Stmts[0].(*ast.VarStmt).Init
	if got := ast.ExprString(init); got != "(((a < b) && (c == d)) || (!e))" {
		t.Errorf("logic precedence: %s", got)
	}

	p = parse(t, `func main() { var x = -a * b; }`)
	init = p.Funcs[0].Body.Stmts[0].(*ast.VarStmt).Init
	if got := ast.ExprString(init); got != "((-a) * b)" {
		t.Errorf("unary precedence: %s", got)
	}
}

func TestPostfixChains(t *testing.T) {
	p := parse(t, `func main() { var x = a.b.c(1).d[2].e(); }`)
	init := p.Funcs[0].Body.Stmts[0].(*ast.VarStmt).Init
	if got := ast.ExprString(init); got != "a.b.c(1).d[2].e()" {
		t.Errorf("postfix chain: %s", got)
	}
}

func TestNewExpressions(t *testing.T) {
	p := parse(t, `func main() { var a = new Foo(1, x); var b = new [n + 1]; }`)
	stmts := p.Funcs[0].Body.Stmts
	ne := stmts[0].(*ast.VarStmt).Init.(*ast.NewExpr)
	if ne.Class != "Foo" || len(ne.Args) != 2 {
		t.Errorf("new expr: %+v", ne)
	}
	na := stmts[1].(*ast.VarStmt).Init.(*ast.NewArrayExpr)
	if ast.ExprString(na.Len) != "(n + 1)" {
		t.Errorf("new array len: %s", ast.ExprString(na.Len))
	}
}

func TestControlFlowForms(t *testing.T) {
	roundTrip(t, `
func main() {
  if (a) { f(); } else if (b) { g(); } else { h(); }
  while (x < 10) { x = x + 1; }
  for (var i = 0; i < 10; i = i + 1) { if (i == 5) { break; } continue; }
  for (; ; ) { break; }
  return 42;
}
`)
}

func TestAssignTargets(t *testing.T) {
	roundTrip(t, `
func main() {
  x = 1;
  o.f = 2;
  a[i] = 3;
  o.f.g = 4;
  a[i].f = 5;
}
`)
}

func TestGlobals(t *testing.T) {
	p := parse(t, `var g = 10; var h; func main() { }`)
	if len(p.Globals) != 2 || p.Globals[0].Init == nil || p.Globals[1].Init != nil {
		t.Errorf("globals: %+v", p.Globals)
	}
}

func TestRoundTripProgram(t *testing.T) {
	roundTrip(t, `
var counter = 0;
class Point {
  x; y;
  def init(x, y) { self.x = x; self.y = y; }
  def norm() { return sqrt(self.x * self.x + self.y * self.y); }
}
class Point3 : Point {
  z;
}
func helper(p, q) {
  var d = p.norm() - q.norm();
  if (d < 0.0) { return -d; }
  return d;
}
func main() {
  var p = new Point(1.0, 2.0);
  var arr = new [4];
  arr[0] = p;
  print(helper(p, new Point(0.5, 0.25)), len(arr), "done", true, false, nil);
}
`)
}

func TestParseErrors(t *testing.T) {
	cases := []struct{ src, frag string }{
		{`func main() { var = 3; }`, "expected IDENT"},
		{`func main() { 1 + ; }`, "expected expression"},
		{`func main() { if a { } }`, "expected ("},
		{`class { }`, "expected IDENT"},
		{`func main() { x = ; }`, "expected expression"},
		{`func main() { f(1,; }`, "expected expression"},
		{`blah`, "expected declaration"},
		{`func main() { 1 = 2; }`, "cannot assign"},
		{`func main() { (a + b) = 2; }`, "cannot assign"},
	}
	for _, c := range cases {
		parseErr(t, c.src, c.frag)
	}
}

func TestRecoveryContinuesAfterError(t *testing.T) {
	// Two independent errors should both be reported.
	_, err := parser.Parse("t.icc", `
func one() { var = 1; }
func two() { var = 2; }
`)
	if err == nil {
		t.Fatal("expected errors")
	}
	if n := strings.Count(err.Error(), "expected IDENT"); n < 2 {
		t.Errorf("want 2 recovered errors, got %d in %q", n, err)
	}
}

func TestSelfAndMethodCalls(t *testing.T) {
	p := parse(t, `class C { v; def m() { return self.v + self.m(); } } func main() { }`)
	m := p.Classes[0].Methods[0]
	ret := m.Body.Stmts[0].(*ast.ReturnStmt)
	if got := ast.ExprString(ret.Value); got != "(self.v + self.m())" {
		t.Errorf("self expr: %s", got)
	}
}

func TestEmptyStatementsTolerated(t *testing.T) {
	p := parse(t, `func main() { ;; x = 1; ; }`)
	if len(p.Funcs[0].Body.Stmts) != 1 {
		t.Errorf("stmts = %d, want 1", len(p.Funcs[0].Body.Stmts))
	}
}

func TestNestedBlocks(t *testing.T) {
	roundTrip(t, `func main() { { var x = 1; { x = 2; } } }`)
}

// TestDeclText checks the source text each declaration records: a
// function or method from its name through its closing brace, a global
// from "var" through ";", comments inside included.
func TestDeclText(t *testing.T) {
	prog := parse(t, `// header
var g = 1 + 2; // trailing
class C {
  x;
  def get() { return self.x; /* in */ }
}
func   main(a, b) {
  print(a);
}
`)
	if got, want := prog.Globals[0].Text, "var g = 1 + 2;"; got != want {
		t.Errorf("global text %q, want %q", got, want)
	}
	if got, want := prog.Classes[0].Methods[0].Text, "get() { return self.x; /* in */ }"; got != want {
		t.Errorf("method text %q, want %q", got, want)
	}
	if got, want := prog.Funcs[0].Text, "main(a, b) {\n  print(a);\n}"; got != want {
		t.Errorf("func text %q, want %q", got, want)
	}
	// A declaration cut off after its keyword records no text (and does
	// not slice out of range).
	if _, err := parser.Parse("t.icc", "func   "); err == nil {
		t.Error("expected a parse error")
	}
}
