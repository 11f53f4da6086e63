package lower_test

import (
	"math"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"objinline/internal/ir"
	"objinline/internal/lang/parser"
	"objinline/internal/lang/sem"
	"objinline/internal/lower"
)

func build(t *testing.T, src string) *ir.Program {
	t.Helper()
	prog, err := parser.Parse("t.icc", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info, err := sem.Check(prog)
	if err != nil {
		t.Fatalf("sem: %v", err)
	}
	p, err := lower.Lower(info)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	return p
}

func buildErr(t *testing.T, src, frag string) {
	t.Helper()
	prog, err := parser.Parse("t.icc", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info, err := sem.Check(prog)
	if err != nil {
		t.Fatalf("sem: %v", err)
	}
	_, err = lower.Lower(info)
	if err == nil {
		t.Fatalf("expected lowering error mentioning %q", frag)
	}
	if !strings.Contains(err.Error(), frag) {
		t.Fatalf("error %q does not mention %q", err, frag)
	}
}

func countOps(fn *ir.Func, op ir.Op) int {
	n := 0
	fn.Instrs(func(_ *ir.Block, in *ir.Instr) {
		if in.Op == op {
			n++
		}
	})
	return n
}

func TestLayoutsExtendSuperclass(t *testing.T) {
	p := build(t, `
class A { a1; a2; }
class B : A { b1; }
func main() { }
`)
	a := p.ClassNamed("A")
	b := p.ClassNamed("B")
	if a.NumSlots() != 2 || b.NumSlots() != 3 {
		t.Fatalf("slots: A=%d B=%d", a.NumSlots(), b.NumSlots())
	}
	// The superclass prefix is shared: same *Field pointers.
	for i := 0; i < 2; i++ {
		if b.Fields[i] != a.Fields[i] {
			t.Errorf("B slot %d is not A's field", i)
		}
	}
	if b.Fields[2].Name != "b1" || b.Fields[2].Owner != b {
		t.Errorf("B's own field: %v", b.Fields[2])
	}
}

func TestVerifiedOutput(t *testing.T) {
	p := build(t, `
class C { v; def init(v) { self.v = v; } def get() { return self.v; } }
func main() {
  var c = new C(1);
  if (c.get() > 0) { print("pos"); } else { print("neg"); }
  while (c.get() < 10) { c.v = c.v + 1; }
}
`)
	if err := p.Verify(); err != nil {
		t.Fatalf("verify: %v", err)
	}
}

func TestShortCircuitLowersToBranches(t *testing.T) {
	p := build(t, `func main() { var a = true && false; var b = true || false; }`)
	main := p.Main
	if got := countOps(main, ir.OpBranch); got != 2 {
		t.Errorf("branches = %d, want 2 (one per short-circuit op)", got)
	}
	if got := countOps(main, ir.OpBin); got != 0 {
		t.Errorf("OpBin = %d; short-circuit ops must not become OpBin", got)
	}
}

func TestConstructorCallIsStatic(t *testing.T) {
	p := build(t, `
class C { v; def init(v) { self.v = v; } }
func main() { var c = new C(3); }
`)
	if got := countOps(p.Main, ir.OpCallStatic); got != 1 {
		t.Errorf("OpCallStatic = %d, want 1 (the constructor)", got)
	}
	if got := countOps(p.Main, ir.OpCallMethod); got != 0 {
		t.Errorf("OpCallMethod = %d, want 0", got)
	}
}

func TestMethodCallIsDynamic(t *testing.T) {
	p := build(t, `
class C { def m() { return 1; } }
func main() { var c = new C(); c.m(); }
`)
	if got := countOps(p.Main, ir.OpCallMethod); got != 1 {
		t.Errorf("OpCallMethod = %d, want 1", got)
	}
}

func TestFieldAccessesAreNameOnly(t *testing.T) {
	p := build(t, `
class C { v; def init() { self.v = 1; } }
func main() { var c = new C(); print(c.v); }
`)
	p.Main.Instrs(func(_ *ir.Block, in *ir.Instr) {
		if in.Op == ir.OpGetField {
			if in.Field.Owner != nil || in.Field.Slot != -1 {
				t.Errorf("lowered field access should be name-only, got %v", in.Field)
			}
		}
	})
}

func TestGlobalInitFunction(t *testing.T) {
	p := build(t, `var g = 41; func main() { print(g + 1); }`)
	init := p.FuncNamed(lower.InitFuncName)
	if init == nil {
		t.Fatal("no $init function")
	}
	if got := countOps(init, ir.OpSetGlobal); got != 1 {
		t.Errorf("$init SetGlobal = %d", got)
	}
}

func TestNoInitWithoutInitializers(t *testing.T) {
	p := build(t, `var g; func main() { }`)
	if p.FuncNamed(lower.InitFuncName) != nil {
		t.Error("$init created for uninitialized globals")
	}
}

func TestLoweringErrors(t *testing.T) {
	cases := []struct{ src, frag string }{
		{`func main() { print(x); }`, "undeclared variable x"},
		{`func main() { x = 1; }`, "assignment to undeclared"},
		{`func main() { var x = 1; var x = 2; }`, "redeclared in this scope"},
		{`func main() { break; }`, "break outside loop"},
		{`func main() { continue; }`, "continue outside loop"},
		{`func f() { return self; } func main() { }`, "self outside a method"},
		{`func main() { nope(); }`, "unknown function nope"},
		{`func main() { var x = new Nope(); }`, "unknown class Nope"},
		{`class C { def init(a) { } } func main() { new C(); }`, "takes 1 arguments, got 0"},
		{`class C { } func main() { new C(1); }`, "no init method"},
		{`func f(a) { return a; } func main() { f(1, 2); }`, "takes 1 arguments, got 2"},
		{`func main() { sqrt(1, 2); }`, "wrong number of arguments"},
	}
	for _, c := range cases {
		buildErr(t, c.src, c.frag)
	}
}

func TestScopesShadowInBlocks(t *testing.T) {
	// Shadowing in a nested block is allowed; reuse after the block refers
	// to the outer variable again.
	p := build(t, `
func main() {
  var x = 1;
  { var x = 2; print(x); { var x = 3; print(x); } print(x); }
  print(x);
}
`)
	if err := p.Verify(); err != nil {
		t.Fatal(err)
	}
	var printed []ir.Reg
	p.Main.Instrs(func(_ *ir.Block, in *ir.Instr) {
		if in.Op == ir.OpBuiltin && ir.Builtin(in.Aux) == ir.BPrint {
			printed = append(printed, in.Args[0])
		}
	})
	if len(printed) != 4 {
		t.Fatalf("got %d prints, want 4", len(printed))
	}
	inner, innermost, outer := printed[0], printed[1], printed[3]
	if inner == outer || innermost == inner || innermost == outer {
		t.Errorf("shadowing declarations share registers: %v", printed)
	}
	if printed[2] != inner {
		t.Errorf("print after the innermost block reads r%d, want the middle x r%d", printed[2], inner)
	}
}

func TestForLoopScopesItsInit(t *testing.T) {
	p := build(t, `
func main() {
  for (var i = 0; i < 3; i = i + 1) { }
  for (var i = 0; i < 3; i = i + 1) { }
}
`)
	if err := p.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestImplicitReturnAppended(t *testing.T) {
	p := build(t, `func f() { } func main() { f(); }`)
	f := p.FuncNamed("f")
	last := f.Blocks[len(f.Blocks)-1].Instrs
	if last[len(last)-1].Op != ir.OpReturn {
		t.Errorf("missing implicit return")
	}
}

func TestDeadCodeAfterReturnStillVerifies(t *testing.T) {
	p := build(t, `
func f() { return 1; return 2; }
func main() { f(); }
`)
	if err := p.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestTemporariesNotReused(t *testing.T) {
	// Distinct temporaries get distinct registers (flow-insensitive
	// analysis precision depends on this).
	p := build(t, `
class A { def m() { return 1; } }
class B { def m() { return 2; } }
func main() {
  var a = new A();
  var b = new B();
  print(a.m() + b.m());
}
`)
	seen := make(map[ir.Reg]int)
	p.Main.Instrs(func(_ *ir.Block, in *ir.Instr) {
		if in.Op == ir.OpNewObject {
			seen[in.Dst]++
		}
	})
	for r, n := range seen {
		if n > 1 {
			t.Errorf("register r%d reused for %d allocations", r, n)
		}
	}
}

// nestedIfs is main with one variable used under n nested ifs.
func nestedIfs(n int) string {
	var b strings.Builder
	b.WriteString("func main() {\n  var x = 1;\n")
	b.WriteString(strings.Repeat("  if (x) {\n", n))
	b.WriteString("  print(x);\n")
	b.WriteString(strings.Repeat("  }\n", n))
	b.WriteString("}\n")
	return b.String()
}

// TestLowerScalesWithNesting lowers nested ifs at depth n and 4n. Every
// condition reads a variable declared outside all of them, so a lookup
// that walks the enclosing scopes makes lowering quadratic (16× at 4n);
// a one-probe lookup keeps it linear. A measurement takes each depth's
// minimum of five timings, alternating depths so a burst of machine load
// lands on both, and allows 8× for constant costs and memory effects.
// Linear code measures ~4.5×, quadratic ~15×; a measurement over the
// bound is retried twice before the test fails, so one unlucky burst of
// load does not fail it.
func TestLowerScalesWithNesting(t *testing.T) {
	const n = 2500
	var infos [2]*sem.Info
	for i, depth := range []int{n, 4 * n} {
		tree, err := parser.Parse("nested.icc", nestedIfs(depth))
		if err != nil {
			t.Fatal(err)
		}
		if infos[i], err = sem.Check(tree); err != nil {
			t.Fatal(err)
		}
	}
	// The collector stays off while timing: each cycle scans the
	// lowering's deep stack and may shrink it, charging the larger depth
	// a superlinear cost that says nothing about lowering. An untimed run
	// grows the stack to the larger depth once, up front.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	lowerTimed := func(info *sem.Info) time.Duration {
		start := time.Now()
		if _, err := lower.Lower(info); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}
	lowerTimed(infos[1])
	var best [2]time.Duration
	for attempt := 0; attempt < 3; attempt++ {
		best = [2]time.Duration{math.MaxInt64, math.MaxInt64}
		for rep := 0; rep < 5; rep++ {
			for i, info := range infos {
				best[i] = min(best[i], lowerTimed(info))
			}
		}
		if float64(best[1]) <= 8*float64(best[0]) {
			return
		}
	}
	t.Errorf("lowering %d nested ifs took %v, %.1f× the %v for %d; want at most 8× (linear is 4×, quadratic 16×)",
		4*n, best[1], float64(best[1])/float64(best[0]), best[0], n)
}
