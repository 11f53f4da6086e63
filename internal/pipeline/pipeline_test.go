package pipeline_test

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"objinline/internal/cachesim"
	"objinline/internal/pipeline"
	"objinline/internal/vm"
)

// runMode compiles and runs src under a mode, returning output + counters.
func runMode(t *testing.T, src string, mode pipeline.Mode) (string, vm.Counters, *pipeline.Compiled) {
	t.Helper()
	c, err := pipeline.Compile("test.icc", src, pipeline.Config{Mode: mode})
	if err != nil {
		t.Fatalf("%v compile: %v", mode, err)
	}
	var out strings.Builder
	counters, err := c.Run(pipeline.RunOptions{Out: &out, Cache: &cachesim.DefaultConfig, MaxSteps: 200_000_000})
	if err != nil {
		t.Fatalf("%v run: %v\nprogram:\n%s", mode, err, c.Prog.String())
	}
	return out.String(), counters, c
}

// differential asserts that all three modes print identical output, and
// returns the compiled inline pipeline for further inspection.
func differential(t *testing.T, src string) *pipeline.Compiled {
	t.Helper()
	direct, _, _ := runMode(t, src, pipeline.ModeDirect)
	base, _, _ := runMode(t, src, pipeline.ModeBaseline)
	inl, _, ci := runMode(t, src, pipeline.ModeInline)
	if base != direct {
		t.Fatalf("baseline output differs from direct:\n direct: %q\n base:   %q", direct, base)
	}
	if inl != direct {
		t.Fatalf("inline output differs from direct:\n direct: %q\n inline: %q\nprogram:\n%s",
			direct, inl, ci.Prog.String())
	}
	return ci
}

const paperExample = `
class Point {
  x_pos; y_pos;
  def init(x, y) { self.x_pos = x; self.y_pos = y; }
  def area(p) { return abs(self.x_pos - p.x_pos) * abs(self.y_pos - p.y_pos); }
  def absv() { return sqrt(self.x_pos*self.x_pos + self.y_pos*self.y_pos); }
}
class Point3D : Point {
  z_pos;
  def init(x, y, z) { self.x_pos = x; self.y_pos = y; self.z_pos = z; }
  def absv() { return sqrt(self.x_pos*self.x_pos + self.y_pos*self.y_pos + self.z_pos*self.z_pos); }
}
class Rectangle {
  lower_left; upper_right;
  def init(ll, ur) { self.lower_left = ll; self.upper_right = ur; }
  def area() { return self.lower_left.area(self.upper_right); }
}
class List {
  data; next;
  def init(d, n) { self.data = d; self.next = n; }
}
func head(l) { return l.data; }
func do_rectangle(ll, ur) {
  var r = new Rectangle(ll, ur);
  print(r.area());
  var l1 = new List(r.lower_left, nil);
  var l2 = new List(r.upper_right, nil);
  print(head(l1).absv());
  print(head(l2).absv());
}
func main() {
  var p1 = new Point(1.0, 2.0);
  var p2 = new Point(3.0, 4.0);
  do_rectangle(p1, p2);
  var p3 = new Point3D(1.0, 2.0, 3.0);
  var p4 = new Point3D(4.0, 5.0, 6.0);
  do_rectangle(p3, p4);
}
`

// TestPaperExampleInlines is the paper's running example end to end: both
// Rectangle corners must be inlined, output must be preserved, and the
// inlined program must allocate fewer heap objects and dereference less.
func TestPaperExampleInlines(t *testing.T) {
	ci := differential(t, paperExample)
	d := ci.Optimize.Decision
	var inlined []string
	for _, k := range d.InlinedKeys() {
		inlined = append(inlined, k.String())
	}
	joined := strings.Join(inlined, " ")
	for _, want := range []string{"Rectangle.lower_left", "Rectangle.upper_right"} {
		if !strings.Contains(joined, want) {
			t.Errorf("inlined = %v, missing %s (rejected: %v)", inlined, want, d.Rejected)
		}
	}

	_, base, _ := runMode(t, paperExample, pipeline.ModeBaseline)
	_, inl, _ := runMode(t, paperExample, pipeline.ModeInline)
	if inl.ObjectsAllocated >= base.ObjectsAllocated {
		t.Errorf("heap allocations: inline %d >= baseline %d", inl.ObjectsAllocated, base.ObjectsAllocated)
	}
	if inl.StackAllocated == 0 {
		t.Errorf("expected elided temporaries to be stack allocated")
	}
}

// TestRepeatedReadsWin exercises the access pattern the paper's gains come
// from: inlined fields read in a loop need one dereference fewer each time,
// so past a small number of reads the copies pay for themselves.
func TestRepeatedReadsWin(t *testing.T) {
	src := `
class Point {
  x; y;
  def init(x, y) { self.x = x; self.y = y; }
}
class Rect {
  ll; ur;
  def init(a, b) { self.ll = a; self.ur = b; }
  def area() { return (self.ur.x - self.ll.x) * (self.ur.y - self.ll.y); }
}
func main() {
  var r = new Rect(new Point(1.0, 2.0), new Point(5.0, 7.0));
  var s = 0.0;
  for (var i = 0; i < 200; i = i + 1) {
    s = s + r.area();
  }
  print(s);
}
`
	differential(t, src)
	_, base, _ := runMode(t, src, pipeline.ModeBaseline)
	_, inl, _ := runMode(t, src, pipeline.ModeInline)
	if inl.Dereferences >= base.Dereferences {
		t.Errorf("dereferences: inline %d >= baseline %d", inl.Dereferences, base.Dereferences)
	}
	if inl.Cycles >= base.Cycles {
		t.Errorf("cycles: inline %d >= baseline %d", inl.Cycles, base.Cycles)
	}
}

func TestParallelogramSubclass(t *testing.T) {
	// The paper's Figure 3/11: a Rectangle subclass must stay layout-
	// conformant after restructuring.
	src := `
class Point {
  x; y;
  def init(x, y) { self.x = x; self.y = y; }
  def sum() { return self.x + self.y; }
}
class Rectangle {
  ll; ur;
  def init(a, b) { self.ll = a; self.ur = b; }
  def span() { return self.ll.sum() + self.ur.sum(); }
  def describe() { return "rect"; }
}
class Parallelogram : Rectangle {
  ul;
  def init(a, b, c) { self.ll = a; self.ur = b; self.ul = c; }
  def describe() { return "para"; }
  def third() { return self.ul.sum(); }
}
func show(r) { print(r.describe(), r.span()); }
func main() {
  show(new Rectangle(new Point(1, 2), new Point(3, 4)));
  var p = new Parallelogram(new Point(5, 6), new Point(7, 8), new Point(9, 10));
  show(p);
  print(p.third());
}
`
	ci := differential(t, src)
	d := ci.Optimize.Decision
	for _, want := range []string{"Rectangle.ll", "Rectangle.ur", "Parallelogram.ul"} {
		found := false
		for _, k := range d.InlinedKeys() {
			if k.String() == want {
				found = true
			}
		}
		if !found {
			t.Errorf("field %s not inlined; rejected: %v", want, d.Rejected)
		}
	}
}

func TestArrayElementInlining(t *testing.T) {
	// Figure 13: an array of points becomes an array of point state.
	src := `
class Complex {
  re; im;
  def init(r, i) { self.re = r; self.im = i; }
  def magsq() { return self.re*self.re + self.im*self.im; }
}
func main() {
  var n = 16;
  var a = new [n];
  for (var i = 0; i < n; i = i + 1) {
    a[i] = new Complex(floatof(i), floatof(n - i));
  }
  var s = 0.0;
  for (var i = 0; i < n; i = i + 1) {
    s = s + a[i].magsq();
  }
  print(s);
}
`
	ci := differential(t, src)
	d := ci.Optimize.Decision
	foundArr := false
	for _, k := range d.InlinedKeys() {
		if k.Array {
			foundArr = true
		}
	}
	if !foundArr {
		t.Errorf("array site not inlined; rejected: %v", d.Rejected)
	}

	_, base, _ := runMode(t, src, pipeline.ModeBaseline)
	_, inl, _ := runMode(t, src, pipeline.ModeInline)
	if inl.ObjectsAllocated >= base.ObjectsAllocated {
		t.Errorf("heap allocations: inline %d >= baseline %d", inl.ObjectsAllocated, base.ObjectsAllocated)
	}
}

func TestAliasedStoreNotInlined(t *testing.T) {
	// The same point is stored into two rectangles; copying would change
	// aliasing, so assignment specialization must reject the field.
	src := `
class Point {
  x;
  def init(x) { self.x = x; }
  def bump() { self.x = self.x + 1; }
}
class Holder {
  p;
  def init(p) { self.p = p; }
}
func main() {
  var pt = new Point(1);
  var h1 = new Holder(pt);
  var h2 = new Holder(pt);
  h1.p.bump();
  print(h2.p.x);
}
`
	ci := differential(t, src)
	for _, k := range ci.Optimize.Decision.InlinedKeys() {
		if k.String() == "Holder.p" {
			t.Errorf("Holder.p was inlined despite aliasing")
		}
	}
}

func TestUseAfterStoreNotInlined(t *testing.T) {
	src := `
class Box { v; def init(v) { self.v = v; } }
class Cell { x; def init(x) { self.x = x; } def get() { return self.x; } }
func main() {
  var c = new Cell(7);
  var b = new Box(c);
  c.x = 9; // use of the original after the store
  print(b.v.get());
}
`
	ci := differential(t, src)
	for _, k := range ci.Optimize.Decision.InlinedKeys() {
		if k.String() == "Box.v" {
			t.Errorf("Box.v was inlined despite a use after the store")
		}
	}
}

func TestNilFieldNotInlined(t *testing.T) {
	src := `
class Item { v; def init(v) { self.v = v; } }
class Slot { it; def init() { self.it = nil; } def fill(v) { self.it = v; } }
func main() {
  var s = new Slot();
  if (1 < 2) { s.fill(new Item(3)); }
  if (s.it == nil) { print("empty"); } else { print(s.it.v); }
}
`
	ci := differential(t, src)
	for _, k := range ci.Optimize.Decision.InlinedKeys() {
		if k.String() == "Slot.it" {
			t.Errorf("Slot.it was inlined despite holding nil")
		}
	}
}

func TestPolymorphicFieldInlinedViaClassCloning(t *testing.T) {
	// Richards-style: the same field holds different types at different
	// creation sites; class cloning must give each its own container
	// version and still inline.
	src := `
class DevData { count; def init(c) { self.count = c; } def val() { return self.count; } }
class HandlerData { a; b; def init(a, b) { self.a = a; self.b = b; } def val() { return self.a * self.b; } }
class Task {
  data;
  def init(d) { self.data = d; }
  def run() { return self.data.val(); }
}
func main() {
  var t1 = new Task(new DevData(5));
  var t2 = new Task(new HandlerData(3, 4));
  print(t1.run(), t2.run());
}
`
	ci := differential(t, src)
	found := false
	for _, k := range ci.Optimize.Decision.InlinedKeys() {
		if k.String() == "Task.data" {
			found = true
		}
	}
	if !found {
		t.Errorf("polymorphic Task.data not inlined; rejected: %v", ci.Optimize.Decision.Rejected)
	}
	if ci.Optimize.ClassVersions < 2 {
		t.Errorf("expected multiple class versions, got %d", ci.Optimize.ClassVersions)
	}
}

func TestIdentityPreserved(t *testing.T) {
	src := `
class P { x; def init(x) { self.x = x; } }
class R { a; b; def init(a, b) { self.a = a; self.b = b; } }
func main() {
  var r = new R(new P(1), new P(2));
  print(r.a == r.a);
  print(r.a == r.b);
  print(r.a == nil);
  var v = r.a;
  print(v == r.a);
}
`
	differential(t, src)
}

func TestDirectModeStillWorks(t *testing.T) {
	out, counters, _ := runMode(t, paperExample, pipeline.ModeDirect)
	if !strings.Contains(out, "\n") {
		t.Fatalf("no output: %q", out)
	}
	if counters.DynFieldLookups == 0 {
		t.Errorf("direct mode should resolve fields by name, got 0 dynamic lookups")
	}
	_, base, _ := runMode(t, paperExample, pipeline.ModeBaseline)
	if base.DynFieldLookups >= counters.DynFieldLookups {
		t.Errorf("baseline should bind field slots: %d >= %d", base.DynFieldLookups, counters.DynFieldLookups)
	}
}

func TestBaselineDevirtualizes(t *testing.T) {
	_, direct, _ := runMode(t, paperExample, pipeline.ModeDirect)
	_, base, _ := runMode(t, paperExample, pipeline.ModeBaseline)
	if base.Dispatches >= direct.Dispatches {
		t.Errorf("baseline dispatches %d >= direct %d", base.Dispatches, direct.Dispatches)
	}
}

func TestGlobalsThroughPipeline(t *testing.T) {
	src := `
var total = 0;
class Acc { n; def init(n) { self.n = n; } def add() { total = total + self.n; } }
func main() {
  var a = new Acc(5);
  var b = new Acc(7);
  a.add(); b.add(); a.add();
  print(total);
}
`
	differential(t, src)
}

func TestRecursiveStructuresSurvive(t *testing.T) {
	src := `
class Node { v; next; def init(v, n) { self.v = v; self.next = n; } }
func sum(l) {
  var s = 0;
  while (l != nil) { s = s + l.v; l = l.next; }
  return s;
}
func main() {
  var l = nil;
  for (var i = 1; i <= 10; i = i + 1) { l = new Node(i, l); }
  print(sum(l));
}
`
	differential(t, src)
}

// TestContentCycleResolvesInAnyOrder: testdata/content_cycle.icc stores
// Q.p's point into Node.next, copies it to Cell.f and back, so the two
// fields' content provenance forms a cycle that leads to the inlined Q.p.
// Whichever of n.next and c.f the rewrite resolves first, both must be
// rewritten as Q's container: a partial answer memoized inside the cycle
// would leave the second a raw field read on a Q'0 ("class Q'0 has no
// field x").
func TestContentCycleResolvesInAnyOrder(t *testing.T) {
	src, err := os.ReadFile("../../testdata/content_cycle.icc")
	if err != nil {
		t.Fatal(err)
	}
	const next, f = "print(n.next.get());", "print(c.f.get());"
	swapped := strings.NewReplacer(next, f, f, next).Replace(string(src))
	if swapped == string(src) {
		t.Fatal("content_cycle.icc no longer prints n.next and c.f")
	}
	for _, prog := range []string{string(src), swapped} {
		if got, _, _ := runMode(t, prog, pipeline.ModeDirect); got != "1\n1\n" {
			t.Fatalf("direct prints %q, want 1 1", got)
		}
		ci := differential(t, prog)
		if len(ci.Optimize.Decision.Inlined) == 0 {
			t.Error("nothing inlined; the case no longer exercises the rewrite")
		}
	}
}

// TestWitnessProgramsMatchDirect runs the decision witnesses in testdata/
// in all three modes: one value passed to two fields (alias_twice.icc), a
// containment cycle through inherited and through own fields, two layouts
// meeting in one field (layout_conflict.icc) and a store into an inlined
// field of an inlined containee (nested_store.icc).
func TestWitnessProgramsMatchDirect(t *testing.T) {
	for _, tc := range []struct{ file, want string }{
		{"alias_twice.icc", "2\n"},
		{"inherited_cycle.icc", "1\n"},
		{"direct_cycle.icc", "1\n"},
		{"layout_conflict.icc", "0\n5\n"},
		{"nested_store.icc", "1\n2\n"},
	} {
		t.Run(tc.file, func(t *testing.T) {
			src, err := os.ReadFile("../../testdata/" + tc.file)
			if err != nil {
				t.Fatal(err)
			}
			if got, _, _ := runMode(t, string(src), pipeline.ModeDirect); got != tc.want {
				t.Fatalf("direct prints %q, want %q", got, tc.want)
			}
			differential(t, string(src))
		})
	}
}

func TestContainmentCycleRejected(t *testing.T) {
	src := `
class A { other; def init() { } def set(o) { self.other = o; } }
func main() {
  var x = new A();
  var y = new A();
  x.set(y);
  print(x.other == y);
}
`
	ci := differential(t, src)
	for _, k := range ci.Optimize.Decision.InlinedKeys() {
		if k.String() == "A.other" {
			t.Errorf("self-containing A.other must not inline")
		}
	}
}

func TestNestedInlining(t *testing.T) {
	// Three levels: Outer contains Mid contains Inner.
	src := `
class Inner { v; def init(v) { self.v = v; } def get() { return self.v; } }
class Mid { in; def init(i) { self.in = i; } def get() { return self.in.get(); } }
class Outer { m; def init(m) { self.m = m; } def get() { return self.m.get(); } }
func main() {
  var o = new Outer(new Mid(new Inner(42)));
  print(o.get());
  print(o.m.in.v);
}
`
	ci := differential(t, src)
	names := make(map[string]bool)
	for _, k := range ci.Optimize.Decision.InlinedKeys() {
		names[k.String()] = true
	}
	for _, want := range []string{"Mid.in", "Outer.m"} {
		if !names[want] {
			t.Errorf("nested field %s not inlined; rejected: %v", want, ci.Optimize.Decision.Rejected)
		}
	}
	_, base, _ := runMode(t, src, pipeline.ModeBaseline)
	_, inl, _ := runMode(t, src, pipeline.ModeInline)
	if inl.ObjectsAllocated >= base.ObjectsAllocated {
		t.Errorf("nested inlining should reduce heap allocations: %d >= %d", inl.ObjectsAllocated, base.ObjectsAllocated)
	}
}

func TestParallelArrayLayout(t *testing.T) {
	src := `
class C { re; im; def init(r, i) { self.re = r; self.im = i; } }
func main() {
  var a = new [8];
  for (var i = 0; i < 8; i = i + 1) { a[i] = new C(i, i * 2); }
  var s = 0;
  for (var i = 0; i < 8; i = i + 1) { s = s + a[i].re + a[i].im; }
  print(s);
}
`
	want, _, _ := runMode(t, src, pipeline.ModeDirect)
	c, err := pipeline.Compile("t.icc", src, pipeline.Config{
		Mode:        pipeline.ModeInline,
		ArrayLayout: 1, // core.LayoutParallel
	})
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if _, err := c.Run(pipeline.RunOptions{Out: &out}); err != nil {
		t.Fatalf("parallel run: %v\n%s", err, c.Prog.String())
	}
	if out.String() != want {
		t.Errorf("parallel layout output %q != %q", out.String(), want)
	}
}

func TestPrintBlocksInlining(t *testing.T) {
	// Printing an object that came from a field is an opaque use.
	src := `
class P { x; def init(x) { self.x = x; } }
class H { p; def init(p) { self.p = p; } }
func main() {
  var h = new H(new P(1));
  print(h.p);
}
`
	ci := differential(t, src)
	for _, k := range ci.Optimize.Decision.InlinedKeys() {
		if k.String() == "H.p" {
			t.Errorf("H.p escapes to print; must not inline")
		}
	}
}

// callChainSource is a program whose main stores the result of an n-deep
// call chain f0 → … → f(n-1), which returns new P(7), in H.p. The return
// value travels one call level per fixpoint round, so a pass takes about
// n rounds. It prints 7 and then 2.
func callChainSource(n int) string {
	var b strings.Builder
	b.WriteString("class P { v; def init(v) { self.v = v; } def get() { return self.v; } }\n")
	b.WriteString("class H { p; def init() { } }\n")
	fmt.Fprintf(&b, "func f%d() { return new P(7); }\n", n-1)
	for i := n - 2; i >= 0; i-- {
		fmt.Fprintf(&b, "func f%d() { return f%d(); }\n", i, i+1)
	}
	b.WriteString("func main() { var h = new H(); h.p = f0(); print(h.p.get()); print(new P(2).get()); }\n")
	return b.String()
}

// TestLongCallChainMatchesDirect: a 1,000-call chain needs more than
// 1,000 rounds in one analysis pass, and every mode must print what the
// direct build prints. An analysis stopped before its fixpoint leaves
// h.p without its P, and the baseline and inline builds fail with "class
// P'0 has no method get".
func TestLongCallChainMatchesDirect(t *testing.T) {
	src := callChainSource(1000)
	if got, _, _ := runMode(t, src, pipeline.ModeDirect); got != "7\n2\n" {
		t.Fatalf("direct prints %q, want 7 2", got)
	}
	ci := differential(t, src)
	if st := ci.Analysis.Stats(); st.Work.Rounds <= 1000*st.Passes {
		t.Errorf("%d rounds over %d passes; no pass took more than 1,000 rounds", st.Work.Rounds, st.Passes)
	}
}
