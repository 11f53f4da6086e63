package objinline_test

// Runnable godoc examples for the public API.

import (
	"context"
	"fmt"
	"os"
	"sort"

	"objinline"
)

// ExampleCompile compiles the paper's Rectangle example with object
// inlining and shows which fields were inline allocated.
func ExampleCompile() {
	src := `
class Point {
  x; y;
  def init(x, y) { self.x = x; self.y = y; }
}
class Rect {
  ll; ur;
  def init(a, b) { self.ll = a; self.ur = b; }
  def width() { return self.ur.x - self.ll.x; }
}
func main() {
  var r = new Rect(new Point(1, 2), new Point(6, 7));
  print(r.width());
}
`
	prog, err := objinline.Compile("rect.icc", src, objinline.Config{Mode: objinline.Inline})
	if err != nil {
		fmt.Println("compile failed:", err)
		return
	}
	if _, err := prog.Execute(context.Background(), objinline.RunOptions{Output: os.Stdout}); err != nil {
		fmt.Println("run failed:", err)
		return
	}
	for _, f := range prog.InlinedFields() {
		fmt.Println("inlined:", f)
	}
	// Output:
	// 5
	// inlined: Rect.ll
	// inlined: Rect.ur
}

// ExampleProgram_Execute compares the baseline and inlining pipelines on
// the same program.
func ExampleProgram_Execute() {
	src := `
class Cell { v; def init(v) { self.v = v; } }
class Box { c; def init(c) { self.c = c; } }
func main() {
  var total = 0;
  for (var i = 0; i < 100; i = i + 1) {
    var b = new Box(new Cell(i));
    total = total + b.c.v;
  }
  print(total);
}
`
	base, _ := objinline.Compile("b.icc", src, objinline.Config{Mode: objinline.Baseline})
	inl, _ := objinline.Compile("b.icc", src, objinline.Config{Mode: objinline.Inline})
	ctx := context.Background()
	bres, _ := base.Execute(ctx, objinline.RunOptions{})
	ires, _ := inl.Execute(ctx, objinline.RunOptions{})
	bm, im := bres.Metrics, ires.Metrics
	fmt.Println("fewer heap objects:", im.ObjectsAllocated < bm.ObjectsAllocated)
	fmt.Println("fewer cycles:", im.Cycles < bm.Cycles)
	// Output:
	// fewer heap objects: true
	// fewer cycles: true
}

// ExampleProgram_RejectedFields shows the decision's rejection reasons for
// a field whose store would change aliasing.
func ExampleProgram_RejectedFields() {
	src := `
class P { x; def init(x) { self.x = x; } }
class H { p; def init(p) { self.p = p; } }
func main() {
  var shared = new P(1);
  var h1 = new H(shared);
  var h2 = new H(shared);
  shared.x = 2;
  print(h1.p.x + h2.p.x);
}
`
	prog, _ := objinline.Compile("alias.icc", src, objinline.Config{Mode: objinline.Inline})
	var keys []string
	for k := range prog.RejectedFields() {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Println("kept as reference:", k)
	}
	// Output:
	// kept as reference: H.p
}

// ExampleProgram_Explain traces one field's inlining verdict back to the
// evidence that produced it.
func ExampleProgram_Explain() {
	src := `
class P { x; def init(x) { self.x = x; } }
class H { p; def init(p) { self.p = p; } }
func main() {
  var shared = new P(1);
  var h1 = new H(shared);
  var h2 = new H(shared);
  print(h1.p == h2.p);
}
`
	prog, _ := objinline.Compile("alias.icc", src, objinline.Config{Mode: objinline.Inline})
	d, err := prog.Explain("H.p")
	if err != nil {
		fmt.Println("explain failed:", err)
		return
	}
	fmt.Println("verdict:", d.Verdict)
	fmt.Println("code:", d.Code)
	fmt.Println("first evidence:", d.Evidence[0].What)
	// Output:
	// verdict: rejected
	// code: store-not-by-value
	// first evidence: pass-by-value-failed
}

// ExampleBenchmarks lists the bundled evaluation suite.
func ExampleBenchmarks() {
	for _, name := range objinline.Benchmarks() {
		fmt.Println(name)
	}
	// Output:
	// oopack
	// richards
	// silo
	// polyover-arr
	// polyover-list
}
