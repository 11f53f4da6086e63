package objinline_test

import (
	"context"
	"strings"
	"testing"

	"objinline"
)

const apiDemo = `
class Point {
  x; y;
  def init(x, y) { self.x = x; self.y = y; }
  def sum() { return self.x + self.y; }
}
class Box {
  p;
  def init(p) { self.p = p; }
  def get() { return self.p.sum(); }
}
func main() {
  var b = new Box(new Point(3, 4));
  for (var i = 0; i < 10; i = i + 1) { b.p.x = b.p.x + 1; }
  print(b.get());
}
`

// vmRun executes p on the VM and returns its metrics.
func vmRun(p *objinline.Program, opts objinline.RunOptions) (objinline.Metrics, error) {
	opts.Engine = objinline.EngineVM
	res, err := p.Execute(context.Background(), opts)
	if err != nil {
		return objinline.Metrics{}, err
	}
	return *res.Metrics, nil
}

func compileAPI(t *testing.T, mode objinline.Mode) *objinline.Program {
	t.Helper()
	p, err := objinline.Compile("demo.icc", apiDemo, objinline.Config{Mode: mode})
	if err != nil {
		t.Fatalf("Compile(%v): %v", mode, err)
	}
	return p
}

func TestAPICompileAndRun(t *testing.T) {
	for _, mode := range []objinline.Mode{objinline.Direct, objinline.Baseline, objinline.Inline} {
		p := compileAPI(t, mode)
		if p.Mode() != mode {
			t.Errorf("Mode() = %v, want %v", p.Mode(), mode)
		}
		var out strings.Builder
		m, err := vmRun(p, objinline.RunOptions{Output: &out})
		if err != nil {
			t.Fatalf("%v run: %v", mode, err)
		}
		if out.String() != "17\n" {
			t.Errorf("%v output = %q", mode, out.String())
		}
		if m.Cycles <= 0 || m.Instructions == 0 {
			t.Errorf("%v metrics empty: %+v", mode, m)
		}
	}
}

func TestAPIInlinedFields(t *testing.T) {
	p := compileAPI(t, objinline.Inline)
	fields := p.InlinedFields()
	found := false
	for _, f := range fields {
		if f == "Box.p" {
			found = true
		}
	}
	if !found {
		t.Errorf("InlinedFields() = %v, missing Box.p (rejected: %v)", fields, p.RejectedFields())
	}
	if compileAPI(t, objinline.Baseline).InlinedFields() != nil {
		t.Error("baseline reports inlined fields")
	}
}

func TestAPIReportMentionsDecision(t *testing.T) {
	p := compileAPI(t, objinline.Inline)
	r := p.Report()
	for _, frag := range []string{"mode: inline", "Box.p", "contours"} {
		if !strings.Contains(r, frag) {
			t.Errorf("Report() missing %q:\n%s", frag, r)
		}
	}
}

func TestAPIIRDump(t *testing.T) {
	p := compileAPI(t, objinline.Inline)
	ir := p.IR()
	if !strings.Contains(ir, "func main") {
		t.Errorf("IR() missing main:\n%.300s", ir)
	}
	if p.CodeSize() <= 0 {
		t.Error("CodeSize() <= 0")
	}
}

func TestAPIAnalysisReport(t *testing.T) {
	if compileAPI(t, objinline.Direct).AnalysisReport() != "" {
		t.Error("direct mode has an analysis report")
	}
	if rep := compileAPI(t, objinline.Inline).AnalysisReport(); !strings.Contains(rep, "contour") {
		t.Errorf("analysis report: %.200s", rep)
	}
	if compileAPI(t, objinline.Inline).ContoursPerMethod() < 1 {
		t.Error("ContoursPerMethod < 1")
	}
}

func TestAPICacheOptions(t *testing.T) {
	p := compileAPI(t, objinline.Baseline)
	withCache, err := vmRun(p, objinline.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	noCache, err := vmRun(p, objinline.RunOptions{DisableCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if withCache.CacheHits+withCache.CacheMisses == 0 {
		t.Error("cache enabled but no accesses recorded")
	}
	if noCache.CacheHits+noCache.CacheMisses != 0 {
		t.Error("cache disabled but accesses recorded")
	}
}

func TestAPIErrors(t *testing.T) {
	if _, err := objinline.Compile("bad.icc", "func main() { x; }", objinline.Config{}); err == nil {
		t.Error("compile error not reported")
	}
	if _, err := objinline.Compile("bad.icc", "func f() {}", objinline.Config{}); err == nil {
		t.Error("missing main not reported")
	}
	p := compileAPI(t, objinline.Direct)
	if _, err := vmRun(p, objinline.RunOptions{MaxSteps: 1}); err == nil {
		t.Error("step limit not enforced")
	}
}

func TestAPIBenchmarks(t *testing.T) {
	names := objinline.Benchmarks()
	if len(names) != 5 {
		t.Fatalf("Benchmarks() = %v", names)
	}
	for _, name := range names {
		src, err := objinline.BenchmarkSource(name, false)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !strings.Contains(src, "func main()") {
			t.Errorf("%s source lacks main", name)
		}
	}
	if _, err := objinline.BenchmarkSource("nope", false); err == nil {
		t.Error("unknown benchmark accepted")
	}
	man, err := objinline.BenchmarkSource("silo", true)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(man, "qHead") {
		t.Error("manual silo variant not returned")
	}
}

func TestAPIParallelArrays(t *testing.T) {
	src := `
class C { a; b; def init(a, b) { self.a = a; self.b = b; } }
func main() {
  var arr = new [4];
  for (var i = 0; i < 4; i = i + 1) { arr[i] = new C(i, i * 2); }
  var s = 0;
  for (var i = 0; i < 4; i = i + 1) { s = s + arr[i].a + arr[i].b; }
  print(s);
}
`
	for _, par := range []bool{false, true} {
		p, err := objinline.Compile("p.icc", src, objinline.Config{Mode: objinline.Inline, ParallelArrays: par})
		if err != nil {
			t.Fatal(err)
		}
		var out strings.Builder
		if _, err := vmRun(p, objinline.RunOptions{Output: &out}); err != nil {
			t.Fatalf("parallel=%v: %v", par, err)
		}
		if out.String() != "18\n" {
			t.Errorf("parallel=%v output %q", par, out.String())
		}
	}
}
