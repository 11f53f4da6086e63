package analysis_test

import (
	"strings"
	"testing"

	"objinline/internal/analysis"
)

func TestGlobalsTracked(t *testing.T) {
	src := `
var g;
class C { v; def init(v) { self.v = v; } }
func main() {
  g = new C(1);
  print(g.v);
}
`
	p := compile(t, src)
	res := analysis.Analyze(p, analysis.Options{Tags: true})
	if len(res.Globals) != 1 {
		t.Fatalf("globals = %d", len(res.Globals))
	}
	classes := res.Globals[0].TS.Classes()
	if len(classes) != 1 || classes[0] != "C" {
		t.Errorf("global types = %v", classes)
	}
}

func TestArrayContoursTrackElements(t *testing.T) {
	src := `
class C { v; def init(v) { self.v = v; } }
func main() {
  var a = new [4];
  a[0] = new C(1);
  a[1] = 5;
  print(a[0].v + a[1]);
}
`
	p := compile(t, src)
	res := analysis.Analyze(p, analysis.Options{Tags: true})
	if len(res.Arrs) != 1 {
		t.Fatalf("array contours = %d", len(res.Arrs))
	}
	elem := &res.Arrs[0].Elem
	if !elem.TS.HasObjects() || elem.TS.Prims&analysis.PInt == 0 {
		t.Errorf("element summary = %s (want object + int)", elem.TS.String())
	}
}

func TestMonomorphicSitesMetric(t *testing.T) {
	src := `
class A { def m() { return 1; } }
class B { def m() { return 2; } }
func poly(o) { return o.m(); }
func main() {
  var a = new A();
  print(a.m());          // monomorphic site
  print(poly(a), poly(new B()));
}
`
	p := compile(t, src)
	res := analysis.Analyze(p, analysis.Options{})
	mono, total := res.MonomorphicSites()
	if total < 2 {
		t.Fatalf("total dispatch site-contours = %d", total)
	}
	if mono != total {
		// With per-site splitting, poly's two contours are each
		// monomorphic; if not all mono, the splitter regressed.
		t.Errorf("mono=%d total=%d; expected full devirtualization", mono, total)
	}
}

func TestMaxContoursOverflowIsGraceful(t *testing.T) {
	// A tiny contour budget must not break the analysis; it merges into
	// base contours and flags the overflow.
	p := compile(t, paperExample)
	res := analysis.Analyze(p, analysis.Options{Tags: true, MaxContours: 5})
	if !res.Overflowed {
		t.Error("overflow not reported")
	}
	if len(res.Mcs) == 0 {
		t.Error("no contours at all")
	}
	// Main still analyzed.
	if len(res.Contours[p.Main]) == 0 {
		t.Error("main lost")
	}
}

func TestResultStringSmoke(t *testing.T) {
	p := compile(t, paperExample)
	res := analysis.Analyze(p, analysis.Options{Tags: true})
	s := res.String()
	for _, frag := range []string{"contours=", "contour main", "object Rectangle", "tags="} {
		if !strings.Contains(s, frag) {
			t.Errorf("Result.String missing %q", frag)
		}
	}
}

func TestStatsShape(t *testing.T) {
	p := compile(t, paperExample)
	res := analysis.Analyze(p, analysis.Options{})
	st := res.Stats()
	if st.ReachedFuncs == 0 || st.MethodContours < st.ReachedFuncs {
		t.Errorf("stats: %+v", st)
	}
	if st.ContoursPerMethod < 1.0 {
		t.Errorf("contours/method = %f", st.ContoursPerMethod)
	}
	if st.Passes != res.Passes {
		t.Errorf("passes mismatch")
	}
}

func TestDeadFunctionsUnreached(t *testing.T) {
	src := `
func dead() { return 1; }
func main() { print(2); }
`
	p := compile(t, src)
	res := analysis.Analyze(p, analysis.Options{})
	dead := p.FuncNamed("dead")
	if len(res.Contours[dead]) != 0 {
		t.Errorf("dead function analyzed: %v", res.Contours[dead])
	}
}

func TestRepsOfNoCandidates(t *testing.T) {
	p := compile(t, paperExample)
	res := analysis.Analyze(p, analysis.Options{Tags: true})
	// With no candidates at all, everything resolves through content tags
	// down to raw.
	none := func(analysis.FieldKey) bool { return false }
	for _, mc := range res.Mcs {
		for i := range mc.Regs {
			st := &mc.Regs[i]
			if !st.TS.HasObjects() {
				continue
			}
			rep := res.NewResolver(none).RepsOf(&st.Tags)
			if len(rep.Heads) > 0 {
				t.Errorf("%s r%d resolved to fields %v with no candidates", mc, i, rep.Keys())
			}
		}
	}
}

func TestCreatorSplitForArrays(t *testing.T) {
	// The same helper allocates arrays for two differently-typed callers;
	// creator splitting must keep the element types apart.
	src := `
class A { def tag() { return 1; } }
class B { def tag() { return 2; } }
func mk(o) {
  var a = new [1];
  a[0] = o;
  return a;
}
func main() {
  var x = mk(new A());
  var y = mk(new B());
  print(x[0].tag(), y[0].tag());
}
`
	p := compile(t, src)
	res := analysis.Analyze(p, analysis.Options{})
	if len(res.Arrs) < 2 {
		t.Fatalf("array contours = %d, want >= 2 (creator split)\n%s", len(res.Arrs), res)
	}
	for _, ac := range res.Arrs {
		if cs := ac.Elem.TS.Classes(); len(cs) > 1 {
			t.Errorf("array contour %s polymorphic: %v", ac, cs)
		}
	}
}
