package core

// White-box tests for the assignment-specialization predicates (§4.2):
// ReadOnlyParam, FreshReturn, ParamByValue, the CFG-aware
// use-after-handoff check, and the evidence ExplainStore records for a
// failing store, exercised directly on small programs.

import (
	"slices"
	"testing"

	"objinline/internal/analysis"
	"objinline/internal/ir"
	"objinline/internal/lang/parser"
	"objinline/internal/lang/sem"
	"objinline/internal/lower"
)

func valFor(t *testing.T, src string) (*ir.Program, *valuability) {
	t.Helper()
	tree, err := parser.Parse("t.icc", src)
	if err != nil {
		t.Fatal(err)
	}
	info, err := sem.Check(tree)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := lower.Lower(info)
	if err != nil {
		t.Fatal(err)
	}
	res := analysis.Analyze(prog, analysis.Options{Tags: true})
	return prog, newValuability(prog, res)
}

func TestReadOnlyParamPredicate(t *testing.T) {
	prog, v := valFor(t, `
var g;
class C { x; def init(x) { self.x = x; } }
func reads(p) { return p.x; }
func stores(p) { g = p; return 0; }
func returns(p) { return p; }
func forwardsToReader(p) { return reads(p); }
func forwardsToStorer(p) { return stores(p); }
func main() {
  var c = new C(1);
  reads(c); stores(c); returns(c); forwardsToReader(c); forwardsToStorer(c);
  print(g == c);
}
`)
	cases := map[string]bool{
		"reads":            true,
		"stores":           false,
		"returns":          false,
		"forwardsToReader": true,
		"forwardsToStorer": false,
	}
	for name, want := range cases {
		fn := prog.FuncNamed(name)
		got := v.readOnly[paramKey{fn, fn.ParamReg(0)}]
		if got != want {
			t.Errorf("readOnly(%s, p) = %v, want %v", name, got, want)
		}
	}
}

func TestFreshReturnPredicate(t *testing.T) {
	prog, v := valFor(t, `
var keep;
class C { x; def init(x) { self.x = x; } }
func fresh() { return new C(1); }
func freshVia() { return fresh(); }
func leaked() { var c = new C(2); keep = c; return c; }
func passthrough(p) { return p; }
func passesRetained(p) { return p; }
func main() {
  // passthrough's only caller hands it a by-value argument, so its
  // result IS fresh (the CallByValue chain); passesRetained receives an
  // aliased value and is not.
  print(fresh().x, freshVia().x, leaked().x, passthrough(new C(3)).x);
  var kept = new C(4);
  keep = kept;
  print(passesRetained(kept).x);
}
`)
	cases := map[string]bool{
		"fresh":          true,
		"freshVia":       true,
		"leaked":         false,
		"passthrough":    true,
		"passesRetained": false,
	}
	for name, want := range cases {
		if got := v.FreshReturn(prog.FuncNamed(name)); got != want {
			t.Errorf("FreshReturn(%s) = %v, want %v", name, got, want)
		}
	}
}

// findStore returns the first SetField instruction of fn.
func findStore(fn *ir.Func) *ir.Instr {
	var out *ir.Instr
	fn.Instrs(func(_ *ir.Block, in *ir.Instr) {
		if in.Op == ir.OpSetField && out == nil {
			out = in
		}
	})
	return out
}

func TestSafeStoreScenarios(t *testing.T) {
	cases := []struct {
		name string
		src  string
		fn   string
		want bool
		// why is the What sequence of ExplainStore's evidence for a
		// failing store.
		why []string
	}{
		{
			"fresh local store",
			`class C { x; def init(x){ self.x = x; } }
			 class H { p; def init(){ } }
			 func put(h) { h.p = new C(1); }
			 func main() { var h = new H(); put(h); print(h.p.x); }`,
			"put", true, nil,
		},
		{
			"store of globally kept value",
			`var g;
			 class C { x; def init(x){ self.x = x; } }
			 class H { p; def init(){ } }
			 func put(h) { var c = new C(1); g = c; h.p = c; }
			 func main() { var h = new H(); put(h); print(h.p.x); }`,
			"put", false, []string{"pass-by-value-failed", "stored-elsewhere"},
		},
		{
			"use after store",
			`class C { x; def init(x){ self.x = x; } }
			 class H { p; def init(){ } }
			 func put(h) { var c = new C(1); h.p = c; c.x = 2; }
			 func main() { var h = new H(); put(h); print(h.p.x); }`,
			"put", false, []string{"pass-by-value-failed", "used-after-handoff"},
		},
		{
			"loop-carried fresh store",
			`class C { x; def init(x){ self.x = x; } }
			 class H { p; def init(){ } }
			 func put(h, n) { for (var i = 0; i < n; i = i + 1) { h.p = new C(i); } }
			 func main() { var h = new H(); put(h, 3); print(h.p.x); }`,
			"put", true, nil,
		},
		{
			"read before store ok",
			`class C { x; def init(x){ self.x = x; } }
			 class H { p; def init(){ } }
			 func put(h) { var c = new C(1); print(c.x); h.p = c; }
			 func main() { var h = new H(); put(h); print(h.p.x); }`,
			"put", true, nil,
		},
		{
			"store of non-fresh factory result",
			`var keep;
			 class C { x; def init(x){ self.x = x; } }
			 class H { p; def init(){ } }
			 func make() { var c = new C(1); keep = c; return c; }
			 func put(h) { h.p = make(); }
			 func main() { var h = new H(); put(h); print(h.p.x); }`,
			"put", false, []string{"pass-by-value-failed", "factory-not-fresh", "return-not-fresh", "stored-elsewhere"},
		},
		{
			"store of value loaded from another field",
			`class C { x; def init(x){ self.x = x; } }
			 class H { p; def init(){ } }
			 class S { q; def init(){ self.q = new C(1); } }
			 func put(h, s) { h.p = s.q; }
			 func main() { var h = new H(); put(h, new S()); print(h.p.x); }`,
			"put", false, []string{"pass-by-value-failed", "origin-not-fresh"},
		},
		{
			"store of parameter not passed by value",
			`class C { x; def init(x){ self.x = x; } }
			 class H { p; def init(){ } }
			 func put(h, c) { h.p = c; }
			 func main() { var h = new H(); var c = new C(1); put(h, c); print(c.x, h.p.x); }`,
			"put", false, []string{"pass-by-value-failed", "param-not-call-by-value", "call-site-not-by-value", "used-after-handoff"},
		},
		{
			"parameter passed twice in one call",
			`class C { x; def init(x){ self.x = x; } }
			 class H { p; q; def init(){ } }
			 func put(h, a, b) { h.p = a; h.q = b; }
			 func main() { var h = new H(); var c = new C(1); put(h, c, c); print(h.p.x); }`,
			"put", false, []string{"pass-by-value-failed", "param-not-call-by-value", "call-site-not-by-value", "handed-off-twice"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			prog, v := valFor(t, tc.src)
			fn := prog.FuncNamed(tc.fn)
			store := findStore(fn)
			if store == nil {
				t.Fatal("no store found")
			}
			if got := v.SafeStore(fn, store); got != tc.want {
				t.Errorf("SafeStore = %v, want %v", got, tc.want)
			}
			if tc.want {
				return
			}
			var why []string
			for _, s := range v.ExplainStore(fn, store) {
				why = append(why, s.What)
			}
			if !slices.Equal(why, tc.why) {
				t.Errorf("ExplainStore = %q, want %q", why, tc.why)
			}
		})
	}
}

func TestCollectRootsFindsAllocations(t *testing.T) {
	prog, v := valFor(t, `
class C { x; def init(x){ self.x = x; } }
class H { p; def init(p){ self.p = p; } }
func main() {
  var h = new H(new C(1));
  print(h.p.x);
}
`)
	init := prog.ClassNamed("H").Methods["init"]
	store := findStore(init)
	roots := v.CollectRoots(init, store)
	if len(roots) != 1 {
		t.Fatalf("roots = %d, want 1", len(roots))
	}
	if roots[0].Fn != prog.Main || roots[0].Instr.Op != ir.OpNewObject {
		t.Errorf("root = %s in %s", roots[0].Instr, roots[0].Fn.FullName())
	}
}

func TestDoubleStoreOfOneVariableRejected(t *testing.T) {
	// Two store sites for the same variable are conservatively rejected
	// ("no other storing use", flow-insensitive), even though each
	// iteration's value is fresh — the single-store-in-loop form is the
	// one that inlines (TestSafeStoreScenarios/loop-carried fresh store).
	prog, v := valFor(t, `
class C { x; def init(x){ self.x = x; } }
class H { p; def init(){ } }
func put(h, n) {
  var c = new C(0);
  h.p = c;
  for (var i = 0; i < n; i = i + 1) {
    c = new C(i);
    h.p = c;
  }
}
func main() { var h = new H(); put(h, 2); print(h.p.x); }
`)
	fn := prog.FuncNamed("put")
	stores := 0
	fn.Instrs(func(_ *ir.Block, in *ir.Instr) {
		if in.Op == ir.OpSetField {
			stores++
			if v.SafeStore(fn, in) {
				t.Errorf("store %s accepted despite a second storing site", in)
			}
		}
	})
	if stores != 2 {
		t.Fatalf("stores = %d", stores)
	}
}
