package pipeline_test

import (
	"errors"
	"strings"
	"testing"

	"objinline/internal/pipeline"
	"objinline/internal/vm"
)

func TestCompileErrorStages(t *testing.T) {
	cases := []struct {
		name, src, frag string
	}{
		{"parse", `func main() { var = 1; }`, "parse:"},
		{"sem", `func f() { }`, "check:"},
		{"lower", `func main() { undeclared = 1; }`, "lower:"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := pipeline.Compile("t.icc", tc.src, pipeline.Config{Mode: pipeline.ModeInline})
			if err == nil {
				t.Fatal("expected error")
			}
			if !strings.Contains(err.Error(), tc.frag) {
				t.Errorf("error %q does not identify stage %q", err, tc.frag)
			}
		})
	}
}

func TestRuntimeErrorsSurviveOptimization(t *testing.T) {
	// A program that traps must trap identically in every pipeline (error
	// behavior is part of the observable semantics).
	src := `
class C { x; def init(x) { self.x = x; } }
func main() {
  var c = new C(1);
  print(c.x);
  var d;
  print(d.x); // nil dereference
}
`
	for _, mode := range []pipeline.Mode{pipeline.ModeDirect, pipeline.ModeBaseline, pipeline.ModeInline} {
		c, err := pipeline.Compile("t.icc", src, pipeline.Config{Mode: mode})
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		var out strings.Builder
		_, err = c.Run(pipeline.RunOptions{Out: &out, MaxSteps: 100000})
		if err == nil {
			t.Fatalf("%v: trap lost", mode)
		}
		if !strings.Contains(err.Error(), "nil") {
			t.Errorf("%v: error %q", mode, err)
		}
		if out.String() != "1\n" {
			t.Errorf("%v: output before trap = %q", mode, out.String())
		}
	}
}

func TestRunawayRecursionIsRuntimeError(t *testing.T) {
	// Unbounded recursion must end in a runtime error at the call-depth
	// bound in every pipeline, not in a Go stack overflow that kills the
	// process.
	src := `
func f(x) { return f(x + 1); }
func main() { print(f(1)); }
`
	for _, mode := range []pipeline.Mode{pipeline.ModeDirect, pipeline.ModeBaseline, pipeline.ModeInline} {
		c, err := pipeline.Compile("t.icc", src, pipeline.Config{Mode: mode})
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		_, err = c.Run(pipeline.RunOptions{MaxSteps: 10_000_000})
		var re *vm.RuntimeError
		if !errors.As(err, &re) || !strings.HasPrefix(re.Msg, "call depth exceeded (") || !strings.HasSuffix(re.Msg, ") in f") {
			t.Errorf("%v: err = %v, want a call-depth runtime error in f", mode, err)
		}
	}
}

func TestDivisionByZeroSurvivesOptimization(t *testing.T) {
	src := `
func main() {
  var a = 10;
  var b = 0;
  print(a / b);
}
`
	for _, mode := range []pipeline.Mode{pipeline.ModeDirect, pipeline.ModeInline} {
		c, err := pipeline.Compile("t.icc", src, pipeline.Config{Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Run(pipeline.RunOptions{MaxSteps: 1000}); err == nil {
			t.Errorf("%v: division by zero lost", mode)
		}
	}
}

func TestAssertionSurvivesOptimization(t *testing.T) {
	src := `
class P { x; def init(x) { self.x = x; } }
class H { p; def init(p) { self.p = p; } }
func main() {
  var h = new H(new P(3));
  assert(h.p.x == 3);
  assert(h.p.x == 4);
}
`
	for _, mode := range []pipeline.Mode{pipeline.ModeDirect, pipeline.ModeInline} {
		c, err := pipeline.Compile("t.icc", src, pipeline.Config{Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		_, err = c.Run(pipeline.RunOptions{MaxSteps: 100000})
		if err == nil || !strings.Contains(err.Error(), "assertion failed") {
			t.Errorf("%v: err = %v", mode, err)
		}
	}
}

func TestModesReported(t *testing.T) {
	for _, mode := range []pipeline.Mode{pipeline.ModeDirect, pipeline.ModeBaseline, pipeline.ModeInline} {
		c, err := pipeline.Compile("t.icc", "func main() { print(1); }", pipeline.Config{Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		if c.Mode != mode {
			t.Errorf("Mode = %v, want %v", c.Mode, mode)
		}
		if mode == pipeline.ModeDirect && (c.Analysis != nil || c.Optimize != nil) {
			t.Error("direct mode ran the optimizer")
		}
		if mode != pipeline.ModeDirect && (c.Analysis == nil || c.Optimize == nil) {
			t.Errorf("%v missing analysis/optimize results", mode)
		}
	}
}

func TestModeStrings(t *testing.T) {
	if pipeline.ModeDirect.String() != "direct" ||
		pipeline.ModeBaseline.String() != "baseline" ||
		pipeline.ModeInline.String() != "inline" {
		t.Error("mode strings wrong")
	}
}
