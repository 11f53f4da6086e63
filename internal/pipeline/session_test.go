package pipeline

import (
	"slices"
	"sort"
	"strings"
	"testing"

	"objinline/internal/analysis"
)

// sessionBase is a small but representative program: a class hierarchy,
// a container with an inlinable field, globals with initializers, and a
// few functions.
const sessionBase = `
class Point {
  x; y;
  def init(a, b) { self.x = a; self.y = b; }
  def sum() { return self.x + self.y; }
}
class Pair {
  p; tag;
  def init(a, b) { self.p = new Point(a, b); self.tag = "pair"; }
  def total() { return self.p.sum(); }
}
var gScale = 3;
func weight(k) { return k * gScale; }
func build(n) {
  var acc = 0;
  for (var i = 0; i < n; i = i + 1) {
    var q = new Pair(i, i + 1);
    acc = acc + q.total();
  }
  return acc;
}
func main() {
  print(build(10));
  print(weight(7));
}
`

// compiledFingerprint renders everything the differential contract pins:
// analysis report, optimized IR, decision lists, code size, and run output.
func compiledFingerprint(t *testing.T, c *Compiled) string {
	t.Helper()
	var b strings.Builder
	b.WriteString("--program--\n")
	b.WriteString(c.Prog.String())
	b.WriteString("\n--analysis--\n")
	if c.Analysis != nil {
		b.WriteString(c.Analysis.String())
	}
	b.WriteString("\n--optimize--\n")
	if c.Optimize != nil && c.Optimize.Decision != nil {
		for _, k := range c.Optimize.Decision.InlinedKeys() {
			b.WriteString("inlined ")
			b.WriteString(k.String())
			b.WriteString("\n")
		}
		var rejected []string
		for k := range c.Optimize.Decision.Rejected {
			rejected = append(rejected, k.String())
		}
		sort.Strings(rejected)
		for _, r := range rejected {
			b.WriteString("rejected ")
			b.WriteString(r)
			b.WriteString("\n")
		}
	}
	b.WriteString("\n--run--\n")
	var out strings.Builder
	if _, err := c.Run(RunOptions{Out: &out}); err != nil {
		t.Fatalf("run: %v", err)
	}
	b.WriteString(out.String())
	return b.String()
}

// expectIdentical compares a session patch against a cold compile of the
// same source.
func expectIdentical(t *testing.T, sess *Session, src string, cfg Config, wantTier string) IncrementalStats {
	t.Helper()
	warm, st, err := sess.Patch(src)
	if err != nil {
		t.Fatalf("patch: %v", err)
	}
	if wantTier != "" && st.Tier != wantTier {
		t.Fatalf("tier = %q, want %q (stats %+v)", st.Tier, wantTier, st)
	}
	cold, err := Compile("sess.icc", src, cfg)
	if err != nil {
		t.Fatalf("cold compile: %v", err)
	}
	w, c := compiledFingerprint(t, warm), compiledFingerprint(t, cold)
	if w != c {
		t.Fatalf("tier %s output diverged from cold compile\n--- warm ---\n%s\n--- cold ---\n%s", st.Tier, w, c)
	}
	return st
}

func sessionConfigs() map[string]Config {
	return map[string]Config{
		"direct":   {Mode: ModeDirect},
		"baseline": {Mode: ModeBaseline},
		"inline":   {Mode: ModeInline},
		"inline-sweep": {Mode: ModeInline,
			Analysis: analysis.Options{Solver: analysis.SolverSweep}},
	}
}

func TestSessionTiers(t *testing.T) {
	for name, cfg := range sessionConfigs() {
		cfg := cfg
		t.Run(name, func(t *testing.T) {
			sess, first, err := NewSession("sess.icc", sessionBase, cfg)
			if err != nil {
				t.Fatalf("new session: %v", err)
			}
			if first == nil {
				t.Fatal("nil initial compile")
			}

			// reuse: identical source.
			_, st, err := sess.Patch(sessionBase)
			if err != nil {
				t.Fatalf("reuse patch: %v", err)
			}
			if st.Tier != TierReuse {
				t.Fatalf("identical source tier = %q, want reuse", st.Tier)
			}

			// patch: change a constant inside one function.
			payload := strings.Replace(sessionBase, "print(weight(7));", "print(weight(9));", 1)
			st = expectIdentical(t, sess, payload, cfg, TierPatch)
			if cfg.Mode != ModeDirect && !st.AnalysisReused {
				t.Fatalf("payload edit should reuse analysis: %+v", st)
			}
			if st.AnalysisInstrEvals != 0 {
				t.Fatalf("payload edit ran analysis: %+v", st)
			}
			if st.Patched == 0 {
				t.Fatalf("payload edit patched nothing: %+v", st)
			}

			// solve: change control flow inside one function.
			shape := strings.Replace(payload,
				"func weight(k) { return k * gScale; }",
				"func weight(k) { if (k > 3) { return k * gScale; } return k; }", 1)
			st = expectIdentical(t, sess, shape, cfg, TierSolve)
			if st.AnalysisReused {
				t.Fatalf("shape edit must not reuse analysis: %+v", st)
			}
			if st.Respliced == 0 {
				t.Fatalf("shape edit respliced nothing: %+v", st)
			}

			// cold: structural edit (new function).
			structural := shape + "\nfunc extra(a) { return a + 1; }\n"
			st = expectIdentical(t, sess, structural, cfg, TierCold)

			// patch again after the cold rebuild, and on a method this time.
			methodEdit := strings.Replace(structural, `self.tag = "pair";`, `self.tag = "tuple";`, 1)
			st = expectIdentical(t, sess, methodEdit, cfg, TierPatch)

			// Line-shift: an added comment line above everything moves every
			// position. Shapes hold, so the analysis is still reused, but the
			// back end re-runs (reopt) so position-bearing output matches cold.
			shifted := "// shifted\n" + methodEdit
			st = expectIdentical(t, sess, shifted, cfg, TierReopt)
			if st.Respliced != 0 {
				t.Fatalf("line shift should be shape-preserving: %+v", st)
			}
			if cfg.Mode != ModeDirect && !st.AnalysisReused {
				t.Fatalf("line shift should reuse analysis: %+v", st)
			}
			if st.AnalysisInstrEvals != 0 {
				t.Fatalf("line shift ran analysis: %+v", st)
			}
		})
	}
}

// TestSessionChangedFuncs pins which functions an edit re-lowers: those
// whose declaration text or start position changed. A comment that moves
// no instruction still re-lowers its function, which then patches with
// nothing to change; a global initializer edit re-lowers only $init.
func TestSessionChangedFuncs(t *testing.T) {
	const base = `var g = 5;
func f(x) { return x * g; }
func main() { print(f(7)); }
`
	cfg := Config{Mode: ModeInline}
	sess, _, err := NewSession("sess.icc", base, cfg)
	if err != nil {
		t.Fatal(err)
	}
	comment := strings.Replace(base, "return x * g; }", "return x * g; /* note */ }", 1)
	st := expectIdentical(t, sess, comment, cfg, TierPatch)
	if !slices.Equal(st.Changed, []string{"f"}) || st.Patched != 1 {
		t.Fatalf("comment edit: changed %v, patched %d; want [f], 1", st.Changed, st.Patched)
	}
	global := strings.Replace(comment, "var g = 5;", "var g = 6;", 1)
	st = expectIdentical(t, sess, global, cfg, TierPatch)
	if !slices.Equal(st.Changed, []string{"$init"}) {
		t.Fatalf("global initializer edit: changed %v, want [$init]", st.Changed)
	}
}

func TestSessionErrorKeepsState(t *testing.T) {
	sess, _, err := NewSession("sess.icc", sessionBase, Config{Mode: ModeInline})
	if err != nil {
		t.Fatal(err)
	}
	before := sess.Compiled()

	if _, _, err := sess.Patch("def main() { return }"); err == nil {
		t.Fatal("expected parse/check error")
	}
	if sess.Compiled() != before {
		t.Fatal("failed patch replaced the pinned compile")
	}
	// A lowering error (undeclared variable) must also leave state intact.
	bad := strings.Replace(sessionBase, "return k * gScale;", "return k * nope;", 1)
	if _, _, err := sess.Patch(bad); err == nil {
		t.Fatal("expected lowering error")
	}
	if sess.Compiled() != before {
		t.Fatal("failed lowering replaced the pinned compile")
	}

	// And the session still works after errors.
	good := strings.Replace(sessionBase, "build(10)", "build(11)", 1)
	c, st, err := sess.Patch(good)
	if err != nil {
		t.Fatalf("patch after errors: %v", err)
	}
	if c == nil || st.Tier != TierPatch {
		t.Fatalf("post-error patch tier = %q", st.Tier)
	}
}
