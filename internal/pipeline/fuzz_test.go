package pipeline_test

// Differential fuzzing: generate random (but always-valid) Mini-ICC
// programs full of container/containee patterns — fresh stores, aliased
// stores, global escapes, arrays, loops, polymorphic children — and check
// that the direct, baseline, and inlining pipelines print byte-identical
// output. This is the broadest guard on the transformation's semantics.

import (
	"fmt"
	"math/rand"
	"regexp"
	"sort"
	"strings"
	"testing"

	"objinline/internal/analysis"
	"objinline/internal/pipeline"
)

// progGen builds one random program.
type progGen struct {
	r *rand.Rand
	b strings.Builder

	leafClasses  []string       // classes with scalar fields
	contClasses  []string       // classes holding leaf objects
	contArity    map[string]int // constructor arity of each container class
	globals      []string
	subLeafArity int  // 0 when no Leaf0Sub was generated
	hasOuter     bool // an Outer container-of-container exists
}

func (g *progGen) pick(ss []string) string { return ss[g.r.Intn(len(ss))] }

func (g *progGen) emit(format string, args ...any) {
	fmt.Fprintf(&g.b, format, args...)
	g.b.WriteByte('\n')
}

// generate produces the program text.
func (g *progGen) generate() string {
	nLeaf := 2 + g.r.Intn(2)
	for i := 0; i < nLeaf; i++ {
		g.leafClass(i)
	}
	// Sometimes add a subclass of Leaf0 (polymorphic containees).
	if g.r.Intn(2) == 0 {
		g.leafSubclass()
	}
	nCont := 1 + g.r.Intn(2)
	for i := 0; i < nCont; i++ {
		g.contClass(i)
	}
	// Sometimes add an outer container holding a container (nested
	// inlining).
	if g.r.Intn(2) == 0 {
		g.outerClass()
	}
	nGlob := g.r.Intn(2)
	for i := 0; i < nGlob; i++ {
		name := fmt.Sprintf("glob%d", i)
		g.globals = append(g.globals, name)
		g.emit("var %s;", name)
	}
	// Interprocedural helpers: a reader and a factory per container class
	// (exercising tag propagation through calls and FreshReturn chains).
	for _, cls := range g.contClasses {
		g.emit("func read%s(c) { return c.total() + c.first().sum(); }", cls)
		arity := g.contArity[cls]
		args := make([]string, arity)
		for j := range args {
			args[j] = g.newLeaf()
		}
		g.emit("func make%s() { return new %s(%s); }", cls, cls, strings.Join(args, ", "))
	}
	g.mainFunc()
	return g.b.String()
}

// leafClass emits a class with scalar fields, a getter-ish method, and a
// mutator.
func (g *progGen) leafClass(i int) {
	name := fmt.Sprintf("Leaf%d", i)
	g.leafClasses = append(g.leafClasses, name)
	nf := 1 + g.r.Intn(3)
	fields := make([]string, nf)
	for j := range fields {
		fields[j] = fmt.Sprintf("f%d", j)
	}
	g.emit("class %s {", name)
	g.emit("  %s;", strings.Join(fields, "; "))
	params := make([]string, nf)
	assigns := make([]string, nf)
	for j := range fields {
		params[j] = fmt.Sprintf("p%d", j)
		assigns[j] = fmt.Sprintf("self.%s = p%d;", fields[j], j)
	}
	g.emit("  def init(%s) { %s }", strings.Join(params, ", "), strings.Join(assigns, " "))
	// sum(): reads every field.
	terms := make([]string, nf)
	for j, f := range fields {
		terms[j] = "self." + f
	}
	g.emit("  def sum() { return %s; }", strings.Join(terms, " + "))
	g.emit("  def bump(n) { self.%s = self.%s + n; return self.%s; }", fields[0], fields[0], fields[0])
	g.emit("}")
}

// contClass emits a container holding leaf objects.
func (g *progGen) contClass(i int) {
	name := fmt.Sprintf("Cont%d", i)
	g.contClasses = append(g.contClasses, name)
	nf := 1 + g.r.Intn(2)
	fields := make([]string, nf)
	params := make([]string, nf)
	assigns := make([]string, nf)
	terms := make([]string, nf)
	for j := 0; j < nf; j++ {
		fields[j] = fmt.Sprintf("c%d", j)
		params[j] = fmt.Sprintf("p%d", j)
		assigns[j] = fmt.Sprintf("self.c%d = p%d;", j, j)
		terms[j] = fmt.Sprintf("self.c%d.sum()", j)
	}
	g.emit("class %s {", name)
	g.emit("  %s;", strings.Join(fields, "; "))
	g.emit("  def init(%s) { %s }", strings.Join(params, ", "), strings.Join(assigns, " "))
	g.emit("  def total() { return %s; }", strings.Join(terms, " + "))
	g.emit("  def first() { return self.c0; }")
	g.emit("}")
	// Remember arity for construction.
	if g.contArity == nil {
		g.contArity = map[string]int{}
	}
	g.contArity[name] = nf
}

// leafSubclass derives a subclass of Leaf0 with an extra field and an
// overriding sum (polymorphic containee for the containers).
func (g *progGen) leafSubclass() {
	g.emit("class Leaf0Sub : Leaf0 {")
	g.emit("  extra;")
	arity := strings.Count(extractInit(g.b.String(), "Leaf0"), "p")
	params := make([]string, arity)
	assigns := make([]string, arity)
	for j := 0; j < arity; j++ {
		params[j] = fmt.Sprintf("p%d", j)
		assigns[j] = fmt.Sprintf("self.f%d = p%d;", j, j)
	}
	g.emit("  def init(%s, e) { %s self.extra = e; }", strings.Join(params, ", "), strings.Join(assigns, " "))
	g.emit("  def sum() { return self.f0 + self.extra; }")
	g.emit("}")
	g.subLeafArity = arity + 1
}

// newSubLeaf renders a fresh Leaf0Sub construction.
func (g *progGen) newSubLeaf() string {
	args := make([]string, g.subLeafArity)
	for j := range args {
		args[j] = fmt.Sprint(g.r.Intn(20))
	}
	return fmt.Sprintf("new Leaf0Sub(%s)", strings.Join(args, ", "))
}

// outerClass emits a container-of-container (nested inlining target).
func (g *progGen) outerClass() {
	g.emit("class Outer {")
	g.emit("  inner; tag;")
	g.emit("  def init(i, t) { self.inner = i; self.tag = t; }")
	g.emit("  def deep() { return self.inner.total() + self.tag; }")
	g.emit("}")
	g.hasOuter = true
}

// newLeaf renders a fresh leaf construction expression; when a subclass
// exists it is chosen sometimes, making container fields polymorphic.
func (g *progGen) newLeaf() string {
	if g.subLeafArity > 0 && g.r.Intn(4) == 0 {
		return g.newSubLeaf()
	}
	cls := g.pick(g.leafClasses)
	// Arity is the field count, recoverable from the class index.
	nf := 0
	fmt.Sscanf(cls, "Leaf%d", &nf)
	// Regenerate arity deterministically is fragile; instead count from
	// the emitted text.
	arity := strings.Count(extractInit(g.b.String(), cls), "p")
	args := make([]string, 0, 4)
	for j := 0; j < arity; j++ {
		args = append(args, fmt.Sprint(g.r.Intn(20)))
	}
	return fmt.Sprintf("new %s(%s)", cls, strings.Join(args, ", "))
}

// extractInit finds "def init(...)" for cls and returns the parameter
// list text.
func extractInit(src, cls string) string {
	idx := strings.Index(src, "class "+cls+" ")
	if idx < 0 {
		return ""
	}
	rest := src[idx:]
	i := strings.Index(rest, "def init(")
	if i < 0 {
		return ""
	}
	rest = rest[i+len("def init("):]
	j := strings.Index(rest, ")")
	return rest[:j]
}

func (g *progGen) mainFunc() {
	g.emit("func main() {")
	vars := []string{}
	leafVars := []string{}
	nStmts := 6 + g.r.Intn(8)
	for s := 0; s < nStmts; s++ {
		switch g.r.Intn(10) {
		case 0: // fresh container with fresh leaves (inlinable pattern)
			cls := g.pick(g.contClasses)
			arity := g.contArity[cls]
			args := make([]string, arity)
			for j := range args {
				args[j] = g.newLeaf()
			}
			v := fmt.Sprintf("v%d", len(vars))
			vars = append(vars, v)
			g.emit("  var %s = new %s(%s);", v, cls, strings.Join(args, ", "))
			g.emit("  print(%s.total());", v)
		case 1: // aliased container (blocks inlining; semantics must hold)
			if len(leafVars) == 0 {
				g.emit("  print(%d);", g.r.Intn(100))
				break
			}
			cls := g.pick(g.contClasses)
			arity := g.contArity[cls]
			args := make([]string, arity)
			for j := range args {
				args[j] = g.pick(leafVars)
			}
			v := fmt.Sprintf("v%d", len(vars))
			vars = append(vars, v)
			g.emit("  var %s = new %s(%s);", v, cls, strings.Join(args, ", "))
			g.emit("  print(%s.total());", v)
			// Mutate through the original to check aliasing is preserved.
			g.emit("  %s.bump(%d);", g.pick(leafVars), g.r.Intn(5))
			g.emit("  print(%s.total());", v)
		case 2: // leaf variable (alias source)
			v := fmt.Sprintf("l%d", len(leafVars))
			leafVars = append(leafVars, v)
			g.emit("  var %s = %s;", v, g.newLeaf())
			g.emit("  print(%s.sum());", v)
		case 3: // array of fresh leaves + summing loop
			v := fmt.Sprintf("arr%d", s)
			n := 2 + g.r.Intn(6)
			g.emit("  var %s = new [%d];", v, n)
			g.emit("  for (var i = 0; i < %d; i = i + 1) { %s[i] = %s; }", n, v, g.newLeaf())
			g.emit("  { var s = 0; for (var i = 0; i < %d; i = i + 1) { s = s + %s[i].sum(); } print(s); }", n, v)
		case 4: // global escape
			if len(g.globals) == 0 || len(leafVars) == 0 {
				g.emit("  print(%d);", g.r.Intn(100))
				break
			}
			g.emit("  %s = %s;", g.pick(g.globals), g.pick(leafVars))
			g.emit("  if (%s != nil) { print(%s.sum()); }", g.globals[0], g.globals[0])
		case 5: // container read-back + identity checks
			if len(vars) == 0 {
				g.emit("  print(%d);", g.r.Intn(100))
				break
			}
			v := g.pick(vars)
			g.emit("  if (%s.first() == %s.first()) { print(\"same\"); } else { print(\"diff\"); }", v, v)
			g.emit("  print(%s.first().sum());", v)
		case 6: // loop mutating through a container
			if len(vars) == 0 {
				g.emit("  print(%d);", g.r.Intn(100))
				break
			}
			v := g.pick(vars)
			g.emit("  for (var i = 0; i < %d; i = i + 1) { %s.first().bump(1); }", 1+g.r.Intn(5), v)
			g.emit("  print(%s.total());", v)
		case 8: // container from a factory (FreshReturn chain)
			cls := g.pick(g.contClasses)
			v := fmt.Sprintf("v%d", len(vars))
			vars = append(vars, v)
			g.emit("  var %s = make%s();", v, cls)
			g.emit("  print(%s.total());", v)
		case 9: // interprocedural reader
			if len(vars) == 0 {
				g.emit("  print(%d);", g.r.Intn(100))
				break
			}
			v := g.pick(vars)
			// Readers dispatch total()/first() dynamically, so any
			// reader accepts any container — mixing them exercises
			// call-confluence splitting.
			g.emit("  print(read%s(%s));", g.pick(g.contClasses), v)
		case 7: // nested container (Outer holds a fresh Cont)
			if !g.hasOuter {
				g.emit("  print(%d);", g.r.Intn(100))
				break
			}
			cls := g.pick(g.contClasses)
			arity := g.contArity[cls]
			args := make([]string, arity)
			for j := range args {
				args[j] = g.newLeaf()
			}
			o := fmt.Sprintf("o%d", s)
			g.emit("  var %s = new Outer(new %s(%s), %d);", o, cls, strings.Join(args, ", "), g.r.Intn(9))
			g.emit("  print(%s.deep());", o)
			g.emit("  %s.inner.first().bump(2);", o)
			g.emit("  print(%s.deep());", o)
		}
	}
	g.emit("}")
}

func TestDifferentialFuzz(t *testing.T) {
	const numPrograms = 200
	for seed := 0; seed < numPrograms; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%02d", seed), func(t *testing.T) {
			g := &progGen{r: rand.New(rand.NewSource(int64(seed)))}
			src := g.generate()

			configs := []struct {
				name string
				cfg  pipeline.Config
			}{
				{"direct", pipeline.Config{Mode: pipeline.ModeDirect}},
				{"baseline", pipeline.Config{Mode: pipeline.ModeBaseline}},
				{"inline", pipeline.Config{Mode: pipeline.ModeInline}},
				{"inline-parallel", pipeline.Config{Mode: pipeline.ModeInline, ArrayLayout: 1}},
				// The reference sweep solver: must execute identically AND
				// analyze identically to the default worklist (checked
				// against "inline" below).
				{"inline-sweep", pipeline.Config{Mode: pipeline.ModeInline,
					Analysis: analysis.Options{Solver: analysis.SolverSweep}}},
			}
			outputs := map[string]string{}
			compiled := map[string]*pipeline.Compiled{}
			for _, c := range configs {
				comp, err := pipeline.Compile("fuzz.icc", src, c.cfg)
				if err != nil {
					t.Fatalf("%s compile: %v\nprogram:\n%s", c.name, err, src)
				}
				compiled[c.name] = comp
				var out strings.Builder
				if _, err := comp.Run(pipeline.RunOptions{Out: &out, MaxSteps: 5_000_000}); err != nil {
					t.Fatalf("%s run: %v\nprogram:\n%s", c.name, err, src)
				}
				outputs[c.name] = out.String()
			}
			if dw, ds := compiled["inline"].Analysis.String(), compiled["inline-sweep"].Analysis.String(); dw != ds {
				t.Errorf("worklist and sweep analyses differ\nprogram:\n%s\nworklist:\n%s\nsweep:\n%s", src, dw, ds)
			}
			// The MaxContours-overflow regime, where getMC coerces split
			// keys to base contours (the worklist must globally re-dirty
			// call sites at the transition; see analysis.redirtyCallSites).
			// Compared at the analysis level only: the inline transform may
			// legitimately fail to converge on such a starved, conservative
			// analysis, so the full pipeline is not run here.
			ovProg, err := pipeline.Compile("fuzz.icc", src, pipeline.Config{Mode: pipeline.ModeDirect})
			if err != nil {
				t.Fatalf("overflow compile: %v", err)
			}
			ovW := analysis.Analyze(compiled["direct"].Source,
				analysis.Options{Tags: true, MaxContours: 17})
			ovS := analysis.Analyze(ovProg.Source,
				analysis.Options{Tags: true, MaxContours: 17, Solver: analysis.SolverSweep})
			if dw, ds := ovW.String(), ovS.String(); dw != ds {
				t.Errorf("worklist and sweep analyses differ under contour overflow\nprogram:\n%s\nworklist:\n%s\nsweep:\n%s", src, dw, ds)
			}
			for _, c := range configs[1:] {
				if outputs[c.name] != outputs["direct"] {
					t.Errorf("%s differs from direct\nprogram:\n%s\ndirect:\n%s\n%s:\n%s",
						c.name, src, outputs["direct"], c.name, outputs[c.name])
				}
			}
		})
	}
}

// fuzzFingerprint renders everything the incremental differential
// contract pins: the optimized program (positions and payloads included),
// the analysis dump, the decision lists, and the run output.
func fuzzFingerprint(t *testing.T, c *pipeline.Compiled) string {
	t.Helper()
	var b strings.Builder
	b.WriteString(c.Prog.String())
	b.WriteString("\n--analysis--\n")
	if c.Analysis != nil {
		b.WriteString(c.Analysis.String())
	}
	if c.Optimize != nil && c.Optimize.Decision != nil {
		b.WriteString("\n--decisions--\n")
		for _, k := range c.Optimize.Decision.InlinedKeys() {
			fmt.Fprintf(&b, "inlined %s\n", k)
		}
		var rejected []string
		for k := range c.Optimize.Decision.Rejected {
			rejected = append(rejected, k.String())
		}
		sort.Strings(rejected)
		for _, r := range rejected {
			fmt.Fprintf(&b, "rejected %s\n", r)
		}
	}
	b.WriteString("\n--run--\n")
	// A mutated constant can make the program trap (an array size shrunk
	// under a fixed loop bound, say); the trap and the output prefix are
	// then themselves part of the differential contract.
	var out strings.Builder
	if _, err := c.Run(pipeline.RunOptions{Out: &out, MaxSteps: 5_000_000}); err != nil {
		fmt.Fprintf(&b, "runtime error: %v\n", err)
	}
	b.WriteString(out.String())
	return b.String()
}

var intLiteral = regexp.MustCompile(`\b\d+\b`)

// mutate derives one edited source from src. The returned wantTier is
// the tier the session must absorb it at ("" = don't assert: the edit
// may be a no-op or land on several tiers legitimately).
func mutate(r *rand.Rand, src string, step int) (edited, wantTier string) {
	switch r.Intn(4) {
	case 0: // payload: same-width rewrite of one integer literal
		locs := intLiteral.FindAllStringIndex(src, -1)
		if len(locs) == 0 {
			return src, ""
		}
		loc := locs[r.Intn(len(locs))]
		old := src[loc[0]:loc[1]]
		digits := []byte(old)
		digits[len(digits)-1] = byte('0' + r.Intn(10))
		if string(digits) == old {
			return src, "" // may hash identical → reuse
		}
		return src[:loc[0]] + string(digits) + src[loc[1]:], pipeline.TierPatch
	case 1: // position shift: a comment line above everything
		return fmt.Sprintf("// edit %d\n%s", step, src), pipeline.TierReopt
	case 2: // shape: a new statement in main (emitted last, so the text's
		// final "}" closes it)
		i := strings.LastIndex(src, "}")
		if i < 0 {
			return src, ""
		}
		return src[:i] + fmt.Sprintf("  print(%d);\n", 4000+step) + src[i:], pipeline.TierSolve
	default: // structural: a new top-level function
		return src + fmt.Sprintf("func fz%d(x) { return x + %d; }\n", step, step), pipeline.TierCold
	}
}

// TestIncrementalEditFuzz is the incremental differential: random edit
// sequences over generated programs, where after every patch the
// session's result must be byte-identical — optimized IR, analysis dump,
// decisions, and run output — to a cold compile of the same source. The
// configs sweep both solvers plus the contour-overflow regime, where cold
// compilation itself may deterministically fail; then the session must
// fail identically and keep serving.
func TestIncrementalEditFuzz(t *testing.T) {
	configs := []struct {
		name    string
		cfg     pipeline.Config
		mayFail bool // starved MaxContours: inline transform may not converge
	}{
		{"worklist", pipeline.Config{Mode: pipeline.ModeInline}, false},
		{"sweep", pipeline.Config{Mode: pipeline.ModeInline,
			Analysis: analysis.Options{Solver: analysis.SolverSweep}}, false},
		{"starved", pipeline.Config{Mode: pipeline.ModeInline,
			Analysis: analysis.Options{MaxContours: 17}}, true},
	}
	const numSeeds = 24
	const numEdits = 6
	for seed := 0; seed < numSeeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%02d", seed), func(t *testing.T) {
			g := &progGen{r: rand.New(rand.NewSource(int64(1000 + seed)))}
			base := g.generate()
			for _, c := range configs {
				c := c
				t.Run(c.name, func(t *testing.T) {
					sess, _, err := pipeline.NewSession("fuzz.icc", base, c.cfg)
					if err != nil {
						if c.mayFail {
							t.Skipf("base does not converge when starved: %v", err)
						}
						t.Fatalf("new session: %v\nprogram:\n%s", err, base)
					}
					r := rand.New(rand.NewSource(int64(9000 + seed)))
					src := base
					// failed tracks a rejected patch: the session marks itself
					// stale and the next accepted edit rebuilds cold, so tier
					// expectations pause until then.
					failed := false
					for step := 0; step < numEdits; step++ {
						next, wantTier := mutate(r, src, step)
						src = next
						warm, st, err := sess.Patch(src)
						cold, coldErr := pipeline.Compile("fuzz.icc", src, c.cfg)
						if err != nil || coldErr != nil {
							if !c.mayFail {
								t.Fatalf("step %d: patch err=%v cold err=%v\nprogram:\n%s", step, err, coldErr, src)
							}
							// Determinism: the session must fail exactly when and
							// how the cold compile fails.
							if fmt.Sprint(err) != fmt.Sprint(coldErr) {
								t.Fatalf("step %d: patch err %q != cold err %q\nprogram:\n%s", step, err, coldErr, src)
							}
							failed = true
							continue
						}
						if wantTier != "" && !failed && st.Tier != wantTier {
							t.Errorf("step %d: tier = %q, want %q (stats %+v)", step, st.Tier, wantTier, st)
						}
						failed = false
						if w, cf := fuzzFingerprint(t, warm), fuzzFingerprint(t, cold); w != cf {
							t.Fatalf("step %d (%s): session diverged from cold compile\nprogram:\n%s\n--- warm ---\n%s\n--- cold ---\n%s",
								step, st.Tier, src, w, cf)
						}
					}
				})
			}
		})
	}
}
