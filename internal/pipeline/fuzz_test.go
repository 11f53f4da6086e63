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
	"objinline/internal/fuzzgen"
	"objinline/internal/pipeline"
)

func TestDifferentialFuzz(t *testing.T) {
	const numPrograms = 200
	for seed := 0; seed < numPrograms; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%02d", seed), func(t *testing.T) {
			src := fuzzgen.Program(int64(seed))

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
			base := fuzzgen.Program(int64(1000 + seed))
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
