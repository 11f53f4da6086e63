package analysis_test

// Differential tests holding the worklist solver to byte-identical
// results against the reference sweep solver — the correctness argument
// (solver.go) promises not just an equal fixpoint but the same contour
// and tag IDs, so the full Result dumps must match exactly.

import (
	"fmt"
	"strings"
	"testing"

	"objinline/internal/analysis"
	"objinline/internal/bench"
	"objinline/internal/core"
)

// analyzeBoth runs both solvers on freshly lowered copies of
// src and returns (worklist, sweep) results.
func analyzeBoth(t *testing.T, src string, opts analysis.Options) (*analysis.Result, *analysis.Result) {
	t.Helper()
	optsW, optsS := opts, opts
	optsW.Solver = analysis.SolverWorklist
	optsS.Solver = analysis.SolverSweep
	rw := analysis.Analyze(compile(t, src), optsW)
	rs := analysis.Analyze(compile(t, src), optsS)
	return rw, rs
}

// TestSolverDifferentialBench asserts that on every bundled benchmark, at
// both Tags settings, the two solvers produce identical reportable output
// (the full contour/field-state dump) and identical inlining decisions —
// while the worklist applies no more instruction evaluations than the
// sweep.
func TestSolverDifferentialBench(t *testing.T) {
	for _, p := range bench.Programs {
		for _, tags := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/tags=%v", p.Name, tags), func(t *testing.T) {
				src, err := p.Source(bench.VariantAuto, bench.ScaleSmall)
				if err != nil {
					t.Fatalf("source: %v", err)
				}
				rw, rs := analyzeBoth(t, src, analysis.Options{Tags: tags})

				if dw, ds := rw.String(), rs.String(); dw != ds {
					t.Fatalf("solver dumps differ\nworklist:\n%s\nsweep:\n%s", dw, ds)
				}
				if rw.Passes != rs.Passes {
					t.Errorf("passes: worklist=%d sweep=%d", rw.Passes, rs.Passes)
				}
				if rw.Work.InstrEvals > rs.Work.InstrEvals {
					t.Errorf("worklist did more instruction evals than the sweep: %d > %d",
						rw.Work.InstrEvals, rs.Work.InstrEvals)
				}
				if rw.Work.InstrEvals == 0 || rs.Work.InstrEvals == 0 {
					t.Errorf("work counters not populated: worklist=%d sweep=%d",
						rw.Work.InstrEvals, rs.Work.InstrEvals)
				}

				// The decision layer must agree too (it consumes contour
				// identity, tags, and edges — everything the dump covers,
				// but through its own resolution logic).
				ow, err := core.Optimize(rw.Prog, rw, core.Options{Inline: tags})
				if err != nil {
					t.Fatalf("optimize(worklist): %v", err)
				}
				os, err := core.Optimize(rs.Prog, rs, core.Options{Inline: tags})
				if err != nil {
					t.Fatalf("optimize(sweep): %v", err)
				}
				if tags {
					kw := fieldKeyStrings(ow.Decision.InlinedKeys())
					ks := fieldKeyStrings(os.Decision.InlinedKeys())
					if kw != ks {
						t.Errorf("inlining decisions differ:\nworklist: %s\nsweep:    %s", kw, ks)
					}
				}
			})
		}
	}
}

// TestSolverDifferentialOverflow holds the solvers to identical results
// in the MaxContours-overflow regime. Once the contour list fills up,
// getMC coerces split keys to the base contour — a behavior change driven
// by the contour *count*, which no VarState dependency observes — so the
// worklist must globally re-dirty call sites at the transition (see
// redirtyCallSites). Small caps force the transition on every program.
func TestSolverDifferentialOverflow(t *testing.T) {
	overflowed := false
	for _, p := range bench.Programs {
		for _, tags := range []bool{false, true} {
			for _, max := range []int{3, 5, 17, 33} {
				t.Run(fmt.Sprintf("%s/tags=%v/max=%d", p.Name, tags, max), func(t *testing.T) {
					src, err := p.Source(bench.VariantAuto, bench.ScaleSmall)
					if err != nil {
						t.Fatalf("source: %v", err)
					}
					rw, rs := analyzeBoth(t, src, analysis.Options{Tags: tags, MaxContours: max})
					if rw.Overflowed != rs.Overflowed {
						t.Fatalf("overflow flags differ: worklist=%v sweep=%v", rw.Overflowed, rs.Overflowed)
					}
					if rw.Overflowed {
						overflowed = true
					}
					if dw, ds := rw.String(), rs.String(); dw != ds {
						t.Fatalf("solver dumps differ at MaxContours=%d (overflowed=%v)\nworklist:\n%s\nsweep:\n%s",
							max, rw.Overflowed, dw, ds)
					}
					if rw.Work.InstrEvals > rs.Work.InstrEvals {
						t.Errorf("worklist did more instruction evals than the sweep: %d > %d",
							rw.Work.InstrEvals, rs.Work.InstrEvals)
					}
				})
			}
		}
	}
	if !overflowed {
		t.Error("no case reported Overflowed=true; the caps are too large to exercise the transition")
	}
}

func fieldKeyStrings(keys []analysis.FieldKey) string {
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = k.String()
	}
	return strings.Join(parts, ", ")
}

// chainSrc needs several fixpoint rounds: return values propagate back
// through a three-deep call chain one round at a time.
const chainSrc = `
class Box { v; def init(v) { self.v = v; } def get() { return self.v; } }
func h() { return new Box(7); }
func g() { return h(); }
func f() { return g(); }
func main() { print(f().get()); }
`

// TestLongChainReachesFixpoint: the return value of a 1,000-call chain
// travels one call level per round, so a pass runs past 1,000 rounds.
// Both solvers iterate until a round changes nothing, however many rounds
// that takes, and agree byte for byte; main's h.p then holds the P its
// get call dispatches to.
func TestLongChainReachesFixpoint(t *testing.T) {
	var b strings.Builder
	b.WriteString("class P { v; def init(v) { self.v = v; } def get() { return self.v; } }\n")
	b.WriteString("class H { p; def init() { } }\nfunc f999() { return new P(7); }\n")
	for i := 998; i >= 0; i-- {
		fmt.Fprintf(&b, "func f%d() { return f%d(); }\n", i, i+1)
	}
	b.WriteString("func main() { var h = new H(); h.p = f0(); print(h.p.get()); }\n")
	src := b.String()
	dumps := map[string]string{}
	for _, solver := range []string{analysis.SolverWorklist, analysis.SolverSweep} {
		t.Run(solver, func(t *testing.T) {
			res := analysis.Analyze(compile(t, src), analysis.Options{Tags: true, Solver: solver})
			if res.Work.Rounds <= 1000*res.Passes {
				t.Errorf("%d rounds over %d passes; no pass took more than 1,000 rounds",
					res.Work.Rounds, res.Passes)
			}
			dump := res.String()
			if !strings.Contains(dump, "contour P::get[") {
				t.Errorf("main's h.p.get() reached no P::get contour")
			}
			dumps[solver] = dump
		})
	}
	if dw, ds := dumps[analysis.SolverWorklist], dumps[analysis.SolverSweep]; dw != ds {
		t.Fatalf("solver dumps differ\nworklist:\n%s\nsweep:\n%s", dw, ds)
	}
}

// TestSolverDefault asserts the worklist is the default solver and that
// options normalize it explicitly.
func TestSolverDefault(t *testing.T) {
	o := analysis.Options{}.WithDefaults()
	if o.Solver != analysis.SolverWorklist {
		t.Errorf("default solver = %q, want %q", o.Solver, analysis.SolverWorklist)
	}
	res := analysis.Analyze(compile(t, chainSrc), analysis.Options{})
	if got := res.Opts.Solver; got != analysis.SolverWorklist {
		t.Errorf("Opts.Solver = %q, want %q", got, analysis.SolverWorklist)
	}
	if res.Work.Enqueues == 0 {
		t.Errorf("worklist run recorded no enqueues")
	}
}

// TestWorkCountersPopulated checks both solvers report their effort:
// rounds, contour evaluations and instruction evaluations are all
// nonzero on a program that needs more than one round.
func TestWorkCountersPopulated(t *testing.T) {
	for _, solver := range []string{analysis.SolverWorklist, analysis.SolverSweep} {
		w := analysis.Analyze(compile(t, chainSrc), analysis.Options{Solver: solver}).Work
		if w.Rounds == 0 || w.ContourEvals == 0 || w.InstrEvals == 0 {
			t.Errorf("%s: unpopulated work counters %+v", solver, w)
		}
	}
}
