package bench

import (
	"fmt"
	"strings"
	"testing"

	"objinline/internal/analysis"
	"objinline/internal/ir"
	"objinline/internal/pipeline"
)

// lowerBench compiles one benchmark to its lowered (unanalyzed) program.
func lowerBench(tb testing.TB, p Program) *ir.Program {
	tb.Helper()
	src, err := p.Source(VariantAuto, ScaleSmall)
	if err != nil {
		tb.Fatalf("source: %v", err)
	}
	c, err := pipeline.Compile(p.Name+".icc", src, pipeline.Config{Mode: pipeline.ModeDirect})
	if err != nil {
		tb.Fatalf("compile: %v", err)
	}
	return c.Source
}

// BenchmarkAnalyze times the analysis phase per (program, tags, solver);
// `make bench-analysis` runs this suite. The worklist/sweep pairs make
// the solver win visible directly in `go test -bench` output.
func BenchmarkAnalyze(b *testing.B) {
	for _, p := range Programs {
		prog := lowerBench(b, p)
		for _, tags := range []bool{false, true} {
			for _, solver := range []string{analysis.SolverWorklist, analysis.SolverSweep} {
				name := fmt.Sprintf("%s/tags=%v/%s", p.Name, tags, solver)
				b.Run(name, func(b *testing.B) {
					opts := analysis.Options{Tags: tags, Solver: solver}
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						analysis.Analyze(prog, opts)
					}
				})
			}
		}
	}
}

// TestAnalysisBenchRows sanity-checks the harness-facing table: full
// coverage of the (program, tags, solver) grid, converged runs, populated
// counters, and a worklist that never does more instruction evaluations
// than the sweep it is differentially tested against.
func TestAnalysisBenchRows(t *testing.T) {
	if testing.Short() {
		t.Skip("timing loop")
	}
	e := NewEngine(1)
	rows, err := e.AnalysisBench(ScaleSmall)
	if err != nil {
		t.Fatalf("AnalysisBench: %v", err)
	}
	if want := len(Programs) * 2 * 2; len(rows) != want {
		t.Fatalf("got %d rows, want %d", len(rows), want)
	}
	bySweep := map[string]AnalysisBenchRow{}
	for _, r := range rows {
		if !r.Converged {
			t.Errorf("%s/tags=%v/%s did not converge", r.Program, r.Tags, r.Solver)
		}
		if r.NsPerOp <= 0 || r.InstrEvals <= 0 || r.ContourEvals <= 0 {
			t.Errorf("%s/tags=%v/%s: unpopulated row %+v", r.Program, r.Tags, r.Solver, r)
		}
		key := fmt.Sprintf("%s/%v", r.Program, r.Tags)
		switch r.Solver {
		case analysis.SolverSweep:
			bySweep[key] = r
		case analysis.SolverWorklist:
			sweep, ok := bySweep[key]
			if !ok {
				t.Fatalf("%s: worklist row before sweep row", key)
			}
			if r.InstrEvals > sweep.InstrEvals {
				t.Errorf("%s: worklist instr evals %d > sweep %d", key, r.InstrEvals, sweep.InstrEvals)
			}
			if r.MethodContours != sweep.MethodContours || r.Passes != sweep.Passes {
				t.Errorf("%s: solver results disagree: %+v vs %+v", key, r, sweep)
			}
		}
	}

	var b strings.Builder
	PrintAnalysisBench(&b, rows)
	for _, p := range Programs {
		if !strings.Contains(b.String(), p.Name) {
			t.Errorf("printed table is missing %s", p.Name)
		}
	}
}
