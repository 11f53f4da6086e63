package bench

import (
	"fmt"
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
// the solver win visible directly in `go test -bench` output;
// TestSolverDifferentialBench (internal/analysis) holds the same grid to
// identical results.
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
