package bench

// The analysis-phase benchmark: times the contour analysis alone (no VM
// execution) on every benchmark program, at both Tags settings, under
// both solvers, and reports the solver work counters alongside wall
// time. `objbench
// -fig analysis` prints the table; `-json` (and the `make bench-analysis`
// target) emits it as BENCH_analysis.json.

import (
	"fmt"
	"io"
	"time"

	"objinline/internal/analysis"
	"objinline/internal/ir"
	"objinline/internal/pipeline"
)

// AnalysisBenchRow is one (program, tags, solver) timing.
type AnalysisBenchRow struct {
	Program string
	Tags    bool
	Solver  string
	// NsPerOp is the wall time of one full Analyze call (all refinement
	// passes), averaged over enough iterations to be stable.
	NsPerOp int64
	Iters   int
	// Work counters and contour stats of one run (deterministic).
	Rounds         int
	ContourEvals   int
	InstrEvals     int
	PartialEvals   int
	Enqueues       int
	MethodContours int
	Passes         int
	Converged      bool
	// Speedup is sweep-ns / this-row-ns for the same (program, tags);
	// 1.0 on the sweep rows themselves.
	Speedup float64
}

// analysisBenchMinTime is the per-configuration timing budget: enough for
// stable averages on the container-sized machines the harness targets,
// small enough that the full suite stays interactive.
const analysisBenchMinTime = 100 * time.Millisecond

// measureAnalysis times Analyze on prog until minTime has elapsed (at
// least 2 iterations) and fills a row from the last result.
func measureAnalysis(name string, prog *ir.Program, opts analysis.Options, minTime time.Duration) AnalysisBenchRow {
	var res *analysis.Result
	iters := 0
	var elapsed time.Duration
	for elapsed < minTime || iters < 2 {
		start := time.Now()
		res = analysis.Analyze(prog, opts)
		elapsed += time.Since(start)
		iters++
	}
	st := res.Stats()
	return AnalysisBenchRow{
		Program:        name,
		Tags:           opts.Tags,
		Solver:         opts.WithDefaults().Solver,
		NsPerOp:        elapsed.Nanoseconds() / int64(iters),
		Iters:          iters,
		Rounds:         st.Work.Rounds,
		ContourEvals:   st.Work.ContourEvals,
		InstrEvals:     st.Work.InstrEvals,
		PartialEvals:   st.Work.PartialEvals,
		Enqueues:       st.Work.Enqueues,
		MethodContours: st.MethodContours,
		Passes:         st.Passes,
		Converged:      st.Converged,
	}
}

// AnalysisBench times the analysis phase for every benchmark program at
// both Tags settings under both solvers. The lowered input programs come
// from the engine's memoized direct-mode compilations; the analysis runs
// themselves are timed sequentially for stable numbers. Scale only picks
// the workload constants substituted into the source, which the static
// analysis never looks at, so rows are scale-independent.
func (e *Engine) AnalysisBench(scale Scale) ([]AnalysisBenchRow, error) {
	var rows []AnalysisBenchRow
	for _, p := range Programs {
		c, err := e.Compile(p, VariantAuto, scale, pipeline.Config{Mode: pipeline.ModeDirect})
		if err != nil {
			return nil, err
		}
		for _, tags := range []bool{false, true} {
			sweepNs := int64(0)
			for _, solver := range []string{analysis.SolverSweep, analysis.SolverWorklist} {
				row := measureAnalysis(p.Name, c.Source,
					analysis.Options{Tags: tags, Solver: solver}, analysisBenchMinTime)
				if solver == analysis.SolverSweep {
					sweepNs = row.NsPerOp
				}
				if row.NsPerOp > 0 {
					row.Speedup = float64(sweepNs) / float64(row.NsPerOp)
				}
				rows = append(rows, row)
			}
		}
	}
	return rows, nil
}

// PrintAnalysisBench renders the analysis-phase benchmark table.
func PrintAnalysisBench(w io.Writer, rows []AnalysisBenchRow) {
	fmt.Fprintln(w, "Analysis-phase benchmark: solver comparison (ns per full Analyze)")
	fmt.Fprintf(w, "  %-14s %-5s %-8s %12s %8s %10s %12s %10s %10s %8s\n",
		"program", "tags", "solver", "ns/op", "rounds", "evals(mc)", "evals(instr)", "partials", "enqueues", "speedup")
	for _, r := range rows {
		tags := "off"
		if r.Tags {
			tags = "on"
		}
		mark := ""
		if !r.Converged {
			mark = "  UNCONVERGED"
		}
		fmt.Fprintf(w, "  %-14s %-5s %-8s %12d %8d %10d %12d %10d %10d %7.2fx%s\n",
			r.Program, tags, r.Solver, r.NsPerOp, r.Rounds, r.ContourEvals, r.InstrEvals, r.PartialEvals, r.Enqueues, r.Speedup, mark)
	}
}
