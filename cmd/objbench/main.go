// Command objbench regenerates the paper's evaluation: every table and
// figure of §6 plus the ablations documented in DESIGN.md.
//
// Figures are computed concurrently on a shared measurement engine
// (internal/bench) that memoizes compilations and executions, so -fig all
// builds each configuration exactly once; tables are printed in figure
// order from submission-ordered rows, making the output byte-identical at
// any -jobs setting.
//
// Usage:
//
//	objbench [-fig 14|15|16|17|A1|A2|A3|payoff|calibration|all] [-scale small|medium|default]
//	         [-jobs N] [-json] [-stats] [-cpuprofile f] [-memprofile f]
//
// "payoff" joins profiled inlining-on/off runs into a per-field table of
// measured savings (`make payoff` emits it as BENCH_payoff.json).
// Compile, execution, editing-session and service timings are perfbench's
// job (perfbench/README.md), not objbench's.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"

	"objinline/internal/bench"
)

// figure is one regenerable table: its -fig name, how to compute its rows
// on the engine, and how to render them as text.
type figure struct {
	name    string
	compute func(*bench.Engine, bench.Scale) (any, error)
	print   func(io.Writer, any)
	// explicitOnly excludes the figure from -fig all (figures that build
	// binaries or keep their own run cache).
	explicitOnly bool
}

// figures lists every figure in the paper's reporting order (the order
// tables are printed, whatever order they finish computing in).
var figures = []figure{
	{
		name:    "14",
		compute: func(e *bench.Engine, s bench.Scale) (any, error) { return e.Fig14(s) },
		print:   func(w io.Writer, rows any) { bench.PrintFig14(w, rows.([]bench.Fig14Row)) },
	},
	{
		name:    "15",
		compute: func(e *bench.Engine, s bench.Scale) (any, error) { return e.Fig15(s) },
		print:   func(w io.Writer, rows any) { bench.PrintFig15(w, rows.([]bench.Fig15Row)) },
	},
	{
		name:    "16",
		compute: func(e *bench.Engine, s bench.Scale) (any, error) { return e.Fig16(s) },
		print:   func(w io.Writer, rows any) { bench.PrintFig16(w, rows.([]bench.Fig16Row)) },
	},
	{
		name:    "17",
		compute: func(e *bench.Engine, s bench.Scale) (any, error) { return e.Fig17(s) },
		print:   func(w io.Writer, rows any) { bench.PrintFig17(w, rows.([]bench.Fig17Row)) },
	},
	{
		name:    "A1",
		compute: func(e *bench.Engine, s bench.Scale) (any, error) { return e.AblationLayout(s) },
		print: func(w io.Writer, rows any) {
			fmt.Fprintln(w, "Ablation A1: inlined-array layout (OOPACK)")
			for _, r := range rows.([]bench.AblationLayoutRow) {
				fmt.Fprintf(w, "  %-13s cycles=%d cache misses=%d\n", r.Layout, r.Cycles, r.CacheMisses)
			}
		},
	},
	{
		name:    "A2",
		compute: func(e *bench.Engine, s bench.Scale) (any, error) { return e.AblationCostModel(s) },
		print:   func(w io.Writer, rows any) { bench.PrintAblationCost(w, rows.([]bench.AblationCostRow)) },
	},
	{
		name:    "A3",
		compute: func(e *bench.Engine, s bench.Scale) (any, error) { return e.AblationTagDepth(s) },
		print: func(w io.Writer, rows any) {
			fmt.Fprintln(w, "Ablation A3: tag-depth cap vs fields inlined")
			for _, r := range rows.([]bench.AblationTagDepthRow) {
				fmt.Fprintf(w, "  %-14s depth=%d inlined=%d\n", r.Program, r.Depth, r.Inlined)
			}
		},
	},
	{
		// The cost-model cross-validation: predicted inlining speedups and
		// allocation deltas (VM) vs measured ones (native tier). Builds
		// and times real binaries, so explicit-only (`make
		// bench-calibration` emits BENCH_calibration.json).
		name: "calibration",
		compute: func(e *bench.Engine, s bench.Scale) (any, error) {
			return e.Calibration(s)
		},
		print:        func(w io.Writer, rows any) { bench.PrintCalibration(w, rows.(*bench.Calibration)) },
		explicitOnly: true,
	},
	{
		// Explicit-only not for timing reasons but because the profiled
		// runs live in their own cache: folding them into -fig all would
		// double every benchmark execution for figures that don't need
		// the attribution.
		name:         "payoff",
		compute:      func(e *bench.Engine, s bench.Scale) (any, error) { return e.PayoffAll(s) },
		print:        func(w io.Writer, rows any) { bench.PrintPayoff(w, rows.([]*bench.ProgramPayoff)) },
		explicitOnly: true,
	},
}

func main() {
	fig := flag.String("fig", "all", "which figure to regenerate: 14, 15, 16, 17, A1, A2, A3, payoff, calibration, or all")
	scaleName := flag.String("scale", "default", "workload scale: small, medium, or default")
	jobs := flag.Int("jobs", 0, "worker-pool size for the measurement engine (0 = GOMAXPROCS)")
	asJSON := flag.Bool("json", false, "emit machine-readable JSON instead of tables")
	stats := flag.Bool("stats", false, "report engine cache statistics on stderr")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file")
	flag.Parse()

	scale, err := bench.ParseScale(*scaleName)
	if err != nil {
		fatal(err)
	}

	var wanted []figure
	for _, f := range figures {
		if *fig == f.name || (*fig == "all" && !f.explicitOnly) {
			wanted = append(wanted, f)
		}
	}
	if len(wanted) == 0 {
		fatal(fmt.Errorf("unknown figure %q", *fig))
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}

	engine := bench.NewEngine(*jobs)

	// Compute every requested figure concurrently — the engine bounds the
	// parallelism and deduplicates shared configurations — then print in
	// figure order.
	results, err := bench.Collect(len(wanted), func(i int) (any, error) {
		return wanted[i].compute(engine, scale)
	})
	if err != nil {
		fatal(err)
	}

	if *asJSON {
		out := map[string]any{}
		for i, f := range wanted {
			out["fig"+f.name] = results[i]
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fatal(err)
		}
	} else {
		for i, f := range wanted {
			f.print(os.Stdout, results[i])
			fmt.Println()
		}
	}

	if *stats {
		s := engine.Stats()
		fmt.Fprintf(os.Stderr, "objbench: jobs=%d compiles=%d (hits %d) runs=%d (hits %d)\n",
			engine.Jobs(), s.Compiles, s.CompileHits, s.Runs, s.RunHits)
	}

	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "objbench:", err)
	os.Exit(1)
}
