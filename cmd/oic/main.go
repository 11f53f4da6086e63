// Command oic is the object-inlining compiler driver: it compiles and runs
// Mini-ICC programs under the direct, baseline, or inlining pipeline and
// can dump the IR, the analysis state, the inlining decision, per-phase
// timings, a run's allocation-site profile, and the provenance of a single
// field's verdict.
//
// Usage:
//
//	oic [flags] program.icc
//	oic [flags] -              # read the program from stdin
//	oic [flags] bench:richards # compile a bundled benchmark program
//
// Flags:
//
//	-mode direct|baseline|inline   pipeline (default inline)
//	-engine vm|native              execution tier (default vm): native
//	                               emits the optimized IR as a Go
//	                               package, builds it, and runs the
//	                               binary, reporting real wall time and
//	                               allocator deltas instead of modeled
//	                               cycles
//	-reps N                        native engine: run the program body N
//	                               times in one process (printing muted
//	                               after the first) for stable timing
//	-emit-dir DIR                  native engine: keep the emitted Go
//	                               package and binary in DIR for
//	                               inspection
//	-timeout 5s                    abort compilation or execution after
//	                               this long (default: no limit); the
//	                               deadline is enforced inside the
//	                               analysis solvers and the VM step loop
//	-parallel                      use the parallel inlined-array layout
//	-dump ir|analysis|report       print internals instead of metrics
//	-explain Class.field           explain one field's inlining decision
//	-trace                         record and print per-phase compile times
//	-trace-out trace.json          write the phases as a Chrome trace-event
//	                               file (implies -trace); load it in
//	                               Perfetto (ui.perfetto.dev) or
//	                               chrome://tracing. Written on every exit
//	                               path, compile errors included.
//	-profile                       attribute the run's allocations and
//	                               cache misses to allocation sites and
//	                               Class.field paths
//	-json                          emit explain/metrics/stats/profile as JSON
//	-metrics                       print dynamic metrics after the run
//	-norun                         compile only
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"objinline"
	"objinline/internal/pipeline"
	"objinline/internal/server/api"
	"objinline/internal/trace"
)

// The -json output is the service's api.Envelope, shared by construction
// with oicd's endpoints so the two surfaces cannot drift apart; only the
// sections the flags requested are present.

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// run is the driver behind main, factored so tests can invoke the CLI
// in-process with captured streams and so every exit path — compile
// errors included — flows through the trace-file flush instead of
// bypassing it via os.Exit.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("oic", flag.ContinueOnError)
	fs.SetOutput(stderr)
	modeName := fs.String("mode", "inline", "pipeline: direct, baseline, or inline")
	engineName := fs.String("engine", "", "execution engine: vm (default) or native")
	reps := fs.Int("reps", 0, "native engine: repetitions inside one process (0 = 1)")
	emitDir := fs.String("emit-dir", "", "native engine: keep the emitted Go package here")
	timeout := fs.Duration("timeout", 0, "abort compilation or execution after this long (0 = no limit)")
	parallel := fs.Bool("parallel", false, "use the parallel inlined-array layout")
	dump := fs.String("dump", "", "dump internals: ir, analysis, or report")
	explain := fs.String("explain", "", "explain one field's inlining decision (e.g. Rectangle.lower_left)")
	doTrace := fs.Bool("trace", false, "record per-phase compile (and run) times")
	traceOut := fs.String("trace-out", "", "write phases as a Chrome trace-event file (implies -trace)")
	profile := fs.Bool("profile", false, "attribute the run to allocation sites and field paths")
	asJSON := fs.Bool("json", false, "emit explain/metrics/stats/profile as JSON on stdout")
	metrics := fs.Bool("metrics", false, "print dynamic metrics after the run")
	noRun := fs.Bool("norun", false, "compile only; do not execute")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: oic [flags] program.icc   (use - to read from stdin)")
		fs.Usage()
		return 2
	}
	file := fs.Arg(0)

	fail := func(err error) int {
		fmt.Fprintln(stderr, "oic:", err)
		return 1
	}

	// The trace sink is owned here, not by the Program, so whatever phases
	// completed are exported even when a later stage fails. The deferred
	// flush writes the Chrome trace (or removes a stale file) on every
	// return past this point.
	var sink *objinline.TraceSink
	var opts []objinline.Option
	if *doTrace || *traceOut != "" {
		sink = &objinline.TraceSink{}
		opts = append(opts, objinline.WithTraceSink(sink))
	}
	if *traceOut != "" {
		defer func() {
			if err := writeTraceFile(*traceOut, sink); err != nil {
				fmt.Fprintln(stderr, "oic:", err)
				if code == 0 {
					code = 1
				}
			}
		}()
	}

	var src []byte
	var err error
	if file == "-" {
		// The conventional stdin name: pipe a program straight in
		// (`generate | oic -json -`). The label matches what the
		// diagnostics and source positions will say.
		file = "<stdin>"
		src, err = io.ReadAll(stdin)
	} else if name, ok := strings.CutPrefix(file, "bench:"); ok {
		// A bundled benchmark by name ("bench:richards"); the label keeps
		// the scheme so diagnostics say where the source came from.
		var text string
		text, err = objinline.BenchmarkSource(name, false)
		src = []byte(text)
	} else {
		src, err = os.ReadFile(file)
	}
	if err != nil {
		return fail(err)
	}

	mode, err := objinline.ParseMode(*modeName)
	if err != nil {
		return fail(err)
	}
	engine, err := pipeline.ParseEngine(*engineName)
	if err != nil {
		return fail(err)
	}
	if engine == objinline.EngineNative && *profile {
		return fail(objinline.ErrProfileNeedsVM)
	}
	cfg := objinline.Config{Mode: mode, ParallelArrays: *parallel}

	// The -timeout budget is one end-to-end deadline across compilation
	// and execution, enforced inside the analysis solvers and the VM step
	// loop — a pathological program cannot blow past it in either place.
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	deadlined := func(err error) int {
		return fail(fmt.Errorf("exceeded the -timeout budget of %v: %w", *timeout, err))
	}

	prog, err := objinline.CompileContext(ctx, file, string(src), cfg, opts...)
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			return deadlined(err)
		}
		return fail(err)
	}

	switch *dump {
	case "ir":
		fmt.Fprint(stdout, prog.IR())
		return 0
	case "analysis":
		fmt.Fprint(stdout, prog.AnalysisReport())
		return 0
	case "report":
		fmt.Fprint(stdout, prog.Report())
		return 0
	case "":
	default:
		return fail(fmt.Errorf("unknown dump kind %q", *dump))
	}

	env := api.Envelope{File: file, Mode: prog.Mode().String(), CodeSize: prog.CodeSize()}
	if *asJSON {
		env.Inlined = prog.InlinedFields()
		env.Rejected = prog.RejectedFields()
	}

	if *explain != "" {
		d, err := prog.Explain(*explain)
		if err != nil {
			return fail(err)
		}
		if *asJSON {
			env.Explain = &d
		} else {
			printExplain(stdout, d)
		}
	}

	// A program being explained is being inspected, not executed;
	// everything else runs unless -norun.
	doRun := !*noRun && *explain == ""
	if doRun {
		// Under -json, stdout must be exactly the envelope; the program's
		// own output moves to stderr.
		out := stdout
		if *asJSON {
			out = stderr
		}
		res, err := prog.Execute(ctx, objinline.RunOptions{
			Output:     out,
			Profile:    *profile,
			Engine:     engine,
			NativeReps: *reps,
			EmitDir:    *emitDir,
		})
		if err != nil {
			if errors.Is(err, context.DeadlineExceeded) {
				return deadlined(err)
			}
			return fail(err)
		}
		if *asJSON {
			env.Engine = res.Engine.String()
			env.Metrics = res.Metrics
			env.Native = res.Native
			env.Profile = res.Profile
		} else {
			if *metrics && res.Metrics != nil {
				printMetrics(stderr, *res.Metrics)
			}
			if *metrics && res.Native != nil {
				printNativeMetrics(stderr, res.Native)
			}
			if *profile {
				printProfile(stderr, res.Profile)
			}
		}
	} else if !*asJSON && *explain == "" {
		fmt.Fprintf(stderr, "compiled %s: %d instructions\n", file, prog.CodeSize())
	}

	// The envelope always carries the compile stats under -json: the
	// analysis work counters (solver effort) are recorded unconditionally,
	// and phase timings join them when -trace is on.
	if *asJSON {
		st := prog.CompileStats()
		env.Stats = &st
	} else if *doTrace {
		st := prog.CompileStats()
		trace.WriteTable(stderr, st.Phases)
	}

	if *asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(env); err != nil {
			return fail(err)
		}
	}
	return 0
}

// writeTraceFile serializes the sink's events as a Chrome trace. With no
// events recorded (tracing requested but nothing ran — bad flags, say) a
// stale file from an earlier invocation is removed rather than left lying
// around to mislead.
func writeTraceFile(path string, sink *objinline.TraceSink) error {
	events := sink.Events()
	if len(events) == 0 {
		if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("trace-out: %w", err)
		}
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace-out: %w", err)
	}
	werr := objinline.WriteChromeTrace(f, events)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return fmt.Errorf("trace-out: %w", werr)
	}
	return nil
}

func printExplain(w io.Writer, d objinline.Decision) {
	fmt.Fprintf(w, "%s: %s", d.Field, d.Verdict)
	if d.Code != "" && d.Verdict != objinline.VerdictInlined {
		fmt.Fprintf(w, " [%s]", d.Code)
	}
	fmt.Fprintln(w)
	if d.Reason != "" {
		fmt.Fprintf(w, "  reason: %s\n", d.Reason)
	}
	for _, s := range d.Evidence {
		fmt.Fprintf(w, "  - %s", s.What)
		if s.Where != "" {
			fmt.Fprintf(w, " @ %s", s.Where)
		}
		if s.Detail != "" {
			fmt.Fprintf(w, ": %s", s.Detail)
		}
		fmt.Fprintln(w)
	}
}

func printMetrics(w io.Writer, m objinline.Metrics) {
	fmt.Fprintf(w, "cycles: %d\n", m.Cycles)
	fmt.Fprintf(w, "instructions: %d\n", m.Instructions)
	fmt.Fprintf(w, "dereferences: %d (dynamic lookups %d)\n", m.Dereferences, m.DynFieldLookups)
	fmt.Fprintf(w, "dispatches: %d, static calls: %d\n", m.Dispatches, m.StaticCalls)
	fmt.Fprintf(w, "heap objects: %d, stack temporaries: %d, arrays: %d (%d bytes)\n",
		m.ObjectsAllocated, m.StackAllocated, m.ArraysAllocated, m.BytesAllocated)
	fmt.Fprintf(w, "cache: %d hits, %d misses\n", m.CacheHits, m.CacheMisses)
}

func printNativeMetrics(w io.Writer, n *objinline.NativeMetrics) {
	fmt.Fprintf(w, "native wall time: %v over %d reps (build %v)\n",
		time.Duration(n.WallNanos), n.Reps, time.Duration(n.BuildNanos))
	fmt.Fprintf(w, "native allocations: %d (%d bytes)\n", n.Mallocs, n.AllocBytes)
}

func printProfile(w io.Writer, p *objinline.RunProfile) {
	if p == nil {
		return
	}
	fmt.Fprintf(w, "heap peak: %d bytes; dispatch: %d header reads, %d misses\n",
		p.HeapPeakBytes, p.DispatchAccesses, p.DispatchMisses)
	fmt.Fprintf(w, "%-24s %-12s %8s %8s %10s %10s %8s\n",
		"site", "class", "allocs", "stack", "bytes", "accesses", "misses")
	for _, s := range p.Sites {
		name := s.Class
		if s.Array {
			name = "[array]"
			if s.Class != "" {
				name = "[]" + s.Class
			}
		}
		fmt.Fprintf(w, "%-24s %-12s %8d %8d %10d %10d %8d\n",
			s.Pos, name, s.Allocs, s.StackAllocs, s.Bytes, s.Accesses, s.Misses)
	}
	fmt.Fprintf(w, "%-24s %8s %8s %8s\n", "field path", "reads", "writes", "misses")
	for _, f := range p.Fields {
		fmt.Fprintf(w, "%-24s %8d %8d %8d\n", f.Class+"."+f.Field, f.Reads, f.Writes, f.Misses)
	}
}
