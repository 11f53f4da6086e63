// Package pipeline wires the whole compiler together: parse → semantic
// analysis → lowering → contour analysis → cloning/inlining → VM. It is
// the implementation behind the public objinline API and the experiment
// harness.
package pipeline

import (
	"context"
	"fmt"

	"objinline/internal/analysis"
	"objinline/internal/core"
	"objinline/internal/funcinline"
	"objinline/internal/ir"
	"objinline/internal/lang/parser"
	"objinline/internal/lang/sem"
	"objinline/internal/lower"
	"objinline/internal/peephole"
	"objinline/internal/trace"
	"objinline/internal/vm"
)

// Mode selects how much optimization runs before execution.
type Mode int

// Pipeline modes, mirroring the paper's three measured configurations.
const (
	// ModeDirect runs the lowered program as-is: the unoptimized uniform
	// object model (every field access resolves by name, every call
	// dispatches dynamically).
	ModeDirect Mode = iota
	// ModeBaseline runs Concert-style type inference + cloning without
	// object inlining (the paper's "Concert Without Inlining" bars).
	ModeBaseline
	// ModeInline additionally runs object inlining (the paper's "Concert
	// With Inlining" bars).
	ModeInline
)

func (m Mode) String() string {
	switch m {
	case ModeDirect:
		return "direct"
	case ModeBaseline:
		return "baseline"
	default:
		return "inline"
	}
}

// Config configures a compilation.
type Config struct {
	Mode        Mode
	ArrayLayout core.Layout
	// Analysis tweaks (zero values mean defaults).
	Analysis analysis.Options
	// Trace, when non-nil, receives one event per compilation phase
	// (wall time plus per-phase counters). A nil sink costs nothing.
	Trace *trace.Sink
}

// Compiled is a ready-to-run program plus everything the harness measures.
type Compiled struct {
	Source   *ir.Program // the lowered, unoptimized program
	Prog     *ir.Program // the program that will execute
	Analysis *analysis.Result
	Optimize *core.Result
	Mode     Mode
	// Trace is the sink the compilation reported its phases to (nil when
	// tracing was off). Run appends the VM's run phase to the same sink.
	Trace *trace.Sink
}

// Compile compiles Mini-ICC source through the configured pipeline.
func Compile(file, src string, cfg Config) (*Compiled, error) {
	return CompileContext(context.Background(), file, src, cfg)
}

// CompileContext is Compile with cancellation: the context is checked
// between phases and after the last one, and threaded into the contour
// analysis (whose fixpoint solvers poll it between contour evaluations),
// so a compile of an adversarial or pathological input stops within a
// bounded amount of work of the deadline, and one that finishes past it
// returns no Compiled. A canceled compilation returns an error wrapping
// ctx.Err(); whatever phase events completed remain on cfg.Trace.
func CompileContext(ctx context.Context, file, src string, cfg Config) (*Compiled, error) {
	info, err := frontEnd(ctx, file, src, cfg.Trace)
	if err != nil {
		return nil, err
	}
	sp := cfg.Trace.Start(trace.PhaseLower)
	prog, err := lower.Lower(info)
	if err != nil {
		sp.End()
		return nil, fmt.Errorf("lower: %w", err)
	}
	sp.Counter("instrs", int64(prog.CodeSize()))
	sp.End()
	return compileLowered(ctx, prog, nil, cfg)
}

// canceled wraps ctx's error as a canceled compile, or is nil while ctx
// is live.
func canceled(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("compile canceled: %w", err)
	}
	return nil
}

// frontEnd parses and checks src, one traced phase each, polling ctx
// before, between and after them. It is the shared front half of
// CompileContext and Session patches.
func frontEnd(ctx context.Context, file, src string, tr *trace.Sink) (*sem.Info, error) {
	if err := canceled(ctx); err != nil {
		return nil, err
	}
	sp := tr.Start(trace.PhaseParse)
	tree, err := parser.Parse(file, src)
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("parse: %w", err)
	}
	if err := canceled(ctx); err != nil {
		return nil, err
	}
	sp = tr.Start(trace.PhaseCheck)
	info, err := sem.Check(tree)
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("check: %w", err)
	}
	if err := canceled(ctx); err != nil {
		return nil, err
	}
	return info, nil
}

// compileLowered runs every phase after lowering: contour analysis (unless
// prior is supplied — the incremental patch tier passes a still-valid prior
// Result), then optimize → funcinline → peephole. It is the shared back
// half of CompileContext and Session recompiles; the input program is
// treated as read-only (the optimizer materializes a fresh output program),
// which is what lets a Session retain it across edits.
func compileLowered(ctx context.Context, prog *ir.Program, prior *analysis.Result, cfg Config) (*Compiled, error) {
	tr := cfg.Trace
	c := &Compiled{Source: prog, Prog: prog, Mode: cfg.Mode, Trace: tr}
	if cfg.Mode == ModeDirect {
		// A compile that finishes past its deadline is canceled, not late.
		if err := canceled(ctx); err != nil {
			return nil, err
		}
		return c, nil
	}

	res := prior
	if res == nil {
		var err error
		res, err = analyzePhase(ctx, prog, cfg)
		if err != nil {
			return nil, err
		}
	}
	c.Analysis = res

	if err := canceled(ctx); err != nil {
		return nil, err
	}
	sp := tr.Start(trace.PhaseOptimize)
	opt, err := core.Optimize(prog, res, core.Options{
		Inline:      cfg.Mode == ModeInline,
		ArrayLayout: cfg.ArrayLayout,
	})
	if err != nil {
		sp.End()
		return nil, fmt.Errorf("optimize: %w", err)
	}
	sp.Counter("attempts", int64(opt.Attempts))
	sp.Counter("clones", int64(opt.CloneStats.ClonesAdded))
	sp.Counter("class-versions", int64(opt.ClassVersions))
	if d := opt.Decision; d != nil {
		sp.Counter("inlined", int64(len(d.Inlined)))
		sp.Counter("rejected", int64(len(d.Rejected)))
	}
	sp.End()
	c.Optimize = opt
	c.Prog = opt.Prog

	// Post-specialization cleanup, applied identically to both optimized
	// pipelines (never to ModeDirect, the unoptimized reference): small
	// specialized methods are absorbed into their callers (§6.2.1's "most
	// of the specialized methods are inlined"), then the peephole pass
	// sweeps up the debris.
	if err := canceled(ctx); err != nil {
		return nil, err
	}
	sp = tr.Start(trace.PhaseFuncInline)
	funcinline.Program(c.Prog, funcinline.DefaultOptions)
	sp.Counter("instrs", int64(c.Prog.CodeSize()))
	sp.End()
	if err := c.Prog.Verify(); err != nil {
		return nil, fmt.Errorf("function inlining broke the program: %w", err)
	}
	if err := canceled(ctx); err != nil {
		return nil, err
	}
	sp = tr.Start(trace.PhasePeephole)
	peephole.Program(c.Prog)
	sp.Counter("instrs", int64(c.Prog.CodeSize()))
	sp.End()
	if err := c.Prog.Verify(); err != nil {
		return nil, fmt.Errorf("peephole broke the program: %w", err)
	}
	if err := canceled(ctx); err != nil {
		return nil, err
	}
	return c, nil
}

// analyzePhase runs the contour analysis with phase tracing.
func analyzePhase(ctx context.Context, prog *ir.Program, cfg Config) (*analysis.Result, error) {
	tr := cfg.Trace
	aopts := cfg.Analysis
	aopts.Tags = cfg.Mode == ModeInline
	sp := tr.Start(trace.PhaseAnalysis)
	res, err := analysis.AnalyzeContext(ctx, prog, aopts)
	if err != nil {
		sp.End()
		return nil, err
	}
	if tr != nil {
		st := res.Stats()
		sp.Counter("method-contours", int64(st.MethodContours))
		sp.Counter("obj-contours", int64(st.ObjContours))
		sp.Counter("passes", int64(st.Passes))
		sp.Counter("instr-evals", int64(st.Work.InstrEvals))
		// Worklist-solver progress, for the Chrome/Perfetto export.
		sp.Counter("rounds", int64(st.Work.Rounds))
		sp.Counter("contour-evals", int64(st.Work.ContourEvals))
		sp.Counter("enqueues", int64(st.Work.Enqueues))
	}
	sp.End()
	return res, nil
}

// RunOptions configures one execution: the VM's options, with a nil
// Trace falling back to the compilation's sink (which may itself be nil).
type RunOptions = vm.Options

// Run executes the compiled program and returns its dynamic counters.
func (c *Compiled) Run(opts RunOptions) (vm.Counters, error) {
	return c.RunContext(context.Background(), opts)
}

// RunContext is Run with cancellation: the VM's step loop polls the
// context, so an infinite loop returns an error wrapping ctx.Err() within
// microseconds of the deadline (see vm.Machine.RunContext).
func (c *Compiled) RunContext(ctx context.Context, opts RunOptions) (vm.Counters, error) {
	if opts.Trace == nil {
		opts.Trace = c.Trace
	}
	return vm.New(c.Prog, opts).RunContext(ctx)
}

// CodeSize returns the executable program's instruction count (the
// Figure 15 metric).
func (c *Compiled) CodeSize() int { return c.Prog.CodeSize() }
