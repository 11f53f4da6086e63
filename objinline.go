// Package objinline is a from-scratch reproduction of "Automatic Inline
// Allocation of Objects" (Julian Dolby, PLDI 1997): a compiler for a small
// uniform-object-model language (Mini-ICC) whose optimizer automatically
// inline-allocates child objects inside their containers, driven by a
// Concert-style context-sensitive flow analysis, the paper's use- and
// assignment-specialization analyses, and a cloning framework.
//
// The public API compiles Mini-ICC source under one of three pipelines —
// the direct uniform model, the cloning-only baseline, or full object
// inlining — and executes it on an instrumented VM whose deterministic
// cost model (with a simulated data cache) stands in for the paper's
// SparcStation testbed. See DESIGN.md for the architecture and
// EXPERIMENTS.md for the reproduced evaluation.
//
// Quickstart:
//
//	prog, err := objinline.Compile("demo.icc", src,
//	    objinline.Config{Mode: objinline.Inline}, objinline.WithTracing())
//	if err != nil { ... }
//	res, err := prog.Execute(context.Background(), objinline.RunOptions{Output: os.Stdout})
//	fmt.Println(prog.InlinedFields(), res.Metrics.Cycles)
//
// Every inlining verdict is observable: Explain returns the structured
// evidence chain behind one field's decision, RejectedFields the reasons
// for every dropped candidate, and CompileStats the per-phase timings and
// analysis statistics recorded when tracing is on. All of it is
// JSON-serializable for tooling.
package objinline

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"

	"objinline/internal/analysis"
	"objinline/internal/bench"
	"objinline/internal/cachesim"
	"objinline/internal/core"
	"objinline/internal/pipeline"
	"objinline/internal/trace"
	"objinline/internal/vm"
)

// Mode selects the optimization pipeline.
type Mode = pipeline.Mode

// Pipeline modes, mirroring the paper's measured configurations.
const (
	// Direct executes the uniform object model as-is: by-name field
	// resolution and dynamic dispatch everywhere.
	Direct = pipeline.ModeDirect
	// Baseline runs Concert-style type inference and cloning
	// (devirtualization and field-slot binding) without object inlining —
	// the paper's "Concert Without Inlining".
	Baseline = pipeline.ModeBaseline
	// Inline additionally performs automatic object inlining — the
	// paper's "Concert With Inlining".
	Inline = pipeline.ModeInline
)

// ParseMode parses a pipeline-mode name ("direct", "baseline", or
// "inline") as rendered by Mode.String. It is the one place mode names
// are interpreted; the CLI tools use it instead of private switches.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "direct":
		return Direct, nil
	case "baseline":
		return Baseline, nil
	case "inline":
		return Inline, nil
	}
	return 0, fmt.Errorf("objinline: unknown mode %q (want direct, baseline, or inline)", s)
}

// Engine selects the execution tier a compiled program runs on: the
// instrumented reference VM (deterministic cycle cost model, counters,
// profiling, cache simulation) or the native tier, which emits the
// optimized IR as a Go package, builds it with the go toolchain, and
// runs the binary on the hardware, reporting real wall time and Go
// allocator deltas. Both engines produce byte-identical program output
// and identical runtime-error text. The zero value is the VM; engines
// render as their names in JSON ("vm", "native").
type Engine = pipeline.Engine

// Execution engines.
const (
	EngineVM     = pipeline.EngineVM
	EngineNative = pipeline.EngineNative
)

// Config configures compilation. Every field changes the compiled
// program; how a program runs is chosen per run (RunOptions).
type Config struct {
	Mode Mode
	// ParallelArrays lays inlined arrays out as one column per field
	// (struct-of-arrays) instead of element-major — the paper's
	// Fortran-style layout remark in §6.3.
	ParallelArrays bool
	// TagDepth caps the use-specialization tag nesting (default 3).
	TagDepth int
}

// Fingerprint returns a stable, versioned, canonical encoding of the
// configuration, suitable as a cache-key component (the oicd server keys
// its content-addressed result cache on SHA-256(source) ⊕ Fingerprint).
// Equivalent configurations fingerprint identically: every knob is
// default-filled before encoding, so an explicit TagDepth 3 and an
// implicit zero are the same key, and the fields are rendered in a fixed
// order — no map iteration is involved. Any configuration change that can
// alter compilation output changes the fingerprint, and the leading
// version tag must be bumped whenever the encoding itself changes.
func (c Config) Fingerprint() string {
	a := analysis.Options{TagDepth: c.TagDepth}.WithDefaults()
	return fmt.Sprintf("objinline.Config/v4;mode=%s;parallel_arrays=%t;tag_depth=%d",
		c.Mode, c.ParallelArrays, a.TagDepth)
}

// Option is a functional compilation option (beyond the Config knobs that
// shape the generated code, options configure how the compilation is
// observed).
type Option func(*compileSettings)

type compileSettings struct {
	trace *trace.Sink
}

// WithTracing records per-phase events (wall time and counters) during
// compilation and execution, exposed afterwards through CompileStats.
// Without it the program carries no sink and compilation pays nothing
// for the instrumentation.
func WithTracing() Option {
	return func(s *compileSettings) { s.trace = &trace.Sink{} }
}

// TraceSink collects phase events. Use with WithTraceSink when the caller
// needs the events even if compilation fails partway (the oic CLI flushes
// its trace file on every exit path this way).
type TraceSink = trace.Sink

// WithTraceSink is WithTracing recording into a caller-owned sink. The
// sink keeps whatever phases completed when Compile returns an error, so
// tooling can still export them.
func WithTraceSink(sink *TraceSink) Option {
	return func(s *compileSettings) { s.trace = sink }
}

// WriteChromeTrace serializes phase events to Chrome trace-event JSON,
// loadable in Perfetto (ui.perfetto.dev) or chrome://tracing: one complete
// event per phase span plus one counter track per phase counter.
func WriteChromeTrace(w io.Writer, events []PhaseStat) error {
	return trace.WriteChrome(w, events)
}

// Program is a compiled Mini-ICC program, ready to run. It holds only
// compiled state: everything a run measures comes back in its Result, so
// one Program may run on any number of goroutines at once.
type Program struct {
	c *pipeline.Compiled
}

// Compile builds a program from Mini-ICC source text.
func Compile(filename, src string, cfg Config, opts ...Option) (*Program, error) {
	return CompileContext(context.Background(), filename, src, cfg, opts...)
}

// CompileContext is Compile with cancellation: the context's deadline is
// enforced end-to-end through the pipeline, including inside the contour
// analysis's fixpoint solvers, so even a pathological input stops within
// a bounded amount of work of the deadline. A canceled compilation
// returns an error wrapping ctx.Err() (match it with
// errors.Is(err, context.DeadlineExceeded) or context.Canceled).
func CompileContext(ctx context.Context, filename, src string, cfg Config, opts ...Option) (*Program, error) {
	pcfg, err := cfg.toPipeline(opts)
	if err != nil {
		return nil, err
	}
	c, err := pipeline.CompileContext(ctx, filename, src, pcfg)
	if err != nil {
		return nil, err
	}
	return &Program{c: c}, nil
}

// toPipeline maps the public configuration (plus options) onto the
// internal pipeline's.
func (c Config) toPipeline(opts []Option) (pipeline.Config, error) {
	if c.Mode < Direct || c.Mode > Inline {
		return pipeline.Config{}, fmt.Errorf("objinline: unknown mode %d", c.Mode)
	}
	var settings compileSettings
	for _, o := range opts {
		o(&settings)
	}
	layout := core.LayoutObjectOrder
	if c.ParallelArrays {
		layout = core.LayoutParallel
	}
	return pipeline.Config{
		Mode:        c.Mode,
		ArrayLayout: layout,
		Analysis:    analysis.Options{TagDepth: c.TagDepth},
		Trace:       settings.trace,
	}, nil
}

// Session pins a compilation across source edits for incremental
// recompiles. Create one with NewSession, then feed each edited full
// source text to Patch: functions whose source text and start position
// are unchanged keep their prior IR, payload-only edits additionally
// reuse the prior contour-analysis result verbatim, and only structural
// edits (classes, fields, globals, function signatures) fall back to a
// cold compile. Every patch's output is byte-identical to a cold compile
// of the same source.
//
// A Session is not safe for concurrent use; callers serialize Patch (the
// oicd server holds one mutex per session). Patch invalidates Programs
// returned by earlier calls on the same session.
type Session struct {
	s *pipeline.Session
	p *Program
}

// IncrementalStats reports how a Session.Patch was absorbed: the tier
// ("reuse", "patch", "reopt", "solve", or "cold"), which functions were
// re-lowered, and whether (and how much) the analysis ran.
// JSON-serializable.
type IncrementalStats = pipeline.IncrementalStats

// Incremental tier names, cheapest first (see Session).
const (
	// TierReuse: the source was byte-identical; nothing ran.
	TierReuse = pipeline.TierReuse
	// TierPatch: every changed function kept its IR shape at unchanged
	// source positions (a pure constant/literal edit); the prior analysis
	// and the prior optimized program were both reused wholesale, with
	// the new constant payloads forwarded into the optimized output.
	TierPatch = pipeline.TierPatch
	// TierReopt: shapes held but positions shifted; the prior analysis
	// result was reused (zero analysis work) and only the optimizer back
	// end re-ran to refresh position-bearing reports.
	TierReopt = pipeline.TierReopt
	// TierSolve: a function body changed shape; the edit was absorbed by
	// splicing re-lowered bodies, but the whole-program analysis re-ran.
	TierSolve = pipeline.TierSolve
	// TierCold: a structural edit forced a full recompile.
	TierCold = pipeline.TierCold
)

// NewSession cold-compiles src and pins the incremental state.
func NewSession(filename, src string, cfg Config, opts ...Option) (*Session, error) {
	return NewSessionContext(context.Background(), filename, src, cfg, opts...)
}

// NewSessionContext is NewSession with cancellation (see CompileContext).
func NewSessionContext(ctx context.Context, filename, src string, cfg Config, opts ...Option) (*Session, error) {
	pcfg, err := cfg.toPipeline(opts)
	if err != nil {
		return nil, err
	}
	ps, c, err := pipeline.NewSessionContext(ctx, filename, src, pcfg)
	if err != nil {
		return nil, err
	}
	return &Session{s: ps, p: &Program{c: c}}, nil
}

// Program returns the session's current compiled program.
func (s *Session) Program() *Program { return s.p }

// Source returns the session's current source text.
func (s *Session) Source() string { return s.s.Source() }

// Patch recompiles the session at the edited full source text, reusing
// as much prior work as the edit allows. On error (parse, check, or
// lowering) the session keeps its previous program.
func (s *Session) Patch(src string) (*Program, IncrementalStats, error) {
	return s.PatchContext(context.Background(), src)
}

// PatchContext is Patch with cancellation. A patch canceled mid-pipeline
// leaves the session consistent: the next patch simply rebuilds cold.
func (s *Session) PatchContext(ctx context.Context, src string) (*Program, IncrementalStats, error) {
	c, st, err := s.s.PatchContext(ctx, src)
	if err != nil {
		return nil, st, err
	}
	s.p = &Program{c: c}
	return s.p, st, nil
}

// RunOptions configures one execution.
type RunOptions struct {
	// Output receives everything the program prints (default: discard).
	Output io.Writer
	// MaxSteps bounds execution (default: 4e9 instructions).
	MaxSteps uint64
	// DisableCache turns the cache simulator off (all accesses hit). Runs
	// otherwise simulate the default 16 KiB, 32-byte-line, 4-way cache.
	DisableCache bool
	// Profile attaches a site profiler to the run: allocations, field
	// traffic, and cache misses are attributed to allocation sites and
	// Class.field paths, returned in Result.Profile (and joinable across
	// runs with PayoffReport). Off by default; the VM's hot loop pays
	// nothing when disabled. VM only: with the native engine Execute
	// returns ErrProfileNeedsVM.
	Profile bool
	// Trace, when non-nil, receives this run's phase event instead of the
	// sink the program was compiled with. Callers that execute one
	// compiled program many times (the oicd server) use it to keep each
	// run's timing separate from the shared compile-time sink.
	Trace *TraceSink

	// Engine selects the execution tier for this run (the zero value is
	// the VM). The VM-only knobs above (MaxSteps, DisableCache, Profile, Trace)
	// apply only when the VM runs.
	Engine Engine
	// NativeReps, for the native engine, is how many times the program
	// body executes inside one process for measurement stability
	// (printing is muted after the first repetition; the reported wall
	// time and allocator deltas cover all repetitions). 0 means 1.
	NativeReps int
	// EmitDir, when non-empty, keeps the native engine's emitted Go
	// package (main.go, go.mod, binary) in this directory for inspection
	// instead of a temp dir that is removed after the run.
	EmitDir string
}

// Metrics summarizes one execution's dynamic behavior on the VM. Cycles
// is the deterministic cost-model total used throughout the evaluation.
// Builtins, SlotsAllocated and CostEvents are not part of the JSON form.
type Metrics = vm.Counters

// NativeMetrics is the native engine's measurement record: real wall
// time and Go allocator deltas stand in for the VM's modeled cycles and
// allocation counters. Wall time and allocator deltas cover every
// repetition of the run (see RunOptions.NativeReps).
type NativeMetrics = pipeline.NativeRun

// Result is one execution's outcome on either engine: Engine says which
// tier ran, Metrics is populated by the VM, Native by the native tier,
// and Profile by a VM run with RunOptions.Profile set.
// JSON-serializable (Engine renders as its name).
type Result struct {
	Engine  Engine         `json:"engine"`
	Metrics *Metrics       `json:"metrics,omitempty"`
	Native  *NativeMetrics `json:"native,omitempty"`
	Profile *RunProfile    `json:"profile,omitempty"`
}

// ErrProfileNeedsVM is returned by Execute when RunOptions.Profile is set
// for the native engine: site attribution is VM instrumentation.
var ErrProfileNeedsVM = errors.New("profiling requires the vm engine: site attribution is VM instrumentation")

// Execute runs the program on the selected engine (RunOptions.Engine,
// the VM by default). On the VM the context is polled every few thousand
// instructions, so an infinite loop returns an error wrapping ctx.Err()
// within microseconds of the deadline; on the native engine the context
// bounds both the go build and the process, which is killed on expiry.
// A Mini-ICC runtime failure returns an error whose text is identical
// on both engines ("runtime error[ at pos]: msg").
func (p *Program) Execute(ctx context.Context, opts RunOptions) (Result, error) {
	eo := pipeline.ExecOptions{
		Run:     pipeline.RunOptions{Out: opts.Output, MaxSteps: opts.MaxSteps, Trace: opts.Trace},
		Engine:  opts.Engine,
		Reps:    opts.NativeReps,
		EmitDir: opts.EmitDir,
	}
	if opts.Profile {
		if opts.Engine == EngineNative {
			return Result{}, ErrProfileNeedsVM
		}
		eo.Run.Profile = vm.NewProfile()
	}
	if !opts.DisableCache {
		eo.Run.Cache = &cachesim.DefaultConfig
	}
	res, err := p.c.Execute(ctx, eo)
	if err != nil || res.Engine == EngineNative {
		return Result{Engine: res.Engine, Native: res.Native}, err
	}
	return Result{Engine: EngineVM, Metrics: &res.Counters, Profile: eo.Run.Profile.Summary()}, nil
}

// SiteProfile is one allocation site's aggregated run attribution.
type SiteProfile = vm.SiteProfile

// FieldProfile is one Class.field path's aggregated run traffic.
type FieldProfile = vm.FieldProfile

// RunProfile is the site/field attribution of one profiled execution.
type RunProfile = vm.RunProfile

// FieldPayoff is one inlined field's measured payoff in a RunReport.
type FieldPayoff = bench.FieldPayoff

// RunReport is the per-field payoff table PayoffReport produces: one row
// per inlined field with the allocations, bytes, and cache misses the
// field measurably saved, reconciled against the aggregate counter deltas.
type RunReport = bench.ProgramPayoff

// PayoffReport joins two profiled runs of the same source — on compiled
// with Inline, off with Baseline or Direct, each with the Result of its
// Execute — into a per-field payoff table: what each inlined field
// actually saved, attributed through the optimizer's stack-site
// provenance and the runs' site profiles. Both runs must have executed
// on the VM with RunOptions.Profile set.
func PayoffReport(on *Program, onRun Result, off *Program, offRun Result) (*RunReport, error) {
	if on == nil || off == nil {
		return nil, fmt.Errorf("objinline: PayoffReport needs two programs")
	}
	if onRun.Profile == nil || offRun.Profile == nil || onRun.Metrics == nil || offRun.Metrics == nil {
		return nil, fmt.Errorf("objinline: PayoffReport needs profiled VM runs (set RunOptions.Profile)")
	}
	return bench.ComputePayoff(
		&bench.Measurement{Mode: on.c.Mode, Compiled: on.c, Counters: *onRun.Metrics, Profile: onRun.Profile},
		&bench.Measurement{Mode: off.c.Mode, Compiled: off.c, Counters: *offRun.Metrics, Profile: offRun.Profile},
	)
}

// Mode returns the pipeline the program was compiled under.
func (p *Program) Mode() Mode { return p.c.Mode }

// ReasonCode classifies an inlining verdict; the values are stable
// machine-readable identifiers (see the core package for the full set).
type ReasonCode = core.ReasonCode

// ReasonInlined is the positive verdict's code; every other code marks a
// rejection.
const ReasonInlined = core.ReasonInlined

// Step is one link in a decision's evidence chain: what was established
// or violated, at which program point or contour, with supporting detail.
type Step = core.Step

// Reason is one structured rejection: a stable code, the human-readable
// message (Reason.String()), and the evidence chain behind it.
type Reason = core.Reason

// Verdict is a candidate's overall outcome.
type Verdict string

// Explain verdicts.
const (
	// VerdictInlined marks a field the optimizer inline-allocated.
	VerdictInlined Verdict = "inlined"
	// VerdictRejected marks a candidate the optimizer dropped.
	VerdictRejected Verdict = "rejected"
	// VerdictNotCandidate marks an object field the analysis never put on
	// the candidate list (compiled without inlining, for instance).
	VerdictNotCandidate Verdict = "not-a-candidate"
)

// Decision is one field's explained inlining outcome, as returned by
// Explain. It is JSON-serializable for tooling.
type Decision struct {
	Field   string     `json:"field"`
	Verdict Verdict    `json:"verdict"`
	Code    ReasonCode `json:"code,omitempty"`
	// Reason is the human-readable message for rejections (empty for
	// inlined fields).
	Reason string `json:"reason,omitempty"`
	// Evidence is the chain of established or violated conditions that
	// produced the verdict, in discovery order.
	Evidence []Step `json:"evidence,omitempty"`
}

// Explain returns the provenance of one field's inlining decision. The
// field is named as InlinedFields/RejectedFields render it — e.g.
// "Rectangle.lower_left", or "arr@<site>[]" for an array allocation site.
func (p *Program) Explain(field string) (Decision, error) {
	d := p.decision()
	if d == nil {
		return Decision{}, fmt.Errorf("objinline: no inlining decision recorded (mode %s)", p.Mode())
	}
	for k, why := range d.Rejected {
		if k.String() == field {
			return Decision{
				Field:    field,
				Verdict:  VerdictRejected,
				Code:     why.Code,
				Reason:   why.Message,
				Evidence: why.Evidence,
			}, nil
		}
	}
	for k := range d.Inlined {
		if k.String() == field {
			return Decision{
				Field:    field,
				Verdict:  VerdictInlined,
				Code:     ReasonInlined,
				Evidence: d.Accepted[k],
			}, nil
		}
	}
	for _, k := range d.ObjectFields {
		if k.String() == field {
			return Decision{Field: field, Verdict: VerdictNotCandidate}, nil
		}
	}
	return Decision{}, fmt.Errorf("objinline: %q is not an object-holding field of this program", field)
}

func (p *Program) decision() *core.Decision {
	if p.c.Optimize == nil {
		return nil
	}
	return p.c.Optimize.Decision
}

// InlinedFields lists the fields (and array allocation sites) the
// optimizer inline-allocated, e.g. "Rectangle.lower_left". Array sites
// render as "arr@<site>[]". Empty for non-Inline modes.
func (p *Program) InlinedFields() []string {
	d := p.decision()
	if d == nil {
		return nil
	}
	var out []string
	for _, k := range d.InlinedKeys() {
		out = append(out, k.String())
	}
	return out
}

// RejectedFields maps each inlining candidate that was rejected to its
// structured reason, mirroring the paper's §6.1 discussion. Reason's
// String method renders the classic report text.
func (p *Program) RejectedFields() map[string]Reason {
	d := p.decision()
	if d == nil {
		return nil
	}
	out := make(map[string]Reason)
	for k, why := range d.Rejected {
		out[k.String()] = why
	}
	return out
}

// PhaseStat is one compilation (or run) phase's recorded event: its name,
// wall time, and counters.
type PhaseStat = trace.Event

// AnalysisStats summarizes the contour analysis, JSON-ready.
type AnalysisStats = analysis.Stats

// CompileStats reports what the compilation did: per-phase events (when
// the program was compiled WithTracing; empty otherwise) and the analysis
// statistics (nil in Direct mode).
type CompileStats struct {
	// Phases lists the recorded phase events in execution order. Nanos is
	// wall time and therefore nondeterministic; everything else is stable.
	Phases []PhaseStat `json:"phases,omitempty"`
	// TotalNanos sums the phase times.
	TotalNanos int64 `json:"total_nanos,omitempty"`
	// Analysis summarizes the contour analysis.
	Analysis *AnalysisStats `json:"analysis,omitempty"`
}

// CompileStats returns the compilation's phase timings and analysis
// statistics. Phase events are present only when the program was compiled
// WithTracing.
func (p *Program) CompileStats() CompileStats {
	cs := CompileStats{
		Phases:     p.c.Trace.Events(),
		TotalNanos: p.c.Trace.TotalNanos(),
	}
	if p.c.Analysis != nil {
		st := p.c.Analysis.Stats()
		cs.Analysis = &st
	}
	return cs
}

// CodeSize returns the executable program's IR instruction count (the
// Figure 15 metric).
func (p *Program) CodeSize() int { return p.c.CodeSize() }

// ContoursPerMethod returns the analysis-sensitivity metric of Figure 16
// (zero in Direct mode, which runs no analysis).
func (p *Program) ContoursPerMethod() float64 {
	if p.c.Analysis == nil {
		return 0
	}
	return p.c.Analysis.Stats().ContoursPerMethod
}

// IR renders the executable program's intermediate representation.
func (p *Program) IR() string { return p.c.Prog.String() }

// AnalysisReport renders the contour analysis state (empty in Direct
// mode).
func (p *Program) AnalysisReport() string {
	if p.c.Analysis == nil {
		return ""
	}
	return p.c.Analysis.String()
}

// Benchmarks lists the bundled benchmark programs of the paper's
// evaluation suite (§6): "oopack", "richards", "silo", "polyover-arr",
// and "polyover-list".
func Benchmarks() []string {
	out := make([]string, 0, len(bench.Programs))
	for _, p := range bench.Programs {
		out = append(out, p.Name)
	}
	return out
}

// BenchmarkSource returns the Mini-ICC source of a bundled benchmark at a
// small, test-friendly workload size. Pass manual=true for the
// hand-inlined variant (the paper's C++/G++ analog) where one exists.
func BenchmarkSource(name string, manual bool) (string, error) {
	p, err := bench.ByName(name)
	if err != nil {
		return "", err
	}
	v := bench.VariantAuto
	if manual {
		v = bench.VariantManual
	}
	return p.Source(v, bench.ScaleMedium)
}

// Report renders a one-page summary of what the optimizer did.
func (p *Program) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "mode: %s\n", p.Mode())
	fmt.Fprintf(&b, "code size: %d instructions\n", p.CodeSize())
	if p.c.Analysis != nil {
		st := p.c.Analysis.Stats()
		fmt.Fprintf(&b, "analysis: %d contours over %d methods (%.2f/method), %d object contours, %d passes\n",
			st.MethodContours, st.ReachedFuncs, st.ContoursPerMethod, st.ObjContours, st.Passes)
	}
	if p.c.Optimize != nil {
		fmt.Fprintf(&b, "clones added: %d; class versions: %d\n",
			p.c.Optimize.CloneStats.ClonesAdded, p.c.Optimize.ClassVersions)
		if d := p.c.Optimize.Decision; d != nil && p.Mode() == Inline {
			fmt.Fprintf(&b, "inlined fields: %s\n", strings.Join(p.InlinedFields(), ", "))
			rej := p.RejectedFields()
			keys := make([]string, 0, len(rej))
			for k := range rej {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				fmt.Fprintf(&b, "rejected %s: %s\n", k, rej[k])
			}
		}
	}
	return b.String()
}
