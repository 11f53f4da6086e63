package pipeline

import (
	"context"
	"fmt"

	"objinline/internal/emit"
	"objinline/internal/vm"
)

// Engine selects the execution tier for a compiled program: the
// instrumented reference VM (cycle cost model, counters, profiling) or
// the native tier (emit Go from the optimized IR, go build, run on the
// hardware; see internal/emit). The zero value is the VM.
type Engine int

// Execution engines.
const (
	EngineVM Engine = iota
	EngineNative
)

func (e Engine) String() string {
	if e == EngineNative {
		return "native"
	}
	return "vm"
}

// ParseEngine parses an engine name as rendered by Engine.String. The
// empty string is the VM, so wire formats can omit the field.
func ParseEngine(s string) (Engine, error) {
	switch s {
	case "", "vm":
		return EngineVM, nil
	case "native":
		return EngineNative, nil
	}
	return 0, fmt.Errorf("unknown engine %q (want vm or native)", s)
}

// MarshalText renders the engine name, making Engine fields
// JSON-friendly ("vm" or "native").
func (e Engine) MarshalText() ([]byte, error) { return []byte(e.String()), nil }

// UnmarshalText parses an engine name via ParseEngine.
func (e *Engine) UnmarshalText(b []byte) error {
	v, err := ParseEngine(string(b))
	if err != nil {
		return err
	}
	*e = v
	return nil
}

// ExecOptions configures Compiled.Execute.
type ExecOptions struct {
	// Run carries the VM options. The native engine honors Out (program
	// stdout) and the context deadline; the cost/cache/step-limit knobs
	// model hardware the native tier replaces with the real thing, and
	// Profile requires the VM's instrumentation.
	Run RunOptions
	// Engine selects the tier; the zero value is the VM.
	Engine Engine
	// Reps, for the native engine, is how many times the program body is
	// executed inside one process for measurement stability (printing is
	// muted after the first repetition). 0 means 1.
	Reps int
	// EmitDir, when non-empty, keeps the emitted native package (main.go,
	// go.mod, binary) in this directory instead of a removed temp dir.
	EmitDir string
}

// NativeRun is the native engine's measurement record.
type NativeRun = emit.RunStats

// ExecResult is one execution's outcome on either engine: Counters is
// populated by the VM, Native by the native tier.
type ExecResult struct {
	Engine   Engine
	Counters vm.Counters
	Native   *NativeRun
}

// Execute runs the compiled program on the selected engine. On the VM it
// is RunContext; on the native engine it emits the optimized IR as a Go
// package, builds it, runs the binary under the context's deadline, and
// reports real measurements. A Mini-ICC runtime failure surfaces as
// *vm.RuntimeError or *emit.RuntimeError respectively, with identical
// Error() text.
func (c *Compiled) Execute(ctx context.Context, opts ExecOptions) (ExecResult, error) {
	if opts.Engine != EngineNative {
		counters, err := c.RunContext(ctx, opts.Run)
		return ExecResult{Engine: EngineVM, Counters: counters}, err
	}
	built, err := emit.Build(ctx, c.Prog, emit.BuildOptions{Dir: opts.EmitDir})
	if err != nil {
		return ExecResult{Engine: EngineNative}, err
	}
	defer built.Close()
	stats, err := built.Run(ctx, opts.Run.Out, opts.Reps)
	if err != nil {
		return ExecResult{Engine: EngineNative}, err
	}
	return ExecResult{Engine: EngineNative, Native: stats}, nil
}
