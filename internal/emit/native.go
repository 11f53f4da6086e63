package emit

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"objinline/internal/ir"
)

// RuntimeError is a Mini-ICC runtime failure raised by a natively
// compiled program. Its Error() text is exactly what vm.RuntimeError
// produces for the same failure, so differential tests can compare the
// two engines' errors as strings.
type RuntimeError struct{ Msg string }

func (e *RuntimeError) Error() string { return e.Msg }

// BuildOptions configures Build.
type BuildOptions struct {
	// Dir, when non-empty, is where the package is emitted (created if
	// needed, kept after Close — useful for inspection and CI's go vet).
	// Empty selects a fresh temp directory that Close removes.
	Dir string
}

// Built is a compiled native program: an emitted package directory plus
// its executable. Callers must Close it to release the temp directory.
type Built struct {
	Dir        string // package directory (main.go, go.mod, binary)
	Bin        string // executable path
	BuildNanos int64  // emit + go build wall time

	keep bool
}

// goModSrc pins the emitted package's module identity; it has no
// dependencies, so builds never touch the network.
const goModSrc = "module oicnative\n\ngo 1.24\n"

// Build emits prog as a Go package and compiles it with the go
// toolchain. The context bounds the build (exec.CommandContext kills the
// compiler on cancellation).
func Build(ctx context.Context, prog *ir.Program, opts BuildOptions) (*Built, error) {
	src, err := Emit(prog)
	if err != nil {
		return nil, err
	}
	dir := opts.Dir
	keep := dir != ""
	if keep {
		if err := os.MkdirAll(dir, 0o777); err != nil {
			return nil, fmt.Errorf("emit: create output dir: %w", err)
		}
		// The -o path below is resolved relative to cmd.Dir, and Bin
		// relative to the caller's cwd; an absolute dir keeps them the
		// same place.
		if dir, err = filepath.Abs(dir); err != nil {
			return nil, fmt.Errorf("emit: resolve output dir: %w", err)
		}
	} else {
		dir, err = os.MkdirTemp("", "oicnative-")
		if err != nil {
			return nil, fmt.Errorf("emit: create temp dir: %w", err)
		}
	}
	fail := func(err error) (*Built, error) {
		if !keep {
			os.RemoveAll(dir)
		}
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(dir, "main.go"), src, 0o666); err != nil {
		return fail(fmt.Errorf("emit: write package: %w", err))
	}
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte(goModSrc), 0o666); err != nil {
		return fail(fmt.Errorf("emit: write go.mod: %w", err))
	}
	bin := filepath.Join(dir, "prog")
	start := time.Now()
	cmd := exec.CommandContext(ctx, "go", "build", "-buildvcs=false", "-o", bin, ".")
	cmd.Dir = dir
	var buildOut bytes.Buffer
	cmd.Stdout = &buildOut
	cmd.Stderr = &buildOut
	if err := cmd.Run(); err != nil {
		if ctx.Err() != nil {
			return fail(fmt.Errorf("emit: native build canceled: %w", context.Cause(ctx)))
		}
		return fail(fmt.Errorf("emit: go build failed: %v\n%s", err, buildOut.Bytes()))
	}
	return &Built{Dir: dir, Bin: bin, BuildNanos: time.Since(start).Nanoseconds(), keep: keep}, nil
}

// RunStats is one native execution's measurement record: real wall time
// and Go allocator deltas in place of the VM's modeled cycles. The JSON
// tags are the public API's wire shape (objinline.NativeMetrics is this
// type); the emitted program writes every field but BuildNanos.
type RunStats struct {
	WallNanos  int64  `json:"wall_nanos"`  // run wall time, all reps
	BuildNanos int64  `json:"build_nanos"` // emit + go build wall time
	Reps       int    `json:"reps"`        // repetitions executed
	Mallocs    uint64 `json:"mallocs"`     // runtime.MemStats.Mallocs delta, all reps
	AllocBytes uint64 `json:"alloc_bytes"` // runtime.MemStats.TotalAlloc delta, all reps
}

// Run executes the built program. Program stdout goes to out (io.Discard
// when nil); reps > 1 re-runs the program with printing muted after the
// first repetition so timing loops don't multiply output. A program trap
// returns a *RuntimeError whose text matches the VM's; cancellation kills
// the process and returns the context's error.
func (b *Built) Run(ctx context.Context, out io.Writer, reps int) (*RunStats, error) {
	if reps < 1 {
		reps = 1
	}
	mf, err := os.CreateTemp(b.Dir, "measure-")
	if err != nil {
		return nil, fmt.Errorf("emit: create measure file: %w", err)
	}
	mpath := mf.Name()
	mf.Close()
	defer os.Remove(mpath)

	cmd := exec.CommandContext(ctx, b.Bin, "-reps="+strconv.Itoa(reps), "-measure="+mpath)
	if out == nil {
		out = io.Discard
	}
	cmd.Stdout = out
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	cmd.WaitDelay = 5 * time.Second
	runErr := cmd.Run()
	if runErr != nil {
		if ctx.Err() != nil {
			return nil, fmt.Errorf("emit: native run canceled: %w", context.Cause(ctx))
		}
		var ee *exec.ExitError
		if errors.As(runErr, &ee) && ee.ExitCode() == 3 {
			return nil, &RuntimeError{Msg: strings.TrimSpace(stderr.String())}
		}
		return nil, fmt.Errorf("emit: native run failed: %v\n%s", runErr, stderr.Bytes())
	}
	data, err := os.ReadFile(mpath)
	if err != nil {
		return nil, fmt.Errorf("emit: read measurement: %w", err)
	}
	stats := &RunStats{BuildNanos: b.BuildNanos}
	if err := json.Unmarshal(data, stats); err != nil {
		return nil, fmt.Errorf("emit: parse measurement: %w", err)
	}
	return stats, nil
}

// Close removes the package directory unless Build was given an explicit
// output directory to keep.
func (b *Built) Close() error {
	if b.keep {
		return nil
	}
	return os.RemoveAll(b.Dir)
}
