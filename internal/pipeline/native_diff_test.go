package pipeline_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"objinline/internal/emit"
	"objinline/internal/fuzzgen"
	"objinline/internal/pipeline"
	"objinline/internal/vm"
)

// TestNativeDifferentialFuzz runs a slice of the fuzz corpus on both
// execution engines and requires identical observable behavior (stdout
// bytes and runtime-error text). The full 200-seed corpus stays on the
// VM-only differential above — each native configuration costs a go
// build — but the same generator drives both, so any corpus program can
// be replayed natively by seed if the VM differential ever disagrees.
func TestNativeDifferentialFuzz(t *testing.T) {
	if testing.Short() {
		t.Skip("builds one native binary per configuration")
	}
	const numPrograms = 6
	for seed := 0; seed < numPrograms; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%02d", seed), func(t *testing.T) {
			t.Parallel()
			src := fuzzgen.Program(int64(seed))

			configs := []struct {
				name string
				cfg  pipeline.Config
			}{
				{"direct", pipeline.Config{Mode: pipeline.ModeDirect}},
				{"baseline", pipeline.Config{Mode: pipeline.ModeBaseline}},
				{"inline", pipeline.Config{Mode: pipeline.ModeInline}},
				{"inline-parallel", pipeline.Config{Mode: pipeline.ModeInline, ArrayLayout: 1}},
			}
			for _, c := range configs {
				comp, err := pipeline.Compile("fuzz.icc", src, c.cfg)
				if err != nil {
					t.Fatalf("%s compile: %v\nprogram:\n%s", c.name, err, src)
				}
				var vmOut strings.Builder
				vmErrText := ""
				if _, err := comp.Run(pipeline.RunOptions{Out: &vmOut, MaxSteps: 5_000_000}); err != nil {
					var re *vm.RuntimeError
					if !errors.As(err, &re) {
						t.Fatalf("%s vm run: %v\nprogram:\n%s", c.name, err, src)
					}
					vmErrText = re.Error()
				}

				ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
				var natOut strings.Builder
				res, err := comp.Execute(ctx, pipeline.ExecOptions{
					Run:    pipeline.RunOptions{Out: &natOut},
					Engine: pipeline.EngineNative,
				})
				cancel()
				natErrText := ""
				if err != nil {
					var re *emit.RuntimeError
					if !errors.As(err, &re) {
						t.Fatalf("%s native run: %v\nprogram:\n%s", c.name, err, src)
					}
					natErrText = re.Error()
				} else if res.Engine != pipeline.EngineNative || res.Native == nil {
					t.Fatalf("%s: ExecResult missing native measurements: %+v", c.name, res)
				}

				if natOut.String() != vmOut.String() {
					t.Errorf("%s: stdout differs\nprogram:\n%s\nvm:\n%q\nnative:\n%q",
						c.name, src, vmOut.String(), natOut.String())
				}
				if natErrText != vmErrText {
					t.Errorf("%s: runtime error differs\nprogram:\n%s\nvm:     %q\nnative: %q",
						c.name, src, vmErrText, natErrText)
				}
			}
		})
	}
}
