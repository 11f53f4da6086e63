package pipeline_test

// Cancellation on every fixpoint solver: the public API's tests cover
// the default solver; these repeat the deadline checks for both solvers,
// the sweep reference included, through pipeline.CompileContext.

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"objinline/internal/analysis"
	"objinline/internal/pipeline"
)

// cancelSlack is how far past its deadline a cancellation may return and
// still count as prompt (the service-level acceptance bound).
const cancelSlack = 100 * time.Millisecond

var cancelSolvers = []string{analysis.SolverWorklist, analysis.SolverSweep}

func solverConfig(solver string) pipeline.Config {
	return pipeline.Config{Mode: pipeline.ModeInline, Analysis: analysis.Options{Solver: solver}}
}

// contourBlowupSource is the root package's pathological program: n
// classes × n mutually recursive methods with an n×n megamorphic call
// matrix in main, so the context-sensitive analysis chases receiver-type
// combinations for hundreds of milliseconds.
func contourBlowupSource(n int) string {
	var b strings.Builder
	for c := 0; c < n; c++ {
		fmt.Fprintf(&b, "class C%d {\n  v;\n  def init(v) { self.v = v; }\n", c)
		for m := 0; m < n; m++ {
			fmt.Fprintf(&b, "  def m%d(x, d) { if (d <= 0) { return self.v; } return x.m%d(self, d - 1); }\n", m, (m+1)%n)
		}
		b.WriteString("}\n")
	}
	b.WriteString("func main() {\n")
	for c := 0; c < n; c++ {
		fmt.Fprintf(&b, "  var o%d = new C%d(%d);\n", c, c, c)
	}
	for c := 0; c < n; c++ {
		for d := 0; d < n; d++ {
			fmt.Fprintf(&b, "  print(o%d.m0(o%d, %d));\n", c, d, n)
		}
	}
	b.WriteString("}\n")
	return b.String()
}

// TestCompileCancelInAnalysis checks every fixpoint solver honors the
// deadline mid-analysis.
func TestCompileCancelInAnalysis(t *testing.T) {
	src := contourBlowupSource(20)
	for _, solver := range cancelSolvers {
		t.Run(solver, func(t *testing.T) {
			const deadline = 20 * time.Millisecond
			ctx, cancel := context.WithTimeout(context.Background(), deadline)
			defer cancel()
			start := time.Now()
			_, err := pipeline.CompileContext(ctx, "blowup.icc", src, solverConfig(solver))
			elapsed := time.Since(start)
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("err = %v, want context.DeadlineExceeded", err)
			}
			if elapsed > deadline+cancelSlack {
				t.Errorf("cancellation took %v, want under %v", elapsed, deadline+cancelSlack)
			}
		})
	}
}

// TestCompileCancelExpiredContext checks an already-expired context stops
// the compile before any work, on both solvers.
func TestCompileCancelExpiredContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, solver := range cancelSolvers {
		_, err := pipeline.CompileContext(ctx, "x.icc", "func main() { print(1); }", solverConfig(solver))
		if !errors.Is(err, context.Canceled) {
			t.Errorf("solver %s: err = %v, want context.Canceled", solver, err)
		}
	}
}

// TestRunCancelInfiniteLoop checks a program compiled by either solver
// still stops at the VM's deadline.
func TestRunCancelInfiniteLoop(t *testing.T) {
	const src = "func main() { var i = 0; while (true) { i = i + 1; } }"
	for _, solver := range cancelSolvers {
		t.Run(solver, func(t *testing.T) {
			c, err := pipeline.Compile("loop.icc", src, solverConfig(solver))
			if err != nil {
				t.Fatal(err)
			}
			const deadline = 50 * time.Millisecond
			ctx, cancel := context.WithTimeout(context.Background(), deadline)
			defer cancel()
			start := time.Now()
			_, err = c.RunContext(ctx, pipeline.RunOptions{})
			elapsed := time.Since(start)
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("err = %v, want context.DeadlineExceeded", err)
			}
			if elapsed > deadline+cancelSlack {
				t.Errorf("cancellation took %v, want under %v", elapsed, deadline+cancelSlack)
			}
		})
	}
}
