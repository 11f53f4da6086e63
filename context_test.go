package objinline_test

// End-to-end cancellation coverage: a deadline must stop a pathological
// compile inside the analysis fixpoint and a runaway program inside the
// VM step loop, promptly — the oicd server's per-request deadlines are
// only as good as these guarantees. The public API runs the default
// solver; internal/pipeline repeats these checks for each solver.

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"objinline"
)

// cancelSlack is how far past its deadline a cancellation may return and
// still count as prompt (the service-level acceptance bound).
const cancelSlack = 100 * time.Millisecond

// contourBlowupSource generates a program whose contour analysis is
// pathologically expensive: n classes × n mutually recursive methods,
// with an n×n megamorphic call matrix in main, so the context-sensitive
// analysis chases receiver-type combinations for hundreds of
// milliseconds. (Workload scale is irrelevant here — analysis cost
// depends on the code's shape, not its runtime constants.)
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

// TestCompileCancelInAnalysis checks the fixpoint honors the deadline
// mid-analysis: the blowup compile must return context.DeadlineExceeded
// within cancelSlack of the deadline instead of running the analysis
// (hundreds of milliseconds) to completion.
func TestCompileCancelInAnalysis(t *testing.T) {
	src := contourBlowupSource(20)
	const deadline = 20 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	start := time.Now()
	_, err := objinline.CompileContext(ctx, "blowup.icc", src, objinline.Config{Mode: objinline.Inline})
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed > deadline+cancelSlack {
		t.Errorf("cancellation took %v, want under %v", elapsed, deadline+cancelSlack)
	}
}

// TestCompileCancelExpiredContext checks an already-expired context stops
// the compile before any work.
func TestCompileCancelExpiredContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := objinline.CompileContext(ctx, "x.icc", "func main() { print(1); }",
		objinline.Config{Mode: objinline.Inline})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

// TestRunCancelInfiniteLoop checks the VM's step loop honors the
// deadline: an infinite loop must return context.DeadlineExceeded within
// cancelSlack instead of grinding to the four-billion-step limit.
func TestRunCancelInfiniteLoop(t *testing.T) {
	const src = "func main() { var i = 0; while (true) { i = i + 1; } }"
	prog, err := objinline.Compile("loop.icc", src, objinline.Config{Mode: objinline.Inline})
	if err != nil {
		t.Fatal(err)
	}
	const deadline = 50 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	start := time.Now()
	_, err = prog.Execute(ctx, objinline.RunOptions{})
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed > deadline+cancelSlack {
		t.Errorf("cancellation took %v, want under %v", elapsed, deadline+cancelSlack)
	}
}

// TestRunCancelExpiredContext checks a run with an expired context does
// not execute at all (the program would print if it ran).
func TestRunCancelExpiredContext(t *testing.T) {
	prog, err := objinline.Compile("p.icc", "func main() { print(7); }",
		objinline.Config{Mode: objinline.Inline})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var out strings.Builder
	_, err = prog.Execute(ctx, objinline.RunOptions{Output: &out})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if out.Len() != 0 {
		t.Errorf("program produced output %q despite expired context", out.String())
	}
}
