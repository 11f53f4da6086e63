package vm_test

// Tests for the step loop's one poll compare: the step limit fails the
// run at instruction MaxSteps+1, the context is selected every 1,024
// instructions, and a run that stops early still returns counters whose
// Cycles is the dot product of its cost events.

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"objinline/internal/vm"
)

// stepSrc executes exactly 53 instructions.
const stepSrc = `func f(x) { return x * 2; }
func main() {
  var s = 0;
  for (var i = 0; i < 3; i = i + 1) {
    s = s + f(i);
  }
  print(s);
}`

// checkCycles fails the test unless c.Cycles is its events priced under
// the default cost model.
func checkCycles(t *testing.T, c vm.Counters) {
	t.Helper()
	if want := c.CyclesUnder(&vm.DefaultCostModel); c.Cycles != want {
		t.Errorf("Cycles = %d, want CyclesUnder(DefaultCostModel) = %d", c.Cycles, want)
	}
	if c.Instructions != c.CostEvents[vm.DimBase] {
		t.Errorf("Instructions = %d, DimBase events = %d", c.Instructions, c.CostEvents[vm.DimBase])
	}
}

// TestStepLimitBoundary runs stepSrc at its exact instruction count and
// below it: the limit N runs to completion, and a limit k < N fails at
// instruction k+1, at that instruction's position, with the counters of
// the k+1 instructions executed.
func TestStepLimitBoundary(t *testing.T) {
	const n = 53
	p := compile(t, stepSrc)
	var out strings.Builder
	c, err := vm.New(p, vm.Options{Out: &out, MaxSteps: n}).Run()
	if err != nil {
		t.Fatalf("MaxSteps %d: %v", n, err)
	}
	if c.Instructions != n || out.String() != "6\n" {
		t.Fatalf("MaxSteps %d: %d instructions, output %q; want %d, \"6\\n\"", n, c.Instructions, out.String(), n)
	}
	checkCycles(t, c)

	for _, tc := range []struct {
		limit uint64
		err   string
	}{
		{n - 1, "runtime error at test.icc:2:6: step limit exceeded (52)"},
		{50, "runtime error at test.icc:7:3: step limit exceeded (50)"},
		{48, "runtime error at test.icc:4:19: step limit exceeded (48)"},
		{1, "runtime error at test.icc:3:3: step limit exceeded (1)"},
	} {
		c, err := vm.New(p, vm.Options{MaxSteps: tc.limit}).RunContext(context.Background())
		if err == nil || err.Error() != tc.err {
			t.Errorf("MaxSteps %d: error %v, want %q", tc.limit, err, tc.err)
		}
		if c.Instructions != tc.limit+1 {
			t.Errorf("MaxSteps %d: %d instructions counted, want %d", tc.limit, c.Instructions, tc.limit+1)
		}
		checkCycles(t, c)
	}
}

// TestStepLimitWithContext puts the step limit on and next to a poll
// boundary of a cancelable run: the limit still fails at the instruction
// after it.
func TestStepLimitWithContext(t *testing.T) {
	p := compile(t, `func main() { while (true) { } }`)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, limit := range []uint64{1023, 1024, 1025, 2048} {
		c, err := vm.New(p, vm.Options{MaxSteps: limit}).RunContext(ctx)
		var re *vm.RuntimeError
		if !errors.As(err, &re) || !strings.HasPrefix(re.Msg, "step limit exceeded") {
			t.Errorf("MaxSteps %d: %v, want a step-limit error", limit, err)
		}
		if c.Instructions != limit+1 {
			t.Errorf("MaxSteps %d: failed after %d instructions, want %d", limit, c.Instructions, limit+1)
		}
	}
}

// cancelingWriter cancels a context on its first write.
type cancelingWriter struct{ cancel context.CancelFunc }

func (w cancelingWriter) Write(b []byte) (int, error) {
	w.cancel()
	return len(b), nil
}

// TestCancelPollsEvery1024 cancels the run from its own print, a few
// instructions in, and loops forever after: the first poll, at
// instruction 1,024, must stop it.
func TestCancelPollsEvery1024(t *testing.T) {
	p := compile(t, `func main() { print(1); while (true) { } }`)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	c, err := vm.New(p, vm.Options{Out: cancelingWriter{cancel}}).RunContext(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if c.Instructions != 1024 {
		t.Errorf("canceled after %d instructions, want 1024", c.Instructions)
	}
	checkCycles(t, c)
}

// TestDeadlineStopsRunPromptly runs an infinite loop under a deadline: it
// must return context.DeadlineExceeded within 100 ms of the deadline,
// with consistent counters.
func TestDeadlineStopsRunPromptly(t *testing.T) {
	p := compile(t, `func main() { var i = 0; while (true) { i = i + 1; } }`)
	const deadline, slack = 50 * time.Millisecond, 100 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	start := time.Now()
	c, err := vm.New(p, vm.Options{}).RunContext(ctx)
	if elapsed := time.Since(start); elapsed > deadline+slack {
		t.Errorf("cancellation took %v, want under %v", elapsed, deadline+slack)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if c.Instructions == 0 || c.Instructions%1024 != 0 {
		t.Errorf("canceled after %d instructions, want a positive multiple of 1024", c.Instructions)
	}
	checkCycles(t, c)
}
