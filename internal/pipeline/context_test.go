package pipeline_test

// Cancellation on every fixpoint solver: the public API's tests cover
// the default solver; these repeat the deadline checks for both solvers,
// the sweep reference included, through pipeline.CompileContext.

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"objinline/internal/analysis"
	"objinline/internal/pipeline"
	"objinline/internal/trace"
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
// deadline mid-analysis: on a contour blowup, and on a 16,000-call chain
// whose passes run one round per call level. Neither has a round limit
// to stop it; the deadline does.
func TestCompileCancelInAnalysis(t *testing.T) {
	inputs := []struct {
		name     string
		src      string
		deadline time.Duration
	}{
		{"blowup.icc", contourBlowupSource(20), 20 * time.Millisecond},
		{"chain.icc", callChainSource(16000), 100 * time.Millisecond},
	}
	for _, solver := range cancelSolvers {
		t.Run(solver, func(t *testing.T) {
			for _, in := range inputs {
				ctx, cancel := context.WithTimeout(context.Background(), in.deadline)
				start := time.Now()
				_, err := pipeline.CompileContext(ctx, in.name, in.src, solverConfig(solver))
				elapsed := time.Since(start)
				cancel()
				if !errors.Is(err, context.DeadlineExceeded) {
					t.Fatalf("%s: err = %v, want context.DeadlineExceeded", in.name, err)
				}
				if elapsed > in.deadline+cancelSlack {
					t.Errorf("%s: cancellation took %v, want under %v", in.name, elapsed, in.deadline+cancelSlack)
				}
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

// phaseDeadline is a context whose deadline passes as the compile starts
// its k-th traced phase (k counts from 1): from then on Err reports
// context.Canceled and Done is closed. Its clock is the compile's own
// trace sink, so a test can land the deadline inside any phase,
// deterministically.
type phaseDeadline struct {
	context.Context
	sink *trace.Sink
	k    int
	once sync.Once
	done chan struct{}
}

func newPhaseDeadline(sink *trace.Sink, k int) *phaseDeadline {
	return &phaseDeadline{Context: context.Background(), sink: sink, k: k, done: make(chan struct{})}
}

func (c *phaseDeadline) passed() bool {
	if len(c.sink.Events()) < c.k {
		return false
	}
	c.once.Do(func() { close(c.done) })
	return true
}

func (c *phaseDeadline) Done() <-chan struct{} {
	c.passed()
	return c.done
}

func (c *phaseDeadline) Err() error {
	if c.passed() {
		return context.Canceled
	}
	return nil
}

// TestCompileNeverReturnsLate lands the deadline in every phase of a
// direct, baseline and inline compile, and one past the last. Whenever
// the deadline has passed by the time the compile returns, the compile
// must return a cancellation error and no Compiled, however little of
// the work was left when it passed.
func TestCompileNeverReturnsLate(t *testing.T) {
	const src = "class P { v; def init(v) { self.v = v; } }\nfunc main() { var p = new P(6); print(p.v * 7); }\n"
	for _, mode := range []pipeline.Mode{pipeline.ModeDirect, pipeline.ModeBaseline, pipeline.ModeInline} {
		full := &trace.Sink{}
		if _, err := pipeline.Compile("late.icc", src, pipeline.Config{Mode: mode, Trace: full}); err != nil {
			t.Fatal(err)
		}
		phases := full.Events()
		for k := 1; k <= len(phases)+1; k++ {
			sink := &trace.Sink{}
			ctx := newPhaseDeadline(sink, k)
			c, err := pipeline.CompileContext(ctx, "late.icc", src, pipeline.Config{Mode: mode, Trace: sink})
			in := "after the last phase"
			if k <= len(phases) {
				in = "in " + string(phases[k-1].Phase)
			}
			if ctx.Err() == nil {
				if err != nil || c == nil {
					t.Errorf("%v, deadline %s never passed: got %v, %v; want a Compiled", mode, in, c, err)
				}
				continue
			}
			if c != nil || !errors.Is(err, context.Canceled) {
				t.Errorf("%v, deadline passed %s: got Compiled %v, err %v; want no Compiled and context.Canceled",
					mode, in, c != nil, err)
			}
		}
	}
}

// TestSessionPatchNeverReturnsLate lands the deadline in every phase of a
// session patch, for an edit of each tier, and one past the last. A patch
// whose deadline has passed by its return must return context.Canceled
// and no Compiled, and the session must stay usable: the next live
// patches, to the edit and back, equal cold compiles.
func TestSessionPatchNeverReturnsLate(t *testing.T) {
	const base = "class P { v; def init(v) { self.v = v; } }\nfunc f(k) { return k * 2; }\nfunc main() { var p = new P(6); print(p.v * f(7)); }\n"
	edits := []struct{ name, src, tier string }{
		{"payload", strings.Replace(base, "k * 2", "k * 3", 1), pipeline.TierPatch},
		{"shift", "// shifted\n" + base, pipeline.TierReopt},
		{"shape", strings.Replace(base, "return k * 2;", "if (k > 3) { return k * 2; } return k;", 1), pipeline.TierSolve},
		{"structural", base + "func extra(a) { return a + 1; }\n", pipeline.TierCold},
	}
	for _, mode := range []pipeline.Mode{pipeline.ModeDirect, pipeline.ModeBaseline, pipeline.ModeInline} {
		cfg := pipeline.Config{Mode: mode}
		newSession := func(tr *trace.Sink) *pipeline.Session {
			sess, _, err := pipeline.NewSession("late.icc", base, cfg)
			if err != nil {
				t.Fatal(err)
			}
			sess.Cfg.Trace = tr
			return sess
		}
		cold := map[string]string{}
		for _, src := range []string{base, edits[0].src, edits[1].src, edits[2].src, edits[3].src} {
			c, err := pipeline.Compile("late.icc", src, cfg)
			if err != nil {
				t.Fatal(err)
			}
			cold[src] = fuzzFingerprint(t, c)
		}
		for _, ed := range edits {
			full := &trace.Sink{}
			if _, st, err := newSession(full).Patch(ed.src); err != nil || st.Tier != ed.tier {
				t.Fatalf("%v %s: tier %q, err %v; want tier %q", mode, ed.name, st.Tier, err, ed.tier)
			}
			phases := full.Events()
			for k := 1; k <= len(phases)+1; k++ {
				sink := &trace.Sink{}
				sess := newSession(sink)
				ctx := newPhaseDeadline(sink, k)
				c, _, err := sess.PatchContext(ctx, ed.src)
				sess.Cfg.Trace = nil
				in := "after the last phase"
				if k <= len(phases) {
					in = "in " + string(phases[k-1].Phase)
				}
				if ctx.Err() == nil {
					if err != nil || c == nil {
						t.Errorf("%v %s, deadline %s never passed: got %v, %v; want a Compiled", mode, ed.name, in, c, err)
					}
				} else if c != nil || !errors.Is(err, context.Canceled) {
					t.Errorf("%v %s, deadline passed %s: got Compiled %v, err %v; want no Compiled and context.Canceled",
						mode, ed.name, in, c != nil, err)
				}
				for _, src := range []string{ed.src, base} {
					c, _, err := sess.Patch(src)
					if err != nil {
						t.Fatalf("%v %s, deadline %s: live patch: %v", mode, ed.name, in, err)
					}
					if fuzzFingerprint(t, c) != cold[src] {
						t.Errorf("%v %s, deadline %s: live patch diverged from a cold compile", mode, ed.name, in)
					}
				}
			}
		}
	}
}
