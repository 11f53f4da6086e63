package analysis

// White-box tests of the amortized cancellation checkpoint: polling must
// cost nothing on the background-context fast path, allocate nothing on
// any path, and touch the context's channel only once every
// cancelPollInterval contour evaluations.

import (
	"context"
	"testing"
)

// pollAnalyzer returns an analyzer whose poll state is what resetPass
// leaves at the start of a pass.
func pollAnalyzer(ctx context.Context) *analyzer {
	return &analyzer{ctx: ctx, done: ctx.Done(), curInstr: -1, pollN: 1}
}

// TestPollCancelledAllocFree pins the checkpoint to zero allocations, on
// both the background-context fast path and the live-context poll path.
func TestPollCancelledAllocFree(t *testing.T) {
	bg := pollAnalyzer(context.Background())
	if n := testing.AllocsPerRun(1000, func() { bg.pollCancelled() }); n != 0 {
		t.Errorf("background-context poll allocates %v per call, want 0", n)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	live := pollAnalyzer(ctx)
	if n := testing.AllocsPerRun(1000, func() { live.pollCancelled() }); n != 0 {
		t.Errorf("live-context poll allocates %v per call, want 0", n)
	}
}

// TestPollCancelledAmortized checks the channel poll runs once per
// cancelPollInterval checkpoints: after an initial poll, a cancellation
// goes unnoticed for exactly the rest of the interval and is observed at
// the next poll — the bounded-staleness contract the solvers rely on.
func TestPollCancelledAmortized(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	a := pollAnalyzer(ctx)
	if a.pollCancelled() {
		t.Fatal("fresh context reported cancelled")
	}
	cancel()
	for i := 0; i < cancelPollInterval-1; i++ {
		if a.pollCancelled() {
			t.Fatalf("cancellation observed %d checkpoints into the interval; poll is not amortized", i+1)
		}
	}
	if !a.pollCancelled() {
		t.Fatal("cancellation not observed at the interval boundary")
	}
	if a.ctxErr == nil {
		t.Fatal("sequential poll did not latch the context error")
	}
}

// TestPollCancelledNilDone checks the background fast path never counts
// down (pollN stays put), so a no-deadline analysis pays one nil
// comparison per checkpoint and nothing else.
func TestPollCancelledNilDone(t *testing.T) {
	a := pollAnalyzer(context.Background())
	before := a.pollN
	for i := 0; i < 3*cancelPollInterval; i++ {
		if a.pollCancelled() {
			t.Fatal("background context reported cancelled")
		}
	}
	if a.pollN != before {
		t.Errorf("background path consumed the poll countdown (%d -> %d)", before, a.pollN)
	}
}

// BenchmarkCancelledPoll measures the checkpoint on both paths; the
// amortized design keeps the live-context path within nanoseconds of the
// background fast path on average.
func BenchmarkCancelledPoll(b *testing.B) {
	b.Run("background", func(b *testing.B) {
		a := pollAnalyzer(context.Background())
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			a.pollCancelled()
		}
	})
	b.Run("live", func(b *testing.B) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		a := pollAnalyzer(ctx)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			a.pollCancelled()
		}
	})
}
