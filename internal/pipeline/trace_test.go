package pipeline

import (
	"slices"
	"testing"

	"objinline/internal/trace"
)

const traceTestSrc = `
class Cell { v; def init(v) { self.v = v; } }
class Box { c; def init(c) { self.c = c; } }
func main() {
  var b = new Box(new Cell(7));
  print(b.c.v);
}
`

func TestCompileRecordsPhases(t *testing.T) {
	sink := &trace.Sink{}
	c, err := Compile("t.icc", traceTestSrc, Config{Mode: ModeInline, Trace: sink})
	if err != nil {
		t.Fatal(err)
	}
	want := []trace.Phase{
		trace.PhaseParse, trace.PhaseCheck, trace.PhaseLower,
		trace.PhaseAnalysis, trace.PhaseOptimize,
		trace.PhaseFuncInline, trace.PhasePeephole,
	}
	evs := sink.Events()
	if len(evs) != len(want) {
		t.Fatalf("got %d events %v, want %d", len(evs), evs, len(want))
	}
	for i, p := range want {
		if evs[i].Phase != p {
			t.Errorf("event[%d] = %s, want %s", i, evs[i].Phase, p)
		}
	}
	counters := func(i int) map[string]int64 {
		m := make(map[string]int64)
		for _, c := range evs[i].Counters {
			m[c.Name] = c.Value
		}
		return m
	}
	if c := counters(3); c["method-contours"] == 0 || c["instr-evals"] == 0 {
		t.Errorf("analysis phase counters missing: %v", evs[3].Counters)
	}
	if c := counters(4); c["inlined"] == 0 {
		t.Errorf("optimize phase did not report inlined fields: %v", evs[4].Counters)
	}

	// The run phase lands on the compilation's sink.
	if _, err := c.Run(RunOptions{}); err != nil {
		t.Fatal(err)
	}
	evs = sink.Events()
	last := evs[len(evs)-1]
	if last.Phase != trace.PhaseRun {
		t.Fatalf("run did not record a run phase: %v", evs)
	}
	rc := make(map[string]int64)
	for _, c := range last.Counters {
		rc[c.Name] = c.Value
	}
	if rc["instructions"] == 0 || rc["cycles"] == 0 {
		t.Errorf("run phase counters missing: %v", last.Counters)
	}
}

func TestDirectModeRecordsFrontEndPhasesOnly(t *testing.T) {
	sink := &trace.Sink{}
	if _, err := Compile("t.icc", traceTestSrc, Config{Mode: ModeDirect, Trace: sink}); err != nil {
		t.Fatal(err)
	}
	evs := sink.Events()
	if len(evs) != 3 || evs[2].Phase != trace.PhaseLower {
		t.Errorf("direct mode phases = %v, want parse/check/lower", evs)
	}
}

// TestStructuralPatchRecordsFrontEndOnce pins a traced structural
// session patch to one parse and one check: the patch attempt's checked
// source goes to the cold tier, which only lowers it again.
func TestStructuralPatchRecordsFrontEndOnce(t *testing.T) {
	sink := &trace.Sink{}
	sess, _, err := NewSession("t.icc", traceTestSrc, Config{Mode: ModeInline, Trace: sink})
	if err != nil {
		t.Fatal(err)
	}
	before := len(sink.Events())
	_, st, err := sess.Patch(traceTestSrc + "\nfunc extra(a) { return a + 1; }\n")
	if err != nil {
		t.Fatal(err)
	}
	if st.Tier != TierCold {
		t.Fatalf("tier = %s, want %s", st.Tier, TierCold)
	}
	want := []trace.Phase{
		trace.PhaseParse, trace.PhaseCheck,
		trace.PhaseLower, // the patch attempt that finds the edit structural
		trace.PhaseLower, trace.PhaseAnalysis, trace.PhaseOptimize,
		trace.PhaseFuncInline, trace.PhasePeephole,
	}
	var got []trace.Phase
	for _, ev := range sink.Events()[before:] {
		got = append(got, ev.Phase)
	}
	if !slices.Equal(got, want) {
		t.Errorf("structural patch phases = %v, want %v", got, want)
	}
}

// TestNilTraceSinkAddsNoAllocsToCompile asserts the disabled-tracing
// contract: the span operations Compile performs on a nil sink — every
// Start/Counter/End it would issue — allocate nothing, so an untraced
// compilation pays zero for the instrumentation.
func TestNilTraceSinkAddsNoAllocsToCompile(t *testing.T) {
	var tr *trace.Sink
	allocs := testing.AllocsPerRun(500, func() {
		sp := tr.Start(trace.PhaseParse)
		sp.End()
		sp = tr.Start(trace.PhaseCheck)
		sp.End()
		sp = tr.Start(trace.PhaseLower)
		sp.Counter("instrs", 1)
		sp.End()
		sp = tr.Start(trace.PhaseAnalysis)
		sp.End()
		sp = tr.Start(trace.PhaseOptimize)
		sp.Counter("attempts", 1)
		sp.Counter("clones", 1)
		sp.Counter("class-versions", 1)
		sp.Counter("inlined", 1)
		sp.Counter("rejected", 1)
		sp.End()
		sp = tr.Start(trace.PhaseFuncInline)
		sp.Counter("instrs", 1)
		sp.End()
		sp = tr.Start(trace.PhasePeephole)
		sp.Counter("instrs", 1)
		sp.End()
	})
	if allocs != 0 {
		t.Errorf("nil-sink compile span sequence allocates %v allocs/op, want 0", allocs)
	}
}

// BenchmarkCompile compares a traced against an untraced compilation; the
// allocation numbers make the nil-sink overhead visible.
func BenchmarkCompile(b *testing.B) {
	b.Run("nil-sink", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Compile("t.icc", traceTestSrc, Config{Mode: ModeInline}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("traced", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Compile("t.icc", traceTestSrc, Config{Mode: ModeInline, Trace: &trace.Sink{}}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
