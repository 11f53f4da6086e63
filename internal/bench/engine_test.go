package bench_test

import (
	"strings"
	"testing"

	"objinline/internal/bench"
	"objinline/internal/pipeline"
	"objinline/internal/vm"
)

// renderAll regenerates every figure and ablation on one engine and
// renders them to text, in reporting order.
func renderAll(t *testing.T, e *bench.Engine, scale bench.Scale) string {
	t.Helper()
	var b strings.Builder
	r14, err := e.Fig14(scale)
	if err != nil {
		t.Fatal(err)
	}
	bench.PrintFig14(&b, r14)
	r15, err := e.Fig15(scale)
	if err != nil {
		t.Fatal(err)
	}
	bench.PrintFig15(&b, r15)
	r16, err := e.Fig16(scale)
	if err != nil {
		t.Fatal(err)
	}
	bench.PrintFig16(&b, r16)
	r17, err := e.Fig17(scale)
	if err != nil {
		t.Fatal(err)
	}
	bench.PrintFig17(&b, r17)
	a1, err := e.AblationLayout(scale)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range a1 {
		b.WriteString(r.Layout)
	}
	a2, err := e.AblationCostModel(scale)
	if err != nil {
		t.Fatal(err)
	}
	bench.PrintAblationCost(&b, a2)
	a3, err := e.AblationTagDepth(scale)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range a3 {
		b.WriteString(r.Program)
		b.WriteByte(byte('0' + r.Depth))
		b.WriteByte(byte('0' + r.Inlined))
	}
	return b.String()
}

// TestEngineOutputIdenticalAcrossJobs is the determinism guarantee: the
// rendered figures must be byte-identical whether the engine runs on one
// worker or many.
func TestEngineOutputIdenticalAcrossJobs(t *testing.T) {
	serial := renderAll(t, bench.NewEngine(1), bench.ScaleSmall)
	parallel := renderAll(t, bench.NewEngine(8), bench.ScaleSmall)
	if serial != parallel {
		t.Errorf("figure output differs between -jobs 1 and -jobs 8:\n--- jobs=1 ---\n%s\n--- jobs=8 ---\n%s", serial, parallel)
	}
}

// TestEngineBuildsEachConfigExactlyOnce pins the memoization contract:
// regenerating every figure compiles each distinct configuration once and
// executes each measured configuration once, and a second regeneration on
// the same engine does no new work at all.
//
// The expected totals enumerate the suite: per program the direct,
// baseline, and inline pipelines (15), the three manual-variant baselines
// (3), oopack's parallel-layout inline build (1), and the A3 sweep's
// non-default tag depths 1, 2, and 4 (15) — depth 3 is the default and
// must share the inline entry. Executions: baseline+inline per program
// (10, shared by Fig17 and A2's replays), three manual baselines, and
// oopack's parallel layout. If you add a benchmark or figure, update the
// arithmetic here.
func TestEngineBuildsEachConfigExactlyOnce(t *testing.T) {
	e := bench.NewEngine(8)
	first := renderAll(t, e, bench.ScaleSmall)
	s1 := e.Stats()

	wantCompiles := uint64(3*len(bench.Programs) + 3 + 1 + 3*len(bench.Programs))
	wantRuns := uint64(2*len(bench.Programs) + 3 + 1)
	if s1.Compiles != wantCompiles {
		t.Errorf("compiles = %d, want %d (a configuration was rebuilt or the suite changed)", s1.Compiles, wantCompiles)
	}
	if s1.Runs != wantRuns {
		t.Errorf("runs = %d, want %d (a configuration was re-executed or the suite changed)", s1.Runs, wantRuns)
	}
	if s1.CompileHits == 0 || s1.RunHits == 0 {
		t.Errorf("no cache hits on first regeneration (hits: compile %d, run %d); figures stopped sharing work", s1.CompileHits, s1.RunHits)
	}

	second := renderAll(t, e, bench.ScaleSmall)
	s2 := e.Stats()
	if s2.Compiles != s1.Compiles || s2.Runs != s1.Runs {
		t.Errorf("second regeneration did new work: compiles %d -> %d, runs %d -> %d",
			s1.Compiles, s2.Compiles, s1.Runs, s2.Runs)
	}
	if first != second {
		t.Error("cached regeneration differs from the original")
	}
}

// TestCostReplayMatchesFreshRun pins the replay identity behind A2: a
// run's measured cycles equal the replay of its event vector under the
// default model, which is the model every run is measured under.
func TestCostReplayMatchesFreshRun(t *testing.T) {
	for _, name := range []string{"oopack", "richards"} {
		p, err := bench.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []pipeline.Mode{pipeline.ModeBaseline, pipeline.ModeInline} {
			m, err := bench.RunConfig(p, bench.VariantAuto, bench.ScaleSmall, pipeline.Config{Mode: mode})
			if err != nil {
				t.Fatal(err)
			}
			if got := m.CyclesUnder(&vm.DefaultCostModel); got != m.Counters.Cycles {
				t.Errorf("%s/%s: default-model replay %d != measured cycles %d", name, mode, got, m.Counters.Cycles)
			}
		}
	}
}

// TestEngineErrorsDescribeConfig: a configuration that cannot compile
// fails, and a second request replays the cached error instead of
// compiling again.
func TestEngineErrorsDescribeConfig(t *testing.T) {
	bad := bench.Program{Name: "broken", File: "nosuch.icc"}
	e := bench.NewEngine(4)
	_, err := e.Compile(bad, bench.VariantAuto, bench.ScaleSmall, pipeline.Config{})
	if err == nil {
		t.Fatal("expected an error for a missing source file")
	}
	// A second request must hit the cached (failed) entry, not recompute.
	_, err2 := e.Compile(bad, bench.VariantAuto, bench.ScaleSmall, pipeline.Config{})
	if err2 == nil || err2.Error() != err.Error() {
		t.Errorf("cached failure differs: %v vs %v", err, err2)
	}
	s := e.Stats()
	if s.Compiles != 1 || s.CompileHits != 1 {
		t.Errorf("failed compile not cached: %+v", s)
	}
}
