package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"objinline/internal/cachesim"
	"objinline/internal/pipeline"
	"objinline/internal/vm"
)

// layerAcc turns a traced run's spans and counts into per-pass layer
// figures: each layer's self time and allocation per pass, and its work
// counts per pass. A nil recorder makes every method a no-op.
type layerAcc struct {
	rec    *recorder
	mark   int
	counts map[string]int64
	passes []layerPass
}

type layerPass struct {
	self   map[string]time.Duration
	alloc  map[string]uint64
	counts map[string]int64
}

func newLayerAcc(rec *recorder) *layerAcc {
	return &layerAcc{rec: rec, counts: map[string]int64{}}
}

// count adds n to a per-pass work count.
func (a *layerAcc) count(name string, n int64) { a.counts[name] += n }

// endPass closes the current pass: the spans recorded since the last call
// belong to it.
func (a *layerAcc) endPass() {
	if a.rec == nil {
		return
	}
	base := a.mark
	spans := a.rec.snapshot()[base:]
	a.mark += len(spans)
	// Re-base parent indexes to the slice; a parent from an earlier pass
	// is outside it.
	for i := range spans {
		if spans[i].parent >= base {
			spans[i].parent -= base
		} else {
			spans[i].parent = -1
		}
	}
	self, alloc := layerTotals(spans)
	a.passes = append(a.passes, layerPass{self: self, alloc: alloc, counts: a.counts})
	a.counts = map[string]int64{}
}

// ms is the median over passes of the summed self time of the named spans.
func (a *layerAcc) ms(names ...string) float64 {
	var xs []float64
	for _, p := range a.passes {
		var d time.Duration
		for _, n := range names {
			d += p.self[n]
		}
		xs = append(xs, ms(d))
	}
	return median(xs)
}

// mb is the median over passes of the named spans' allocation, in MB.
func (a *layerAcc) mb(names ...string) float64 {
	var xs []float64
	for _, p := range a.passes {
		var b uint64
		for _, n := range names {
			b += p.alloc[n]
		}
		xs = append(xs, float64(b)/1e6)
	}
	return median(xs)
}

// n is the median over passes of a work count (they are equal whenever
// the program is deterministic).
func (a *layerAcc) n(name string) float64 {
	var xs []float64
	for _, p := range a.passes {
		xs = append(xs, float64(p.counts[name]))
	}
	return median(xs)
}

// guard adds every pass's work counts to the report's determinism guard.
func (a *layerAcc) guard(r *report) error {
	for i, p := range a.passes {
		if err := r.guardPass(i, p.counts); err != nil {
			return err
		}
	}
	return nil
}

// compileLayers reports the compiler layers.
func (a *layerAcc) compileLayers() map[string]float64 {
	m := zeroLayers()
	m["lang.parse_ms"] = a.ms("lang.parse")
	m["lang.check_ms"] = a.ms("lang.check")
	m["lang.alloc_mb"] = a.mb("lang.parse", "lang.check")
	m["lower.ms"] = a.ms("lower")
	m["lower.instrs"] = a.n("lower.instrs")
	m["analysis.ms"] = a.ms("analysis")
	m["analysis.alloc_mb"] = a.mb("analysis")
	for _, k := range []string{"instr_evals", "contour_evals", "method_contours", "obj_contours"} {
		m["analysis."+k] = a.n("analysis." + k)
	}
	m["core.ms"] = a.ms("core")
	m["core.alloc_mb"] = a.mb("core")
	for _, k := range []string{"clones", "inlined", "rejected", "instrs"} {
		m["core."+k] = a.n("core." + k)
	}
	if d := m["core.inlined"] + m["core.rejected"]; d > 0 {
		m["core.accept_ratio"] = m["core.inlined"] / d
	}
	m["funcinline.ms"] = a.ms("funcinline")
	m["funcinline.instrs"] = a.n("funcinline.instrs")
	m["peephole.ms"] = a.ms("peephole")
	m["peephole.instrs"] = a.n("peephole.instrs")
	return m
}

// runMaxSteps bounds one benchmark execution: far above any legitimate
// run, it turns a runaway program into a failure instead of a hang.
const runMaxSteps = 2_000_000_000

// runVM executes c with the default cost model and, when withCache is
// set, the default simulated cache, returning its printed output.
func runVM(c *pipeline.Compiled, withCache bool) (string, vm.Counters, error) {
	var out strings.Builder
	opts := pipeline.RunOptions{Out: &out, MaxSteps: runMaxSteps}
	if withCache {
		opts.Cache = &cachesim.DefaultConfig
	}
	counters, err := c.RunContext(context.Background(), opts)
	return out.String(), counters, err
}

// verifyRuns runs each program's direct, baseline and inline builds once
// and checks that the optimized builds print what the direct build
// prints. It sets modeled_speedup (geometric mean over programs of
// baseline/inline modeled cycles) and modeled_mcycles (the inline builds'
// total).
func verifyRuns(r *report, progs []program, builds map[compileConfig]*pipeline.Compiled) error {
	var ratios []float64
	var inlineCycles int64
	for pi, p := range progs {
		want, _, err := runVM(builds[compileConfig{pi, pipeline.ModeDirect}], true)
		r.attempted++
		if err != nil {
			r.fail("%s/direct run: %v", p.name, err)
			continue
		}
		cycles := map[pipeline.Mode]int64{}
		for _, m := range []pipeline.Mode{pipeline.ModeBaseline, pipeline.ModeInline} {
			r.attempted++
			got, cnt, err := runVM(builds[compileConfig{pi, m}], true)
			if err != nil {
				r.fail("%s/%s run: %v", p.name, m, err)
				continue
			}
			if got != want {
				r.fail("%s/%s output differs from the direct build's", p.name, m)
			}
			cycles[m] = cnt.Cycles
			r.guard[fmt.Sprintf("cycles/%s/%s", p.name, m)] = cnt.Cycles
		}
		if cycles[pipeline.ModeInline] > 0 {
			ratios = append(ratios, float64(cycles[pipeline.ModeBaseline])/float64(cycles[pipeline.ModeInline]))
			inlineCycles += cycles[pipeline.ModeInline]
		}
	}
	if len(ratios) != len(progs) {
		return fmt.Errorf("verification runs failed")
	}
	gm, err := geomean(ratios)
	if err != nil {
		return err
	}
	r.e2e["modeled_speedup"] = gm
	r.e2e["modeled_mcycles"] = float64(inlineCycles) / 1e6
	return nil
}

// expectedFile holds the hand-checked direct-mode outputs of every
// program at the default seed's sizes.
const expectedFile = "perfbench/testdata/execute_seed1.txt"

// formatOutputs renders per-program outputs in the expected file's
// format: a "== name ==" header line, then the program's output.
func formatOutputs(progs []program, outs map[string]string) string {
	var b strings.Builder
	for _, p := range progs {
		fmt.Fprintf(&b, "== %s ==\n%s", p.name, outs[p.name])
	}
	return b.String()
}

// checkExpected compares direct-mode outputs with the committed file;
// only the default seed has one.
func checkExpected(root string, seed uint64, progs []program, outs map[string]string) error {
	if seed != defaultSeed {
		return nil
	}
	want, err := os.ReadFile(filepath.Join(root, expectedFile))
	if err != nil {
		return err
	}
	if got := formatOutputs(progs, outs); got != string(want) {
		return fmt.Errorf("direct-mode outputs differ from %s", expectedFile)
	}
	return nil
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
