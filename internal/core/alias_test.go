package core_test

import (
	"testing"

	"objinline/internal/core"
	"objinline/internal/ir"
	"objinline/internal/pipeline"
)

// instrsOf collects every instruction of every function and method of p.
func instrsOf(p *ir.Program) map[*ir.Instr]bool {
	out := make(map[*ir.Instr]bool)
	add := func(fn *ir.Func) { fn.Instrs(func(_ *ir.Block, in *ir.Instr) { out[in] = true }) }
	for _, fn := range p.Funcs {
		add(fn)
	}
	for _, c := range p.Classes {
		for _, m := range c.Methods {
			add(m)
		}
	}
	return out
}

// TestOptimizeOwnsItsOutput holds the optimizer to its aliasing
// contract: signing reads the input's instructions in place and only the
// emitted clones get copies, so no instruction of the output may be one
// of the input's, and the input must print the same after Optimize. Every
// benchmark, in every optimizing configuration.
func TestOptimizeOwnsItsOutput(t *testing.T) {
	for _, b := range benchmarkBuilds(t, pipeline.ModeBaseline, pipeline.ModeInline) {
		configs := []core.Options{optsOf(b.c)}
		if b.c.Mode == pipeline.ModeInline {
			configs = append(configs, core.Options{Inline: true, ArrayLayout: core.LayoutParallel})
		}
		for _, opts := range configs {
			src := b.c.Source
			before := src.String()
			input := instrsOf(src)
			res, err := core.Optimize(src, b.c.Analysis, opts)
			if err != nil {
				t.Fatalf("%s %+v: %v", b.name, opts, err)
			}
			shared := 0
			for in := range instrsOf(res.Prog) {
				if input[in] {
					shared++
				}
			}
			if shared > 0 {
				t.Errorf("%s %+v: %d output instructions are the input's own", b.name, opts, shared)
			}
			if src.String() != before {
				t.Errorf("%s %+v: Optimize changed its input program", b.name, opts)
			}
		}
	}
}

// TestSigningMatchesPlanning checks that signing a contour, which reads
// unchanged instructions in place and builds modified ones in one
// scratch instruction, encodes the same bytes as the contour's full
// plan, so contours are grouped by the bodies materialization emits.
func TestSigningMatchesPlanning(t *testing.T) {
	for _, b := range benchmarkBuilds(t, pipeline.ModeBaseline, pipeline.ModeInline) {
		bad, err := core.SigningMismatches(b.c.Source, b.c.Analysis, optsOf(b.c))
		if err != nil {
			t.Fatalf("%s: %v", b.name, err)
		}
		if len(bad) > 0 {
			t.Errorf("%s: %d contours sign differently from their plan, first %s", b.name, len(bad), bad[0])
		}
	}
}
