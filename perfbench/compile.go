package main

import (
	"context"
	"fmt"
	"time"

	"objinline/internal/analysis"
	"objinline/internal/core"
	"objinline/internal/funcinline"
	"objinline/internal/ir"
	"objinline/internal/lang/ast"
	"objinline/internal/lang/parser"
	"objinline/internal/lang/sem"
	"objinline/internal/lower"
	"objinline/internal/peephole"
	"objinline/internal/pipeline"
)

var compileWorkload = &workload{
	name: "compile",
	setup: func(cfg *config, traced bool) (instance, error) {
		progs, err := suite(cfg.root, cfg.seed)
		if err != nil {
			return nil, err
		}
		c := &compileInst{seed: cfg.seed, progs: progs, order: shuffledConfigs(cfg.seed, len(progs), modes)}
		// One warm-up pass, so the heap has grown and the code is paged
		// in before timing starts.
		for _, cc := range c.order {
			p := progs[cc.prog]
			if _, err := pipeline.Compile(p.file, p.src, pipeline.Config{Mode: cc.mode}); err != nil {
				return nil, fmt.Errorf("%s: %w", c.label(cc), err)
			}
		}
		return c, nil
	},
}

type compileInst struct {
	seed  uint64
	progs []program
	order []compileConfig
}

func (*compileInst) close() {}

func (c *compileInst) label(cc compileConfig) string {
	return c.progs[cc.prog].name + "/" + cc.mode.String()
}

func (c *compileInst) measure(until time.Time, rec *recorder) (*report, error) {
	r := newReport()
	ops := newSamples()
	var passMs []float64
	// The first pass's IR text per configuration; later passes must
	// reproduce it byte for byte.
	first := map[compileConfig]string{}
	last := map[compileConfig]*pipeline.Compiled{}
	layers := newLayerAcc(rec)
	orders := rng(c.seed, streamPasses)
	for pass := 0; pass == 0 || time.Now().Before(until); pass++ {
		var passDur time.Duration
		sizes := map[string]int64{}
		for _, cc := range reshuffled(orders, c.order) {
			if err := r.calibrate(); err != nil {
				return nil, err
			}
			p := c.progs[cc.prog]
			r.attempted++
			var (
				comp *pipeline.Compiled
				err  error
				d    time.Duration
			)
			if rec == nil {
				t0 := time.Now()
				comp, err = pipeline.Compile(p.file, p.src, pipeline.Config{Mode: cc.mode})
				d = time.Since(t0)
			} else {
				t0 := time.Now()
				comp, err = tracedCompile(rec, layers, p.file, p.src, cc.mode)
				d = time.Since(t0)
			}
			if err != nil {
				r.fail("%s: %v", c.label(cc), err)
				continue
			}
			passDur += d
			ops.add(c.label(cc), ms(d))
			last[cc] = comp
			sizes["code_size/"+c.label(cc)] = int64(comp.CodeSize())
			if comp.Analysis != nil {
				sizes["instr_evals/"+c.label(cc)] = int64(comp.Analysis.Stats().Work.InstrEvals)
			}
			text := comp.Prog.String()
			if want, ok := first[cc]; !ok {
				first[cc] = text
				if rec != nil {
					// The traced copy of the pipeline must not drift from
					// the real one.
					ref, err := pipeline.Compile(p.file, p.src, pipeline.Config{Mode: cc.mode})
					if err != nil || ref.Prog.String() != text {
						r.fail("%s: traced compile differs from pipeline.Compile", c.label(cc))
					}
				}
			} else if text != want {
				r.fail("%s: pass %d IR differs from pass 0", c.label(cc), pass)
			}
		}
		if err := r.guardPass(pass, sizes); err != nil {
			return nil, err
		}
		passMs = append(passMs, ms(passDur))
		layers.endPass()
	}
	passes := len(passMs)
	// alloc_mb comes from one more pass, not timed, that reads the heap
	// around each compile only, leaving out the checks' allocations.
	var alloc allocMeter
	for _, cc := range c.order {
		p := c.progs[cc.prog]
		r.attempted++
		var err error
		alloc.add(func() { _, err = pipeline.Compile(p.file, p.src, pipeline.Config{Mode: cc.mode}) })
		if err != nil {
			r.fail("%s: %v", c.label(cc), err)
		}
	}
	r.e2e["alloc_mb"] = alloc.mb()
	r.e2e["suite_ms"] = median(passMs)
	r.e2e["p50_ms"] = ops.configMedian()
	gm, err := ops.geomean()
	if err != nil {
		return nil, err
	}
	r.e2e["geomean_ms"] = gm
	ops.tailNote(r)
	ops.rowNotes(r)
	var total float64
	for _, d := range passMs {
		total += d
	}
	r.e2e["ops_per_s"] = float64(len(ops.all)) / (total / 1000)
	r.notes = append(r.notes, fmt.Sprintf("%d passes of %d compiles", passes, len(c.order)))

	var codeSize int64
	for cc, comp := range last {
		if cc.mode != pipeline.ModeDirect {
			codeSize += int64(comp.CodeSize())
		}
	}
	r.e2e["code_size"] = float64(codeSize)
	r.guard["code_size"] = codeSize

	// Check the compiled programs by running them: every optimized build
	// must print what its unoptimized build prints.
	if err := verifyRuns(r, c.progs, last); err != nil {
		return nil, err
	}
	if rec != nil {
		r.layers = layers.compileLayers()
		if err := layers.guard(r); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// guardPass checks that a pass's guarded counts equal the first pass's.
func (r *report) guardPass(pass int, counts map[string]int64) error {
	for k, v := range counts {
		key := "pass." + k
		if pass == 0 {
			r.guard[key] = v
		} else if r.guard[key] != v {
			return fmt.Errorf("determinism: %s is %d in pass %d but %d in pass 0", k, v, pass, r.guard[key])
		}
	}
	return nil
}

// tracedCompile is pipeline.Compile with each layer call wrapped in a
// span, calling the same public functions in the same order (including
// the analysis's tag tracking in inline mode and both Verify calls).
// The compile workload's traced run checks that its IR matches
// pipeline.Compile byte for byte.
func tracedCompile(rec *recorder, acc *layerAcc, file, src string, mode pipeline.Mode) (*pipeline.Compiled, error) {
	op := rec.op()
	root := rec.begin("compile", op, -1, 1)
	defer rec.end(root)
	call := func(name string, f func() error) error {
		i := rec.begin(name, op, root, 1)
		err := f()
		rec.end(i)
		return err
	}

	var (
		tree *ast.Program
		info *sem.Info
		prog *ir.Program
	)
	if err := call("lang.parse", func() (err error) { tree, err = parser.Parse(file, src); return }); err != nil {
		return nil, fmt.Errorf("parse: %w", err)
	}
	if err := call("lang.check", func() (err error) { info, err = sem.Check(tree); return }); err != nil {
		return nil, fmt.Errorf("check: %w", err)
	}
	if err := call("lower", func() (err error) { prog, err = lower.Lower(info); return }); err != nil {
		return nil, fmt.Errorf("lower: %w", err)
	}
	acc.count("lower.instrs", int64(prog.CodeSize()))
	c := &pipeline.Compiled{Source: prog, Prog: prog, Mode: mode}
	if mode == pipeline.ModeDirect {
		return c, nil
	}

	var res *analysis.Result
	aopts := analysis.Options{Tags: mode == pipeline.ModeInline}
	if err := call("analysis", func() (err error) {
		res, err = analysis.AnalyzeContext(context.Background(), prog, aopts)
		return
	}); err != nil {
		return nil, err
	}
	st := res.Stats()
	acc.count("analysis.instr_evals", int64(st.Work.InstrEvals))
	acc.count("analysis.contour_evals", int64(st.Work.ContourEvals))
	acc.count("analysis.method_contours", int64(st.MethodContours))
	acc.count("analysis.obj_contours", int64(st.ObjContours))
	c.Analysis = res

	var opt *core.Result
	if err := call("core", func() (err error) {
		opt, err = core.Optimize(prog, res, core.Options{Inline: mode == pipeline.ModeInline})
		return
	}); err != nil {
		return nil, fmt.Errorf("optimize: %w", err)
	}
	acc.count("core.clones", int64(opt.CloneStats.ClonesAdded))
	if d := opt.Decision; d != nil {
		acc.count("core.inlined", int64(len(d.Inlined)))
		acc.count("core.rejected", int64(len(d.Rejected)))
	}
	acc.count("core.instrs", int64(opt.Prog.CodeSize()))
	c.Optimize = opt
	c.Prog = opt.Prog

	_ = call("funcinline", func() error { funcinline.Program(c.Prog, funcinline.DefaultOptions); return nil })
	acc.count("funcinline.instrs", int64(c.Prog.CodeSize()))
	if err := call("verify", c.Prog.Verify); err != nil {
		return nil, fmt.Errorf("function inlining broke the program: %w", err)
	}
	_ = call("peephole", func() error { peephole.Program(c.Prog); return nil })
	acc.count("peephole.instrs", int64(c.Prog.CodeSize()))
	if err := call("verify", c.Prog.Verify); err != nil {
		return nil, fmt.Errorf("peephole broke the program: %w", err)
	}
	return c, nil
}
