package main

import (
	"context"
	"fmt"
	"strings"
	"time"

	"objinline/internal/cachesim"
	"objinline/internal/pipeline"
	"objinline/internal/vm"
)

var executeWorkload = &workload{
	name: "execute",
	setup: func(cfg *config, traced bool) (instance, error) {
		progs, err := suite(cfg.root, cfg.seed)
		if err != nil {
			return nil, err
		}
		e := &executeInst{progs: progs, builds: map[compileConfig]*pipeline.Compiled{}, want: map[string]string{}}
		for pi, p := range progs {
			for _, m := range modes {
				c, err := pipeline.Compile(p.file, p.src, pipeline.Config{Mode: m})
				if err != nil {
					return nil, fmt.Errorf("%s/%s: %w", p.name, m, err)
				}
				e.builds[compileConfig{pi, m}] = c
			}
			// The reference output comes from the unoptimized build.
			out, _, err := runVM(e.builds[compileConfig{pi, pipeline.ModeDirect}], true)
			if err != nil {
				return nil, fmt.Errorf("%s/direct: %w", p.name, err)
			}
			e.want[p.name] = out
		}
		if err := checkExpected(cfg.root, cfg.seed, progs, e.want); err != nil {
			e.setupErrs = append(e.setupErrs, err.Error())
		}
		e.seed, e.order = cfg.seed, shuffledConfigs(cfg.seed, len(progs), modes[1:])
		return e, nil
	},
}

type executeInst struct {
	seed      uint64
	progs     []program
	builds    map[compileConfig]*pipeline.Compiled
	want      map[string]string
	order     []compileConfig
	setupErrs []string
}

func (*executeInst) close() {}

func (e *executeInst) measure(until time.Time, rec *recorder) (*report, error) {
	r := newReport()
	for _, msg := range e.setupErrs {
		r.attempted++
		r.fail("%s", msg)
	}
	ops := newSamples()
	layers := newLayerAcc(rec)
	var passMs []float64
	cycles := map[compileConfig]int64{}
	orders := rng(e.seed, streamPasses)
	for pass := 0; pass == 0 || time.Now().Before(until); pass++ {
		var passDur time.Duration
		counts := map[string]int64{}
		for _, cc := range reshuffled(orders, e.order) {
			if err := r.calibrate(); err != nil {
				return nil, err
			}
			p, c := e.progs[cc.prog], e.builds[cc]
			label := p.name + "/" + cc.mode.String()
			r.attempted++
			var (
				out string
				cnt vm.Counters
				err error
				d   time.Duration
			)
			if rec == nil {
				t0 := time.Now()
				out, cnt, err = runVM(c, true)
				d = time.Since(t0)
			} else {
				t0 := time.Now()
				out, cnt, err = tracedRun(rec, c, true)
				d = time.Since(t0)
			}
			if err != nil {
				r.fail("%s: %v", label, err)
				continue
			}
			if out != e.want[p.name] {
				r.fail("%s: output differs from the direct build's", label)
			}
			passDur += d
			ops.add(label, ms(d))
			cycles[cc] = cnt.Cycles
			counts["instrs/"+label] = int64(cnt.Instructions)
			counts["cycles/"+label] = cnt.Cycles
			if rec != nil {
				layers.count("vm.instrs", int64(cnt.Instructions))
				layers.count("vm.heap_objects", int64(cnt.ObjectsAllocated))
				layers.count("cachesim.hits", int64(cnt.CacheHits))
				layers.count("cachesim.misses", int64(cnt.CacheMisses))
				// The same build without the simulated cache: the
				// difference is the cache simulator's cost.
				if _, _, err := tracedRun(rec, c, false); err != nil {
					r.fail("%s without cache: %v", label, err)
				}
			}
		}
		if err := r.guardPass(pass, counts); err != nil {
			return nil, err
		}
		passMs = append(passMs, ms(passDur))
		layers.endPass()
	}
	passes := len(passMs)
	// alloc_mb comes from one more pass, not timed, that reads the heap
	// around each run only.
	var alloc allocMeter
	for _, cc := range e.order {
		p := e.progs[cc.prog]
		r.attempted++
		var (
			out string
			err error
		)
		alloc.add(func() { out, _, err = runVM(e.builds[cc], true) })
		if err != nil {
			r.fail("%s/%s: %v", p.name, cc.mode, err)
		} else if out != e.want[p.name] {
			r.fail("%s/%s: output differs from the direct build's", p.name, cc.mode)
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
	r.notes = append(r.notes, fmt.Sprintf("%d passes of %d runs", passes, len(e.order)))

	var codeSize, inlineCycles int64
	var ratios []float64
	for pi := range e.progs {
		base, inl := compileConfig{pi, pipeline.ModeBaseline}, compileConfig{pi, pipeline.ModeInline}
		codeSize += int64(e.builds[base].CodeSize() + e.builds[inl].CodeSize())
		if cycles[inl] > 0 {
			ratios = append(ratios, float64(cycles[base])/float64(cycles[inl]))
			inlineCycles += cycles[inl]
		}
	}
	r.e2e["code_size"] = float64(codeSize)
	r.guard["code_size"] = codeSize
	if r.e2e["modeled_speedup"], err = geomean(ratios); err != nil {
		return nil, err
	}
	r.e2e["modeled_mcycles"] = float64(inlineCycles) / 1e6

	if rec != nil {
		m := zeroLayers()
		m["vm.new_ms"] = layers.ms("vm.new")
		m["vm.run_ms"] = layers.ms("vm.run")
		instrs := layers.n("vm.instrs")
		m["vm.ns_per_instr"] = ratio(m["vm.run_ms"]*1e6, instrs)
		m["vm.minstrs"] = instrs / 1e6
		m["vm.heap_objects"] = layers.n("vm.heap_objects")
		m["vm.alloc_mb"] = layers.mb("vm.new", "vm.run")
		m["cachesim.ms"] = m["vm.run_ms"] - layers.ms("vm.run_nocache")
		acc := layers.n("cachesim.hits") + layers.n("cachesim.misses")
		m["cachesim.accesses"] = acc
		m["cachesim.miss_ratio"] = ratio(layers.n("cachesim.misses"), acc)
		r.layers = m
		if err := layers.guard(r); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// tracedRun is Compiled.RunContext with vm.New and Machine.RunContext
// wrapped in spans. Without the cache its run span is named
// vm.run_nocache.
func tracedRun(rec *recorder, c *pipeline.Compiled, withCache bool) (string, vm.Counters, error) {
	op := rec.op()
	root := rec.begin("execute", op, -1, 1)
	defer rec.end(root)
	var out strings.Builder
	opts := vm.Options{Out: &out, MaxSteps: runMaxSteps}
	runName := "vm.run_nocache"
	if withCache {
		opts.Cache = &cachesim.DefaultConfig
		runName = "vm.run"
	}
	i := rec.begin("vm.new", op, root, 1)
	m := vm.New(c.Prog, opts)
	rec.end(i)
	i = rec.begin(runName, op, root, 1)
	cnt, err := m.RunContext(context.Background())
	rec.end(i)
	return out.String(), cnt, err
}
