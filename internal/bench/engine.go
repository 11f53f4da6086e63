package bench

import (
	"fmt"
	"runtime"
	"sync"

	"objinline/internal/analysis"
	"objinline/internal/core"
	"objinline/internal/pipeline"
	"objinline/internal/vm"
)

// CompileKey identifies one compilation configuration up to result
// equality: two configurations with the same key compile to the same
// program and, run under the default cost model, measure the same
// counters. Analysis options are stored default-normalized so an
// explicit TagDepth 3 and an implicit one share an entry.
type CompileKey struct {
	Program  string
	Variant  Variant
	Scale    Scale
	Mode     pipeline.Mode
	Layout   core.Layout
	Analysis analysis.Options
}

func (k CompileKey) String() string {
	return fmt.Sprintf("%s/%s/%s/%s/%s/depth%d",
		k.Program, k.Variant, k.Scale, k.Mode, k.Layout, k.Analysis.TagDepth)
}

// NewCompileKey normalizes a configuration into its cache key.
func NewCompileKey(p Program, v Variant, s Scale, cfg pipeline.Config) CompileKey {
	opts := cfg.Analysis
	// The pipeline forces Tags from the mode; mirror that here so two
	// configs differing only in an ignored Tags flag share a key.
	opts.Tags = cfg.Mode == pipeline.ModeInline
	return CompileKey{
		Program:  p.Name,
		Variant:  v,
		Scale:    s,
		Mode:     cfg.Mode,
		Layout:   cfg.ArrayLayout,
		Analysis: opts.WithDefaults(),
	}
}

// Stats counts the engine's cache traffic. Hits include waiting on an
// in-flight computation (single-flight coalescing), so Compiles and Runs
// are exactly the number of configurations built, no matter how many
// figures ask for them or how many workers run.
type Stats struct {
	Compiles    uint64 // compilations actually performed
	CompileHits uint64 // compile requests served from cache or in-flight
	Runs        uint64 // executions actually performed
	RunHits     uint64 // run requests served from cache or in-flight
}

// inflight is one single-flight cache entry: the first requester computes
// while later ones wait on done.
type inflight[T any] struct {
	done chan struct{}
	val  T
	err  error
}

// Engine executes benchmark configurations concurrently, memoizing
// compilations and executions behind single-flight caches. All Fig*
// regenerators share one engine so that `-fig all` compiles and runs each
// configuration exactly once; result collection is submission-ordered
// (see Collect), so figure output is byte-identical at any worker count.
type Engine struct {
	jobs int
	sem  chan struct{}

	mu         sync.Mutex
	compiles   map[CompileKey]*inflight[*pipeline.Compiled]
	runs       map[CompileKey]*inflight[*Measurement]
	profRuns   map[CompileKey]*inflight[*Measurement]
	nativeRuns map[CompileKey]*inflight[*pipeline.NativeRun]
	stats      Stats
}

// NewEngine builds an engine with the given worker-pool size; jobs <= 0
// means GOMAXPROCS.
func NewEngine(jobs int) *Engine {
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	return &Engine{
		jobs:       jobs,
		sem:        make(chan struct{}, jobs),
		compiles:   make(map[CompileKey]*inflight[*pipeline.Compiled]),
		runs:       make(map[CompileKey]*inflight[*Measurement]),
		profRuns:   make(map[CompileKey]*inflight[*Measurement]),
		nativeRuns: make(map[CompileKey]*inflight[*pipeline.NativeRun]),
	}
}

// Jobs returns the worker-pool size.
func (e *Engine) Jobs() int { return e.jobs }

// Stats returns a snapshot of the cache counters.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stats
}

// acquire takes a worker slot; computations hold one only while doing CPU
// work, never while waiting on another in-flight entry, so the pool
// cannot deadlock.
func (e *Engine) acquire() { e.sem <- struct{}{} }
func (e *Engine) release() { <-e.sem }

// memo is the engine's single-flight step: the first request for key in
// m is counted in misses and leads, filling the entry; every later one is
// counted in hits and waits for the leader's result.
func memo[T any](e *Engine, m map[CompileKey]*inflight[T], key CompileKey, hits, misses *uint64, fill func() (T, error)) (T, error) {
	e.mu.Lock()
	if f, ok := m[key]; ok {
		*hits++
		e.mu.Unlock()
		<-f.done
		return f.val, f.err
	}
	f := &inflight[T]{done: make(chan struct{})}
	m[key] = f
	*misses++
	e.mu.Unlock()

	f.val, f.err = fill()
	close(f.done)
	return f.val, f.err
}

// execute memoizes one execution of a configuration in m: run gets the
// configuration's compilation and a worker slot. The compilation is
// resolved first, outside any slot — Compile manages its own, so no slot
// is held while (possibly) waiting on it.
func execute[T any](e *Engine, m map[CompileKey]*inflight[T], p Program, v Variant, s Scale, cfg pipeline.Config, run func(*pipeline.Compiled) (T, error)) (T, error) {
	return memo(e, m, NewCompileKey(p, v, s, cfg), &e.stats.RunHits, &e.stats.Runs, func() (T, error) {
		c, err := e.Compile(p, v, s, cfg)
		if err != nil {
			var zero T
			return zero, err
		}
		e.acquire()
		defer e.release()
		return run(c)
	})
}

// Compile returns the memoized compilation of one configuration,
// compiling it (at most once, under a worker slot) on first request.
func (e *Engine) Compile(p Program, v Variant, s Scale, cfg pipeline.Config) (*pipeline.Compiled, error) {
	return memo(e, e.compiles, NewCompileKey(p, v, s, cfg), &e.stats.CompileHits, &e.stats.Compiles, func() (*pipeline.Compiled, error) {
		e.acquire()
		defer e.release()
		return compileConfig(p, v, s, cfg)
	})
}

// Measure returns the memoized execution of one configuration under the
// default cost model and cache simulator, compiling and running it (each
// at most once) on first request. Measurements under a different cost
// model do not need a fresh execution: replay the returned counters with
// Measurement.CyclesUnder.
func (e *Engine) Measure(p Program, v Variant, s Scale, cfg pipeline.Config) (*Measurement, error) {
	return execute(e, e.runs, p, v, s, cfg, func(c *pipeline.Compiled) (*Measurement, error) {
		return measure(p, v, s, cfg, c, nil)
	})
}

// MeasureProfiled is Measure with a site profiler attached to the run. It
// shares the compile cache with Measure but memoizes its executions
// separately — a profiled measurement carries per-site state the plain
// cache must not pay for, and the plain cache's entries carry no profile.
func (e *Engine) MeasureProfiled(p Program, v Variant, s Scale, cfg pipeline.Config) (*Measurement, error) {
	return execute(e, e.profRuns, p, v, s, cfg, func(c *pipeline.Compiled) (*Measurement, error) {
		return measure(p, v, s, cfg, c, vm.NewProfile())
	})
}
