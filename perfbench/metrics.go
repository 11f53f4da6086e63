package main

// metricDef is one reported metric: its name and unit. The lists below
// are the benchmark's vocabulary; BENCHMARK.json at the repository root
// names the same metrics (a test keeps the two in step).
type metricDef struct {
	name, unit string
}

// endToEnd are printed by every untraced run, on every workload. Their
// per-workload meaning is in README.md.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"suite_ms", "ms"},
	{"geomean_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"tail_ms", "ms"},
	{"alloc_mb", "MB"},
	{"code_size", "instrs"},
	{"modeled_speedup", "x"},
	{"modeled_mcycles", "Mcycles"},
}

// perLayer are printed by every traced run. A layer a workload does not
// call reads 0 there.
var perLayer = []metricDef{
	{"lang.parse_ms", "ms"},
	{"lang.check_ms", "ms"},
	{"lang.alloc_mb", "MB"},
	{"lower.ms", "ms"},
	{"lower.instrs", "instrs"},

	{"analysis.ms", "ms"},
	{"analysis.alloc_mb", "MB"},
	{"analysis.instr_evals", "count"},
	{"analysis.contour_evals", "count"},
	{"analysis.method_contours", "count"},
	{"analysis.obj_contours", "count"},

	{"core.ms", "ms"},
	{"core.alloc_mb", "MB"},
	{"core.clones", "count"},
	{"core.inlined", "count"},
	{"core.rejected", "count"},
	{"core.accept_ratio", "ratio"},
	{"core.instrs", "instrs"},

	{"funcinline.ms", "ms"},
	{"funcinline.instrs", "instrs"},
	{"peephole.ms", "ms"},
	{"peephole.instrs", "instrs"},

	{"vm.new_ms", "ms"},
	{"vm.run_ms", "ms"},
	{"vm.ns_per_instr", "ns"},
	{"vm.minstrs", "Minstrs"},
	{"vm.heap_objects", "count"},
	{"vm.alloc_mb", "MB"},

	{"cachesim.ms", "ms"},
	{"cachesim.accesses", "count"},
	{"cachesim.miss_ratio", "ratio"},

	{"session.reuse_count", "count"},
	{"session.patch_count", "count"},
	{"session.reopt_count", "count"},
	{"session.solve_count", "count"},
	{"session.cold_count", "count"},
	{"session.reuse_ms", "ms"},
	{"session.patch_ms", "ms"},
	{"session.reopt_ms", "ms"},
	{"session.solve_ms", "ms"},
	{"session.cold_ms", "ms"},
	{"session.reuse_vs_cold", "ratio"},
	{"session.patch_vs_cold", "ratio"},
	{"session.reopt_vs_cold", "ratio"},
	{"session.solve_vs_cold", "ratio"},
	{"session.cold_vs_cold", "ratio"},
	{"session.instr_evals", "count"},

	{"server.hit_ms", "ms"},
	{"server.miss_ms", "ms"},
	{"server.explain_ms", "ms"},
	{"server.run_ms", "ms"},
	{"server.handler_ms", "ms"},
	{"server.queue_wait_ms", "ms"},
	{"server.transport_ms", "ms"},
	{"server.hit_ratio", "ratio"},
	{"server.compiles", "count"},
	{"server.dedup", "count"},
	{"server.shed", "count"},
	{"server.alloc_kb", "KB"},
}

// zeroLayers returns a per-layer map with every metric at 0, for a
// workload to fill in the layers it calls.
func zeroLayers() map[string]float64 {
	m := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		m[d.name] = 0
	}
	return m
}
