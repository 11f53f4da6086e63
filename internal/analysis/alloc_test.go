package analysis_test

import (
	"runtime"
	"testing"

	"objinline/internal/analysis"
	"objinline/internal/bench"
)

// Allocation gate for one Tags-on analysis of richards at small scale.
// Go 1.24 on linux/amd64 measures 35,856 or 35,857 allocations and
// 3,100,659 to 3,100,716 bytes (the runtime's own allocations jitter),
// so the ceilings sit just above; hash-map tag interning and reader
// spills made 42,907 allocations and 3,714,970 bytes. Under the race
// detector the analysis makes about 3% more allocations and 5% more
// bytes, not repeatably, so race builds get 8% of room.
const (
	analyzeAllocsCeiling = 35_870
	analyzeBytesCeiling  = 3_102_000
	raceAllowance        = 1.08
)

// raceBuild is set by race_test.go in race-detector builds.
var raceBuild bool

// TestAnalyzeAllocations gates the analysis' allocations exactly
// (allocation counts are deterministic up to the runtime's own).
func TestAnalyzeAllocations(t *testing.T) {
	p, err := bench.ByName("richards")
	if err != nil {
		t.Fatal(err)
	}
	src, err := p.Source(bench.VariantAuto, bench.ScaleSmall)
	if err != nil {
		t.Fatal(err)
	}
	prog := compile(t, src)
	analyze := func() { analysis.Analyze(prog, analysis.Options{Tags: true}) }
	allocsCeiling, bytesCeiling := float64(analyzeAllocsCeiling), uint64(analyzeBytesCeiling)
	if raceBuild {
		allocsCeiling *= raceAllowance
		bytesCeiling = uint64(float64(bytesCeiling) * raceAllowance)
	}
	const runs = 5
	if allocs := testing.AllocsPerRun(runs, analyze); allocs > allocsCeiling {
		t.Errorf("one analysis makes %.0f allocations, ceiling %.0f", allocs, allocsCeiling)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		analyze()
	}
	runtime.ReadMemStats(&after)
	if bytes := (after.TotalAlloc - before.TotalAlloc) / runs; bytes > bytesCeiling {
		t.Errorf("one analysis allocates %d bytes, ceiling %d", bytes, bytesCeiling)
	}
}
