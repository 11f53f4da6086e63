package pipeline_test

import (
	"runtime"
	"testing"

	"objinline/internal/bench"
	"objinline/internal/pipeline"
)

// Allocation ceilings for one inline-mode compile of richards at small
// scale. Go 1.24 on linux/amd64 measures 50,448 allocations and
// 4,260,961 bytes; the ceilings sit 10% above, which covers the race
// detector (about 5% more of both) but not a return to hash-map tag
// interning and reader spills (57,500 allocations and 4,875,310 bytes),
// nor to planning and cloning every contour's body or re-allocating
// every analysis pass (131,555 allocations and 10,249,170 bytes before
// those stopped).
const (
	compileAllocsCeiling = 55_500
	compileBytesCeiling  = 4_690_000
)

// TestCompileAllocationCeiling gates the allocations of the compile path
// the perfbench compile workload spends most of its garbage in.
func TestCompileAllocationCeiling(t *testing.T) {
	p, err := bench.ByName("richards")
	if err != nil {
		t.Fatal(err)
	}
	src, err := p.Source(bench.VariantAuto, bench.ScaleSmall)
	if err != nil {
		t.Fatal(err)
	}
	compile := func() {
		if _, err := pipeline.Compile("richards.icc", src, pipeline.Config{Mode: pipeline.ModeInline}); err != nil {
			t.Fatal(err)
		}
	}
	const runs = 5
	if allocs := testing.AllocsPerRun(runs, compile); allocs > compileAllocsCeiling {
		t.Errorf("one compile makes %.0f allocations, ceiling %d", allocs, compileAllocsCeiling)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		compile()
	}
	runtime.ReadMemStats(&after)
	if bytes := (after.TotalAlloc - before.TotalAlloc) / runs; bytes > compileBytesCeiling {
		t.Errorf("one compile allocates %d bytes, ceiling %d", bytes, compileBytesCeiling)
	}
}
