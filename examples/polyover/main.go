// Polyover runs the polygon-map-overlay benchmark (the paper's strongest
// result) in both its array and list versions, and demonstrates the
// inlined-array layout option: element-major versus parallel
// (struct-of-arrays) storage.
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	"objinline"
)

func run(name string, src string, cfg objinline.Config) (objinline.Metrics, string, *objinline.Program) {
	prog, err := objinline.Compile(name, src, cfg)
	if err != nil {
		log.Fatalf("%s: %v", name, err)
	}
	var out strings.Builder
	res, err := prog.Execute(context.Background(), objinline.RunOptions{Output: &out})
	if err != nil {
		log.Fatalf("%s: %v", name, err)
	}
	return *res.Metrics, out.String(), prog
}

func main() {
	for _, version := range []string{"polyover-arr", "polyover-list"} {
		src, err := objinline.BenchmarkSource(version, false)
		if err != nil {
			log.Fatal(err)
		}
		base, baseOut, _ := run(version, src, objinline.Config{Mode: objinline.Baseline})
		inl, inlOut, prog := run(version, src, objinline.Config{Mode: objinline.Inline})
		if baseOut != inlOut {
			log.Fatalf("%s: inlining changed the result!", version)
		}
		fmt.Printf("== %s ==\n", version)
		fmt.Println("result:", strings.TrimSpace(inlOut))
		fmt.Println("inlined:", strings.Join(prog.InlinedFields(), ", "))
		fmt.Printf("cycles: %d -> %d (%.2fx), heap objects: %d -> %d, cache misses: %d -> %d\n\n",
			base.Cycles, inl.Cycles, float64(base.Cycles)/float64(inl.Cycles),
			base.ObjectsAllocated, inl.ObjectsAllocated, base.CacheMisses, inl.CacheMisses)
	}

	// Layout ablation on the array version.
	src, err := objinline.BenchmarkSource("polyover-arr", false)
	if err != nil {
		log.Fatal(err)
	}
	rowMajor, _, _ := run("polyover-arr", src, objinline.Config{Mode: objinline.Inline})
	parallel, _, _ := run("polyover-arr", src, objinline.Config{Mode: objinline.Inline, ParallelArrays: true})
	fmt.Println("== inlined-array layout (polyover-arr) ==")
	fmt.Printf("element-major: %d cycles (%d misses)\n", rowMajor.Cycles, rowMajor.CacheMisses)
	fmt.Printf("parallel:      %d cycles (%d misses)\n", parallel.Cycles, parallel.CacheMisses)
}
