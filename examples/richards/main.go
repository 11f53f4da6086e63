// Richards runs the OS-simulator benchmark under all three pipelines and
// shows the paper's headline Richards result: the polymorphic per-subclass
// private data record — which C++ cannot declare inline (it is a void*) —
// is inline allocated automatically, one container version per subclass.
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	"objinline"
)

func main() {
	src, err := objinline.BenchmarkSource("richards", false)
	if err != nil {
		log.Fatal(err)
	}

	type result struct {
		mode    objinline.Mode
		metrics objinline.Metrics
		output  string
		prog    *objinline.Program
	}
	var results []result
	for _, mode := range []objinline.Mode{objinline.Direct, objinline.Baseline, objinline.Inline} {
		prog, err := objinline.Compile("richards.icc", src, objinline.Config{Mode: mode})
		if err != nil {
			log.Fatalf("%v: %v", mode, err)
		}
		var out strings.Builder
		res, err := prog.Execute(context.Background(), objinline.RunOptions{Output: &out})
		if err != nil {
			log.Fatalf("%v: %v", mode, err)
		}
		results = append(results, result{mode, *res.Metrics, out.String(), prog})
	}

	fmt.Println("richards result (identical in every mode):", strings.TrimSpace(results[0].output))
	for _, r := range results {
		if r.output != results[0].output {
			log.Fatalf("mode %v changed program behavior!", r.mode)
		}
	}

	fmt.Printf("\n%-10s %14s %14s %12s %12s\n", "mode", "cycles", "dereferences", "dispatches", "heap objs")
	for _, r := range results {
		fmt.Printf("%-10s %14d %14d %12d %12d\n",
			r.mode, r.metrics.Cycles, r.metrics.Dereferences, r.metrics.Dispatches, r.metrics.ObjectsAllocated)
	}

	inl := results[2].prog
	fmt.Println("\ninlined automatically (impossible to declare inline in C++):")
	for _, f := range inl.InlinedFields() {
		fmt.Println("  ", f)
	}
	fmt.Printf("\nspeedup over baseline: %.3fx\n",
		float64(results[1].metrics.Cycles)/float64(results[2].metrics.Cycles))
}
