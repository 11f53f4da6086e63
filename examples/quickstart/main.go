// Quickstart: compile a small Mini-ICC program with object inlining and
// compare it against the uninlined baseline.
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"objinline"
)

const src = `
class Point {
  x; y;
  def init(x, y) { self.x = x; self.y = y; }
  def dist2() { return self.x*self.x + self.y*self.y; }
}
class Particle {
  pos; vel;
  def init(p, v) { self.pos = p; self.vel = v; }
  def step() {
    self.pos.x = self.pos.x + self.vel.x;
    self.pos.y = self.pos.y + self.vel.y;
  }
}
func main() {
  var n = 64;
  var ps = new [n];
  for (var i = 0; i < n; i = i + 1) {
    ps[i] = new Particle(new Point(floatof(i), 0.0), new Point(0.5, 1.0));
  }
  for (var t = 0; t < 100; t = t + 1) {
    for (var i = 0; i < n; i = i + 1) { ps[i].step(); }
  }
  var sum = 0.0;
  for (var i = 0; i < n; i = i + 1) { sum = sum + ps[i].pos.dist2(); }
  print("energy:", sum);
}
`

func main() {
	fmt.Println("== compiling with object inlining ==")
	inlined, err := objinline.Compile("particles.icc", src, objinline.Config{Mode: objinline.Inline})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(inlined.Report())

	fmt.Println("\n== program output ==")
	ctx := context.Background()
	ires, err := inlined.Execute(ctx, objinline.RunOptions{Output: os.Stdout})
	if err != nil {
		log.Fatal(err)
	}
	im := ires.Metrics

	baseline, err := objinline.Compile("particles.icc", src, objinline.Config{Mode: objinline.Baseline})
	if err != nil {
		log.Fatal(err)
	}
	bres, err := baseline.Execute(ctx, objinline.RunOptions{})
	if err != nil {
		log.Fatal(err)
	}
	bm := bres.Metrics

	fmt.Println("\n== baseline vs inlined ==")
	fmt.Printf("%-22s %12s %12s\n", "", "baseline", "inlined")
	fmt.Printf("%-22s %12d %12d\n", "modeled cycles", bm.Cycles, im.Cycles)
	fmt.Printf("%-22s %12d %12d\n", "heap objects", bm.ObjectsAllocated, im.ObjectsAllocated)
	fmt.Printf("%-22s %12d %12d\n", "dereferences", bm.Dereferences, im.Dereferences)
	fmt.Printf("%-22s %12d %12d\n", "cache misses", bm.CacheMisses, im.CacheMisses)
	fmt.Printf("speedup: %.2fx\n", float64(bm.Cycles)/float64(im.Cycles))
}
