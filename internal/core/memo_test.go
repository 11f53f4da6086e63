package core_test

// Pins for the optimizer's memoized hot paths: the shared tag resolver in
// the prune loop, the transformer's tag memo, and the fmt-free clone
// signature encoder. Each is checked against the plain computation it
// replaces, over every benchmark build and the fuzz corpus.

import (
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"objinline/internal/bench"
	"objinline/internal/core"
	"objinline/internal/fuzzgen"
	"objinline/internal/ir"
	"objinline/internal/pipeline"
)

// corpusBuild is one compiled program of the check corpus.
type corpusBuild struct {
	name string
	c    *pipeline.Compiled
}

// benchmarkBuilds compiles every benchmark at the small scale in the
// given modes.
func benchmarkBuilds(t *testing.T, modes ...pipeline.Mode) []corpusBuild {
	t.Helper()
	var out []corpusBuild
	for _, p := range bench.Programs {
		src, err := p.Source(bench.VariantAuto, bench.ScaleSmall)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range modes {
			c, err := pipeline.Compile(p.Name+".icc", src, pipeline.Config{Mode: mode})
			if err != nil {
				t.Fatalf("%s/%v: %v", p.Name, mode, err)
			}
			out = append(out, corpusBuild{fmt.Sprintf("%s/%v", p.Name, mode), c})
		}
	}
	return out
}

func optsOf(c *pipeline.Compiled) core.Options {
	return core.Options{Inline: c.Mode == pipeline.ModeInline}
}

// pruneRejects makes the prune loop reject candidates mid-round: the
// value either() returns may come from Box.p or Bag.q (both rejected in
// one step), and v may be Cup.r's content or a raw Pt (rejected later in
// the same round, after the memo was reset). Neither the benchmarks nor
// the fuzz corpus reject anything in the prune loop.
const pruneRejects = `
class Pt { x; def init(x) { self.x = x; } def get() { return self.x; } }
class Box { p; def init(p) { self.p = p; } }
class Bag { q; def init(q) { self.q = q; } }
class Cup { r; def init(r) { self.r = r; } }
func either(c, b, g) { if (c) { return b.p; } return g.q; }
func main() {
  var b = new Box(new Pt(1));
  var g = new Bag(new Pt(2));
  var u = new Cup(new Pt(3));
  var loose = new Pt(4);
  print(either(true, b, g).get());
  var v = u.r;
  if (b.p.get() > 0) { v = loose; }
  print(v.get());
  print(u.r == loose);
}
`

// TestMemoizedResolutionMatchesFresh: for every benchmark's inline build,
// fuzz seeds 0–199, a program whose prune loop rejects and one whose
// content provenance is cyclic (testdata/content_cycle.icc), every value
// the prune loop checks resolves to the same Rep through the shared,
// reset-on-rejection Resolver as through a fresh one, and the
// transformer's shared resolver and tag memo give the same register rep
// as fresh ones.
func TestMemoizedResolutionMatchesFresh(t *testing.T) {
	builds := benchmarkBuilds(t, pipeline.ModeInline)
	c, err := pipeline.Compile("prune.icc", pruneRejects, pipeline.Config{Mode: pipeline.ModeInline})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(c.Optimize.Decision.Rejected); n != 3 {
		t.Fatalf("prune.icc: %d rejected fields, want Box.p, Bag.q and Cup.r", n)
	}
	builds = append(builds, corpusBuild{"prune.icc", c})
	cycle, err := os.ReadFile("../../testdata/content_cycle.icc")
	if err != nil {
		t.Fatal(err)
	}
	c, err = pipeline.Compile("content_cycle.icc", string(cycle), pipeline.Config{Mode: pipeline.ModeInline})
	if err != nil {
		t.Fatal(err)
	}
	builds = append(builds, corpusBuild{"content_cycle.icc", c})
	seeds := 200
	if testing.Short() {
		seeds = 20
	}
	for seed := 0; seed < seeds; seed++ {
		c, err := pipeline.Compile("fuzz.icc", fuzzgen.Program(int64(seed)), pipeline.Config{Mode: pipeline.ModeInline})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		builds = append(builds, corpusBuild{fmt.Sprintf("seed%d", seed), c})
	}
	var total core.ResolutionCheck
	for _, b := range builds {
		got, err := core.CheckResolution(b.c.Source, b.c.Analysis, optsOf(b.c))
		if err != nil {
			t.Fatalf("%s: %v", b.name, err)
		}
		for _, m := range got.Mismatches {
			t.Errorf("%s: %s", b.name, m)
		}
		total.Prune += got.Prune
		total.Resets += got.Resets
		total.Transform += got.Transform
	}
	// The corpus must reach every path: resolutions in the prune loop,
	// rejections that reset the memo mid-round, and transformer reps.
	if total.Prune == 0 || total.Resets == 0 || total.Transform == 0 {
		t.Errorf("corpus compared %d prune resolutions across %d resets and %d transformer reps; want all non-zero",
			total.Prune, total.Resets, total.Transform)
	}
	t.Logf("compared %d prune resolutions (%d resets) and %d transformer reps over %d builds",
		total.Prune, total.Resets, total.Transform, len(builds))
}

// fmtSig is the fmt-based clone-signature encoder sigInstr replaced; its
// bytes are the contract.
func fmtSig(in *ir.Instr) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d %d", int(in.Op), in.Dst)
	for _, a := range in.Args {
		fmt.Fprintf(&b, " %d", a)
	}
	if f := in.Field; f != nil {
		owner := "-"
		if f.Owner != nil {
			owner = f.Owner.Name
		}
		fmt.Fprintf(&b, " f=%s.%s@%d~%v", owner, f.Name, f.Slot, f.Synthetic)
	}
	if in.Class != nil {
		fmt.Fprintf(&b, " c=%s", in.Class.Name)
	}
	if in.Callee != nil {
		fmt.Fprintf(&b, " t=%d", in.Callee.ID)
	}
	if in.Method != "" {
		fmt.Fprintf(&b, " m=%s", in.Method)
	}
	fmt.Fprintf(&b, " x=%d/%g/%q/%d/%d\n", in.Aux, in.F, in.S, in.Target, in.Else)
	return b.String()
}

// TestSigInstrMatchesFmt holds the clone-signature encoder to the fmt
// rendering byte for byte: on every instruction of every body plan of the
// ten benchmark builds, and on edge-case operands.
func TestSigInstrMatchesFmt(t *testing.T) {
	check := func(where string, in *ir.Instr) {
		t.Helper()
		if got, want := core.SigInstr(in), fmtSig(in); got != want {
			t.Errorf("%s: sigInstr %q, fmt %q", where, got, want)
		}
	}
	instrs := 0
	for _, b := range benchmarkBuilds(t, pipeline.ModeBaseline, pipeline.ModeInline) {
		plan, err := core.PlanInstrs(b.c.Source, b.c.Analysis, optsOf(b.c))
		if err != nil {
			t.Fatalf("%s: %v", b.name, err)
		}
		for _, in := range plan {
			check(b.name, in)
		}
		instrs += len(plan)
	}
	if instrs == 0 {
		t.Fatal("no plan instructions")
	}

	owner := &ir.Class{Name: "Leaf'3"}
	floats := []float64{0, math.Copysign(0, -1), 1, -2.5, 0.1, 1e20, 1e21, 1e-7, 123456789, math.MaxFloat64,
		math.SmallestNonzeroFloat64, math.Inf(1), math.Inf(-1), math.NaN()}
	strs := []string{"", "plain", `say "hi"`, `back\slash`, "tab\tnewline\n", "é 世界 🙂", "\x00\x7f", "\xff\xfe", "`"}
	auxes := []int64{0, -1, math.MaxInt64, math.MinInt64}
	n := 0
	for i, f := range floats {
		for j, s := range strs {
			in := &ir.Instr{
				Op: ir.OpConstFloat, Dst: ir.Reg(i), Args: []ir.Reg{ir.Reg(j), 0, 1 << 20},
				F: f, S: s, Aux: auxes[(i+j)%len(auxes)], Target: -1, Else: 7,
			}
			switch n % 4 {
			case 0:
				in.Field = &ir.Field{Name: "c0$f1", Slot: 3, Owner: owner, Synthetic: true}
			case 1:
				in.Field = &ir.Field{Name: "f0", Slot: 0}
				in.Class = owner
			case 2:
				in.Callee = &ir.Func{ID: 42}
				in.Method = "sum"
			}
			n++
			check(fmt.Sprintf("edge F=%v S=%q", f, s), in)
		}
	}
}
