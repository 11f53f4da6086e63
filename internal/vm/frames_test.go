package vm_test

// Tests for the interpreter's own data layout: the size of a Value, the
// register stack that makes a call allocate nothing, the chunks objects
// are carved from, and the call-depth bound that turns runaway recursion
// into a runtime error.

import (
	"fmt"
	"io"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"objinline/internal/ir"
	"objinline/internal/vm"
)

func TestValueIs32Bytes(t *testing.T) {
	if size := unsafe.Sizeof(vm.Value{}); size > 32 {
		t.Errorf("unsafe.Sizeof(Value{}) = %d, want <= 32", size)
	}
}

// TestCallsAllocateNothing runs each call opcode 10 and 10,000 times; a
// call claims its registers on the machine's register stack, so both runs
// allocate the same number of times.
func TestCallsAllocateNothing(t *testing.T) {
	const funcSrc = `func g(x, y) { return x + y; }
func main() { var s = 0; for (var i = 0; i < N; i = i + 1) { s = g(s, i); } }`
	cases := []struct {
		name string
		src  string
		op   ir.Op // the loop's call instruction is rewritten to this op
	}{
		{"OpCall", funcSrc, ir.OpCall},
		// The VM runs a devirtualized call exactly like a top-level one;
		// lowering emits OpCallStatic only for constructors, so the test
		// relabels the loop's call.
		{"OpCallStatic", funcSrc, ir.OpCallStatic},
		{"OpCallMethod", `class C { def f(x, y) { return x + y; } }
func main() { var c = new C(); var s = 0; for (var i = 0; i < N; i = i + 1) { s = c.f(s, i); } }`, ir.OpCallMethod},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			allocs := func(n int) float64 {
				p := compile(t, strings.Replace(tc.src, "N", fmt.Sprint(n), 1))
				calls := 0
				for _, b := range p.Main.Blocks {
					for _, in := range b.Instrs {
						if in.Op == ir.OpCall || in.Op == ir.OpCallMethod {
							in.Op = tc.op
							calls++
						}
					}
				}
				if calls != 1 {
					t.Fatalf("main has %d calls, want 1:\n%s", calls, p.String())
				}
				return testing.AllocsPerRun(20, func() {
					c, err := vm.New(p, vm.Options{Out: io.Discard}).Run()
					if err != nil {
						t.Fatal(err)
					}
					if c.Calls != uint64(n)+1 {
						t.Fatalf("%d calls, want %d", c.Calls, n+1)
					}
				})
			}
			if few, many := allocs(10), allocs(10_000); few != many {
				t.Errorf("10 calls allocate %v times, 10,000 calls %v times", few, many)
			}
		})
	}
}

// TestStringConstantsAllocateNothing checks a string constant refers to
// the program's own text: a loop that loads and compares two of them
// allocates as often at 10 iterations as at 10,000.
func TestStringConstantsAllocateNothing(t *testing.T) {
	allocs := func(n int) float64 {
		p := compile(t, fmt.Sprintf(`func main() {
  var k = 0;
  for (var i = 0; i < %d; i = i + 1) { if ("ab" < "b") { k = k + 1; } }
}`, n))
		return testing.AllocsPerRun(20, func() {
			if _, err := vm.New(p, vm.Options{}).Run(); err != nil {
				t.Fatal(err)
			}
		})
	}
	if few, many := allocs(10), allocs(10_000); few != many {
		t.Errorf("10 iterations allocate %v times, 10,000 iterations %v times", few, many)
	}
}

// TestObjectsAllocateByChunk runs a loop that allocates K one-slot heap
// objects and K stacked ones, with K chosen so the 2K objects fill whole
// chunks, and gates the Go allocations it makes against the same loop run
// zero times: at most one per chunk, and bytes within 2% of the 2K
// Objects' and slots' own size. A chunk that spills into a larger size
// class (256 Values with Go 1.24's malloc header take the 9,472-byte
// class) breaks the byte bound.
func TestObjectsAllocateByChunk(t *testing.T) {
	// 2K = 10,710 objects fill 170 Object chunks and 42 Value chunks.
	const k = vm.ChunkObjects * vm.ChunkValues / 3
	build := func(n int) *ir.Program {
		p := compile(t, fmt.Sprintf(`class C { x; }
func main() { var i = 0; while (i < %d) { var a = new C(); var b = new C(); i = i + 1; } }`, n))
		var news []*ir.Instr
		for _, b := range p.Main.Blocks {
			for _, in := range b.Instrs {
				if in.Op == ir.OpNewObject {
					news = append(news, in)
				}
			}
		}
		if len(news) != 2 {
			t.Fatalf("main has %d allocations, want 2:\n%s", len(news), p.String())
		}
		news[1].Aux = 1 // stacked, as the inliner marks an elided temporary
		return p
	}
	run := func(p *ir.Program) {
		if _, err := vm.New(p, vm.Options{}).Run(); err != nil {
			t.Fatal(err)
		}
	}
	// bytes returns the bytes one run of p allocates, averaged over runs.
	bytes := func(p *ir.Program) float64 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		run(p)
		const runs = 5
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			run(p)
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / runs
	}
	none, many := build(0), build(k)
	c, err := vm.New(many, vm.Options{}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if c.ObjectsAllocated != k || c.StackAllocated != k {
		t.Fatalf("%d heap and %d stacked objects, want %d of each", c.ObjectsAllocated, c.StackAllocated, k)
	}

	// The first collection of a process starts the GC's worker goroutines,
	// which the allocation count would otherwise include.
	runtime.GC()
	const objects = 2 * k
	chunks := float64(objects/vm.ChunkObjects + objects/vm.ChunkValues)
	allocs := testing.AllocsPerRun(5, func() { run(many) }) - testing.AllocsPerRun(5, func() { run(none) })
	if allocs > chunks {
		t.Errorf("%d objects make %v Go allocations, want at most %v (one per chunk)", objects, allocs, chunks)
	}
	own := float64(objects * (unsafe.Sizeof(vm.Object{}) + unsafe.Sizeof(vm.Value{})))
	if got := bytes(many) - bytes(none); got > 1.02*own {
		t.Errorf("%d objects allocate %.0f bytes, want within 2%% of their own %.0f", objects, got, own)
	}
}

// TestCallDepthLimit checks the call-depth bound: recursion that fills it
// exactly runs, one level more is a positioned runtime error, and runaway
// recursion through a function or a method stops at the bound instead of
// exhausting the Go stack.
func TestCallDepthLimit(t *testing.T) {
	// main plus f(n), f(n-1), ..., f(0) is n+2 activations.
	const rec = `func f(n) { if (n == 0) { return 0; } return f(n - 1) + 1; }
func main() { print(f(N)); }`
	n := vm.MaxCallDepth - 2
	wantOut(t, strings.Replace(rec, "N", fmt.Sprint(n), 1), fmt.Sprintln(n))

	want := fmt.Sprintf("call depth exceeded (%d) in f", vm.MaxCallDepth)
	err := runErr(t, strings.Replace(rec, "N", fmt.Sprint(n+1), 1))
	var re *vm.RuntimeError
	if !asRuntimeError(err, &re) || re.Msg != want {
		t.Fatalf("one level over the bound: %v, want %q", err, want)
	}
	if re.Pos.Line != 1 {
		t.Errorf("error at %s, want the recursive call on line 1", re.Pos)
	}

	for _, tc := range []struct{ src, msg string }{
		{"func f(x) { return f(x + 1); }\nfunc main() { print(f(1)); }", "in f"},
		{"class C { def f(x) { return self.f(x + 1); } }\nfunc main() { print(new C().f(1)); }", "in C::f"},
	} {
		err := runErr(t, tc.src)
		want := fmt.Sprintf("call depth exceeded (%d) %s", vm.MaxCallDepth, tc.msg)
		if !strings.HasPrefix(err.Error(), "runtime error at test.icc:1:") || !strings.HasSuffix(err.Error(), want) {
			t.Errorf("runaway recursion: %v", err)
		}
	}
}
