package emit_test

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"objinline/internal/analysis"
	"objinline/internal/bench"
	"objinline/internal/emit"
	"objinline/internal/pipeline"
	"objinline/internal/vm"
)

var allModes = []pipeline.Mode{pipeline.ModeDirect, pipeline.ModeBaseline, pipeline.ModeInline}

// runVM executes c on the reference VM, returning stdout and the
// runtime-error text ("" on success).
func runVM(t *testing.T, c *pipeline.Compiled) (string, string) {
	t.Helper()
	var buf bytes.Buffer
	_, err := c.RunContext(context.Background(), pipeline.RunOptions{Out: &buf, MaxSteps: bench.RunMaxSteps})
	if err != nil {
		var re *vm.RuntimeError
		if !errors.As(err, &re) {
			t.Fatalf("vm run failed: %v", err)
		}
		return buf.String(), re.Error()
	}
	return buf.String(), ""
}

// runNative builds and executes c on the native tier, returning stdout
// and the runtime-error text ("" on success).
func runNative(t *testing.T, c *pipeline.Compiled) (string, string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	built, err := emit.Build(ctx, c.Prog, emit.BuildOptions{})
	if err != nil {
		t.Fatalf("native build failed: %v", err)
	}
	defer built.Close()
	var buf bytes.Buffer
	_, err = built.Run(ctx, &buf, 1)
	if err != nil {
		var re *emit.RuntimeError
		if !errors.As(err, &re) {
			t.Fatalf("native run failed: %v", err)
		}
		return buf.String(), re.Error()
	}
	return buf.String(), ""
}

// assertEngineIdentical compiles src at every mode and requires the
// native engine's observable behavior (stdout bytes and runtime-error
// text) to match the VM's exactly.
func assertEngineIdentical(t *testing.T, file, src string) {
	t.Helper()
	for _, mode := range allModes {
		c, err := pipeline.Compile(file, src, pipeline.Config{Mode: mode})
		if err != nil {
			t.Fatalf("%s: compile failed: %v", mode, err)
		}
		vmOut, vmErr := runVM(t, c)
		natOut, natErr := runNative(t, c)
		if natOut != vmOut {
			t.Errorf("%s: stdout differs\nvm:\n%q\nnative:\n%q", mode, vmOut, natOut)
		}
		if natErr != vmErr {
			t.Errorf("%s: runtime error differs\nvm:     %q\nnative: %q", mode, vmErr, natErr)
		}
	}
}

func TestNativeMatchesVMBasics(t *testing.T) {
	t.Parallel()
	assertEngineIdentical(t, "basics.icc", `
class Point {
  x; y;
  def init(a, b) { self.x = a; self.y = b; }
  def norm2() { return self.x * self.x + self.y * self.y; }
}
class Point3 : Point {
  z;
  def init(a, b, c) { self.x = a; self.y = b; self.z = c; }
  def norm2() { return self.x * self.x + self.y * self.y + self.z * self.z; }
}
func main() {
  var p = new Point(3, 4);
  var q = new Point3(1, 2, 2);
  print(p.norm2(), q.norm2());
  print(p, q, p == p, p == q, p != q);
  var acc = 0;
  for (var i = 0; i < 10; i = i + 1) { acc = acc + i * i; }
  print(acc, acc / 7, acc % 7, 0 - acc);
  print(1.5 + 2, 7 / 2, 7.0 / 2, 2 < 3, "a" + "b", "x" < "y");
  print(sqrt(2.0), floor(3.7), abs(0 - 4), abs(-4.5), min(3, 9), max(3, 9), min(2.5, 2), len("hello"));
  print(intof(3.9), floatof(2), strcat("n=", 42), bxor(12, 10));
  print(nil, true, false, !true, 0.1 + 0.2);
}
`)
}

func TestNativeMatchesVMContainers(t *testing.T) {
	t.Parallel()
	assertEngineIdentical(t, "containers.icc", `
class Inner {
  a; b;
  def init(x, y) { self.a = x; self.b = y; }
  def sum() { return self.a + self.b; }
}
class Outer {
  left; right; tag;
  def init(n) {
    self.left = new Inner(n, n + 1);
    self.right = new Inner(n * 2, n * 3);
    self.tag = n;
  }
  def total() { return self.left.sum() + self.right.sum() + self.tag; }
}
func main() {
  var arr = new [8];
  for (var i = 0; i < len(arr); i = i + 1) {
    arr[i] = new Outer(i);
  }
  var sum = 0;
  for (var j = 0; j < len(arr); j = j + 1) {
    sum = sum + arr[j].total();
  }
  print("total", sum);
  print(arr, arr[3].left.sum());
}
`)
}

func TestNativeMatchesVMTraps(t *testing.T) {
	t.Parallel()
	cases := map[string]string{
		"divzero.icc":   `func main() { var a = 10; var b = 0; print(a / b); }`,
		"modzero.icc":   `func main() { var a = 10; var b = 0; print(a % b); }`,
		"nilfield.icc":  `class C { x; } func main() { var c = nil; print(c.x); }`,
		"oob.icc":       `func main() { var a = new [3]; print(a[5]); }`,
		"negarr.icc":    `func main() { var n = 0 - 2; var a = new [n]; print(a); }`,
		"assert.icc":    `func main() { assert(1 < 1); }`,
		"badmeth.icc":   `class C { x; } func main() { var c = new C(); c.nope(); }`,
		"badarith.icc":  `func main() { var s = "a"; print(s * 2); }`,
		"badindex.icc":  `func main() { var a = new [3]; var i = 1.5; print(a[i]); }`,
		"intfield.icc":  `class C { x; } func main() { var i = 3; print(i.x); }`,
		"badcallee.icc": `func main() { var i = 3; i.m(); }`,
		"hugearr.icc":   `func main() { var a = new [9223372036854775807]; print(len(a)); }`,
		"bigarr.icc":    `func main() { var a = new [4294967297]; print(len(a)); }`,
		// Inlined at stride 2 in inline mode; out of range in every mode.
		"inlarr.icc": `class P { x; y; def init(a, b) { self.x = a; self.y = b; } }
func main() { var n = 4611686018427387904; var a = new [n]; a[0] = new P(1, 2); print(a[0].x); }`,
	}
	for file, src := range cases {
		t.Run(strings.TrimSuffix(file, ".icc"), func(t *testing.T) {
			t.Parallel()
			assertEngineIdentical(t, file, src)
		})
	}
}

// TestNativeMatchesVMBench is the acceptance gate: every bench program,
// inlining on and off, byte-identical stdout across engines.
func TestNativeMatchesVMBench(t *testing.T) {
	if testing.Short() {
		t.Skip("builds one native binary per configuration")
	}
	for _, p := range bench.Programs {
		for _, mode := range []pipeline.Mode{pipeline.ModeBaseline, pipeline.ModeInline} {
			t.Run(p.Name+"/"+mode.String(), func(t *testing.T) {
				t.Parallel()
				src, err := p.Source(bench.VariantAuto, bench.ScaleSmall)
				if err != nil {
					t.Fatal(err)
				}
				c, err := pipeline.Compile(p.Name+".icc", src, pipeline.Config{Mode: mode})
				if err != nil {
					t.Fatal(err)
				}
				vmOut, vmErr := runVM(t, c)
				natOut, natErr := runNative(t, c)
				if vmErr != "" || natErr != "" {
					t.Fatalf("bench program trapped: vm=%q native=%q", vmErr, natErr)
				}
				if natOut != vmOut {
					t.Errorf("stdout differs\nvm:\n%s\nnative:\n%s", vmOut, natOut)
				}
			})
		}
	}
}

// TestEmitDeterministicAcrossSolvers pins the native tier's solver
// invariance: both fixpoint engines produce byte-identical IR
// (established by the solver differential suites), so the emitted Go
// source must be byte-identical too — no per-solver native builds needed.
func TestEmitDeterministicAcrossSolvers(t *testing.T) {
	t.Parallel()
	p, err := bench.ByName("richards")
	if err != nil {
		t.Fatal(err)
	}
	src, err := p.Source(bench.VariantAuto, bench.ScaleSmall)
	if err != nil {
		t.Fatal(err)
	}
	var want []byte
	for _, solver := range []string{analysis.SolverWorklist, analysis.SolverSweep} {
		cfg := pipeline.Config{Mode: pipeline.ModeInline}
		cfg.Analysis.Solver = solver
		c, err := pipeline.Compile("richards.icc", src, cfg)
		if err != nil {
			t.Fatalf("%s: %v", solver, err)
		}
		got, err := emit.Emit(c.Prog)
		if err != nil {
			t.Fatalf("%s: emit: %v", solver, err)
		}
		if want == nil {
			want = got
			continue
		}
		if !bytes.Equal(got, want) {
			t.Errorf("emitted source for solver %s differs from worklist's", solver)
		}
	}
	// And twice through the same compile must be byte-identical.
	c, err := pipeline.Compile("richards.icc", src, pipeline.Config{Mode: pipeline.ModeInline})
	if err != nil {
		t.Fatal(err)
	}
	a, err := emit.Emit(c.Prog)
	if err != nil {
		t.Fatal(err)
	}
	b, err := emit.Emit(c.Prog)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("Emit is not deterministic for identical input")
	}
}

// TestHarnessLeaks pins the build-and-run harness's hygiene: no temp
// directories survive Close, and no goroutines leak across a full
// build/run/close cycle (exec's copy goroutines must drain).
func TestHarnessLeaks(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)

	c, err := pipeline.Compile("leak.icc", `func main() { print("ok"); }`, pipeline.Config{Mode: pipeline.ModeInline})
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		built, err := emit.Build(context.Background(), c.Prog, emit.BuildOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := built.Run(context.Background(), nil, 1); err != nil {
			t.Fatal(err)
		}
		if err := built.Close(); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := os.ReadDir(tmp)
	if err != nil {
		t.Fatal(err)
	}
	var leaked []string
	for _, e := range entries {
		// go build's own scratch space is outside TMPDIR control on some
		// platforms; we only assert our oicnative-* dirs are gone.
		if strings.HasPrefix(e.Name(), "oicnative-") {
			leaked = append(leaked, filepath.Join(tmp, e.Name()))
		}
	}
	if len(leaked) > 0 {
		t.Errorf("temp dirs leaked after Close: %v", leaked)
	}
	// Allow the runtime a moment to retire exec's internal goroutines.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines leaked: %d before, %d after", before, after)
	}
}

// TestBuildKeepsExplicitDir pins the EmitDir contract the CLI and CI
// rely on: the package and binary stay on disk after Close.
func TestBuildKeepsExplicitDir(t *testing.T) {
	t.Parallel()
	c, err := pipeline.Compile("keep.icc", `func main() { print(7); }`, pipeline.Config{Mode: pipeline.ModeInline})
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "emitted")
	built, err := emit.Build(context.Background(), c.Prog, emit.BuildOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := built.Run(context.Background(), &buf, 1); err != nil {
		t.Fatal(err)
	}
	if err := built.Close(); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != "7\n" {
		t.Errorf("output = %q, want %q", got, "7\n")
	}
	for _, f := range []string{"main.go", "go.mod", "prog"} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Errorf("expected %s to survive Close: %v", f, err)
		}
	}
}

// TestBuildRelativeDir pins the case CI's native-smoke job exercises:
// BuildOptions.Dir given as a path relative to the process's working
// directory. go build's -o flag resolves relative to the package
// directory, not the cwd, so Build must absolutize the dir or the
// binary lands in a nested copy of the path and Run can't find it.
func TestBuildRelativeDir(t *testing.T) {
	c, err := pipeline.Compile("rel.icc", `func main() { print(11); }`, pipeline.Config{Mode: pipeline.ModeInline})
	if err != nil {
		t.Fatal(err)
	}
	t.Chdir(t.TempDir())
	built, err := emit.Build(context.Background(), c.Prog, emit.BuildOptions{Dir: "emitted"})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := built.Run(context.Background(), &buf, 1); err != nil {
		t.Fatalf("run from relative emit dir: %v", err)
	}
	if got := buf.String(); got != "11\n" {
		t.Errorf("output = %q, want %q", got, "11\n")
	}
	if _, err := os.Stat(filepath.Join("emitted", "prog")); err != nil {
		t.Errorf("binary not at emitted/prog: %v", err)
	}
	if _, err := os.Stat(filepath.Join("emitted", "emitted")); err == nil {
		t.Error("nested emitted/emitted directory created — -o path resolved relative to the package dir")
	}
}

// TestRunDeadline pins deadline enforcement: an infinite loop is killed
// by the context, and the error wraps context.DeadlineExceeded.
func TestRunDeadline(t *testing.T) {
	t.Parallel()
	c, err := pipeline.Compile("spin.icc", `func main() { var i = 0; while (1) { i = i + 1; } }`,
		pipeline.Config{Mode: pipeline.ModeDirect})
	if err != nil {
		t.Fatal(err)
	}
	built, err := emit.Build(context.Background(), c.Prog, emit.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer built.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = built.Run(ctx, nil, 1)
	if err == nil {
		t.Fatal("expected a cancellation error")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("error does not wrap DeadlineExceeded: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("kill took too long: %v", elapsed)
	}
}

// TestNativeRepsMuting pins the measurement protocol: reps > 1 must not
// multiply program output.
func TestNativeRepsMuting(t *testing.T) {
	t.Parallel()
	c, err := pipeline.Compile("reps.icc", `func main() { print("once"); }`, pipeline.Config{Mode: pipeline.ModeInline})
	if err != nil {
		t.Fatal(err)
	}
	built, err := emit.Build(context.Background(), c.Prog, emit.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer built.Close()
	var buf bytes.Buffer
	stats, err := built.Run(context.Background(), &buf, 5)
	if err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != "once\n" {
		t.Errorf("output = %q, want %q (muted reps)", got, "once\n")
	}
	if stats.Reps != 5 {
		t.Errorf("stats.Reps = %d, want 5", stats.Reps)
	}
	if stats.WallNanos <= 0 {
		t.Errorf("stats.WallNanos = %d, want > 0", stats.WallNanos)
	}
}
