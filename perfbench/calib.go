package main

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"math"
	"os"
	"os/exec"
	"strings"
	"time"
)

// The host this benchmark runs on may be shared, and its speed can drift
// over minutes by far more than the bounds allow: on a shared 2-CPU VM
// the compile suite ran up to a third slower in some runs than in others
// minutes apart. Every wall-time end-to-end metric is therefore scaled by
// a calibration kernel timed between operations: a go/types check of a
// fixed generated Go file, run in a child process. The kernel is a
// compiler front end too (maps, pointers, small allocations, GC), so it
// slows with the host the way the measured compiler does, but it does not
// change when the repository's code does. The scaled value is what the
// metric would read on a host where the kernel takes calibRefMs; the raw
// value is printed beside it.

// calibRefMs is the kernel time the wall-time metrics are scaled to: about
// its median on the 2-CPU Xeon VM the bounds were set on.
const calibRefMs = 40.0

// calibTypes is how many types, methods and generic functions the kernel
// source declares; it sets the kernel's length.
const calibTypes = 120

// hostScaled gives each wall-time end-to-end metric's exponent of the
// calibration factor: times scale with it, rates against it.
var hostScaled = map[string]float64{
	"setup_s":    1,
	"suite_ms":   1,
	"geomean_ms": 1,
	"p50_ms":     1,
	"tail_ms":    1,
	"ops_per_s":  -1,
}

// calibSource is the kernel's input, generated once.
var calibSource = calibGen(calibTypes)

// calibGen writes a self-contained Go file with n struct types, each with
// methods, a generic function and cross references between them.
func calibGen(n int) string {
	var b strings.Builder
	b.WriteString("package k\n\ntype Shape interface {\n\tArea() float64\n\tName() string\n}\n")
	for i := 0; i < n; i++ {
		next, callee := (i+1)%n, (i+3)%n
		fmt.Fprintf(&b, "\ntype T%d struct {\n\ta, b int\n\ts []float64\n\tm map[string]int\n\tnext *T%d\n}\n", i, next)
		fmt.Fprintf(&b, "\nfunc (t *T%d) Area() float64 {\n\tx := 0.0\n\tfor i, v := range t.s {\n\t\tx += v * float64(i+t.a)\n\t}\n\treturn x\n}\n", i)
		fmt.Fprintf(&b, "\nfunc (t *T%d) Name() string { return \"t%d\" }\n", i, i)
		fmt.Fprintf(&b, "\nfunc F%d[E any](xs []E, f func(E) int) (n int, sh Shape) {\n"+
			"\tt := &T%d{a: len(xs), m: map[string]int{}}\n"+
			"\tfor i, x := range xs {\n\t\tn += f(x) * i\n\t\tt.m[t.Name()] += n\n\t\tif n > %d {\n\t\t\tsh = t\n\t\t\tbreak\n\t\t}\n\t}\n"+
			"\tif t.next != nil && n < 0 {\n\t\treturn F%d(xs, f)\n\t}\n"+
			"\treturn n + t.a*t.b, sh\n}\n", i, i, 7*i, callee)
	}
	return b.String()
}

// calibKernel parses and type-checks calibSource and returns how many
// identifiers it defined, which must be the same on every call.
func calibKernel() (int, error) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "k.go", calibSource, 0)
	if err != nil {
		return 0, err
	}
	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	if _, err := (&types.Config{}).Check("k", fset, []*ast.File{f}, info); err != nil {
		return 0, err
	}
	return len(info.Defs), nil
}

// calibrator runs the kernel in a child process: the benchmark's own
// executable started with -calibration-child. A separate process keeps the
// kernel's allocations and collections out of the measured heap, and the
// measured heap's size and collector state out of the kernel's time.
type calibrator struct {
	cmd *exec.Cmd
	in  io.WriteCloser
	out *bufio.Reader
}

// startCalibrator starts the child and runs the kernel once, untimed, so
// its code and heap are warm.
func startCalibrator() (*calibrator, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	// The child reports its own errors on the benchmark's standard error.
	c := &calibrator{cmd: exec.Command(exe, "-calibration-child")}
	c.cmd.Stderr = os.Stderr
	if c.in, err = c.cmd.StdinPipe(); err != nil {
		return nil, err
	}
	out, err := c.cmd.StdoutPipe()
	if err != nil {
		c.in.Close()
		return nil, err
	}
	c.out = bufio.NewReader(out)
	if err := c.cmd.Start(); err != nil {
		c.in.Close()
		out.Close()
		return nil, err
	}
	if _, _, err := c.run(); err != nil {
		c.close()
		return nil, err
	}
	return c, nil
}

// run asks the child for one kernel run and returns its time and result.
func (c *calibrator) run() (ms float64, defs int, err error) {
	if _, err := c.in.Write([]byte{'\n'}); err != nil {
		return 0, 0, fmt.Errorf("calibration child: %w", err)
	}
	line, err := c.out.ReadString('\n')
	if err != nil {
		return 0, 0, fmt.Errorf("calibration child: %w", err)
	}
	var us int64
	if _, err := fmt.Sscanf(line, "%d %d", &us, &defs); err != nil {
		return 0, 0, fmt.Errorf("calibration child: %q: %w", line, err)
	}
	return float64(us) / 1000, defs, nil
}

// close ends the child (it exits when its input closes) and waits for it.
// Close and Wait errors are dropped: a child that failed has already
// failed the kernel run that was waiting for it.
func (c *calibrator) close() {
	c.in.Close()
	c.cmd.Wait()
}

// calibrationChild is the child's loop: one kernel run per input line,
// answered with its time in microseconds and its result. It returns when
// the input closes.
func calibrationChild(in io.Reader, out io.Writer) error {
	r := bufio.NewReader(in)
	for {
		if _, err := r.ReadString('\n'); err != nil {
			return nil
		}
		t0 := time.Now()
		defs, err := calibKernel()
		d := time.Since(t0)
		if err != nil {
			return err
		}
		if _, err := fmt.Fprintf(out, "%d %d\n", d.Microseconds(), defs); err != nil {
			return err
		}
	}
}

// calib is the running calibration child; run starts it before a
// workload measures and closes it after.
var calib *calibrator

// calibEvery is how much of a run passes between kernel runs, so every
// workload samples the host at the same rate whatever its pass length.
const calibEvery = 200 * time.Millisecond

// calibrate is called between operations (serve: between rounds), never
// inside a timed one. It runs the kernel once for each calibEvery since
// the last run (at least once per report, at most four times per call)
// and records the times in r.
func (r *report) calibrate() error {
	if calib == nil {
		return fmt.Errorf("calibration child not started")
	}
	n := min(int(time.Since(r.calibAt)/calibEvery), 4)
	if len(r.calib) == 0 {
		n = max(n, 1)
	}
	for i := 0; i < n; i++ {
		d, defs, err := calib.run()
		if err != nil {
			return err
		}
		r.guard["calibration_defs"] = int64(defs)
		r.calib = append(r.calib, d)
		r.calibAt = time.Now()
	}
	return nil
}

// scaleToHost rescales r's wall-time metrics by the calibration factor
// calibRefMs / (median kernel time) and notes the raw values.
func scaleToHost(r *report) {
	k := median(r.calib)
	if len(r.calib) == 0 || !(k > 0) {
		r.fail("calibration: no kernel timings")
		return
	}
	f := calibRefMs / k
	raw := make([]string, 0, len(hostScaled))
	for _, d := range endToEnd {
		e, ok := hostScaled[d.name]
		v, measured := r.e2e[d.name]
		if !ok || !measured {
			continue
		}
		raw = append(raw, fmt.Sprintf("%s %.6g", d.name, v))
		r.e2e[d.name] = v * math.Pow(f, e)
	}
	r.notes = append(r.notes,
		fmt.Sprintf("host scaling: kernel median %.3f ms over %d runs, factor %.4f (reference %.0f ms)", k, len(r.calib), f, calibRefMs),
		"raw (unscaled): "+strings.Join(raw, ", "))
}
