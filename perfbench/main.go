// Command perfbench is the repository's benchmark. One invocation runs one
// workload for a fixed time and prints every end-to-end metric by name
// with its unit; with -trace 1 it instead records spans around each
// layer's public functions and prints the per-layer metrics. The last line
// of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it from the repository root, through run.sh (which builds it):
//
//	bash perfbench/run.sh --workload compile --seed 1 --seconds 20 --trace 0
//
// Workloads, metrics and the layer-to-metric mapping are documented in
// perfbench/README.md.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// defaultSeed is the seed whose execute outputs are also checked against
// testdata/execute_seed1.txt.
const defaultSeed = 1

// setupReps is how many times each workload sets up per run; setup_s is
// the median.
const setupReps = 5

// config is one invocation's settings.
type config struct {
	workload string
	seed     uint64
	seconds  time.Duration
	traced   bool
	outDir   string
	root     string
}

// report is what one measurement phase of a workload produced.
type report struct {
	// e2e holds the end-to-end metrics (without setup_s) and layers the
	// per-layer ones; both are keyed by the names in metrics.go.
	e2e    map[string]float64
	layers map[string]float64
	// attempted and failed count operations; failed includes wrong output.
	attempted, failed int
	// errs describes the first few failures.
	errs []string
	// guard holds the counts that must repeat exactly across passes, the
	// halves of a traced run, and runs of the same seed.
	guard map[string]int64
	// notes are printed under the metric table.
	notes []string
	// calib holds the calibration kernel's timings (calib.go), and calibAt
	// when the last of them ended.
	calib   []float64
	calibAt time.Time
}

func newReport() *report {
	return &report{e2e: map[string]float64{}, layers: map[string]float64{}, guard: map[string]int64{}, calibAt: time.Now()}
}

// fail records one failed operation.
func (r *report) fail(format string, args ...any) {
	r.failed++
	if len(r.errs) < 8 {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

// workload is one benchmark workload. setup builds its inputs from the
// seed and is timed for setup_s.
type workload struct {
	name  string
	setup func(cfg *config, traced bool) (instance, error)
}

// instance is a workload's set-up state.
type instance interface {
	// measure runs the workload in whole passes until the deadline,
	// recording spans into rec when rec is non-nil.
	measure(until time.Time, rec *recorder) (*report, error)
	// close releases what setup started (listeners, goroutines).
	close()
}

var workloads = []*workload{compileWorkload, executeWorkload, editWorkload, serveWorkload}

func findWorkload(name string) (*workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

func main() {
	var (
		cfg     config
		seed    int64
		seconds float64
		trace   int
		child   bool
	)
	flag.StringVar(&cfg.workload, "workload", "compile", "workload: compile, execute, edit or serve")
	flag.Int64Var(&seed, "seed", defaultSeed, "seed the workload's inputs are generated from")
	flag.Float64Var(&seconds, "seconds", 20, "how long one run measures")
	flag.IntVar(&trace, "trace", 0, "1 records layer spans and prints per-layer metrics")
	flag.StringVar(&cfg.outDir, "out", ".bench_build", "directory for the trace file and determinism records")
	flag.BoolVar(&child, "calibration-child", false, "run as the calibration kernel's child process (calib.go)")
	flag.Parse()
	if child {
		if err := calibrationChild(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench calibration child:", err)
			os.Exit(1)
		}
		return
	}
	cfg.seed = uint64(seed)
	cfg.seconds = time.Duration(seconds * float64(time.Second))
	cfg.traced = trace == 1
	if err := run(os.Stdout, &cfg); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(out io.Writer, cfg *config) error {
	w, err := findWorkload(cfg.workload)
	if err != nil {
		return err
	}
	if cfg.seconds <= 0 {
		return fmt.Errorf("seconds must be positive")
	}
	if cfg.root, err = repoRoot(); err != nil {
		return err
	}
	printStamp(out, cfg)

	// Set up several times; keep the last instance and report the median.
	var (
		inst   instance
		setups []float64
	)
	for i := 0; i < setupReps; i++ {
		if inst != nil {
			inst.close()
		}
		t0 := time.Now()
		inst, err = w.setup(cfg, false)
		if err != nil {
			return fmt.Errorf("%s setup: %w", w.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	setupS := median(setups)
	if calib, err = startCalibrator(); err != nil {
		inst.close()
		return err
	}
	defer calib.close()

	var res *report
	if !cfg.traced {
		res, err = inst.measure(time.Now().Add(cfg.seconds), nil)
		inst.close()
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		res.e2e["setup_s"] = setupS
		scaleToHost(res)
		printTable(out, "end-to-end", endToEnd, res.e2e)
	} else {
		res, err = measureTraced(out, cfg, w, inst, setupS)
		if err != nil {
			return err
		}
	}
	for _, n := range res.notes {
		fmt.Fprintln(out, "  "+n)
	}
	if build, err := buildID(); err != nil {
		res.fail("determinism: %v", err)
	} else if err := checkGuard(filepath.Join(cfg.outDir, "guard"), guardName(cfg, build), res.guard); err != nil {
		res.fail("determinism: %v", err)
	}
	errorRate := 0.0
	if res.attempted > 0 {
		errorRate = float64(res.failed) / float64(res.attempted)
	}
	fmt.Fprintf(out, "  error_rate %.6f (%d failed of %d attempted)\n", errorRate, res.failed, res.attempted)
	for _, e := range res.errs {
		fmt.Fprintln(out, "  FAIL:", e)
	}

	defs, vals := endToEnd, res.e2e
	if cfg.traced {
		defs, vals = perLayer, res.layers
	}
	line, err := resultLine(res, defs, vals)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, line)
	if res.failed > 0 || res.attempted == 0 {
		return fmt.Errorf("%s: %d of %d operations failed", w.name, res.failed, res.attempted)
	}
	return nil
}

// measureTraced splits the run in two halves: untraced, then traced on a
// fresh set-up, and prints both end-to-end tables with their difference
// (the tracing overhead) next to the per-layer table.
func measureTraced(out io.Writer, cfg *config, w *workload, inst instance, setupS float64) (*report, error) {
	half := cfg.seconds / 2
	plain, err := inst.measure(time.Now().Add(half), nil)
	inst.close()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	tinst, err := w.setup(cfg, true)
	if err != nil {
		return nil, fmt.Errorf("%s traced setup: %w", w.name, err)
	}
	rec := newRecorder()
	traced, err := tinst.measure(time.Now().Add(half), rec)
	tinst.close()
	if err != nil {
		return nil, fmt.Errorf("%s traced: %w", w.name, err)
	}
	plain.e2e["setup_s"] = setupS
	traced.e2e["setup_s"] = setupS
	scaleToHost(plain)
	scaleToHost(traced)
	printOverhead(out, plain.e2e, traced.e2e)
	printTable(out, "per-layer (traced)", perLayer, traced.layers)

	path := filepath.Join(cfg.outDir, fmt.Sprintf("perfbench-%s-seed%d.trace.json", w.name, cfg.seed))
	if err := rec.writeChromeFile(path, stampArgs(cfg)); err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "  trace: %s (%d spans; load it at ui.perfetto.dev)\n", path, rec.len())

	// Both halves count: their operations, failures and guarded counts.
	traced.attempted += plain.attempted
	traced.failed += plain.failed
	traced.errs = append(plain.errs, traced.errs...)
	for k, v := range plain.guard {
		if tv, ok := traced.guard[k]; ok && tv != v {
			traced.fail("determinism: %s is %d untraced but %d traced", k, v, tv)
		}
	}
	for i, n := range plain.notes {
		plain.notes[i] = "untraced: " + n
	}
	for i, n := range traced.notes {
		traced.notes[i] = "traced: " + n
	}
	traced.notes = append(plain.notes, traced.notes...)
	return traced, nil
}

// resultLine renders the final JSON line with exactly the metrics in defs.
func resultLine(res *report, defs []metricDef, vals map[string]float64) (string, error) {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			return "", fmt.Errorf("metric %s was not measured", d.name)
		}
		ms[d.name] = metric{Value: v, Unit: d.unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.failed == 0 && res.attempted > 0, res.attempted, res.failed, ms})
	return string(b), err
}

func printTable(out io.Writer, title string, defs []metricDef, vals map[string]float64) {
	fmt.Fprintf(out, "%s:\n", title)
	for _, d := range defs {
		fmt.Fprintf(out, "  %-22s %16.6g %s\n", d.name, vals[d.name], d.unit)
	}
}

func printOverhead(out io.Writer, plain, traced map[string]float64) {
	fmt.Fprintln(out, "end-to-end, untraced vs traced half (tracing overhead = traced - untraced):")
	for _, d := range endToEnd {
		p, t := plain[d.name], traced[d.name]
		fmt.Fprintf(out, "  %-22s %14.6g %14.6g %+14.6g %s\n", d.name, p, t, t-p, d.unit)
	}
}

// stamp describes the machine and build a result came from.
type stamp struct {
	Seed       uint64
	NumCPU     int
	GOMAXPROCS int
	CPU        string
	Go         string
	Commit     string
}

func stampOf(cfg *config) stamp {
	return stamp{
		Seed:       cfg.seed,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        cpuModel(),
		Go:         runtime.Version(),
		Commit:     commit(),
	}
}

func stampArgs(cfg *config) map[string]any {
	s := stampOf(cfg)
	return map[string]any{"workload": cfg.workload, "seed": s.Seed, "nproc": s.NumCPU,
		"gomaxprocs": s.GOMAXPROCS, "cpu": s.CPU, "go": s.Go, "commit": s.Commit}
}

func printStamp(out io.Writer, cfg *config) {
	s := stampOf(cfg)
	fmt.Fprintf(out, "perfbench workload=%s seed=%d seconds=%g trace=%v\n",
		cfg.workload, s.Seed, cfg.seconds.Seconds(), cfg.traced)
	fmt.Fprintf(out, "  nproc=%d GOMAXPROCS=%d cpu=%q go=%s commit=%s\n",
		s.NumCPU, s.GOMAXPROCS, s.CPU, s.Go, s.Commit)
}

// cpuModel reads the CPU model name from /proc/cpuinfo (Linux); elsewhere
// it reports the architecture only.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				return strings.TrimSpace(v)
			}
		}
	}
	return runtime.GOARCH
}

// commit is the VCS revision the binary was built from, when the build
// recorded one (a build outside a git checkout does not).
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if rev == "" {
		return "unknown"
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

// repoRoot finds the module root (the directory holding go.mod) from the
// working directory upwards; the workloads read the benchmark programs'
// sources from it.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above the working directory: run from the repository")
		}
		dir = parent
	}
}

// buildID identifies the running binary: the hex SHA-256 of its
// executable file. Guard records are kept per build, so a run of changed
// code is never compared with counts an earlier build recorded.
func buildID() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// guardName is the file name of the guard record for one workload, seed
// and build.
func guardName(cfg *config, build string) string {
	return fmt.Sprintf("%s-seed%d-%s.json", cfg.workload, cfg.seed, build[:16])
}

// checkGuard compares the run's determinism-guarded counts with those an
// earlier run recorded in dir under the same name (the same workload,
// seed and build), and records them when none exist. Any mismatch is an
// error.
func checkGuard(dir, name string, guard map[string]int64) error {
	if len(guard) == 0 {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, name)
	if b, err := os.ReadFile(path); err == nil {
		var prev map[string]int64
		if err := json.Unmarshal(b, &prev); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		var diffs []string
		for k, v := range guard {
			if pv, ok := prev[k]; ok && pv != v {
				diffs = append(diffs, fmt.Sprintf("%s %d (earlier run: %d)", k, v, pv))
			}
		}
		if len(diffs) > 0 {
			sort.Strings(diffs)
			return fmt.Errorf("counts differ from %s: %s", path, strings.Join(diffs, "; "))
		}
		return nil
	}
	b, err := json.MarshalIndent(guard, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
