package main

// End-to-end tests for the oic driver, invoking run() in-process with
// captured streams. The -json envelope is a golden contract: compile →
// run → exact envelope bytes on stdout with the program's own output on
// stderr. The trace-out tests pin the every-exit-path flush, compile
// errors included.

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

const fixture = "../../testdata/explain.icc"

// TestJSONEnvelopeGolden pins the full -json contract: stdout carries
// exactly the envelope (byte-for-byte, it is deterministic without
// -trace), stderr carries the program's print output.
func TestJSONEnvelopeGolden(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-json", fixture}, strings.NewReader(""), &stdout, &stderr); code != 0 {
		t.Fatalf("exit code %d, stderr: %s", code, stderr.String())
	}
	want, err := os.ReadFile("testdata/json_envelope.golden")
	if err != nil {
		t.Fatal(err)
	}
	if stdout.String() != string(want) {
		t.Errorf("envelope drifted from golden:\n--- got ---\n%s\n--- want ---\n%s", stdout.String(), want)
	}
	if got := stderr.String(); got != "21\ntrue\n" {
		t.Errorf("program output on stderr = %q, want %q", got, "21\ntrue\n")
	}
}

// TestJSONEnvelopeWithProfile checks -profile surfaces the run profile in
// the envelope with reconcilable numbers.
func TestJSONEnvelopeWithProfile(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-json", "-profile", fixture}, strings.NewReader(""), &stdout, &stderr); code != 0 {
		t.Fatalf("exit code %d, stderr: %s", code, stderr.String())
	}
	var env struct {
		Metrics struct {
			HeapObjects    uint64 `json:"heap_objects"`
			Arrays         uint64 `json:"arrays"`
			BytesAllocated uint64 `json:"bytes_allocated"`
		} `json:"metrics"`
		Profile struct {
			Sites []struct {
				Allocs uint64 `json:"allocs"`
			} `json:"sites"`
			HeapPeakBytes uint64 `json:"heap_peak_bytes"`
		} `json:"profile"`
	}
	if err := json.Unmarshal(stdout.Bytes(), &env); err != nil {
		t.Fatalf("envelope is not valid JSON: %v", err)
	}
	if len(env.Profile.Sites) == 0 {
		t.Fatal("-profile produced no sites in the envelope")
	}
	var allocs uint64
	for _, s := range env.Profile.Sites {
		allocs += s.Allocs
	}
	if want := env.Metrics.HeapObjects + env.Metrics.Arrays; allocs != want {
		t.Errorf("profile site allocs %d != metrics allocations %d", allocs, want)
	}
	if env.Profile.HeapPeakBytes != env.Metrics.BytesAllocated {
		t.Errorf("heap peak %d != bytes allocated %d", env.Profile.HeapPeakBytes, env.Metrics.BytesAllocated)
	}
}

// TestTraceOutWritesChromeTrace checks a successful compile+run writes a
// Perfetto-loadable trace file with compile and run spans.
func TestTraceOutWritesChromeTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-trace-out", path, fixture}, strings.NewReader(""), &stdout, &stderr); code != 0 {
		t.Fatalf("exit code %d, stderr: %s", code, stderr.String())
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace file is not valid JSON: %v", err)
	}
	names := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		names[ev.Name] = true
	}
	for _, want := range []string{"parse", "analysis", "run"} {
		if !names[want] {
			t.Errorf("trace missing %q span", want)
		}
	}
}

// TestTraceOutFlushedOnCompileError pins the bug fix: a compile error must
// still write the trace file with the phases that completed.
func TestTraceOutFlushedOnCompileError(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.icc")
	if err := os.WriteFile(bad, []byte("func main() { return undefined_name; }\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "trace.json")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-trace-out", path, bad}, strings.NewReader(""), &stdout, &stderr); code != 1 {
		t.Fatalf("exit code %d, want 1; stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "oic:") {
		t.Errorf("no error reported on stderr: %q", stderr.String())
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("compile error did not flush the trace file: %v", err)
	}
	if !strings.Contains(string(raw), `"parse"`) {
		t.Errorf("flushed trace has no parse span: %s", raw)
	}
}

// TestTraceOutRemovesStaleFileWhenNothingRan checks the other side of the
// flush contract: when tracing was requested but no phase ever ran (the
// source file is unreadable), a stale trace file from an earlier
// invocation is removed instead of being left behind to mislead.
func TestTraceOutRemovesStaleFileWhenNothingRan(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "trace.json")
	if err := os.WriteFile(path, []byte(`{"stale":true}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-trace-out", path, filepath.Join(dir, "missing.icc")}, strings.NewReader(""), &stdout, &stderr); code != 1 {
		t.Fatalf("exit code %d, want 1", code)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("stale trace file was not removed (err=%v)", err)
	}
}

// TestStdinProgram checks `oic -` compiles the program from stdin,
// labeling diagnostics and output with "<stdin>".
func TestStdinProgram(t *testing.T) {
	var stdout, stderr bytes.Buffer
	stdin := strings.NewReader("func main() { print(6 * 7); }")
	if code := run([]string{"-json", "-"}, stdin, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code %d, stderr: %s", code, stderr.String())
	}
	var env struct {
		File string `json:"file"`
	}
	if err := json.Unmarshal(stdout.Bytes(), &env); err != nil {
		t.Fatalf("envelope is not valid JSON: %v", err)
	}
	if env.File != "<stdin>" {
		t.Errorf("file = %q, want %q", env.File, "<stdin>")
	}
	if got := stderr.String(); got != "42\n" {
		t.Errorf("program output = %q, want %q", got, "42\n")
	}
}

// TestStdinErrorNamesStdin checks a bad stdin program's diagnostic points
// at <stdin>, not a file.
func TestStdinErrorNamesStdin(t *testing.T) {
	var stdout, stderr bytes.Buffer
	stdin := strings.NewReader("func main() { return undefined_name; }")
	if code := run([]string{"-"}, stdin, &stdout, &stderr); code != 1 {
		t.Fatalf("exit code %d, want 1", code)
	}
	if !strings.Contains(stderr.String(), "<stdin>") {
		t.Errorf("diagnostic does not name <stdin>: %q", stderr.String())
	}
}

// TestTimeoutCancelsRunawayProgram checks -timeout aborts an infinite
// loop promptly with a diagnostic that names the budget.
func TestTimeoutCancelsRunawayProgram(t *testing.T) {
	var stdout, stderr bytes.Buffer
	stdin := strings.NewReader("func main() { var i = 0; while (true) { i = i + 1; } }")
	start := time.Now()
	code := run([]string{"-timeout", "50ms", "-"}, stdin, &stdout, &stderr)
	elapsed := time.Since(start)
	if code != 1 {
		t.Fatalf("exit code %d, want 1; stderr: %s", code, stderr.String())
	}
	if elapsed > time.Second {
		t.Errorf("timeout took %v to fire", elapsed)
	}
	if !strings.Contains(stderr.String(), "-timeout budget of 50ms") {
		t.Errorf("diagnostic does not name the budget: %q", stderr.String())
	}
}

// TestExplainStillWorks guards the inspection path through the refactored
// driver.
func TestExplainStillWorks(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-explain", "Rect.p", fixture}, strings.NewReader(""), &stdout, &stderr); code != 0 {
		t.Fatalf("exit code %d, stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "Rect.p: inlined") {
		t.Errorf("explain output: %q", stdout.String())
	}
}

// TestBenchSourceScheme checks "bench:NAME" compiles a bundled benchmark
// and keeps the scheme as the diagnostic label.
func TestBenchSourceScheme(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-norun", "-json", "bench:richards"}, strings.NewReader(""), &stdout, &stderr); code != 0 {
		t.Fatalf("exit code %d, stderr: %s", code, stderr.String())
	}
	var env struct {
		File     string `json:"file"`
		CodeSize int    `json:"code_size"`
	}
	if err := json.Unmarshal(stdout.Bytes(), &env); err != nil {
		t.Fatalf("envelope is not valid JSON: %v", err)
	}
	if env.File != "bench:richards" || env.CodeSize == 0 {
		t.Errorf("envelope = %+v", env)
	}
	// An unknown benchmark fails with its name in the diagnostic.
	stderr.Reset()
	if code := run([]string{"-norun", "bench:nosuch"}, strings.NewReader(""), &stdout, &stderr); code != 1 {
		t.Fatalf("exit code %d, want 1", code)
	}
	if !strings.Contains(stderr.String(), "nosuch") {
		t.Errorf("diagnostic does not name the benchmark: %q", stderr.String())
	}
}

// TestNativeEngineFlag runs a program on the native tier and checks the
// envelope reports the engine and its real measurements in place of the
// VM's modeled metrics.
func TestNativeEngineFlag(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a native binary")
	}
	var stdout, stderr bytes.Buffer
	stdin := strings.NewReader("func main() { print(6 * 7); }")
	if code := run([]string{"-json", "-engine", "native", "-reps", "2", "-"}, stdin, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code %d, stderr: %s", code, stderr.String())
	}
	var env struct {
		Engine  string `json:"engine"`
		Metrics any    `json:"metrics"`
		Native  struct {
			WallNanos  int64 `json:"wall_nanos"`
			BuildNanos int64 `json:"build_nanos"`
			Reps       int   `json:"reps"`
		} `json:"native"`
	}
	if err := json.Unmarshal(stdout.Bytes(), &env); err != nil {
		t.Fatalf("envelope is not valid JSON: %v", err)
	}
	if env.Engine != "native" || env.Metrics != nil {
		t.Errorf("engine = %q, metrics = %v; want native with no VM metrics", env.Engine, env.Metrics)
	}
	if env.Native.Reps != 2 || env.Native.WallNanos <= 0 || env.Native.BuildNanos <= 0 {
		t.Errorf("implausible native measurements: %+v", env.Native)
	}
	if got := stderr.String(); got != "42\n" {
		t.Errorf("program output = %q, want %q (reps must not multiply it)", got, "42\n")
	}
}

// TestNativeEngineRejectsProfile pins the fail-fast path: -profile is VM
// instrumentation.
func TestNativeEngineRejectsProfile(t *testing.T) {
	var stdout, stderr bytes.Buffer
	stdin := strings.NewReader("func main() { print(1); }")
	if code := run([]string{"-engine", "native", "-profile", "-"}, stdin, &stdout, &stderr); code != 1 {
		t.Fatalf("exit code %d, want 1", code)
	}
	if !strings.Contains(stderr.String(), "vm engine") {
		t.Errorf("diagnostic = %q", stderr.String())
	}
}
