package objinline_test

// Tests for the runtime-profiling surface: RunOptions.Profile feeding
// Result.Profile, the Chrome trace export, the caller-owned trace sink,
// and PayoffReport joining an inline and a baseline run.

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"strings"
	"sync"
	"testing"

	"objinline"
)

func fixtureSource(t *testing.T) string {
	t.Helper()
	src, err := os.ReadFile("testdata/explain.icc")
	if err != nil {
		t.Fatal(err)
	}
	return string(src)
}

func runProfiled(t *testing.T, mode objinline.Mode) (*objinline.Program, objinline.Result) {
	t.Helper()
	p, err := objinline.Compile("explain.icc", fixtureSource(t), objinline.Config{Mode: mode})
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Execute(context.Background(), objinline.RunOptions{Profile: true})
	if err != nil {
		t.Fatal(err)
	}
	return p, res
}

func TestRunProfile(t *testing.T) {
	p, err := objinline.Compile("explain.icc", fixtureSource(t), objinline.Config{Mode: objinline.Direct})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := p.Execute(context.Background(), objinline.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Profile != nil {
		t.Fatal("unprofiled run produced a profile")
	}
	res, err := p.Execute(context.Background(), objinline.RunOptions{Profile: true})
	if err != nil {
		t.Fatal(err)
	}
	m, prof := res.Metrics, res.Profile
	if prof == nil {
		t.Fatal("profiled run produced no profile")
	}
	var siteAllocs uint64
	for _, s := range prof.Sites {
		siteAllocs += s.Allocs
	}
	if want := m.ObjectsAllocated + m.ArraysAllocated; siteAllocs != want {
		t.Errorf("site allocs %d != counters %d", siteAllocs, want)
	}
	var seen []string
	for _, f := range prof.Fields {
		seen = append(seen, f.Class+"."+f.Field)
	}
	joined := strings.Join(seen, " ")
	for _, want := range []string{"Point.x", "Rect.p", "Holder.v"} {
		if !strings.Contains(joined, want) {
			t.Errorf("field paths missing %s (got %v)", want, seen)
		}
	}
	if prof.HeapPeakBytes != m.BytesAllocated {
		t.Errorf("heap peak %d != bytes allocated %d", prof.HeapPeakBytes, m.BytesAllocated)
	}
	// The profile is JSON-serializable for tooling.
	if _, err := json.Marshal(prof); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentProfiledRuns runs one Program profiled on several
// goroutines at once: each run's Result must carry its own profile, equal
// to a lone run's, with no state shared through the Program (run it under
// -race).
func TestConcurrentProfiledRuns(t *testing.T) {
	p, lone := runProfiled(t, objinline.Inline)
	want, err := json.Marshal(lone.Profile)
	if err != nil {
		t.Fatal(err)
	}
	const runs = 4
	got := make([][]byte, runs)
	errs := make([]error, runs)
	var wg sync.WaitGroup
	for i := range runs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := p.Execute(context.Background(), objinline.RunOptions{Profile: true})
			if err == nil {
				got[i], err = json.Marshal(res.Profile)
			}
			errs[i] = err
		}()
	}
	wg.Wait()
	for i := range runs {
		if errs[i] != nil {
			t.Fatalf("run %d: %v", i, errs[i])
		}
		if !bytes.Equal(got[i], want) {
			t.Errorf("run %d profile differs from a lone run's:\n got %s\nwant %s", i, got[i], want)
		}
	}
}

func TestPayoffReport(t *testing.T) {
	on, onRun := runProfiled(t, objinline.Inline)
	off, offRun := runProfiled(t, objinline.Baseline)

	rep, err := objinline.PayoffReport(on, onRun, off, offRun)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Fields) == 0 {
		t.Fatal("payoff report names no inlined fields")
	}
	var allocs, bytes, misses int64
	for _, f := range rep.Fields {
		allocs += f.AllocsEliminated
		bytes += f.BytesSaved
		misses += f.MissesAvoided
	}
	allocs += rep.Unattributed.AllocsEliminated
	bytes += rep.Unattributed.BytesSaved
	misses += rep.Unattributed.MissesAvoided
	if allocs != rep.AllocsDelta {
		t.Errorf("allocs rows %d != delta %d", allocs, rep.AllocsDelta)
	}
	if bytes != rep.BytesDelta {
		t.Errorf("bytes rows %d != delta %d", bytes, rep.BytesDelta)
	}
	if got := misses + rep.DispatchMissesAvoided; got != rep.MissesDelta {
		t.Errorf("misses rows %d != delta %d", got, rep.MissesDelta)
	}

	// Swapped arguments must be rejected, as must unprofiled runs.
	if _, err := objinline.PayoffReport(off, offRun, on, onRun); err == nil {
		t.Error("PayoffReport accepted a non-inline 'on' program")
	}
	plainRun, err := on.Execute(context.Background(), objinline.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := objinline.PayoffReport(on, plainRun, off, offRun); err == nil {
		t.Error("PayoffReport accepted an unprofiled run")
	}
}

func TestWriteChromeTraceJSON(t *testing.T) {
	sink := &objinline.TraceSink{}
	p, err := objinline.Compile("explain.icc", fixtureSource(t),
		objinline.Config{Mode: objinline.Inline}, objinline.WithTraceSink(sink))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := vmRun(p, objinline.RunOptions{}); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := objinline.WriteChromeTrace(&b, sink.Events()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal([]byte(b.String()), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	names := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		names[ev.Name] = true
	}
	for _, want := range []string{"parse", "analysis", "optimize", "run"} {
		if !names[want] {
			t.Errorf("chrome trace missing %q span (have %v)", want, names)
		}
	}
	// The caller-owned sink kept its events even though the export
	// consumed them — WithTraceSink's whole point is sink ownership.
	if len(sink.Events()) == 0 {
		t.Error("sink lost its events")
	}
}

// TestWithTraceSinkSurvivesCompileError pins the contract the oic CLI
// relies on: when compilation fails partway, the caller-owned sink holds
// the phases that did complete, so the trace file can still be written.
func TestWithTraceSinkSurvivesCompileError(t *testing.T) {
	sink := &objinline.TraceSink{}
	_, err := objinline.Compile("bad.icc", "func main() { return undefined_name; }",
		objinline.Config{Mode: objinline.Inline}, objinline.WithTraceSink(sink))
	if err == nil {
		t.Fatal("expected a compile error")
	}
	events := sink.Events()
	if len(events) == 0 {
		t.Fatal("sink recorded nothing from the failed compilation")
	}
	if events[0].Phase != "parse" {
		t.Errorf("first recorded phase = %q, want parse", events[0].Phase)
	}
}
