package server

// The /v1/run engine selection contract: "native" builds and executes
// the emitted program with content-addressed result caching, "vm" (and
// the default) keeps the exact pre-engine behavior, and the invalid
// combinations fail fast with 400 before any work is admitted.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"objinline/internal/server/api"
)

const nativeDemo = `
class Point {
  x; y;
  def init(x, y) { self.x = x; self.y = y; }
  def sum() { return self.x + self.y; }
}
func main() {
  var p = new Point(20, 22);
  print(p.sum());
}
`

func TestRunEngineVMDefault(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := postJSON(t, ts, "/v1/run", api.RunRequest{
		CompileRequest: api.CompileRequest{Source: nativeDemo},
		IncludeOutput:  true,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Oicd-Engine"); got != "vm" {
		t.Errorf("X-Oicd-Engine = %q, want vm", got)
	}
	var env api.Envelope
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatal(err)
	}
	if env.Engine != "vm" || env.Metrics == nil || env.Native != nil {
		t.Errorf("default engine envelope wrong: engine=%q metrics=%v native=%v", env.Engine, env.Metrics != nil, env.Native)
	}
	if env.Output != "42\n" {
		t.Errorf("output = %q", env.Output)
	}
}

func TestRunEngineUnknown(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := postJSON(t, ts, "/v1/run", api.RunRequest{
		CompileRequest: api.CompileRequest{Source: nativeDemo},
		Engine:         "jit",
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", resp.StatusCode, body)
	}
	var env api.Envelope
	json.Unmarshal(body, &env)
	if env.Error == nil || env.Error.Code != api.CodeBadRequest {
		t.Errorf("error = %+v, want %s", env.Error, api.CodeBadRequest)
	}
}

func TestRunNativeRejectsProfile(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := postJSON(t, ts, "/v1/run", api.RunRequest{
		CompileRequest: api.CompileRequest{Source: nativeDemo},
		Engine:         "native",
		Profile:        true,
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "vm engine") {
		t.Errorf("body does not explain the vm-engine requirement: %s", body)
	}
}

func TestRunNativeEngine(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a native binary")
	}
	_, ts := newTestServer(t, Config{})
	req := api.RunRequest{
		CompileRequest: api.CompileRequest{Source: nativeDemo, DeadlineMillis: 120_000},
		Engine:         "native",
		NativeReps:     2,
		IncludeOutput:  true,
	}
	cold, coldBody := postJSON(t, ts, "/v1/run", req)
	if cold.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", cold.StatusCode, coldBody)
	}
	if got := cold.Header.Get("X-Oicd-Engine"); got != "native" {
		t.Errorf("X-Oicd-Engine = %q, want native", got)
	}
	if got := cold.Header.Get("X-Oicd-Run-Cache"); got != "miss" {
		t.Errorf("cold X-Oicd-Run-Cache = %q, want miss", got)
	}
	var env api.Envelope
	if err := json.Unmarshal(coldBody, &env); err != nil {
		t.Fatal(err)
	}
	if env.Engine != "native" || env.Metrics != nil {
		t.Errorf("native envelope wrong: engine=%q metrics=%v", env.Engine, env.Metrics)
	}
	n := env.Native
	if n == nil {
		t.Fatalf("envelope lacks native measurements: %s", coldBody)
	}
	if n.Reps != 2 || n.WallNanos <= 0 || n.BuildNanos <= 0 {
		t.Errorf("implausible native measurements: %+v", n)
	}
	if env.Output != "42\n" {
		t.Errorf("output = %q, want %q", env.Output, "42\n")
	}

	// The second identical request must replay the cached envelope —
	// original measurements included — without building again.
	warm, warmBody := postJSON(t, ts, "/v1/run", req)
	if warm.StatusCode != http.StatusOK {
		t.Fatalf("warm status %d: %s", warm.StatusCode, warmBody)
	}
	if got := warm.Header.Get("X-Oicd-Run-Cache"); got != "hit" {
		t.Errorf("warm X-Oicd-Run-Cache = %q, want hit", got)
	}
	if string(warmBody) != string(coldBody) {
		t.Errorf("warm native response not byte-identical:\ncold: %s\nwarm: %s", coldBody, warmBody)
	}
	m := getMetrics(t, ts)
	if m["native_runs_total"] != 1 {
		t.Errorf("native_runs_total = %v, want 1 (the warm request must not rebuild)", m["native_runs_total"])
	}
	if m["native_cache_hits_total"] != 1 {
		t.Errorf("native_cache_hits_total = %v, want 1", m["native_cache_hits_total"])
	}

	// A different reps count is a different measurement and must miss.
	req.NativeReps = 3
	again, _ := postJSON(t, ts, "/v1/run", req)
	if got := again.Header.Get("X-Oicd-Run-Cache"); got != "miss" {
		t.Errorf("changed-reps X-Oicd-Run-Cache = %q, want miss", got)
	}
}

func TestRunNativeTrapCached(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a native binary")
	}
	_, ts := newTestServer(t, Config{})
	req := api.RunRequest{
		CompileRequest: api.CompileRequest{Source: "func main() { print(1 / 0); }", DeadlineMillis: 120_000},
		Engine:         "native",
	}
	first, firstBody := postJSON(t, ts, "/v1/run", req)
	if first.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422: %s", first.StatusCode, firstBody)
	}
	var env api.Envelope
	if err := json.Unmarshal(firstBody, &env); err != nil {
		t.Fatal(err)
	}
	if env.Error == nil || env.Error.Code != api.CodeRuntimeError {
		t.Fatalf("error = %+v, want %s", env.Error, api.CodeRuntimeError)
	}
	if !strings.Contains(env.Error.Message, "division by zero") {
		t.Errorf("trap message = %q", env.Error.Message)
	}
	// Traps are deterministic: the retry replays the verdict from cache.
	second, secondBody := postJSON(t, ts, "/v1/run", req)
	if second.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("second status %d: %s", second.StatusCode, secondBody)
	}
	if got := second.Header.Get("X-Oicd-Run-Cache"); got != "hit" {
		t.Errorf("trap retry X-Oicd-Run-Cache = %q, want hit", got)
	}
	if string(secondBody) != string(firstBody) {
		t.Errorf("cached trap not byte-identical:\nfirst:  %s\nsecond: %s", firstBody, secondBody)
	}
}

// TestRunNativeConcurrentMisses sends distinct native runs at once: each
// is its own go build under the admission pool, each response carries
// its own program's output, and every emitted package directory is gone
// once the responses are back.
func TestRunNativeConcurrentMisses(t *testing.T) {
	if testing.Short() {
		t.Skip("builds native binaries")
	}
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	_, ts := newTestServer(t, Config{})

	const n = 4
	want := make([]string, n)
	bodies := make([][]byte, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range n {
		src := strings.Replace(nativeDemo, "new Point(20, 22)", fmt.Sprintf("new Point(%d, 22)", 100*(i+1)), 1)
		want[i] = fmt.Sprintf("%d\n", 100*(i+1)+22)
		req, err := json.Marshal(api.RunRequest{
			CompileRequest: api.CompileRequest{Source: src, DeadlineMillis: 120_000},
			Engine:         "native",
			IncludeOutput:  true,
		})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := ts.Client().Post(ts.URL+"/v1/run", "application/json", bytes.NewReader(req))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			bodies[i], errs[i] = io.ReadAll(resp.Body)
			if errs[i] == nil && resp.StatusCode != http.StatusOK {
				errs[i] = fmt.Errorf("status %d: %s", resp.StatusCode, bodies[i])
			}
		}(i)
	}
	wg.Wait()
	for i := range n {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		var env api.Envelope
		if err := json.Unmarshal(bodies[i], &env); err != nil {
			t.Fatal(err)
		}
		if env.Engine != "native" || env.Output != want[i] {
			t.Errorf("request %d: engine=%q output=%q, want native %q", i, env.Engine, env.Output, want[i])
		}
	}
	if m := getMetrics(t, ts); m["native_runs_total"] != n {
		t.Errorf("native_runs_total = %v, want %d", m["native_runs_total"], n)
	}
	left, err := filepath.Glob(filepath.Join(tmp, "oicnative-*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(left) > 0 {
		t.Errorf("emitted package directories left behind: %v", left)
	}
}

// TestRunNativeFollowerAwaitSpan coalesces two identical native runs
// onto one build: with the only worker held, the first leads and
// queues, the second waits on it. Both get the leader's envelope, and
// the follower's trace shows its wait as an await span.
func TestRunNativeFollowerAwaitSpan(t *testing.T) {
	if testing.Short() {
		t.Skip("builds native binaries")
	}
	t.Setenv("TMPDIR", t.TempDir())
	srv, ts := newLimitedServer(t, Config{}, func(l *limits) { l.pool, l.queue = 1, 4 })
	if resp, body := postJSON(t, ts, "/v1/compile", api.CompileRequest{Source: nativeDemo}); resp.StatusCode != http.StatusOK {
		t.Fatalf("warmup compile: status %d: %s", resp.StatusCode, body)
	}
	req := api.RunRequest{
		CompileRequest: api.CompileRequest{Source: nativeDemo, DeadlineMillis: 120_000},
		Engine:         "native",
	}
	type result struct {
		resp *http.Response
		body []byte
	}
	run := func() chan result {
		out := make(chan result, 1)
		go func() {
			resp, body := postJSON(t, ts, "/v1/run", req)
			out <- result{resp, body}
		}()
		return out
	}

	srv.workers <- struct{}{} // hold the only worker
	leader := run()
	waitForMetrics(t, ts, "native leader queued", func(m map[string]float64) bool { return m["queue_depth"] == 1 })
	follower := run()
	waitForMetrics(t, ts, "native follower coalesced", func(m map[string]float64) bool { return m["native_cache_hits_total"] == 1 })
	<-srv.workers
	l, f := <-leader, <-follower
	if l.resp.StatusCode != http.StatusOK || f.resp.StatusCode != http.StatusOK || !bytes.Equal(l.body, f.body) {
		t.Fatalf("leader %d, follower %d; bodies equal %v\n%s",
			l.resp.StatusCode, f.resp.StatusCode, bytes.Equal(l.body, f.body), f.body)
	}
	if got := f.resp.Header.Get("X-Oicd-Run-Cache"); got != "hit" {
		t.Errorf("follower X-Oicd-Run-Cache = %q, want hit", got)
	}

	// Both requests await the warm compile entry; only the follower also
	// awaits the leader's native run.
	awaits := func(r result) int {
		tresp, err := ts.Client().Get(ts.URL + "/debug/requests/" + r.resp.Header.Get("X-Oicd-Request-Id") + "/trace")
		if err != nil {
			t.Fatal(err)
		}
		defer tresp.Body.Close()
		var tr struct {
			TraceEvents []struct {
				Name string `json:"name"`
				Ph   string `json:"ph"`
			} `json:"traceEvents"`
		}
		if err := json.NewDecoder(tresp.Body).Decode(&tr); err != nil {
			t.Fatalf("trace not JSON: %v", err)
		}
		n := 0
		for _, ev := range tr.TraceEvents {
			if ev.Ph == "X" && ev.Name == "await" {
				n++
			}
		}
		return n
	}
	if nl, nf := awaits(l), awaits(f); nf != nl+1 {
		t.Errorf("await spans: leader %d, follower %d; want the follower to have one more", nl, nf)
	}
}
