package server

// End-to-end tests over real HTTP: the response envelope is a golden
// contract (same schema as oic -json), the cache must dedupe concurrent
// identical work, saturation must shed with 429, deadlines must cancel
// promptly without poisoning the cache, and nothing may leak goroutines.

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"objinline/internal/server/api"
)

var update = flag.Bool("update", false, "rewrite golden files")

const fixturePath = "../../testdata/explain.icc"

func fixtureSource(t *testing.T) string {
	t.Helper()
	src, err := os.ReadFile(fixturePath)
	if err != nil {
		t.Fatal(err)
	}
	return string(src)
}

// newTestServer stands a server up behind real HTTP and registers a
// goroutine-leak check: after the server closes, the goroutine count must
// return to its pre-test level (small slack for runtime background
// threads), or a handler or waiter is stuck.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	return newLimitedServer(t, cfg, func(*limits) {})
}

// newLimitedServer is newTestServer with the fixed limits changed by
// shrink, so a test reaches shedding, eviction, truncation or expiry
// with a handful of requests.
func newLimitedServer(t *testing.T, cfg Config, shrink func(*limits)) (*Server, *httptest.Server) {
	t.Helper()
	before := runtime.NumGoroutine()
	lim := fixedLimits()
	shrink(&lim)
	srv := newServer(cfg, lim)
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > before+2 {
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<20)
				t.Errorf("goroutine leak: %d before, %d after shutdown\n%s",
					before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
	})
	return srv, ts
}

func postJSON(t *testing.T, ts *httptest.Server, path string, req any) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, got
}

func getMetrics(t *testing.T, ts *httptest.Server) map[string]float64 {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]float64
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("metrics is not flat JSON numbers: %v", err)
	}
	return m
}

// waitForMetrics polls /metrics until cond holds, failing the test
// after 5s.
func waitForMetrics(t *testing.T, ts *httptest.Server, what string, cond func(m map[string]float64) bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond(getMetrics(t, ts)) {
		if time.Now().After(deadline) {
			t.Fatalf("%s never happened: %v", what, getMetrics(t, ts))
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// normalizeEnvelope zeroes the wall-clock fields (phase timings) so the
// rest of the envelope can be compared byte for byte.
func normalizeEnvelope(t *testing.T, body []byte) []byte {
	t.Helper()
	var env map[string]any
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("response is not JSON: %v\n%s", err, body)
	}
	if stats, ok := env["stats"].(map[string]any); ok {
		if _, ok := stats["total_nanos"]; ok {
			stats["total_nanos"] = float64(1)
		}
		if phases, ok := stats["phases"].([]any); ok {
			for _, p := range phases {
				if ph, ok := p.(map[string]any); ok {
					ph["nanos"] = float64(1)
					ph["start_nanos"] = float64(0)
				}
			}
		}
	}
	out, err := json.MarshalIndent(env, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(out, '\n')
}

// TestCompileEnvelopeGolden pins the /v1/compile response schema — the
// same envelope oic -json emits, with decisions, rejections, and stats.
func TestCompileEnvelopeGolden(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := postJSON(t, ts, "/v1/compile", api.CompileRequest{
		Filename: "explain.icc",
		Source:   fixtureSource(t),
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Oicd-Cache"); got != "miss" {
		t.Errorf("X-Oicd-Cache = %q, want miss", got)
	}
	if resp.Header.Get("X-Oicd-Cache-Key") == "" {
		t.Error("no X-Oicd-Cache-Key header")
	}
	got := normalizeEnvelope(t, body)
	golden := "testdata/compile_envelope.golden"
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("envelope drifted from golden:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestWarmResponseByteIdentical pins the cache acceptance: a warm
// response replays the cold response's exact bytes, with the cache status
// only in headers.
func TestWarmResponseByteIdentical(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := api.CompileRequest{Filename: "explain.icc", Source: fixtureSource(t)}
	cold, coldBody := postJSON(t, ts, "/v1/compile", req)
	warm, warmBody := postJSON(t, ts, "/v1/compile", req)
	if cold.StatusCode != http.StatusOK || warm.StatusCode != http.StatusOK {
		t.Fatalf("statuses %d/%d", cold.StatusCode, warm.StatusCode)
	}
	if !bytes.Equal(coldBody, warmBody) {
		t.Errorf("warm body differs from cold:\n--- cold ---\n%s\n--- warm ---\n%s", coldBody, warmBody)
	}
	if c, w := cold.Header.Get("X-Oicd-Cache"), warm.Header.Get("X-Oicd-Cache"); c != "miss" || w != "hit" {
		t.Errorf("cache headers cold=%q warm=%q, want miss/hit", c, w)
	}
	if c, w := cold.Header.Get("X-Oicd-Cache-Key"), warm.Header.Get("X-Oicd-Cache-Key"); c != w {
		t.Errorf("cache keys differ: %q vs %q", c, w)
	}
}

// TestSingleflightDedup checks N concurrent identical compiles coalesce
// onto one compilation: every response succeeds with identical bytes and
// compiles_total ends at exactly 1.
func TestSingleflightDedup(t *testing.T) {
	_, ts := newLimitedServer(t, Config{}, func(l *limits) { l.pool, l.queue = 4, 16 })
	req := api.CompileRequest{Filename: "explain.icc", Source: fixtureSource(t)}
	const n = 16
	bodies := make([][]byte, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body, _ := json.Marshal(req)
			resp, err := ts.Client().Post(ts.URL+"/v1/compile", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			defer resp.Body.Close()
			bodies[i], _ = io.ReadAll(resp.Body)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("request %d: status %d", i, resp.StatusCode)
			}
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("request %d body differs from request 0", i)
		}
	}
	if m := getMetrics(t, ts); m["compiles_total"] != 1 {
		t.Errorf("compiles_total = %v, want 1 (singleflight should dedupe)", m["compiles_total"])
	}
}

// TestLeaderHangupKeepsFollower checks that a singleflight leader's
// client hanging up cannot fail the requests coalesced onto it. With
// the only worker held, request A leads and queues, B coalesces onto A,
// then A's client cancels and the worker is released: B must get the
// cold compile's 200, and the hang-up is not a deadline.
func TestLeaderHangupKeepsFollower(t *testing.T) {
	srv, ts := newLimitedServer(t, Config{}, func(l *limits) { l.pool, l.queue = 1, 4 })
	req := api.CompileRequest{Filename: "explain.icc", Source: fixtureSource(t)}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	srv.workers <- struct{}{} // hold the only worker
	ctxA, cancelA := context.WithCancel(context.Background())
	defer cancelA()
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		r, _ := http.NewRequestWithContext(ctxA, http.MethodPost, ts.URL+"/v1/compile", bytes.NewReader(body))
		r.Header.Set("Content-Type", "application/json")
		if resp, err := ts.Client().Do(r); err == nil {
			resp.Body.Close()
		}
	}()
	waitForMetrics(t, ts, "leader queued for the worker", func(m map[string]float64) bool { return m["queue_depth"] == 1 })

	type result struct {
		status int
		body   []byte
	}
	follower := make(chan result, 1)
	go func() {
		resp, err := ts.Client().Post(ts.URL+"/v1/compile", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Error(err)
			follower <- result{}
			return
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		follower <- result{resp.StatusCode, b}
	}()
	waitForMetrics(t, ts, "follower coalesced", func(m map[string]float64) bool { return m["cache_hits_total"] == 1 })

	cancelA()
	<-leaderDone
	// Give the server time to see the hang-up before the worker frees: a
	// leader that queues under its client's context fails here, and its
	// follower answers early.
	var got result
	select {
	case got = <-follower:
	case <-time.After(300 * time.Millisecond):
	}
	<-srv.workers
	if got.status == 0 {
		got = <-follower
	}
	if got.status != http.StatusOK {
		t.Fatalf("follower: status %d, want 200\n%s", got.status, got.body)
	}
	if resp, warm := postJSON(t, ts, "/v1/compile", req); resp.StatusCode != http.StatusOK || !bytes.Equal(warm, got.body) {
		t.Errorf("follower body is not the cached cold compile (status %d)", resp.StatusCode)
	}
	m := getMetrics(t, ts)
	if m["compiles_total"] != 1 || m["deadline_exceeded_total"] != 0 {
		t.Errorf("compiles_total=%v deadline_exceeded_total=%v, want 1 and 0",
			m["compiles_total"], m["deadline_exceeded_total"])
	}
}

// TestShedUnderSaturation checks the backpressure contract with a
// one-worker, one-slot queue: while one run occupies the worker and one
// waits, a third request is shed with 429 + Retry-After, and requests
// below the limit are never dropped.
func TestShedUnderSaturation(t *testing.T) {
	_, ts := newLimitedServer(t, Config{}, func(l *limits) { l.pool, l.queue = 1, 1 })
	const loop = "func main() { var i = 0; while (true) { i = i + 1; } }"
	// Warm the compile cache so the runs below go straight to admission.
	if resp, body := postJSON(t, ts, "/v1/compile", api.CompileRequest{Source: loop}); resp.StatusCode != http.StatusOK {
		t.Fatalf("warmup compile: status %d: %s", resp.StatusCode, body)
	}

	runReq := api.RunRequest{CompileRequest: api.CompileRequest{Source: loop, DeadlineMillis: 1500}}
	results := make(chan int, 2)
	for i := 0; i < 2; i++ {
		go func() {
			resp, _ := postJSON(t, ts, "/v1/run", runReq)
			results <- resp.StatusCode
		}()
	}
	// Wait until the worker is busy and the queue slot is taken.
	deadline := time.Now().Add(2 * time.Second)
	for {
		m := getMetrics(t, ts)
		if m["workers_busy"] >= 1 && m["queue_depth"] >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("saturation never established: %v", getMetrics(t, ts))
		}
		time.Sleep(5 * time.Millisecond)
	}

	resp, body := postJSON(t, ts, "/v1/run", runReq)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third request: status %d, want 429: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	var env api.Envelope
	if err := json.Unmarshal(body, &env); err != nil || env.Error == nil || env.Error.Code != api.CodeOverloaded {
		t.Errorf("shed envelope = %s", body)
	}

	// The two admitted runs are infinite loops: their deadlines cancel
	// them (504), but they were never dropped.
	for i := 0; i < 2; i++ {
		if code := <-results; code != http.StatusGatewayTimeout {
			t.Errorf("admitted run %d: status %d, want 504", i, code)
		}
	}
	m := getMetrics(t, ts)
	if m["shed_total"] != 1 {
		t.Errorf("shed_total = %v, want 1", m["shed_total"])
	}
}

// TestCompileDeadlineNotCached checks a deadline-canceled compile returns
// 504 promptly and is NOT cached: retrying the same key compiles again
// (compiles_total advances), unlike a deterministic compile error.
func TestCompileDeadlineNotCached(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := api.CompileRequest{Source: blowupSource(20), DeadlineMillis: 20}
	start := time.Now()
	resp, body := postJSON(t, ts, "/v1/compile", req)
	elapsed := time.Since(start)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", resp.StatusCode, body)
	}
	if elapsed > 20*time.Millisecond+500*time.Millisecond {
		t.Errorf("deadline response took %v", elapsed)
	}
	var env api.Envelope
	if err := json.Unmarshal(body, &env); err != nil || env.Error == nil || env.Error.Code != api.CodeDeadlineExceeded {
		t.Errorf("deadline envelope = %s", body)
	}
	if resp, _ = postJSON(t, ts, "/v1/compile", req); resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("retry status %d, want 504 again", resp.StatusCode)
	}
	if m := getMetrics(t, ts); m["compiles_total"] != 2 {
		t.Errorf("compiles_total = %v, want 2 (canceled compiles must not be cached)", m["compiles_total"])
	}
	if m := getMetrics(t, ts); m["deadline_exceeded_total"] < 2 {
		t.Errorf("deadline_exceeded_total = %v, want >= 2", m["deadline_exceeded_total"])
	}
}

// TestCompileErrorCached checks the complementary policy: a deterministic
// compile error is a result like any other — 422, cached, deduped.
func TestCompileErrorCached(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := api.CompileRequest{Source: "func main() { return undefined_name; }"}
	first, firstBody := postJSON(t, ts, "/v1/compile", req)
	if first.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422: %s", first.StatusCode, firstBody)
	}
	var env api.Envelope
	if err := json.Unmarshal(firstBody, &env); err != nil || env.Error == nil || env.Error.Code != api.CodeCompileError {
		t.Fatalf("compile-error envelope = %s", firstBody)
	}
	second, secondBody := postJSON(t, ts, "/v1/compile", req)
	if second.StatusCode != http.StatusUnprocessableEntity || !bytes.Equal(firstBody, secondBody) {
		t.Errorf("cached error replay drifted: status %d body %s", second.StatusCode, secondBody)
	}
	if got := second.Header.Get("X-Oicd-Cache"); got != "hit" {
		t.Errorf("second error response X-Oicd-Cache = %q, want hit", got)
	}
	if m := getMetrics(t, ts); m["compiles_total"] != 1 {
		t.Errorf("compiles_total = %v, want 1", m["compiles_total"])
	}
}

// TestRunEndpoint checks /v1/run returns the program's counters, output,
// and profile.
func TestRunEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := postJSON(t, ts, "/v1/run", api.RunRequest{
		CompileRequest: api.CompileRequest{Filename: "explain.icc", Source: fixtureSource(t)},
		Profile:        true,
		IncludeOutput:  true,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var env api.Envelope
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatal(err)
	}
	if env.Metrics == nil || env.Metrics.Instructions == 0 {
		t.Errorf("run envelope has no metrics: %s", body)
	}
	if env.Output != "21\ntrue\n" {
		t.Errorf("output = %q, want %q", env.Output, "21\ntrue\n")
	}
	if env.Profile == nil || len(env.Profile.Sites) == 0 {
		t.Errorf("profiled run envelope has no sites: %s", body)
	}
}

// TestConcurrentProfiledRuns sends profiled runs of one cached key at
// once: the program is shared without a lock, so each envelope must carry
// its own run's profile, byte-equal to a lone run's (run it under -race).
func TestConcurrentProfiledRuns(t *testing.T) {
	const runs = 4
	_, ts := newLimitedServer(t, Config{}, func(l *limits) { l.pool, l.queue = runs, 4*runs })
	req, err := json.Marshal(api.RunRequest{
		CompileRequest: api.CompileRequest{Filename: "explain.icc", Source: fixtureSource(t)},
		Profile:        true,
	})
	if err != nil {
		t.Fatal(err)
	}
	profileOf := func() (json.RawMessage, error) {
		resp, err := ts.Client().Post(ts.URL+"/v1/run", "application/json", bytes.NewReader(req))
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			return nil, err
		}
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("status %d: %s", resp.StatusCode, body)
		}
		var env struct{ Profile json.RawMessage }
		if err := json.Unmarshal(body, &env); err != nil {
			return nil, err
		}
		if len(env.Profile) == 0 {
			return nil, fmt.Errorf("envelope carries no profile: %s", body)
		}
		return env.Profile, nil
	}
	want, err := profileOf()
	if err != nil {
		t.Fatal(err)
	}
	got := make([]json.RawMessage, runs)
	errs := make([]error, runs)
	var wg sync.WaitGroup
	for i := range runs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = profileOf()
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
	if m := getMetrics(t, ts); m["compiles_total"] != 1 || m["runs_total"] != runs+1 {
		t.Errorf("compiles_total = %v, runs_total = %v; want 1 and %d", m["compiles_total"], m["runs_total"], runs+1)
	}
}

// TestRunDeadline checks an infinite loop is canceled at the request
// deadline with 504.
func TestRunDeadline(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	start := time.Now()
	resp, body := postJSON(t, ts, "/v1/run", api.RunRequest{
		CompileRequest: api.CompileRequest{
			Source:         "func main() { var i = 0; while (true) { i = i + 1; } }",
			DeadlineMillis: 100,
		},
	})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", resp.StatusCode, body)
	}
	if elapsed := time.Since(start); elapsed > 600*time.Millisecond {
		t.Errorf("deadline response took %v", elapsed)
	}
}

// TestRunRunawayRecursion checks a request whose program recurses without
// bound answers 422 runtime_error at the VM's call-depth bound instead of
// overflowing the daemon's Go stack, and that the server still answers the
// next request.
func TestRunRunawayRecursion(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := postJSON(t, ts, "/v1/run", api.RunRequest{
		CompileRequest: api.CompileRequest{Source: "func f(x) { return f(x + 1); }\nfunc main() { print(f(1)); }"},
	})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422: %s", resp.StatusCode, body)
	}
	var env api.Envelope
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatal(err)
	}
	if env.Error == nil || env.Error.Code != api.CodeRuntimeError || !strings.Contains(env.Error.Message, "call depth exceeded") {
		t.Errorf("error envelope = %s", body)
	}
	resp, body = postJSON(t, ts, "/v1/run", api.RunRequest{
		CompileRequest: api.CompileRequest{Source: "func main() { print(6 * 7); }"},
		IncludeOutput:  true,
	})
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"output":"42\n"`) {
		t.Errorf("next request: status %d: %s", resp.StatusCode, body)
	}
}

// TestRunArrayLengthOutOfRange checks a request for an array longer than
// Go can allocate answers 422 runtime_error naming the length and
// position, where the handler used to panic and drop the connection, and
// that the server still answers the next request.
func TestRunArrayLengthOutOfRange(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := postJSON(t, ts, "/v1/run", api.RunRequest{
		CompileRequest: api.CompileRequest{Filename: "huge.icc", Source: "func main() { var a = new [9223372036854775807]; print(len(a)); }"},
	})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422: %s", resp.StatusCode, body)
	}
	var env api.Envelope
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatal(err)
	}
	want := "huge.icc:1:23: array length 9223372036854775807 out of range"
	if env.Error == nil || env.Error.Code != api.CodeRuntimeError || !strings.Contains(env.Error.Message, want) {
		t.Errorf("error envelope = %s, want a %s naming %q", body, api.CodeRuntimeError, want)
	}
	resp, body = postJSON(t, ts, "/v1/run", api.RunRequest{
		CompileRequest: api.CompileRequest{Source: "func main() { print(6 * 7); }"},
		IncludeOutput:  true,
	})
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"output":"42\n"`) {
		t.Errorf("next request: status %d: %s", resp.StatusCode, body)
	}
}

// TestRunOutputTruncated checks the output cap flags truncation instead
// of ballooning the envelope.
func TestRunOutputTruncated(t *testing.T) {
	_, ts := newLimitedServer(t, Config{}, func(l *limits) { l.maxOutputBytes = 8 })
	resp, body := postJSON(t, ts, "/v1/run", api.RunRequest{
		CompileRequest: api.CompileRequest{Source: "func main() { for (var i = 0; i < 100; i = i + 1) { print(i); } }"},
		IncludeOutput:  true,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var env api.Envelope
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatal(err)
	}
	if !env.OutputTruncated || len(env.Output) != 8 {
		t.Errorf("truncation: output %q (len %d), truncated=%v", env.Output, len(env.Output), env.OutputTruncated)
	}
}

// TestExplainEndpoint checks /v1/explain returns the typed Decision for
// both verdicts and 404s an unknown field.
func TestExplainEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	src := fixtureSource(t)
	resp, body := postJSON(t, ts, "/v1/explain", api.ExplainRequest{
		CompileRequest: api.CompileRequest{Filename: "explain.icc", Source: src},
		Field:          "Rect.p",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var env api.Envelope
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatal(err)
	}
	if env.Explain == nil || string(env.Explain.Verdict) != "inlined" {
		t.Errorf("explain envelope = %s", body)
	}

	resp, body = postJSON(t, ts, "/v1/explain", api.ExplainRequest{
		CompileRequest: api.CompileRequest{Filename: "explain.icc", Source: src},
		Field:          "Rect.nope",
	})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown field: status %d, want 404: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &env); err != nil || env.Error == nil || env.Error.Code != api.CodeUnknownField {
		t.Errorf("unknown-field envelope = %s", body)
	}
}

// TestBadRequests checks the 400/413 validation surface.
func TestBadRequests(t *testing.T) {
	_, ts := newLimitedServer(t, Config{}, func(l *limits) { l.maxSourceBytes = 64 })
	cases := []struct {
		name   string
		path   string
		req    any
		status int
	}{
		{"missing source", "/v1/compile", api.CompileRequest{}, http.StatusBadRequest},
		{"bad mode", "/v1/compile", api.CompileRequest{Source: "func main() {}", Config: api.Config{Mode: "turbo"}}, http.StatusBadRequest},
		{"oversized source", "/v1/compile", api.CompileRequest{Source: strings.Repeat("// pad\n", 64)}, http.StatusRequestEntityTooLarge},
		{"missing field", "/v1/explain", api.ExplainRequest{CompileRequest: api.CompileRequest{Source: "func main() {}"}}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp, body := postJSON(t, ts, tc.path, tc.req)
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d: %s", tc.name, resp.StatusCode, tc.status, body)
		}
		var env api.Envelope
		if err := json.Unmarshal(body, &env); err != nil || env.Error == nil {
			t.Errorf("%s: no structured error: %s", tc.name, body)
		}
	}
	// Malformed JSON entirely.
	resp, err := ts.Client().Post(ts.URL+"/v1/compile", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed JSON: status %d, want 400", resp.StatusCode)
	}
}

// TestHealthzAndMetrics checks the operational endpoints.
func TestHealthzAndMetrics(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var health struct {
		Status        string  `json:"status"`
		GoVersion     string  `json:"go"`
		UptimeSeconds float64 `json:"uptime_seconds"`
	}
	if err := json.Unmarshal(body, &health); err != nil {
		t.Fatalf("healthz: unmarshal %q: %v", body, err)
	}
	if resp.StatusCode != http.StatusOK || health.Status != "ok" {
		t.Errorf("healthz: status %d body %q", resp.StatusCode, body)
	}
	if health.GoVersion == "" {
		t.Errorf("healthz: missing go version in %q", body)
	}
	m := getMetrics(t, ts)
	for _, key := range []string{
		"requests_total", "compiles_total", "runs_total", "shed_total",
		"deadline_exceeded_total", "inflight", "workers_busy", "queue_depth",
		"cache_entries", "cache_hits_total", "cache_misses_total", "cache_evictions_total",
	} {
		if _, ok := m[key]; !ok {
			t.Errorf("metrics missing %q: %v", key, m)
		}
	}
}

// TestLRUEviction checks the cache honors its bound and counts evictions.
func TestLRUEviction(t *testing.T) {
	_, ts := newLimitedServer(t, Config{}, func(l *limits) { l.resultEntries = 2 })
	for i := 0; i < 4; i++ {
		req := api.CompileRequest{Source: fmt.Sprintf("func main() { print(%d); }", i)}
		if resp, body := postJSON(t, ts, "/v1/compile", req); resp.StatusCode != http.StatusOK {
			t.Fatalf("compile %d: status %d: %s", i, resp.StatusCode, body)
		}
	}
	m := getMetrics(t, ts)
	if m["cache_entries"] > 2 {
		t.Errorf("cache_entries = %v, want <= 2", m["cache_entries"])
	}
	if m["cache_evictions_total"] != 2 {
		t.Errorf("cache_evictions_total = %v, want 2", m["cache_evictions_total"])
	}
}

// TestGracefulShutdownDrain checks http.Server.Shutdown waits for an
// in-flight request (a run pinned by its deadline) to finish and deliver
// its response, while new connections are refused.
func TestGracefulShutdownDrain(t *testing.T) {
	srv := New(Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: srv}
	go hs.Serve(ln)
	base := "http://" + ln.Addr().String()

	// Park a request in the server: an infinite loop that its 800ms
	// deadline will cancel.
	type result struct {
		status int
		err    error
	}
	inflight := make(chan result, 1)
	go func() {
		body, _ := json.Marshal(api.RunRequest{CompileRequest: api.CompileRequest{
			Source:         "func main() { var i = 0; while (true) { i = i + 1; } }",
			DeadlineMillis: 800,
		}})
		resp, err := http.Post(base+"/v1/run", "application/json", bytes.NewReader(body))
		if err != nil {
			inflight <- result{0, err}
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		inflight <- result{resp.StatusCode, nil}
	}()
	// Wait for it to be inside the handler.
	for deadline := time.Now().Add(2 * time.Second); ; {
		resp, err := http.Get(base + "/metrics")
		if err == nil {
			var m map[string]float64
			json.NewDecoder(resp.Body).Decode(&m)
			resp.Body.Close()
			if m["workers_busy"] >= 1 {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("in-flight request never reached the worker")
		}
		time.Sleep(5 * time.Millisecond)
	}

	shutdownStart := time.Now()
	sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil {
		t.Fatalf("shutdown did not drain: %v", err)
	}
	drainTime := time.Since(shutdownStart)

	r := <-inflight
	if r.err != nil {
		t.Fatalf("in-flight request was dropped during shutdown: %v", r.err)
	}
	if r.status != http.StatusGatewayTimeout {
		t.Errorf("drained request status %d, want 504 (deadline-canceled run)", r.status)
	}
	// The drain must have waited for the parked request's deadline.
	if drainTime < 100*time.Millisecond {
		t.Errorf("shutdown returned in %v — before the in-flight request finished?", drainTime)
	}
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Error("server still accepting connections after Shutdown")
	}
}

// TestRemovedConfigFieldsIgnored checks that config fields the wire
// format no longer declares ("solver", "max_passes", and the earlier
// "jobs") go through the decoder's unknown-field path: the request
// compiles, it answers with the bytes of the same request without them,
// and because they are not part of the cache key they cannot split the
// cache.
func TestRemovedConfigFieldsIgnored(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	src := fixtureSource(t)
	post := func(config string) (*http.Response, []byte) {
		return postJSON(t, ts, "/v1/compile", map[string]any{
			"filename": "explain.icc", "source": src, "config": json.RawMessage(config),
		})
	}
	resp, plain := post(`{}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("plain compile: status %d: %s", resp.StatusCode, plain)
	}
	want := normalizeEnvelope(t, plain)
	for _, config := range []string{`{"solver": "sweep"}`, `{"solver": "bogus"}`, `{"jobs": 4}`, `{"max_passes": 2}`} {
		resp, body := post(config)
		if resp.StatusCode != http.StatusOK {
			t.Errorf("config %s: status %d, want 200: %s", config, resp.StatusCode, body)
			continue
		}
		if got := normalizeEnvelope(t, body); !bytes.Equal(got, want) {
			t.Errorf("config %s: envelope differs from the plain request's:\n%s\n--- want ---\n%s", config, got, want)
		}
	}
	if m := getMetrics(t, ts); m["compiles_total"] != 1 {
		t.Errorf("compiles_total = %v, want 1: a removed field split the cache", m["compiles_total"])
	}
}
