package server

// Service-observability end-to-end tests: request-id propagation on every
// response path, the Prometheus exposition parsed line by line, the
// /debug/requests introspection surface, latency percentiles in /metrics,
// queue depth in 429 bodies, and readiness during drain.

import (
	"encoding/json"
	"io"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
	"unicode"

	"objinline"
	"objinline/internal/obs"
	"objinline/internal/server/api"
)

// TestRequestIDOnEveryPath checks X-Oicd-Request-Id is echoed (or minted)
// on success, compile failure, bad request, 404, and shed responses.
func TestRequestIDOnEveryPath(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	do := func(method, path, id string, body string) *http.Response {
		t.Helper()
		req, err := http.NewRequest(method, ts.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if id != "" {
			req.Header.Set(obs.RequestIDHeader, id)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp
	}

	cases := []struct {
		name       string
		method     string
		path       string
		body       string
		wantStatus int
	}{
		{"success", "POST", "/v1/compile", `{"source":"func main() { print(1); }"}`, 200},
		{"compile error", "POST", "/v1/compile", `{"source":"func main() { nope"}`, 422},
		{"bad request", "POST", "/v1/compile", `{`, 400},
		{"unknown session", "DELETE", "/v1/session/nope", "", 404},
		{"metrics", "GET", "/metrics", "", 200},
		{"healthz", "GET", "/healthz", "", 200},
		{"unrouted", "GET", "/nope", "", 404},
	}
	for _, c := range cases {
		// Generated id.
		resp := do(c.method, c.path, "", c.body)
		if resp.StatusCode != c.wantStatus {
			t.Errorf("%s: status %d, want %d", c.name, resp.StatusCode, c.wantStatus)
		}
		if got := resp.Header.Get(obs.RequestIDHeader); got == "" {
			t.Errorf("%s: no generated request id", c.name)
		}
		// Client-supplied id echoed verbatim.
		resp = do(c.method, c.path, "client-id-"+strings.ReplaceAll(c.name, " ", "-"), c.body)
		if got, want := resp.Header.Get(obs.RequestIDHeader), "client-id-"+strings.ReplaceAll(c.name, " ", "-"); got != want {
			t.Errorf("%s: echoed id %q, want %q", c.name, got, want)
		}
	}
}

// TestShedCarriesRequestIDAndQueueDepth saturates a 1-worker server and
// checks the 429 body reports the queue depth and the response still
// carries the request id.
func TestShedCarriesRequestIDAndQueueDepth(t *testing.T) {
	_, ts := newTestServer(t, Config{PoolSize: 1, QueueDepth: 1})

	// Occupy the worker with a slow compile, then a queued one, then force
	// a shed. The big-source compile is slow enough to hold the token.
	slow := strings.Builder{}
	slow.WriteString("func main() { var x int; ")
	for i := 0; i < 4000; i++ {
		slow.WriteString("x = x + 1; ")
	}
	slow.WriteString("print(x); }")

	release := make(chan struct{})
	done := make(chan struct{}, 8)
	for i := 0; i < 6; i++ {
		i := i
		go func() {
			defer func() { done <- struct{}{} }()
			body, _ := json.Marshal(api.CompileRequest{
				Filename: "slow-" + strconv.Itoa(i) + ".icc",
				Source:   slow.String(),
			})
			<-release
			resp, err := ts.Client().Post(ts.URL+"/v1/compile", "application/json", strings.NewReader(string(body)))
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	close(release)

	// Keep firing distinct compiles until one sheds (the background ones
	// saturate pool+queue quickly).
	var shedResp *http.Response
	var shedBody []byte
	deadline := time.Now().Add(10 * time.Second)
	for i := 0; shedResp == nil && time.Now().Before(deadline); i++ {
		reqBody, _ := json.Marshal(api.CompileRequest{
			Filename: "probe-" + strconv.Itoa(i) + ".icc",
			Source:   slow.String(),
		})
		resp, err := ts.Client().Post(ts.URL+"/v1/compile", "application/json", strings.NewReader(string(reqBody)))
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusTooManyRequests {
			shedResp, shedBody = resp, b
		}
	}
	for i := 0; i < 6; i++ {
		<-done
	}
	if shedResp == nil {
		t.Skip("could not provoke a shed on this machine")
	}
	if shedResp.Header.Get(obs.RequestIDHeader) == "" {
		t.Error("shed response missing request id")
	}
	if shedResp.Header.Get("Retry-After") == "" {
		t.Error("shed response missing Retry-After")
	}
	var env api.Envelope
	if err := json.Unmarshal(shedBody, &env); err != nil || env.Error == nil {
		t.Fatalf("shed body: %s", shedBody)
	}
	if env.Error.Code != api.CodeOverloaded {
		t.Errorf("shed code = %q", env.Error.Code)
	}
	if env.Error.QueueDepth <= 0 {
		t.Errorf("shed queue_depth = %d, want > 0; body %s", env.Error.QueueDepth, shedBody)
	}
}

// promLine accepts the three legal exposition line shapes — the same
// contract the CI well-formedness check enforces.
var promLine = regexp.MustCompile(`^(# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* .*|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [0-9eE.+-]+(Inf)?)$`)

// TestPrometheusScrape drives traffic, scrapes the exposition, and
// parses it line by line: every line well-formed, the expected series
// present, histogram buckets cumulative.
func TestPrometheusScrape(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// One miss, one hit.
	req := api.CompileRequest{Source: "func main() { print(7); }"}
	for i := 0; i < 2; i++ {
		if resp, body := postJSON(t, ts, "/v1/compile", req); resp.StatusCode != http.StatusOK {
			t.Fatalf("compile: %d %s", resp.StatusCode, body)
		}
	}

	resp, err := ts.Client().Get(ts.URL + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("scrape status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("scrape content-type %q", ct)
	}

	var sawRequests, sawHitBucket, sawMissBucket, sawCount bool
	var lastCum = make(map[string]uint64)
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" {
			continue
		}
		if !promLine.MatchString(line) {
			t.Errorf("malformed line: %q", line)
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			checkHelpLine(t, line)
		}
		if strings.HasPrefix(line, "oicd_requests_total ") {
			sawRequests = true
		}
		if strings.HasPrefix(line, "oicd_request_duration_seconds_count{") {
			sawCount = true
		}
		if strings.HasPrefix(line, "oicd_request_duration_seconds_bucket{") {
			labels := line[:strings.LastIndexByte(line, ' ')]
			series := labels[:strings.Index(labels, `le="`)]
			val, err := strconv.ParseUint(line[strings.LastIndexByte(line, ' ')+1:], 10, 64)
			if err != nil {
				t.Fatalf("bucket value in %q: %v", line, err)
			}
			if val < lastCum[series] {
				t.Errorf("non-cumulative bucket in series %q: %d < %d", series, val, lastCum[series])
			}
			lastCum[series] = val
			if strings.Contains(line, `endpoint="/v1/compile"`) {
				if strings.Contains(line, `cache="hit"`) {
					sawHitBucket = true
				}
				if strings.Contains(line, `cache="miss"`) {
					sawMissBucket = true
				}
			}
		}
	}
	if !sawRequests || !sawCount || !sawHitBucket || !sawMissBucket {
		t.Errorf("missing series: requests=%v count=%v hit=%v miss=%v",
			sawRequests, sawCount, sawHitBucket, sawMissBucket)
	}
}

// checkHelpLine fails a `# HELP name text` line whose text is empty or
// merely restates the metric name (as a generated fallback would).
func checkHelpLine(t *testing.T, line string) {
	t.Helper()
	name, help, _ := strings.Cut(strings.TrimPrefix(line, "# HELP "), " ")
	bare := strings.TrimPrefix(name, "oicd_")
	words := strings.Join(strings.FieldsFunc(strings.ToLower(help), func(r rune) bool {
		return !unicode.IsLetter(r) && !unicode.IsDigit(r)
	}), "_")
	if words == "" || strings.Contains(help, bare) || strings.TrimPrefix(words, "oicd_") == bare {
		t.Errorf("HELP for %s is empty or restates the name: %q", name, line)
	}
}

// TestMetricsPercentiles checks the JSON /metrics view stays flat and
// carries server-computed latency percentiles once traffic has flowed.
func TestMetricsPercentiles(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := api.CompileRequest{Source: "func main() { print(9); }"}
	if resp, body := postJSON(t, ts, "/v1/compile", req); resp.StatusCode != http.StatusOK {
		t.Fatalf("compile: %d %s", resp.StatusCode, body)
	}
	m := getMetrics(t, ts)
	for _, key := range []string{
		"latency_v1_compile_p50_ns", "latency_v1_compile_p95_ns", "latency_v1_compile_p99_ns",
	} {
		v, ok := m[key]
		if !ok {
			t.Fatalf("metrics missing %q", key)
		}
		if v <= 0 {
			t.Errorf("%s = %v, want > 0 after traffic", key, v)
		}
	}
	if m["latency_v1_compile_p50_ns"] > m["latency_v1_compile_p99_ns"] {
		t.Errorf("p50 %v above p99 %v", m["latency_v1_compile_p50_ns"], m["latency_v1_compile_p99_ns"])
	}
	// Endpoints with no traffic report zero, not absence.
	if v, ok := m["latency_v1_run_p50_ns"]; !ok || v != 0 {
		t.Errorf("untouched endpoint p50 = %v ok=%v, want 0", v, ok)
	}
}

// TestDebugRequestsAndTrace checks the introspection ring records the
// request with its compile spans grafted in, and the Chrome export is
// valid trace-event JSON carrying both service and compiler phases.
func TestDebugRequestsAndTrace(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := postJSON(t, ts, "/v1/compile", api.CompileRequest{Source: "func main() { print(3); }"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compile: %d %s", resp.StatusCode, body)
	}
	id := resp.Header.Get(obs.RequestIDHeader)

	resp2, err := ts.Client().Get(ts.URL + "/debug/requests")
	if err != nil {
		t.Fatal(err)
	}
	listing, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	var parsed struct {
		Total    uint64 `json:"total"`
		Requests []struct {
			ID     string `json:"id"`
			Route  string `json:"route"`
			Status int    `json:"status"`
			Cache  string `json:"cache"`
		} `json:"requests"`
	}
	if err := json.Unmarshal(listing, &parsed); err != nil {
		t.Fatalf("listing not JSON: %v\n%s", err, listing)
	}
	var found bool
	for _, r := range parsed.Requests {
		if r.ID == id {
			found = true
			if r.Route != "/v1/compile" || r.Status != 200 || r.Cache != "miss" {
				t.Errorf("record = %+v", r)
			}
		}
	}
	if !found {
		t.Fatalf("request %s not in ring: %s", id, listing)
	}

	resp3, err := ts.Client().Get(ts.URL + "/debug/requests/" + id + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	traceBody, _ := io.ReadAll(resp3.Body)
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("trace: %d %s", resp3.StatusCode, traceBody)
	}
	var tr struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(traceBody, &tr); err != nil {
		t.Fatalf("trace not JSON: %v", err)
	}
	want := map[string]bool{"http": false, "parse": false, "analysis": false}
	for _, ev := range tr.TraceEvents {
		if ev.Ph == "X" {
			if _, ok := want[ev.Name]; ok {
				want[ev.Name] = true
			}
		}
	}
	for name, ok := range want {
		if !ok {
			t.Errorf("trace missing %q span (request + grafted compiler phases): %s", name, traceBody)
		}
	}
}

// TestSessionTierObservability patches a session and checks the tier
// shows up in the ring record and as folded counters in the trace.
func TestSessionTierObservability(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	src := fixtureSource(t)
	resp, body := postJSON(t, ts, "/v1/session", api.CompileRequest{Source: src})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("session create: %d %s", resp.StatusCode, body)
	}
	var env api.Envelope
	json.Unmarshal(body, &env)
	if env.SessionID == "" {
		t.Fatal("no session id")
	}

	patchBody, _ := json.Marshal(api.SessionPatchRequest{Source: src + "\n"})
	req, _ := http.NewRequest(http.MethodPatch, ts.URL+"/v1/session/"+env.SessionID, strings.NewReader(string(patchBody)))
	presp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	pbody, _ := io.ReadAll(presp.Body)
	presp.Body.Close()
	if presp.StatusCode != http.StatusOK {
		t.Fatalf("patch: %d %s", presp.StatusCode, pbody)
	}
	var penv api.Envelope
	json.Unmarshal(pbody, &penv)
	if penv.Incremental == nil || penv.Incremental.Tier == "" {
		t.Fatalf("patch envelope missing incremental stats: %s", pbody)
	}
	id := presp.Header.Get(obs.RequestIDHeader)

	// The ring record carries the absorbing tier.
	lresp, err := ts.Client().Get(ts.URL + "/debug/requests")
	if err != nil {
		t.Fatal(err)
	}
	listing, _ := io.ReadAll(lresp.Body)
	lresp.Body.Close()
	var parsed struct {
		Requests []struct {
			ID    string `json:"id"`
			Tier  string `json:"tier"`
			Route string `json:"route"`
		} `json:"requests"`
	}
	if err := json.Unmarshal(listing, &parsed); err != nil {
		t.Fatal(err)
	}
	var rec *struct {
		ID    string `json:"id"`
		Tier  string `json:"tier"`
		Route string `json:"route"`
	}
	for i := range parsed.Requests {
		if parsed.Requests[i].ID == id {
			rec = &parsed.Requests[i]
		}
	}
	if rec == nil {
		t.Fatalf("patch request %s not in ring", id)
	}
	if rec.Tier != penv.Incremental.Tier || rec.Route != "/v1/session/{id}" {
		t.Errorf("ring record = %+v, want tier %q route /v1/session/{id}", rec, penv.Incremental.Tier)
	}

	// The trace export folds the tier counters into one session/tiers
	// counter track.
	tresp, err := ts.Client().Get(ts.URL + "/debug/requests/" + id + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	traceBody, _ := io.ReadAll(tresp.Body)
	tresp.Body.Close()
	var tr struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(traceBody, &tr); err != nil {
		t.Fatal(err)
	}
	var tiers bool
	for _, ev := range tr.TraceEvents {
		if ev.Ph == "C" && ev.Name == "session/tiers" {
			tiers = true
			if ev.Args[penv.Incremental.Tier] != float64(1) {
				t.Errorf("tier counter args = %v, want %s=1", ev.Args, penv.Incremental.Tier)
			}
		}
	}
	if !tiers {
		t.Errorf("no session/tiers counter track in %s", traceBody)
	}

	// The tier also labels the session-patch histogram cell.
	sresp, err := ts.Client().Get(ts.URL + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	scrape, _ := io.ReadAll(sresp.Body)
	sresp.Body.Close()
	if !strings.Contains(string(scrape), `endpoint="/v1/session/{id}"`) ||
		!strings.Contains(string(scrape), `tier="`+penv.Incremental.Tier+`"`) {
		t.Errorf("scrape missing session-patch tier series (tier %q)", penv.Incremental.Tier)
	}
}

// TestHealthzDraining checks readiness flips to 503 with status
// "draining" once BeginDrain is called.
func TestHealthzDraining(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	srv.BeginDrain()
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining healthz status = %d, want 503", resp.StatusCode)
	}
	var h struct {
		Status string `json:"status"`
	}
	if err := json.Unmarshal(body, &h); err != nil || h.Status != "draining" {
		t.Errorf("draining healthz body = %s", body)
	}
}

// TestRingEvictionOverHTTP fills a small ring past capacity and checks
// the listing holds only the most recent requests while total keeps
// counting.
func TestRingEvictionOverHTTP(t *testing.T) {
	_, ts := newTestServer(t, Config{RequestRingEntries: 2})
	for i := 0; i < 5; i++ {
		resp, err := ts.Client().Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	resp, err := ts.Client().Get(ts.URL + "/debug/requests")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var parsed struct {
		Total    uint64            `json:"total"`
		Requests []json.RawMessage `json:"requests"`
	}
	if err := json.Unmarshal(body, &parsed); err != nil {
		t.Fatal(err)
	}
	if len(parsed.Requests) != 2 {
		t.Errorf("ring holds %d records, want 2", len(parsed.Requests))
	}
	if parsed.Total != 5 {
		t.Errorf("total = %d, want 5", parsed.Total)
	}
}

// TestRunEngineLabels checks run requests label their histogram cells
// with the engine.
func TestRunEngineLabels(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := postJSON(t, ts, "/v1/run", api.RunRequest{
		CompileRequest: api.CompileRequest{Source: "func main() { print(2); }"},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run: %d %s", resp.StatusCode, body)
	}
	sresp, err := ts.Client().Get(ts.URL + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	scrape, _ := io.ReadAll(sresp.Body)
	sresp.Body.Close()
	if !strings.Contains(string(scrape), `endpoint="/v1/run"`) {
		t.Error("no /v1/run series in scrape")
	}
	found := false
	for _, line := range strings.Split(string(scrape), "\n") {
		if strings.Contains(line, `endpoint="/v1/run"`) && strings.Contains(line, `engine="`+objinline.EngineVM.String()+`"`) {
			found = true
		}
	}
	if !found {
		t.Error("run series not labeled with vm engine")
	}
}
