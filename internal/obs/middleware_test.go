package obs

import (
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"
)

// newTestMux wraps a Go 1.22-style mux in the middleware, mirroring how
// the server composes them (the mux sets r.Pattern, routeOf reads it).
func newTestMux(o *Obs) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/compile", func(w http.ResponseWriter, r *http.Request) {
		if req := FromContext(r.Context()); req != nil {
			req.Cache = "miss"
		}
		w.WriteHeader(http.StatusOK)
		io.WriteString(w, "compiled\n")
	})
	mux.HandleFunc("GET /v1/thing/{id}", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, r.PathValue("id"))
	})
	return o.Middleware(mux)
}

func TestMiddlewareMintsAndEchoesRequestID(t *testing.T) {
	o := New(nil)
	ts := httptest.NewServer(newTestMux(o))
	defer ts.Close()

	// No client id: the server mints one.
	resp, err := http.Post(ts.URL+"/v1/compile", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	minted := resp.Header.Get(RequestIDHeader)
	if minted == "" || SanitizeRequestID(minted) != minted {
		t.Errorf("minted id %q invalid", minted)
	}

	// Client-supplied id: honored verbatim.
	req, _ := http.NewRequest("POST", ts.URL+"/v1/compile", nil)
	req.Header.Set(RequestIDHeader, "client-chose-this-1")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get(RequestIDHeader); got != "client-chose-this-1" {
		t.Errorf("client id not honored: %q", got)
	}

	// Hostile id: replaced, not echoed.
	req, _ = http.NewRequest("POST", ts.URL+"/v1/compile", nil)
	req.Header.Set(RequestIDHeader, strings.Repeat("x", 200))
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get(RequestIDHeader); got == "" || len(got) > 64 {
		t.Errorf("hostile id echoed or dropped: %q", got)
	}
}

func TestMiddlewareRecordsRouteAndRing(t *testing.T) {
	o := New(nil)
	ts := httptest.NewServer(newTestMux(o))
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/compile", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	// A wildcard route must be recorded as its pattern, not the raw path.
	resp, err = http.Get(ts.URL + "/v1/thing/secret-42")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	// An unrouted path lands in "other".
	resp, err = http.Get(ts.URL + "/nope/" + strings.Repeat("z", 100))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	snap := o.ring.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("ring has %d records, want 3", len(snap))
	}
	// Most recent first.
	if snap[0].Route != "other" {
		t.Errorf("unrouted request route = %q, want other", snap[0].Route)
	}
	if snap[1].Route != "/v1/thing/{id}" {
		t.Errorf("wildcard route = %q, want pattern", snap[1].Route)
	}
	if snap[2].Route != "/v1/compile" || snap[2].Cache != "miss" || snap[2].Status != http.StatusOK {
		t.Errorf("compile record = %+v", snap[2])
	}
	if snap[2].Bytes != int64(len("compiled\n")) {
		t.Errorf("bytes = %d", snap[2].Bytes)
	}
	if len(snap[2].Events) == 0 || snap[2].Events[0].Phase != SpanHTTP {
		t.Errorf("no http span recorded: %+v", snap[2].Events)
	}

	// The histogram observed each route under its label.
	if got := o.Latency().Endpoint("/v1/compile").Count; got != 1 {
		t.Errorf("compile histogram count = %d", got)
	}
	if got := o.Latency().Endpoint("other").Count; got != 1 {
		t.Errorf("other histogram count = %d", got)
	}
}

// TestMiddlewareRingEviction fills a 2-entry ring past capacity over
// HTTP: the listing keeps the two most recent requests, newest first,
// while total keeps counting.
func TestMiddlewareRingEviction(t *testing.T) {
	o := newObs(nil, 2)
	mux := http.NewServeMux()
	o.Mount(mux)
	ts := httptest.NewServer(o.Middleware(mux))
	defer ts.Close()
	var ids []string
	for i := 0; i < 5; i++ {
		resp, err := http.Get(ts.URL + "/nope")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		ids = append(ids, resp.Header.Get(RequestIDHeader))
	}
	rec := httptest.NewRecorder()
	o.ServeRequests(rec, httptest.NewRequest("GET", "/debug/requests", nil))
	var listing struct {
		Total    uint64 `json:"total"`
		Requests []struct {
			ID string `json:"id"`
		} `json:"requests"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &listing); err != nil {
		t.Fatal(err)
	}
	if listing.Total != 5 || len(listing.Requests) != 2 ||
		listing.Requests[0].ID != ids[4] || listing.Requests[1].ID != ids[3] {
		t.Errorf("listing after 5 requests into a 2-entry ring: %s", rec.Body.String())
	}
}

// TestLogAccessDisabledAllocs pins the disabled access-log path at zero
// allocations — observability must cost nothing when turned off.
func TestLogAccessDisabledAllocs(t *testing.T) {
	o := New(nil)
	rec := &RequestRecord{ID: "x", Method: "POST", Route: "/v1/compile", Status: 200}
	if n := testing.AllocsPerRun(100, func() { o.logAccess(rec) }); n != 0 {
		t.Errorf("disabled logAccess allocates %v per call, want 0", n)
	}
	// A logger below Info level must also stay allocation-free: the
	// Enabled check runs before any attr is built.
	quiet := New(slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelError})))
	if n := testing.AllocsPerRun(100, func() { quiet.logAccess(rec) }); n != 0 {
		t.Errorf("below-level logAccess allocates %v per call, want 0", n)
	}
}

// BenchmarkLogAccess pairs the logged and unlogged paths so the access
// log's per-request overhead is pinned in review: compare
// BenchmarkLogAccess/disabled with /enabled-json.
func BenchmarkLogAccess(b *testing.B) {
	rec := &RequestRecord{
		ID: "bench-request-id", Method: "POST", Route: "/v1/compile",
		Status: 200, Cache: "hit", DurationNanos: 123456, Bytes: 1024,
	}
	b.Run("disabled", func(b *testing.B) {
		o := New(nil)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			o.logAccess(rec)
		}
	})
	b.Run("enabled-json", func(b *testing.B) {
		o := New(slog.New(slog.NewJSONHandler(io.Discard, nil)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			o.logAccess(rec)
		}
	})
	b.Run("enabled-text", func(b *testing.B) {
		o := New(slog.New(slog.NewTextHandler(io.Discard, nil)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			o.logAccess(rec)
		}
	})
}

func TestServeRequestTrace(t *testing.T) {
	o := New(nil)
	mux := http.NewServeMux()
	o.Mount(mux)
	ts := httptest.NewServer(o.Middleware(mux))
	defer ts.Close()

	// Drive one request through the middleware so the ring has a record.
	resp, err := http.Get(ts.URL + "/debug/requests")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	id := resp.Header.Get(RequestIDHeader)

	resp, err = http.Get(ts.URL + "/debug/requests/" + id + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace status %d: %s", resp.StatusCode, body)
	}
	var parsed struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(body, &parsed); err != nil {
		t.Fatalf("trace not valid JSON: %v\n%s", err, body)
	}
	var hasMeta, hasSpan bool
	for _, ev := range parsed.TraceEvents {
		if ev.Ph == "M" && ev.Name == "thread_name" {
			hasMeta = true
		}
		if ev.Ph == "X" && ev.Name == string(SpanHTTP) {
			hasSpan = true
		}
	}
	if !hasMeta || !hasSpan {
		t.Errorf("trace missing track name or http span: %s", body)
	}

	// Unknown id: 404.
	resp, err = http.Get(ts.URL + "/debug/requests/deadbeef/trace")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown trace id: status %d, want 404", resp.StatusCode)
	}

	// Combined timeline: one track per buffered request.
	resp, err = http.Get(ts.URL + "/debug/requests/trace")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !json.Valid(body) {
		t.Errorf("combined trace: status %d valid=%v", resp.StatusCode, json.Valid(body))
	}
}

// TestDebugHandlerNoGoroutineLeak drives the pprof and introspection mux
// and checks no goroutines outlive the requests.
func TestDebugHandlerNoGoroutineLeak(t *testing.T) {
	o := New(nil)
	ts := httptest.NewServer(o.DebugHandler())
	before := runtime.NumGoroutine()
	for _, path := range []string{
		"/debug/pprof/", "/debug/pprof/cmdline", "/debug/requests",
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: status %d", path, resp.StatusCode)
		}
	}
	ts.Close()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines: %d after, %d before", runtime.NumGoroutine(), before)
}
