package server

// Session endpoint tests: the lifecycle (create → patch → delete), the
// differential contract (every patch response carries the same compile
// verdicts a cold /v1/compile of that source produces), the memory
// discipline (LRU eviction and TTL expiry, including eviction racing an
// in-flight patch under -race), and request validation. The goroutine-
// leak check in newTestServer applies to every test here.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"objinline"
	"objinline/internal/server/api"
)

// doJSON issues a request with an arbitrary method (PATCH, DELETE).
func doJSON(t *testing.T, ts *httptest.Server, method, path string, req any) (*http.Response, []byte) {
	t.Helper()
	var body io.Reader
	if req != nil {
		raw, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		body = bytes.NewReader(raw)
	}
	hreq, err := http.NewRequest(method, ts.URL+path, body)
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := ts.Client().Do(hreq)
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

// compileSections strips a response envelope down to the sections both
// /v1/compile and the session endpoints must agree on byte for byte:
// everything except the wall-clock phase timings (volatile) and the
// session bookkeeping (session_id, incremental — absent from /v1/compile
// by construction).
func compileSections(t *testing.T, body []byte) string {
	t.Helper()
	var env map[string]any
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("response is not JSON: %v\n%s", err, body)
	}
	delete(env, "session_id")
	delete(env, "incremental")
	if stats, ok := env["stats"].(map[string]any); ok {
		delete(stats, "phases")
		delete(stats, "total_nanos")
	}
	out, err := json.MarshalIndent(env, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

type sessionEnv struct {
	SessionID   string                      `json:"session_id"`
	Mode        string                      `json:"mode"`
	CodeSize    int                         `json:"code_size"`
	Incremental *objinline.IncrementalStats `json:"incremental"`
	Error       *api.Error                  `json:"error"`
}

func decodeSessionEnv(t *testing.T, body []byte) sessionEnv {
	t.Helper()
	var env sessionEnv
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("envelope is not JSON: %v\n%s", err, body)
	}
	return env
}

// TestSessionExampleDocumented replays the session example in
// docs/SERVER.md — its create and PATCH request bodies — and requires the
// live incremental block to equal the JSON the doc shows.
func TestSessionExampleDocumented(t *testing.T) {
	text, err := os.ReadFile("../../docs/SERVER.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(text), "\n### Sessions: ")
	if !ok {
		t.Fatal("docs/SERVER.md has no Sessions section")
	}
	section, _, _ = strings.Cut(section, "\n### ")
	bodies := regexp.MustCompile(`(?s)-d '(\{.*?\})'`).FindAllStringSubmatch(section, -1)
	block := regexp.MustCompile("(?s)```json\n(\"incremental\": \\{.*?\\})\n```").FindStringSubmatch(section)
	if len(bodies) != 2 || block == nil {
		t.Fatalf("Sessions section lost its example: %d request bodies, incremental block found %v", len(bodies), block != nil)
	}
	var want map[string]any
	if err := json.Unmarshal([]byte("{"+block[1]+"}"), &want); err != nil {
		t.Fatalf("documented incremental block is not JSON: %v", err)
	}

	_, ts := newTestServer(t, Config{})
	resp, body := postJSON(t, ts, "/v1/session", json.RawMessage(bodies[0][1]))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("create: status %d: %s", resp.StatusCode, body)
	}
	sid := decodeSessionEnv(t, body).SessionID
	resp, body = doJSON(t, ts, http.MethodPatch, "/v1/session/"+sid, json.RawMessage(bodies[1][1]))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("patch: status %d: %s", resp.StatusCode, body)
	}
	var got map[string]any
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got["incremental"], want["incremental"]) {
		live, _ := json.Marshal(got["incremental"])
		t.Errorf("docs/SERVER.md shows\n%s\nbut the live incremental block is\n%s", block[1], live)
	}
}

// TestSessionLifecycle drives one session through the tier ladder —
// create (cold), payload edit (patch), shape edit (solve), structural
// edit (cold) — checking each patch response against a cold /v1/compile
// of the same source, and the tier counters in /metrics at the end.
func TestSessionLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	src := fixtureSource(t)

	resp, body := postJSON(t, ts, "/v1/session", api.CompileRequest{
		Filename: "explain.icc", Source: src,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("create: status %d: %s", resp.StatusCode, body)
	}
	created := decodeSessionEnv(t, body)
	if created.SessionID == "" {
		t.Fatalf("create response has no session_id: %s", body)
	}
	if created.Mode != "inline" || created.CodeSize == 0 {
		t.Fatalf("create envelope is not a compile envelope: %s", body)
	}

	// Three edits, one per incremental tier below reuse. The fixture is
	// testdata/explain.icc; "new Point(1, 2)" appears in its main.
	if !strings.Contains(src, "new Point(1, 2)") {
		t.Fatal("fixture drifted: no Point(1, 2) to edit")
	}
	edits := []struct {
		name, src, tier string
	}{
		{"payload", strings.Replace(src, "new Point(1, 2)", "new Point(9, 2)", 1), objinline.TierPatch},
		{"shape", strings.Replace(src, "print(r.area());", "if (true) { print(r.area()); }", 1), objinline.TierSolve},
		{"structural", src + "\nfunc spare(x) { return x; }\n", objinline.TierCold},
	}
	for _, e := range edits {
		resp, body := doJSON(t, ts, http.MethodPatch, "/v1/session/"+created.SessionID,
			api.SessionPatchRequest{Source: e.src})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s patch: status %d: %s", e.name, resp.StatusCode, body)
		}
		env := decodeSessionEnv(t, body)
		if env.Incremental == nil || env.Incremental.Tier != e.tier {
			t.Errorf("%s patch: incremental = %+v, want tier %q", e.name, env.Incremental, e.tier)
		}
		if env.SessionID != created.SessionID {
			t.Errorf("%s patch: session_id = %q", e.name, env.SessionID)
		}

		coldResp, coldBody := postJSON(t, ts, "/v1/compile", api.CompileRequest{
			Filename: "explain.icc", Source: e.src,
		})
		if coldResp.StatusCode != http.StatusOK {
			t.Fatalf("%s cold compile: status %d: %s", e.name, coldResp.StatusCode, coldBody)
		}
		warm, cold := compileSections(t, body), compileSections(t, coldBody)
		if warm != cold {
			t.Errorf("%s patch diverged from cold /v1/compile\n--- warm ---\n%s\n--- cold ---\n%s",
				e.name, warm, cold)
		}
	}

	// The patch tier reused the analysis without running it. The edit
	// derives from the session's current source (the structural edit
	// above) so only a constant changes.
	resp, body = doJSON(t, ts, http.MethodPatch, "/v1/session/"+created.SessionID,
		api.SessionPatchRequest{Source: strings.Replace(edits[2].src, "new Point(1, 2)", "new Point(7, 2)", 1)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("final patch: status %d: %s", resp.StatusCode, body)
	}
	if env := decodeSessionEnv(t, body); env.Incremental.Tier != objinline.TierPatch ||
		!env.Incremental.AnalysisReused || env.Incremental.AnalysisInstrEvals != 0 {
		t.Errorf("payload patch did not reuse analysis: %+v", env.Incremental)
	}

	m := getMetrics(t, ts)
	if m["sessions_active"] != 1 || m["sessions_created_total"] != 1 {
		t.Errorf("session gauges = active %v, created %v", m["sessions_active"], m["sessions_created_total"])
	}
	if m["session_patches_total"] != 4 {
		t.Errorf("session_patches_total = %v, want 4", m["session_patches_total"])
	}

	// Delete releases it; a second delete and a patch both 404.
	if resp, body := doJSON(t, ts, http.MethodDelete, "/v1/session/"+created.SessionID, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("delete: status %d: %s", resp.StatusCode, body)
	}
	if resp, _ := doJSON(t, ts, http.MethodDelete, "/v1/session/"+created.SessionID, nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("double delete: status %d, want 404", resp.StatusCode)
	}
	resp, body = doJSON(t, ts, http.MethodPatch, "/v1/session/"+created.SessionID,
		api.SessionPatchRequest{Source: src})
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("patch after delete: status %d, want 404", resp.StatusCode)
	}
	if env := decodeSessionEnv(t, body); env.Error == nil || env.Error.Code != api.CodeUnknownSession {
		t.Errorf("patch after delete error = %+v, want %s", env.Error, api.CodeUnknownSession)
	}
}

// TestSessionPatchErrorKeepsSession checks a bad edit reports 422 and the
// session still absorbs the next good edit.
func TestSessionPatchErrorKeepsSession(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	src := fixtureSource(t)
	_, body := postJSON(t, ts, "/v1/session", api.CompileRequest{Source: src})
	id := decodeSessionEnv(t, body).SessionID

	resp, body := doJSON(t, ts, http.MethodPatch, "/v1/session/"+id,
		api.SessionPatchRequest{Source: "func main() { return nope; }"})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("bad edit: status %d: %s", resp.StatusCode, body)
	}
	if env := decodeSessionEnv(t, body); env.Error == nil || env.Error.Code != api.CodeCompileError {
		t.Fatalf("bad edit error = %+v", env.Error)
	}

	resp, body = doJSON(t, ts, http.MethodPatch, "/v1/session/"+id,
		api.SessionPatchRequest{Source: strings.Replace(src, "41", "42", 1)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("recovery patch: status %d: %s", resp.StatusCode, body)
	}
}

// TestSessionValidation pins the 400/413/404 discipline.
func TestSessionValidation(t *testing.T) {
	_, ts := newLimitedServer(t, Config{}, func(l *limits) { l.maxSourceBytes = 64 })
	if resp, _ := doJSON(t, ts, http.MethodPatch, "/v1/session/deadbeef",
		api.SessionPatchRequest{Source: "func main() {}"}); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown session: status %d, want 404", resp.StatusCode)
	}
	_, body := postJSON(t, ts, "/v1/session", api.CompileRequest{Source: "func main() {}"})
	id := decodeSessionEnv(t, body).SessionID
	if resp, _ := doJSON(t, ts, http.MethodPatch, "/v1/session/"+id,
		api.SessionPatchRequest{}); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty source: status %d, want 400", resp.StatusCode)
	}
	if resp, _ := doJSON(t, ts, http.MethodPatch, "/v1/session/"+id,
		api.SessionPatchRequest{Source: "func main() { " + strings.Repeat("print(1); ", 20) + "}"}); resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized source: status %d, want 413", resp.StatusCode)
	}
}

// TestSessionTTLExpiry checks an idle session expires and later patches
// 404, with the expiration counted.
func TestSessionTTLExpiry(t *testing.T) {
	_, ts := newLimitedServer(t, Config{}, func(l *limits) { l.sessionTTL = 50 * time.Millisecond })
	_, body := postJSON(t, ts, "/v1/session", api.CompileRequest{Source: "func main() { print(1); }"})
	id := decodeSessionEnv(t, body).SessionID
	time.Sleep(80 * time.Millisecond)
	if resp, _ := doJSON(t, ts, http.MethodPatch, "/v1/session/"+id,
		api.SessionPatchRequest{Source: "func main() { print(2); }"}); resp.StatusCode != http.StatusNotFound {
		t.Errorf("expired session patch: status %d, want 404", resp.StatusCode)
	}
	m := getMetrics(t, ts)
	if m["session_expirations_total"] < 1 {
		t.Errorf("session_expirations_total = %v, want >= 1", m["session_expirations_total"])
	}
	if m["sessions_active"] != 0 {
		t.Errorf("sessions_active = %v, want 0", m["sessions_active"])
	}
}

// TestSessionEvictionRacesInflightPatch hammers one session with
// concurrent patches while creates force LRU evictions (bound 1), under
// the race detector via `make check`. An in-flight patch that won the
// lookup completes normally even when its session is evicted mid-flight;
// patches that lose the lookup 404. Nothing may crash, race, or leak.
func TestSessionEvictionRacesInflightPatch(t *testing.T) {
	_, ts := newLimitedServer(t, Config{}, func(l *limits) { l.sessionEntries, l.pool, l.queue = 1, 4, 16 })
	src := "func main() { print(41); }"
	_, body := postJSON(t, ts, "/v1/session", api.CompileRequest{Source: src})
	id := decodeSessionEnv(t, body).SessionID

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			edited := strings.Replace(src, "41", fmt.Sprint(42+i), 1)
			resp, body := doJSON(t, ts, http.MethodPatch, "/v1/session/"+id,
				api.SessionPatchRequest{Source: edited})
			if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNotFound {
				t.Errorf("patch %d: status %d: %s", i, resp.StatusCode, body)
			}
		}(i)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Each create evicts the previous LRU occupant — racing the
			// patches above for the session table.
			resp, body := postJSON(t, ts, "/v1/session", api.CompileRequest{
				Source: fmt.Sprintf("func main() { print(%d); }", 100+i),
			})
			if resp.StatusCode != http.StatusOK {
				t.Errorf("create %d: status %d: %s", i, resp.StatusCode, body)
			}
		}(i)
	}
	wg.Wait()

	m := getMetrics(t, ts)
	if m["sessions_active"] != 1 {
		t.Errorf("sessions_active = %v, want 1 (bound)", m["sessions_active"])
	}
	if m["session_evictions_total"] < 1 {
		t.Errorf("session_evictions_total = %v, want >= 1", m["session_evictions_total"])
	}
}

// TestServerCloseReleasesSessions pins the drain contract: Close purges
// the session table (patches 404 afterwards) without breaking the
// handler.
func TestServerCloseReleasesSessions(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	_, body := postJSON(t, ts, "/v1/session", api.CompileRequest{Source: "func main() { print(1); }"})
	id := decodeSessionEnv(t, body).SessionID
	srv.Close()
	if resp, _ := doJSON(t, ts, http.MethodPatch, "/v1/session/"+id,
		api.SessionPatchRequest{Source: "func main() { print(2); }"}); resp.StatusCode != http.StatusNotFound {
		t.Errorf("patch after Close: status %d, want 404", resp.StatusCode)
	}
	if m := getMetrics(t, ts); m["sessions_active"] != 0 {
		t.Errorf("sessions_active after Close = %v, want 0", m["sessions_active"])
	}
}
