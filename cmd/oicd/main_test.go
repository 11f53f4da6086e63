package main

// End-to-end daemon test: boot on an ephemeral port, serve a compile,
// then shut down gracefully on context cancellation (the SIGTERM path)
// with exit code 0.

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"io"
	"net"
	"net/http"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

func TestDaemonServesAndDrains(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var stdout, stderr bytes.Buffer
	ready := make(chan string, 1)
	exited := make(chan int, 1)
	go func() {
		exited <- run(ctx, []string{"-addr", "127.0.0.1:0"}, &stdout, &stderr, ready)
	}()
	var base string
	select {
	case addr := <-ready:
		base = "http://" + addr
	case code := <-exited:
		t.Fatalf("daemon exited early with %d: %s", code, stderr.String())
	case <-time.After(5 * time.Second):
		t.Fatal("daemon never became ready")
	}

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: status %d", resp.StatusCode)
	}

	body, _ := json.Marshal(map[string]any{"source": "func main() { print(41 + 1); }"})
	resp, err = http.Post(base+"/v1/compile", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	envBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compile: status %d: %s", resp.StatusCode, envBody)
	}
	var env struct {
		Mode     string `json:"mode"`
		CodeSize int    `json:"code_size"`
	}
	if err := json.Unmarshal(envBody, &env); err != nil || env.Mode != "inline" || env.CodeSize == 0 {
		t.Errorf("compile envelope = %s", envBody)
	}

	cancel() // the SIGTERM path
	select {
	case code := <-exited:
		if code != 0 {
			t.Fatalf("exit code %d, want 0; stderr: %s", code, stderr.String())
		}
	case <-time.After(5 * time.Second):
		t.Fatal("daemon did not shut down")
	}
	if !strings.Contains(stdout.String(), "draining") {
		t.Errorf("no drain message on stdout: %q", stdout.String())
	}
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Error("daemon still accepting connections after shutdown")
	}
}

func TestDaemonFlagErrors(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), []string{"-bogus"}, &stdout, &stderr, nil); code != 2 {
		t.Errorf("bad flag: exit %d, want 2", code)
	}
	if code := run(context.Background(), []string{"extra"}, &stdout, &stderr, nil); code != 2 {
		t.Errorf("stray arg: exit %d, want 2", code)
	}
	// The server's fixed limits are not flags: naming one is an unknown
	// flag.
	for _, name := range []string{"-pool", "-queue", "-cache-entries", "-deadline", "-max-deadline",
		"-max-source-bytes", "-native-cache-entries", "-session-entries", "-session-ttl", "-request-ring"} {
		if code := run(context.Background(), []string{name, "1"}, &stdout, &stderr, nil); code != 2 {
			t.Errorf("removed flag %s: exit %d, want 2", name, code)
		}
	}
	if code := run(context.Background(), []string{"-log-format", "xml"}, &stdout, &stderr, nil); code != 2 {
		t.Errorf("bad log format: exit %d, want 2", code)
	}
	if code := run(context.Background(), []string{"-log-level", "loud"}, &stdout, &stderr, nil); code != 2 {
		t.Errorf("bad log level: exit %d, want 2", code)
	}
}

// TestFlagsDocumented holds docs/SERVER.md's flag table to oicd's
// FlagSet: every flag has a row, every row names a live flag, and a row
// for a flag with a non-empty default shows that default.
func TestFlagsDocumented(t *testing.T) {
	text, err := os.ReadFile("../../docs/SERVER.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(text), "\n## Flags\n")
	if !ok {
		t.Fatal("docs/SERVER.md has no Flags section")
	}
	section, _, _ = strings.Cut(section, "\n## ")
	rows := make(map[string]string) // flag name → default cell
	for _, m := range regexp.MustCompile("(?m)^\\| `-([a-z-]+)` \\| ([^|]*) \\|").FindAllStringSubmatch(section, -1) {
		rows[m[1]] = strings.Trim(strings.TrimSpace(m[2]), "`")
	}
	fs, _ := newFlagSet(io.Discard)
	fs.VisitAll(func(f *flag.Flag) {
		def, ok := rows[f.Name]
		if !ok {
			t.Errorf("flag -%s has no row in docs/SERVER.md's flag table", f.Name)
			return
		}
		delete(rows, f.Name)
		if f.DefValue != "" && def != f.DefValue {
			t.Errorf("docs/SERVER.md gives -%s the default %q; the flag's is %q", f.Name, def, f.DefValue)
		}
	})
	for name := range rows {
		t.Errorf("docs/SERVER.md documents -%s, which oicd does not define", name)
	}
}

// TestDaemonDebugSurface boots with -debug-addr and checks the debug
// listener serves pprof and request introspection while the serving port
// does not expose pprof, and that JSON access logs land on stderr with
// the request id the response carried.
func TestDaemonDebugSurface(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var stdout, stderr bytes.Buffer
	ready := make(chan string, 1)
	exited := make(chan int, 1)
	go func() {
		exited <- run(ctx, []string{
			"-addr", "127.0.0.1:0", "-debug-addr", "127.0.0.1:0",
			"-log-format", "json",
		}, &stdout, &stderr, ready)
	}()
	var base string
	select {
	case addr := <-ready:
		base = "http://" + addr
	case code := <-exited:
		t.Fatalf("daemon exited early with %d: %s", code, stderr.String())
	case <-time.After(5 * time.Second):
		t.Fatal("daemon never became ready")
	}
	// The debug address is announced on stdout before ready is signaled.
	var debugBase string
	for _, line := range strings.Split(stdout.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, "oicd: debug surface on "); ok {
			debugBase = rest
		}
	}
	if debugBase == "" {
		t.Fatalf("no debug surface announcement on stdout: %q", stdout.String())
	}

	body, _ := json.Marshal(map[string]any{"source": "func main() { print(1); }"})
	resp, err := http.Post(base+"/v1/compile", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	reqID := resp.Header.Get("X-Oicd-Request-Id")
	if reqID == "" {
		t.Fatal("compile response missing X-Oicd-Request-Id")
	}

	for path, wantType := range map[string]string{
		"/debug/pprof/cmdline": "", // pprof responds 200
		"/debug/requests":      "application/json",
	} {
		resp, err := http.Get(debugBase + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: status %d", path, resp.StatusCode)
		}
		if wantType != "" && !strings.HasPrefix(resp.Header.Get("Content-Type"), wantType) {
			t.Errorf("GET %s: content-type %q, want %q", path, resp.Header.Get("Content-Type"), wantType)
		}
	}
	// pprof must not be reachable on the serving port.
	resp, err = http.Get(base + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Error("pprof exposed on the serving port")
	}

	cancel()
	select {
	case code := <-exited:
		if code != 0 {
			t.Fatalf("exit code %d, want 0; stderr: %s", code, stderr.String())
		}
	case <-time.After(5 * time.Second):
		t.Fatal("daemon did not shut down")
	}

	// The access log is JSON on stderr; find the compile record and check
	// its request id matches the response header.
	var logged bool
	for _, line := range strings.Split(stderr.String(), "\n") {
		if line == "" {
			continue
		}
		var rec struct {
			Msg       string `json:"msg"`
			RequestID string `json:"request_id"`
			Route     string `json:"route"`
			Status    int    `json:"status"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			continue
		}
		if rec.Msg == "request" && rec.Route == "/v1/compile" {
			logged = true
			if rec.RequestID != reqID {
				t.Errorf("access log request_id = %q, response header = %q", rec.RequestID, reqID)
			}
			if rec.Status != http.StatusOK {
				t.Errorf("access log status = %d, want 200", rec.Status)
			}
		}
	}
	if !logged {
		t.Errorf("no access-log record for /v1/compile on stderr: %q", stderr.String())
	}
}

// startDaemon boots one daemon with args and returns its base URL plus
// the channels to stop it and await its exit code.
func startDaemon(t *testing.T, args []string) (base string, stop context.CancelFunc, exited chan int, stderr *bytes.Buffer) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	var out bytes.Buffer
	errBuf := &bytes.Buffer{}
	ready := make(chan string, 1)
	exited = make(chan int, 1)
	go func() {
		exited <- run(ctx, args, &out, errBuf, ready)
	}()
	select {
	case addr := <-ready:
		base = "http://" + addr
	case code := <-exited:
		cancel()
		t.Fatalf("daemon exited early with %d: %s", code, errBuf.String())
	case <-time.After(5 * time.Second):
		cancel()
		t.Fatal("daemon never became ready")
	}
	return base, cancel, exited, errBuf
}

func stopDaemon(t *testing.T, stop context.CancelFunc, exited chan int, stderr *bytes.Buffer) {
	t.Helper()
	stop()
	select {
	case code := <-exited:
		if code != 0 {
			t.Fatalf("daemon exit code %d, want 0; stderr: %s", code, stderr.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not shut down")
	}
}

func compileVia(t *testing.T, base, source string) (*http.Response, []byte) {
	t.Helper()
	body, _ := json.Marshal(map[string]any{"source": source})
	resp, err := http.Post(base+"/v1/compile", "application/json", bytes.NewReader(body))
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

// TestDaemonCacheDirWarmRestart restarts a disk-backed daemon and
// expects the second boot to answer the same compile as a warm,
// byte-identical cache hit without recompiling.
func TestDaemonCacheDirWarmRestart(t *testing.T) {
	dir := t.TempDir()
	const source = "func main() { print(6 * 7); }"
	args := []string{"-addr", "127.0.0.1:0", "-cache-dir", dir}

	base, stop, exited, stderr := startDaemon(t, args)
	resp, cold := compileVia(t, base, source)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold compile: status %d: %s", resp.StatusCode, cold)
	}
	if got := resp.Header.Get("X-Oicd-Cache"); got != "miss" {
		t.Fatalf("cold compile X-Oicd-Cache = %q, want miss", got)
	}
	stopDaemon(t, stop, exited, stderr)

	base2, stop2, exited2, stderr2 := startDaemon(t, args)
	resp2, warm := compileVia(t, base2, source)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("warm compile: status %d: %s", resp2.StatusCode, warm)
	}
	if got := resp2.Header.Get("X-Oicd-Cache"); got != "hit" {
		t.Errorf("restarted daemon X-Oicd-Cache = %q, want hit (warm from disk)", got)
	}
	if string(warm) != string(cold) {
		t.Errorf("warm body differs from cold body:\n%s\nvs\n%s", warm, cold)
	}
	stopDaemon(t, stop2, exited2, stderr2)
}

// TestDaemonClusterForwarding boots two daemons that peer with each
// other and checks a compile through either front lands on one owner:
// the second front's read is a byte-identical forwarded cache hit.
func TestDaemonClusterForwarding(t *testing.T) {
	// Reserve two ports so each daemon can name the other before boot.
	addrs := make([]string, 2)
	for i := range addrs {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = l.Addr().String()
		l.Close()
	}
	peers := "http://" + addrs[0] + ",http://" + addrs[1]

	const source = "func main() { print(1000 - 7); }"
	type daemon struct {
		base   string
		stop   context.CancelFunc
		exited chan int
		stderr *bytes.Buffer
	}
	var ds []daemon
	for _, addr := range addrs {
		base, stop, exited, stderr := startDaemon(t, []string{"-addr", addr, "-peers", peers})
		ds = append(ds, daemon{base, stop, exited, stderr})
	}
	defer func() {
		for _, d := range ds {
			stopDaemon(t, d.stop, d.exited, d.stderr)
		}
	}()

	respA, bodyA := compileVia(t, ds[0].base, source)
	if respA.StatusCode != http.StatusOK {
		t.Fatalf("compile via A: status %d: %s", respA.StatusCode, bodyA)
	}
	owner := respA.Header.Get("X-Oicd-Owner")
	if owner == "" {
		t.Fatal("compile via A: missing X-Oicd-Owner")
	}
	respB, bodyB := compileVia(t, ds[1].base, source)
	if respB.StatusCode != http.StatusOK {
		t.Fatalf("compile via B: status %d: %s", respB.StatusCode, bodyB)
	}
	if got := respB.Header.Get("X-Oicd-Cache"); got != "hit" {
		t.Errorf("compile via B X-Oicd-Cache = %q, want hit (same owner)", got)
	}
	if got := respB.Header.Get("X-Oicd-Owner"); got != owner {
		t.Errorf("owner disagreement: A says %q, B says %q", owner, got)
	}
	if string(bodyB) != string(bodyA) {
		t.Errorf("fronts returned different bytes:\n%s\nvs\n%s", bodyB, bodyA)
	}
}
