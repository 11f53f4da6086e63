package server

// Distributed-tier tests over real HTTP: forwarding must make the
// owner's singleflight a cluster-wide dedup with byte-identical
// responses through every front-end, a forward must be one request to
// the owner however slow it is, a dead owner must degrade to local
// compute (not errors), and the disk tier must bring a restarted
// instance up warm.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"objinline/internal/cluster"
	"objinline/internal/server/api"
)

func quietLog() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelError + 1}))
}

// clusterNode is one oicd instance in an in-process cluster.
type clusterNode struct {
	srv *Server
	ts  *httptest.Server
	cl  *cluster.Cluster
	url string
}

// newTestCluster stands up n instances that each know the full peer
// list. Listeners are bound before any server is built so every
// instance's URL is known to all of them from the start. The probe
// loop runs at a one-hour interval — membership is effectively static
// unless a test closes a node and waits, which none of these do (the
// probe-driven ejection path is covered in internal/cluster).
func newTestCluster(t *testing.T, n int) []*clusterNode {
	t.Helper()
	before := runtime.NumGoroutine()
	listeners := make([]net.Listener, n)
	urls := make([]string, n)
	for i := range listeners {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = l
		urls[i] = "http://" + l.Addr().String()
	}
	nodes := make([]*clusterNode, n)
	for i := range nodes {
		cl := cluster.New(cluster.Config{
			Self:          urls[i],
			Peers:         urls,
			ProbeInterval: time.Hour,
			Logger:        quietLog(),
		})
		cl.Start()
		srv := New(Config{Cluster: cl})
		ts := httptest.NewUnstartedServer(srv)
		ts.Listener.Close()
		ts.Listener = listeners[i]
		ts.Start()
		nodes[i] = &clusterNode{srv: srv, ts: ts, cl: cl, url: urls[i]}
	}
	t.Cleanup(func() {
		for _, nd := range nodes {
			nd.ts.Close()
			nd.srv.Close()
			nd.cl.Client().CloseIdleConnections()
			nd.cl.Close()
		}
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > before+2 {
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<20)
				t.Errorf("goroutine leak: %d before, %d after cluster shutdown\n%s",
					before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
	})
	return nodes
}

// defaultRequestKey computes the cache key prepare would assign a
// request with default config — how tests steer a key to a chosen
// owner.
func defaultRequestKey(t *testing.T, filename, source string) string {
	t.Helper()
	cfg, err := api.Config{}.ToConfig()
	if err != nil {
		t.Fatal(err)
	}
	return cacheKey(cfg, filename, source)
}

// filenameOwnedBy searches for a filename whose default-config key the
// given node owns on cl's ring.
func filenameOwnedBy(t *testing.T, cl *cluster.Cluster, owner, source string) string {
	t.Helper()
	for i := 0; i < 4096; i++ {
		fn := fmt.Sprintf("owned%d.icc", i)
		if cl.RouteKey(defaultRequestKey(t, fn, source)).Owner == owner {
			return fn
		}
	}
	t.Fatalf("no filename found whose key is owned by %s", owner)
	return ""
}

// TestClusterForwardDedup compiles the same source through all three
// front-ends; the owner's singleflight must be the only compile in the
// whole cluster and every front must return the same bytes.
func TestClusterForwardDedup(t *testing.T) {
	nodes := newTestCluster(t, 3)
	src := fixtureSource(t)
	req := api.CompileRequest{Source: src}

	var bodies [][]byte
	for _, nd := range nodes {
		resp, body := postJSON(t, nd.ts, "/v1/compile", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("compile via %s: status %d\n%s", nd.url, resp.StatusCode, body)
		}
		if resp.Header.Get("X-Oicd-Owner") == "" {
			t.Errorf("compile via %s: missing X-Oicd-Owner header", nd.url)
		}
		bodies = append(bodies, body)
	}
	for i := 1; i < len(bodies); i++ {
		if string(bodies[i]) != string(bodies[0]) {
			t.Errorf("front %d returned different bytes than front 0:\n%s\nvs\n%s",
				i, bodies[i], bodies[0])
		}
	}

	var compiles, forwards float64
	for _, nd := range nodes {
		m := getMetrics(t, nd.ts)
		compiles += m["compiles_total"]
		forwards += m["forwards_total"]
	}
	if compiles != 1 {
		t.Errorf("cluster-wide compiles_total = %v, want 1 (owner singleflight must dedup)", compiles)
	}
	if forwards != 2 {
		t.Errorf("cluster-wide forwards_total = %v, want 2 (two non-owner fronts)", forwards)
	}
}

// TestClusterConcurrentDedup sends K distinct sources through all three
// front-ends at once. Whichever front a key's first request reaches, the
// owner's singleflight must compile each key exactly once cluster-wide,
// every front must answer 200 with the same bytes for a key, and each
// key's two non-owner fronts forward exactly once each.
func TestClusterConcurrentDedup(t *testing.T) {
	const keys = 4
	nodes := newTestCluster(t, 3)
	src := fixtureSource(t)

	type answer struct {
		status int
		body   []byte
		err    error
	}
	answers := make([][]answer, keys)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for k := range answers {
		answers[k] = make([]answer, len(nodes))
		body, err := json.Marshal(api.CompileRequest{Source: fmt.Sprintf("%s\n// key %d\n", src, k)})
		if err != nil {
			t.Fatal(err)
		}
		for f, nd := range nodes {
			wg.Add(1)
			go func(a *answer, nd *clusterNode) {
				defer wg.Done()
				<-start
				resp, err := nd.ts.Client().Post(nd.url+"/v1/compile", "application/json", bytes.NewReader(body))
				if err != nil {
					a.err = err
					return
				}
				defer resp.Body.Close()
				a.status = resp.StatusCode
				a.body, a.err = io.ReadAll(resp.Body)
			}(&answers[k][f], nd)
		}
	}
	close(start)
	wg.Wait()

	for k, byFront := range answers {
		for f, a := range byFront {
			switch {
			case a.err != nil:
				t.Errorf("key %d via front %d: %v", k, f, a.err)
			case a.status != http.StatusOK:
				t.Errorf("key %d via front %d: status %d\n%s", k, f, a.status, a.body)
			case !bytes.Equal(a.body, byFront[0].body):
				t.Errorf("key %d: front %d returned different bytes than front 0:\n%s\nvs\n%s",
					k, f, a.body, byFront[0].body)
			}
		}
	}

	var compiles, forwards float64
	for _, nd := range nodes {
		m := getMetrics(t, nd.ts)
		compiles += m["compiles_total"]
		forwards += m["forwards_total"]
	}
	if compiles != keys {
		t.Errorf("cluster-wide compiles_total = %v, want %d (one per key)", compiles, keys)
	}
	if forwards != 2*keys {
		t.Errorf("cluster-wide forwards_total = %v, want %d (two non-owner fronts per key)", forwards, 2*keys)
	}
}

// TestClusterWarmHitAcrossFronts pins the smoke-test contract: compile
// through front A, then read through front B — B forwards to the same
// owner and gets a byte-identical cache hit.
func TestClusterWarmHitAcrossFronts(t *testing.T) {
	nodes := newTestCluster(t, 3)
	src := fixtureSource(t)
	// A key owned by node 1, so both front 0 and front 2 must forward.
	fn := filenameOwnedBy(t, nodes[0].cl, nodes[1].url, src)
	req := api.CompileRequest{Filename: fn, Source: src}

	respA, bodyA := postJSON(t, nodes[0].ts, "/v1/compile", req)
	if respA.StatusCode != http.StatusOK {
		t.Fatalf("cold compile: status %d\n%s", respA.StatusCode, bodyA)
	}
	if got := respA.Header.Get("X-Oicd-Cache"); got != "miss" {
		t.Errorf("cold compile X-Oicd-Cache = %q, want miss", got)
	}
	if got := respA.Header.Get("X-Oicd-Owner"); got != nodes[1].url {
		t.Errorf("cold compile X-Oicd-Owner = %q, want %q", got, nodes[1].url)
	}

	respB, bodyB := postJSON(t, nodes[2].ts, "/v1/compile", req)
	if respB.StatusCode != http.StatusOK {
		t.Fatalf("warm compile: status %d\n%s", respB.StatusCode, bodyB)
	}
	if got := respB.Header.Get("X-Oicd-Cache"); got != "hit" {
		t.Errorf("warm compile via other front X-Oicd-Cache = %q, want hit", got)
	}
	if string(bodyB) != string(bodyA) {
		t.Errorf("warm body differs from cold body:\n%s\nvs\n%s", bodyB, bodyA)
	}
	if m := getMetrics(t, nodes[1].ts); m["compiles_total"] != 1 {
		t.Errorf("owner compiles_total = %v, want 1", m["compiles_total"])
	}
}

// TestClusterOwnerDownLocalFallback kills a key's owner outright; the
// surviving front must absorb the forward failure and compile locally.
func TestClusterOwnerDownLocalFallback(t *testing.T) {
	nodes := newTestCluster(t, 2)
	src := fixtureSource(t)
	fn := filenameOwnedBy(t, nodes[0].cl, nodes[1].url, src)

	// The owner dies without draining (its listener just goes away); the
	// front's ring still routes to it because no probe has run.
	nodes[1].ts.Close()

	resp, body := postJSON(t, nodes[0].ts, "/v1/compile", api.CompileRequest{Filename: fn, Source: src})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compile with dead owner: status %d\n%s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Oicd-Owner"); got != nodes[0].url {
		t.Errorf("fallback X-Oicd-Owner = %q, want self %q", got, nodes[0].url)
	}
	m := getMetrics(t, nodes[0].ts)
	if m["forward_local_fallback_total"] != 1 {
		t.Errorf("forward_local_fallback_total = %v, want 1", m["forward_local_fallback_total"])
	}
	if m["compiles_total"] != 1 {
		t.Errorf("local compiles_total = %v, want 1", m["compiles_total"])
	}
}

// TestClusterForwardSingleAttempt wires a front-end to two stub peers:
// the key's owner answers slowly, another peer instantly. A forward is
// one request to the owner — however slow it is, no second request goes
// anywhere else — and the owner's answer is what the client gets.
func TestClusterForwardSingleAttempt(t *testing.T) {
	ownerBody := "{\"file\":\"slow-owner\"}\n"
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		select {
		case <-time.After(300 * time.Millisecond):
		case <-r.Context().Done():
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("X-Oicd-Cache", "hit")
		io.WriteString(w, ownerBody)
	}))
	defer slow.Close()
	var otherHits atomic.Int64
	other := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		otherHits.Add(1)
		io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, "{\"file\":\"other-peer\"}\n")
	}))
	defer other.Close()

	before := runtime.NumGoroutine()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	self := "http://" + l.Addr().String()
	cl := cluster.New(cluster.Config{
		Self:          self,
		Peers:         []string{self, slow.URL, other.URL},
		ProbeInterval: time.Hour,
		Logger:        quietLog(),
	})
	cl.Start()
	srv := New(Config{Cluster: cl})
	ts := httptest.NewUnstartedServer(srv)
	ts.Listener.Close()
	ts.Listener = l
	ts.Start()
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
		cl.Client().CloseIdleConnections()
		cl.Close()
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > before+2 {
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<20)
				t.Errorf("goroutine leak after forward test\n%s", buf[:runtime.Stack(buf, true)])
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
	})

	src := fixtureSource(t)
	fn := filenameOwnedBy(t, cl, slow.URL, src)
	resp, body := postJSON(t, ts, "/v1/compile", api.CompileRequest{Filename: fn, Source: src})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("forwarded compile: status %d\n%s", resp.StatusCode, body)
	}
	if string(body) != ownerBody {
		t.Errorf("forwarded response body = %s, want the owner's", body)
	}
	if n := otherHits.Load(); n != 0 {
		t.Errorf("non-owner peer saw %d requests, want 0", n)
	}
	if m := getMetrics(t, ts); m["forwards_total"] != 1 {
		t.Errorf("forwards_total = %v, want 1", m["forwards_total"])
	}
}

// TestClusterDiskWarmRestart restarts a disk-backed instance and
// demands a warm, byte-identical, zero-compile replay — then exercises
// the lazy program upgrade behind a replayed entry via /v1/run.
func TestClusterDiskWarmRestart(t *testing.T) {
	dir := t.TempDir()
	src := fixtureSource(t)
	req := api.CompileRequest{Source: src}

	store, err := cluster.OpenStore(dir, quietLog())
	if err != nil {
		t.Fatal(err)
	}
	srvA := New(Config{Disk: store})
	tsA := httptest.NewServer(srvA)
	respA, bodyA := postJSON(t, tsA, "/v1/compile", req)
	if respA.StatusCode != http.StatusOK {
		t.Fatalf("cold compile: status %d\n%s", respA.StatusCode, bodyA)
	}
	mA := getMetrics(t, tsA)
	if mA["disk_appends_total"] < 1 {
		t.Errorf("disk_appends_total = %v, want >= 1", mA["disk_appends_total"])
	}
	tsA.Close()
	srvA.Close() // compacts the disk tier
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	store2, err := cluster.OpenStore(dir, quietLog())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store2.Close() })
	srvB := New(Config{Disk: store2})
	tsB := httptest.NewServer(srvB)
	t.Cleanup(func() { tsB.Close(); srvB.Close() })

	respB, bodyB := postJSON(t, tsB, "/v1/compile", req)
	if respB.StatusCode != http.StatusOK {
		t.Fatalf("warm compile after restart: status %d\n%s", respB.StatusCode, bodyB)
	}
	if got := respB.Header.Get("X-Oicd-Cache"); got != "hit" {
		t.Errorf("restarted X-Oicd-Cache = %q, want hit (disk-seeded)", got)
	}
	if string(bodyB) != string(bodyA) {
		t.Errorf("restarted body differs from original:\n%s\nvs\n%s", bodyB, bodyA)
	}
	mB := getMetrics(t, tsB)
	if mB["compiles_total"] != 0 {
		t.Errorf("compiles_total after warm replay = %v, want 0", mB["compiles_total"])
	}
	if mB["disk_replayed_total"] < 1 {
		t.Errorf("disk_replayed_total = %v, want >= 1", mB["disk_replayed_total"])
	}

	// Running a replayed key needs the program back: exactly one lazy
	// recompile (under a worker token), then the run proceeds as usual.
	respRun, bodyRun := postJSON(t, tsB, "/v1/run", api.RunRequest{CompileRequest: req})
	if respRun.StatusCode != http.StatusOK {
		t.Fatalf("run on disk-seeded entry: status %d\n%s", respRun.StatusCode, bodyRun)
	}
	if m := getMetrics(t, tsB); m["disk_upgrades_total"] != 1 {
		t.Errorf("disk_upgrades_total = %v, want 1", m["disk_upgrades_total"])
	}
}

// TestClusterMetricsExposition pins the new occupancy and disk gauges
// in both metrics formats.
func TestClusterMetricsExposition(t *testing.T) {
	dir := t.TempDir()
	store, err := cluster.OpenStore(dir, quietLog())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	_, ts := newTestServer(t, Config{Disk: store})

	if resp, body := postJSON(t, ts, "/v1/compile", api.CompileRequest{Source: fixtureSource(t)}); resp.StatusCode != http.StatusOK {
		t.Fatalf("compile: status %d\n%s", resp.StatusCode, body)
	}

	m := getMetrics(t, ts)
	if m["cache_bytes"] <= 0 {
		t.Errorf("cache_bytes = %v, want > 0 after a compile", m["cache_bytes"])
	}
	if m["disk_wal_bytes"] <= 0 {
		t.Errorf("disk_wal_bytes = %v, want > 0 after a persisted compile", m["disk_wal_bytes"])
	}

	resp, err := ts.Client().Get(ts.URL + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	text, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"# TYPE oicd_cache_bytes gauge",
		"# TYPE oicd_native_cache_bytes gauge",
		"# TYPE oicd_disk_wal_bytes gauge",
		"# TYPE oicd_cluster_peers_total gauge",
		"oicd_forwards_total 0",
		"oicd_disk_appends_total 1",
	} {
		if !strings.Contains(string(text), want) {
			t.Errorf("prometheus exposition missing %q", want)
		}
	}
}
