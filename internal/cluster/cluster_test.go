package cluster

import (
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

func quietLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

func TestParsePeers(t *testing.T) {
	got := ParsePeers(" http://a:1/, b:2 ,, https://c:3 ")
	want := []string{"http://a:1", "http://b:2", "https://c:3"}
	if len(got) != len(want) {
		t.Fatalf("ParsePeers: %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("peer %d: got %q want %q", i, got[i], want[i])
		}
	}
}

func TestRouteKeySingleNode(t *testing.T) {
	c := New(Config{Self: "http://self:1", Peers: []string{"http://self:1"}, Logger: quietLogger()})
	defer func() { c.closed.Do(func() { close(c.stop) }); close(c.done) }()
	rt := c.RouteKey("anything")
	if !rt.Local || rt.Owner != "http://self:1" {
		t.Fatalf("single-node route not local: %+v", rt)
	}
}

// TestProbeEjectionReadmission drives the membership loop against a real
// peer that flips between healthy, draining (503), and healthy again:
// the ring must eject it after failAfter bad probes and readmit it after
// riseAfter good ones, re-homing keys both ways.
func TestProbeEjectionReadmission(t *testing.T) {
	var healthy atomic.Bool
	healthy.Store(true)
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/healthz" {
			http.NotFound(w, r)
			return
		}
		if healthy.Load() {
			w.WriteHeader(http.StatusOK)
		} else {
			w.WriteHeader(http.StatusServiceUnavailable) // draining
		}
	}))
	defer peer.Close()

	self := "http://127.0.0.1:1" // never dialed: only the peer is probed
	c := New(Config{
		Self:          self,
		Peers:         []string{self, peer.URL},
		ProbeInterval: 10 * time.Millisecond,
		Logger:        quietLogger(),
	})
	c.Start()
	defer c.Close()

	waitNodes := func(want int, what string) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			if len(c.Ring().Nodes()) == want {
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
		t.Fatalf("%s: ring has %v, want %d nodes", what, c.Ring().Nodes(), want)
	}

	waitNodes(2, "boot")
	up, total := c.PeersUp()
	if up != 1 || total != 1 {
		t.Fatalf("PeersUp = %d/%d, want 1/1", up, total)
	}

	// Peer starts draining: 503s must eject it and re-home its keys.
	healthy.Store(false)
	waitNodes(1, "after drain")
	rt := c.RouteKey("some-key")
	if !rt.Local || rt.Owner != self {
		t.Fatalf("key did not re-home to self after ejection: %+v", rt)
	}

	// Peer recovers: readmission restores the two-node ring.
	healthy.Store(true)
	waitNodes(2, "after recovery")
	if c.Transitions() < 2 {
		t.Fatalf("Transitions = %d, want >= 2 (eject + readmit)", c.Transitions())
	}
}

func TestProbeUnreachablePeerEjected(t *testing.T) {
	// A peer that was never there: listed in membership, nothing listening.
	c := New(Config{
		Self:          "http://127.0.0.1:1",
		Peers:         []string{"http://127.0.0.1:1", "http://127.0.0.1:9"},
		ProbeInterval: 10 * time.Millisecond,
		Logger:        quietLogger(),
	})
	c.Start()
	defer c.Close()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if len(c.Ring().Nodes()) == 1 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("dead peer never ejected: ring %v", c.Ring().Nodes())
}
