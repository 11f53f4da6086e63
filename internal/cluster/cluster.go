package cluster

// Membership and routing: a Cluster wraps a static peer list (from
// -peers) with a health-probe loop that ejects unresponsive peers from
// the ring and readmits them when they recover. The ring itself is
// immutable; probes swap a fresh one in atomically, so request-path
// routing is a single atomic load plus a binary search.

import (
	"context"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Config configures a Cluster.
type Config struct {
	// Self is this instance's base URL as peers reach it
	// (e.g. "http://10.0.0.1:8372"). Must appear in Peers.
	Self string
	// Peers is the full static membership, self included.
	Peers []string
	// ProbeInterval between health probes of each peer (0 = 1s). One
	// probe times out after the interval, at most 2s.
	ProbeInterval time.Duration
	// Logger for membership transitions (nil = slog.Default).
	Logger *slog.Logger
}

const (
	// failAfter consecutive failed probes eject a peer.
	failAfter = 2
	// riseAfter consecutive good probes readmit it.
	riseAfter = 2
	// maxProbeTimeout caps one probe's timeout on long probe intervals.
	maxProbeTimeout = 2 * time.Second
)

// Cluster is one instance's live view of the ring. All methods are safe
// for concurrent use; routing methods are lock-free.
type Cluster struct {
	cfg    Config
	client *http.Client
	log    *slog.Logger

	ring atomic.Pointer[Ring] // current ring: self + peers currently up

	mu     sync.Mutex
	health map[string]*peerHealth // keyed by peer URL, self excluded

	stop   chan struct{}
	done   chan struct{}
	closed sync.Once

	transitions atomic.Int64 // ejections + readmissions, for metrics
}

type peerHealth struct {
	up         bool
	goodStreak int
	badStreak  int
}

// NormalizePeer canonicalizes a peer URL for membership comparison:
// trims whitespace and trailing slashes and defaults a bare host:port to
// http://.
func NormalizePeer(s string) string {
	s = strings.TrimSpace(s)
	s = strings.TrimRight(s, "/")
	if s == "" {
		return ""
	}
	if !strings.Contains(s, "://") {
		s = "http://" + s
	}
	return s
}

// ParsePeers splits a comma-separated -peers value into normalized URLs.
func ParsePeers(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = NormalizePeer(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// New builds a Cluster. Every peer starts as up (the common case at
// boot is a whole cluster starting together; probes demote the ones that
// are not actually there within failAfter×ProbeInterval). Start launches
// the probe loop.
func New(cfg Config) *Cluster {
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = time.Second
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	cfg.Self = NormalizePeer(cfg.Self)
	c := &Cluster{
		cfg: cfg,
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 16,
			IdleConnTimeout:     30 * time.Second,
		}},
		log:    cfg.Logger,
		health: make(map[string]*peerHealth),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	for _, raw := range cfg.Peers {
		p := NormalizePeer(raw)
		if p == "" || p == cfg.Self {
			continue
		}
		if _, dup := c.health[p]; !dup {
			c.health[p] = &peerHealth{up: true}
		}
	}
	c.rebuild()
	return c
}

// SelfURL returns this instance's canonical base URL.
func (c *Cluster) SelfURL() string { return c.cfg.Self }

// Client returns the HTTP client forwards should use.
func (c *Cluster) Client() *http.Client { return c.client }

// Ring returns the current ring (never nil).
func (c *Cluster) Ring() *Ring { return c.ring.Load() }

// Route is key's placement on the current ring: its owner, and whether
// that owner is this instance.
type Route struct {
	Owner string
	Local bool
}

// RouteKey returns the Route for key. On an empty ring (cannot happen:
// self is always a member) Local is true so the caller just serves
// locally.
func (c *Cluster) RouteKey(key string) Route {
	owner, ok := c.Ring().Owner(key)
	if !ok {
		return Route{Owner: c.cfg.Self, Local: true}
	}
	return Route{Owner: owner, Local: owner == c.cfg.Self}
}

// PeersUp returns how many peers (self excluded) are currently in the
// ring, and the total peer count.
func (c *Cluster) PeersUp() (up, total int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, h := range c.health {
		if h.up {
			up++
		}
	}
	return up, len(c.health)
}

// Transitions returns the count of membership changes (ejections plus
// readmissions) since boot.
func (c *Cluster) Transitions() int64 { return c.transitions.Load() }

// rebuild recomputes the ring from self plus the peers currently up.
// Callers hold c.mu or have exclusive access (New).
func (c *Cluster) rebuild() {
	nodes := []string{c.cfg.Self}
	for p, h := range c.health {
		if h.up {
			nodes = append(nodes, p)
		}
	}
	c.ring.Store(NewRing(nodes))
}

// Start launches the probe loop. Close stops it.
func (c *Cluster) Start() {
	go c.probeLoop()
}

// Close stops the probe loop and waits for it to exit.
func (c *Cluster) Close() {
	c.closed.Do(func() { close(c.stop) })
	<-c.done
}

func (c *Cluster) probeLoop() {
	defer close(c.done)
	t := time.NewTicker(c.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
			c.probeAll()
		}
	}
}

// probeAll probes every peer concurrently and applies the streak
// thresholds. A peer answering /healthz with 200 is healthy; a 503
// (draining) or any error counts as down — that is the graceful drain
// handoff: BeginDrain flips /healthz to 503, peers eject the drainer
// within failAfter probes, and its keys re-home to the rebuilt ring's
// owners while it finishes in-flight work.
func (c *Cluster) probeAll() {
	c.mu.Lock()
	peers := make([]string, 0, len(c.health))
	for p := range c.health {
		peers = append(peers, p)
	}
	c.mu.Unlock()

	results := make(map[string]bool, len(peers))
	var rmu sync.Mutex
	var wg sync.WaitGroup
	for _, p := range peers {
		wg.Add(1)
		go func(p string) {
			defer wg.Done()
			ok := c.probeOne(p)
			rmu.Lock()
			results[p] = ok
			rmu.Unlock()
		}(p)
	}
	wg.Wait()

	c.mu.Lock()
	defer c.mu.Unlock()
	changed := false
	for p, ok := range results {
		h := c.health[p]
		if h == nil {
			continue
		}
		if ok {
			h.goodStreak++
			h.badStreak = 0
			if !h.up && h.goodStreak >= riseAfter {
				h.up = true
				changed = true
				c.transitions.Add(1)
				c.log.Info("cluster: peer readmitted", "peer", p)
			}
		} else {
			h.badStreak++
			h.goodStreak = 0
			if h.up && h.badStreak >= failAfter {
				h.up = false
				changed = true
				c.transitions.Add(1)
				c.log.Warn("cluster: peer ejected", "peer", p, "failed_probes", h.badStreak)
			}
		}
	}
	if changed {
		c.rebuild()
	}
}

func (c *Cluster) probeOne(peer string) bool {
	ctx, cancel := context.WithTimeout(context.Background(), min(c.cfg.ProbeInterval, maxProbeTimeout))
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, peer+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	// Draining instances answer 503; treating that as down is what makes
	// drain a handoff rather than an outage.
	return resp.StatusCode == http.StatusOK
}
