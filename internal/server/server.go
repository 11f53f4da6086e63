// Package server implements oicd, the compile-and-explain service: an
// HTTP/JSON front end over the objinline compiler with a
// content-addressed result cache (singleflight-deduplicated, LRU-bounded),
// a bounded worker pool with queue-depth load shedding, and per-request
// deadlines enforced end-to-end through the compiler's fixpoint solvers
// and the VM's step loop.
//
// Endpoints (see docs/SERVER.md for the full API reference):
//
//	POST   /v1/compile      — diagnostics, inlining decisions, CompileStats
//	POST   /v1/explain      — one field's typed Decision with evidence chain
//	POST   /v1/run          — execution: VM counters (optional profile) or
//	                          the native tier's real measurements, with
//	                          optional program output either way
//	POST   /v1/session      — pin an incremental session (cold compile)
//	PATCH  /v1/session/{id} — recompile the session at edited source,
//	                          reusing prior analysis/optimization where the
//	                          edit allows; byte-identical to a cold compile
//	DELETE /v1/session/{id} — release the session
//	GET    /healthz         — liveness + readiness: build info, uptime,
//	                          503 while draining so load balancers stop
//	                          routing before the listener closes
//	GET    /metrics         — this instance's counters as flat JSON
//	                          (with server-computed latency percentiles),
//	                          or Prometheus text exposition with
//	                          ?format=prometheus
//	GET    /debug/requests  — the last N requests (id, route, status,
//	                          cache/engine/tier, queue wait, duration)
//	GET    /debug/requests/{id}/trace — one request's span tree as a
//	                          Chrome trace (Perfetto-loadable)
//	GET    /debug/requests/trace — every buffered request on one shared
//	                          timeline
//
// Every response carries X-Oicd-Request-Id (honored from the request
// when present, minted otherwise), request latency lands in log-bucketed
// histograms keyed {endpoint, cache status, engine, session tier}, and
// each request records a span tree — HTTP span, admission wait, compile
// phases, VM/native execution — into a bounded in-memory ring
// (internal/obs, DESIGN.md §14).
package server

import (
	"context"
	"errors"
	"log/slog"
	"net/http"
	"runtime"
	"sync/atomic"
	"time"

	"objinline"
	"objinline/internal/cluster"
	"objinline/internal/obs"
	"objinline/internal/trace"
)

// Config tunes a server instance. Zero values mean defaults.
type Config struct {
	// PoolSize bounds concurrent compiler/VM work (default GOMAXPROCS).
	PoolSize int
	// QueueDepth bounds requests waiting for a worker; beyond it requests
	// are shed with 429 + Retry-After (default 4×PoolSize).
	QueueDepth int
	// CacheEntries bounds the result cache's LRU (default 256).
	CacheEntries int
	// DefaultDeadline applies when a request names none (default 10s).
	DefaultDeadline time.Duration
	// MaxDeadline clamps requested deadlines (default 60s).
	MaxDeadline time.Duration
	// MaxSourceBytes bounds the source field; larger requests get 413
	// (default 1 MiB).
	MaxSourceBytes int
	// MaxOutputBytes caps the program output a run response carries
	// (default 256 KiB); beyond it the envelope sets output_truncated.
	MaxOutputBytes int
	// SessionEntries bounds live incremental sessions (default 64). Each
	// session pins a compiled program plus its analysis result, so this
	// is a memory bound; beyond it the least recently used session is
	// evicted and later patches to it get 404.
	SessionEntries int
	// SessionTTL expires sessions idle this long (default 15m).
	SessionTTL time.Duration
	// NativeCacheEntries bounds the native-run result cache's LRU
	// (default 64). Native executions are content-addressed like
	// compilations — a go build per miss is too expensive to repeat — but
	// each entry also pins an envelope with program output, so the bound
	// is smaller than the compile cache's.
	NativeCacheEntries int
	// RequestRingEntries bounds the per-request trace ring buffer behind
	// GET /debug/requests (default 128; negative disables per-request
	// tracing and the ring — request ids, histograms, and access logs
	// still work).
	RequestRingEntries int
	// AccessLog receives one structured record per request (request id,
	// method, route, status, cache status, tier, engine, queue wait,
	// duration, bytes) at Info level. nil disables access logging; the
	// disabled path costs one nil check and zero allocations.
	AccessLog *slog.Logger
	// Cluster, when non-nil, puts this instance on a consistent-hash ring:
	// compile/explain/run requests whose content-addressed key another
	// instance owns are forwarded there (with hedged reads), so the
	// owner's in-process singleflight dedups compiles cluster-wide. The
	// caller owns the Cluster's lifecycle (Start before serving, Close
	// after). See docs/CLUSTER.md.
	Cluster *cluster.Cluster
	// Disk, when non-nil, is the persistent cache tier: completed compile
	// envelopes are appended to its WAL, and its replayed records seed the
	// result cache at New so a restart comes up warm. The caller opens the
	// store; Close compacts and closes it.
	Disk *cluster.Store
	// DisableHedge turns off hedged reads on forwards (for benchmarks
	// isolating the hedging policy; default off = hedging on).
	DisableHedge bool
}

func (c Config) withDefaults() Config {
	if c.PoolSize <= 0 {
		c.PoolSize = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.PoolSize
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 256
	}
	if c.NativeCacheEntries <= 0 {
		c.NativeCacheEntries = 64
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = 10 * time.Second
	}
	if c.MaxDeadline <= 0 {
		c.MaxDeadline = 60 * time.Second
	}
	if c.MaxSourceBytes <= 0 {
		c.MaxSourceBytes = 1 << 20
	}
	if c.MaxOutputBytes <= 0 {
		c.MaxOutputBytes = 256 << 10
	}
	if c.SessionEntries <= 0 {
		c.SessionEntries = 64
	}
	if c.SessionTTL <= 0 {
		c.SessionTTL = 15 * time.Minute
	}
	return c
}

// Server is one oicd instance. It is an http.Handler; plug it into any
// http.Server (whose Shutdown gives graceful draining — in-flight
// requests hold the handler goroutine, so Shutdown waits for them).
type Server struct {
	cfg      Config
	results  *cache
	sessions *sessionStore
	mux      *http.ServeMux
	metrics  *metrics

	// obs is the service observability layer; handler wraps mux with its
	// middleware (request ids, histograms, ring, access log).
	obs     *obs.Obs
	handler http.Handler
	// start anchors /healthz's uptime; draining flips /healthz to 503
	// (set by BeginDrain when shutdown starts).
	start    time.Time
	draining atomic.Bool

	// nativeRuns caches native executions' response envelopes, keyed by
	// compile key ⊕ run knobs (nativeRunKey). Kept separate from results
	// so native traffic can never evict compilations.
	nativeRuns *cache

	// workers is the bounded pool: holding a token = doing compiler or VM
	// work. queued counts requests waiting for a token; beyond
	// cfg.QueueDepth, acquire sheds instead of queueing.
	workers chan struct{}
	queued  atomic.Int64

	// svcRate tracks recent completion throughput; 429 responses derive
	// their Retry-After from it (queue depth / service rate).
	svcRate *rateEstimator

	// Distributed tier (all nil/zero on a standalone instance): cluster
	// routes keys to owners, disk is the WAL-backed warm cache, fwdLat
	// feeds the hedge delay with observed forward latencies, compacting
	// guards the single background compaction, batcher coalesces
	// concurrent native builds into one toolchain invocation.
	cluster    *cluster.Cluster
	disk       *cluster.Store
	fwdLat     *obs.HistogramVec
	compacting atomic.Bool
	batcher    *objinline.NativeBatcher
}

// New builds a server with cfg (zero values defaulted).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:        cfg,
		results:    newCache(cfg.CacheEntries),
		nativeRuns: newCache(cfg.NativeCacheEntries),
		sessions:   newSessionStore(cfg.SessionEntries, cfg.SessionTTL),
		workers:    make(chan struct{}, cfg.PoolSize),
		mux:        http.NewServeMux(),
		start:      time.Now(),
		svcRate:    newRateEstimator(),
		cluster:    cfg.Cluster,
		disk:       cfg.Disk,
		fwdLat:     obs.NewHistogramVec(),
		batcher:    objinline.NewNativeBatcher(),
	}
	s.seedFromDisk()
	s.obs = obs.New(obs.Options{RingEntries: cfg.RequestRingEntries, Logger: cfg.AccessLog})
	s.metrics = newMetrics(s)
	s.mux.HandleFunc("POST /v1/compile", s.handleCompile)
	s.mux.HandleFunc("POST /v1/explain", s.handleExplain)
	s.mux.HandleFunc("POST /v1/run", s.handleRun)
	s.mux.HandleFunc("POST /v1/session", s.handleSessionCreate)
	s.mux.HandleFunc("PATCH /v1/session/{id}", s.handleSessionPatch)
	s.mux.HandleFunc("DELETE /v1/session/{id}", s.handleSessionDelete)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.obs.Mount(s.mux)
	s.handler = s.obs.Middleware(s.mux)
	return s
}

// DebugHandler returns the separate debug surface — net/http/pprof plus
// the request-introspection endpoints — meant for its own listener
// (oicd's -debug-addr), never the serving port.
func (s *Server) DebugHandler() http.Handler { return s.obs.DebugHandler() }

// BeginDrain flips /healthz to 503 so load balancers stop routing here.
// Call it when shutdown starts, before http.Server.Shutdown closes the
// listener: probes over kept-alive connections see "draining" while
// in-flight requests finish.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Close releases everything the server pins beyond in-flight requests —
// the incremental sessions and their compiled programs — and, when a
// disk tier is attached, compacts it so the next boot replays one dense
// snapshot instead of the whole WAL. Call it after http.Server.Shutdown
// has drained; the handler itself keeps working (patches to released
// sessions get 404). The disk store itself stays open for the caller to
// Close (it owns the store's lifecycle, as with Config.Cluster).
func (s *Server) Close() {
	s.sessions.purge()
	if s.disk != nil {
		s.compactDisk()
	}
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.metrics.requests.Add(1)
	s.metrics.inflight.Add(1)
	defer s.metrics.inflight.Add(-1)
	s.handler.ServeHTTP(w, r)
}

// errOverloaded reports that the wait queue is full and the request must
// be shed.
var errOverloaded = errors.New("server overloaded: worker queue full")

// acquire claims a worker token, queueing up to cfg.QueueDepth waiters.
// It returns errOverloaded when the queue is full and ctx.Err() when the
// request's deadline lands first. Cache hits never call this — only work
// that will occupy a compiler or VM needs a token.
func (s *Server) acquire(ctx context.Context) error {
	select {
	case s.workers <- struct{}{}:
		return nil
	default:
	}
	if s.queued.Add(1) > int64(s.cfg.QueueDepth) {
		s.queued.Add(-1)
		return errOverloaded
	}
	defer s.queued.Add(-1)
	// The fast path missed: this request is actually waiting, which is
	// worth a span on its trace and a queue-wait figure in its access-log
	// record. All of it is nil-safe when the request carries no
	// observability state (library callers, tracing disabled).
	req := obs.FromContext(ctx)
	var (
		span trace.Span
		t0   time.Time
	)
	if req != nil {
		span = req.Sink.Start(obs.SpanAdmission)
		t0 = time.Now()
	}
	defer func() {
		if req != nil {
			span.End()
			req.QueueWait += time.Since(t0)
		}
	}()
	select {
	case s.workers <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// release returns the worker token and counts the completion into the
// service-rate estimator that prices Retry-After.
func (s *Server) release() {
	<-s.workers
	s.svcRate.record()
}
