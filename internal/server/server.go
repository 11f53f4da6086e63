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

	"objinline/internal/cluster"
	"objinline/internal/obs"
	"objinline/internal/trace"
)

// Config is what a deployment chooses for a server instance. Everything
// else — pool and queue sizes, cache bounds, deadlines, request size
// limits — is a fixed limit (see the constants below and docs/SERVER.md).
type Config struct {
	// AccessLog receives one structured record per request (request id,
	// method, route, status, cache status, tier, engine, queue wait,
	// duration, bytes) at Info level. nil disables access logging; the
	// disabled path costs one nil check and zero allocations.
	AccessLog *slog.Logger
	// Cluster, when non-nil, puts this instance on a consistent-hash ring:
	// compile/explain/run requests whose content-addressed key another
	// instance owns are forwarded there, so the owner's in-process
	// singleflight dedups compiles cluster-wide. The caller owns the
	// Cluster's lifecycle (Start before serving, Close after). See
	// docs/CLUSTER.md.
	Cluster *cluster.Cluster
	// Disk, when non-nil, is the persistent cache tier: completed compile
	// envelopes are appended to its WAL, and its replayed records seed the
	// result cache at New so a restart comes up warm. The caller opens the
	// store; Close compacts and closes it.
	Disk *cluster.Store
}

// The server's fixed limits. The worker pool is GOMAXPROCS, which the
// environment already sets.
const (
	// queuePerWorker sizes the admission queue: beyond queuePerWorker ×
	// pool waiting requests, requests are shed with 429 + Retry-After.
	queuePerWorker = 4
	// resultCacheEntries bounds the result cache's LRU.
	resultCacheEntries = 256
	// nativeCacheEntries bounds the native-run result cache's LRU. Native
	// executions are content-addressed like compilations — a go build per
	// miss is too expensive to repeat — but each entry also pins an
	// envelope with program output, so the bound is smaller.
	nativeCacheEntries = 64
	// sessionEntries bounds live incremental sessions. Each pins a
	// compiled program plus its analysis result, so this is a memory
	// bound; beyond it the least recently used session is evicted and
	// later patches to it get 404.
	sessionEntries = 64
	// sessionTTL expires sessions idle this long.
	sessionTTL = 15 * time.Minute
	// defaultDeadline applies when a request names none; maxDeadline
	// clamps requested deadlines.
	defaultDeadline = 10 * time.Second
	maxDeadline     = 60 * time.Second
	// maxSourceBytes bounds the source field; larger requests get 413.
	maxSourceBytes = 1 << 20
	// maxOutputBytes caps the program output a run response carries;
	// beyond it the envelope sets output_truncated.
	maxOutputBytes = 256 << 10
)

// limits carries the fixed limits into one server. New always passes
// the constants; in-package tests shrink them to reach shedding,
// eviction, truncation and expiry with a handful of requests.
type limits struct {
	pool, queue                                  int
	resultEntries, nativeEntries, sessionEntries int
	sessionTTL, defaultDeadline, maxDeadline     time.Duration
	maxSourceBytes, maxOutputBytes               int
}

// Server is one oicd instance. It is an http.Handler; plug it into any
// http.Server (whose Shutdown gives graceful draining — in-flight
// requests hold the handler goroutine, so Shutdown waits for them).
type Server struct {
	lim      limits
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
	// lim.queue, acquire sheds instead of queueing.
	workers chan struct{}
	queued  atomic.Int64

	// svcRate tracks recent completion throughput; 429 responses derive
	// their Retry-After from it (queue depth / service rate).
	svcRate *rateEstimator

	// accessLog is Config.AccessLog (nil when access logging is off).
	accessLog *slog.Logger

	// Distributed tier (all nil/zero on a standalone instance): cluster
	// routes keys to owners, disk is the WAL-backed warm cache, compacting
	// guards the single background compaction.
	cluster    *cluster.Cluster
	disk       *cluster.Store
	compacting atomic.Bool
}

// New builds a server with cfg and the fixed limits.
func New(cfg Config) *Server { return newServer(cfg, fixedLimits()) }

// fixedLimits returns the limits every server runs with.
func fixedLimits() limits {
	pool := runtime.GOMAXPROCS(0)
	return limits{
		pool:            pool,
		queue:           queuePerWorker * pool,
		resultEntries:   resultCacheEntries,
		nativeEntries:   nativeCacheEntries,
		sessionEntries:  sessionEntries,
		sessionTTL:      sessionTTL,
		defaultDeadline: defaultDeadline,
		maxDeadline:     maxDeadline,
		maxSourceBytes:  maxSourceBytes,
		maxOutputBytes:  maxOutputBytes,
	}
}

func newServer(cfg Config, lim limits) *Server {
	s := &Server{
		lim:        lim,
		results:    newCache(lim.resultEntries),
		nativeRuns: newCache(lim.nativeEntries),
		sessions:   newSessionStore(lim.sessionEntries, lim.sessionTTL),
		workers:    make(chan struct{}, lim.pool),
		mux:        http.NewServeMux(),
		start:      time.Now(),
		svcRate:    newRateEstimator(),
		accessLog:  cfg.AccessLog,
		cluster:    cfg.Cluster,
		disk:       cfg.Disk,
	}
	s.seedFromDisk()
	s.obs = obs.New(cfg.AccessLog)
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

// acquire claims a worker token, queueing up to lim.queue waiters.
// It returns errOverloaded when the queue is full and ctx.Err() when the
// request's deadline lands first. Cache hits never call this — only work
// that will occupy a compiler or VM needs a token.
func (s *Server) acquire(ctx context.Context) error {
	select {
	case s.workers <- struct{}{}:
		return nil
	default:
	}
	if s.queued.Add(1) > int64(s.lim.queue) {
		s.queued.Add(-1)
		return errOverloaded
	}
	defer s.queued.Add(-1)
	// The fast path missed: this request is actually waiting, which is
	// worth a span on its trace and a queue-wait figure in its access-log
	// record. The request carries no observability state only when acquire
	// is reached outside the middleware.
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
