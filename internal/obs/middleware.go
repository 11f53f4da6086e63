package obs

import (
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"strings"
	"time"

	"objinline/internal/trace"
)

// RequestIDHeader is the request-id header, honored on requests (after
// sanitization) and echoed on every response, error paths included.
const RequestIDHeader = "X-Oicd-Request-Id"

// ringEntries is how many completed requests the ring keeps, and with
// it how far back /debug/requests can see.
const ringEntries = 128

// Obs is one server's observability state: the latency histogram vec,
// the request ring, and the access logger. Create with New, wrap the
// server's mux with Middleware, and mount the debug handlers.
type Obs struct {
	ring    *Ring
	latency *HistogramVec
	log     *slog.Logger
}

// New builds an observability layer. logger receives one structured
// access-log record per request at Info level; nil disables access
// logging, and the disabled path is a single nil check that allocates
// nothing.
func New(logger *slog.Logger) *Obs {
	return newObs(logger, ringEntries)
}

// newObs is New with an n-entry ring (tests shrink it to see eviction).
func newObs(logger *slog.Logger, n int) *Obs {
	return &Obs{ring: NewRing(n), latency: NewHistogramVec(), log: logger}
}

// Latency exposes the histogram vec (the server's /metrics renders it).
func (o *Obs) Latency() *HistogramVec { return o.latency }

// responseWriter captures the status code and body size the handler
// produced, so the middleware can label histograms and logs after the
// fact.
type responseWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *responseWriter) WriteHeader(status int) {
	if w.status == 0 {
		w.status = status
	}
	w.ResponseWriter.WriteHeader(status)
}

func (w *responseWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

// orNone maps an unset label field to the bounded "none" value.
func orNone(s string) string {
	if s == "" {
		return "none"
	}
	return s
}

// routeOf returns the bounded endpoint label for a handled request: the
// mux route pattern without its method prefix ("POST /v1/compile" →
// "/v1/compile"), or "other" for unmatched requests, so histogram
// cardinality never tracks raw client paths.
func routeOf(r *http.Request) string {
	pat := r.Pattern
	if pat == "" {
		return "other"
	}
	if i := strings.IndexByte(pat, ' '); i >= 0 {
		pat = pat[i+1:]
	}
	return pat
}

// Middleware wraps next with the full request observability bracket:
// request-id assignment and echo, the request's root span, latency
// histogram observation, ring-buffer recording, and the access log.
func (o *Obs) Middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		id := SanitizeRequestID(r.Header.Get(RequestIDHeader))
		if id == "" {
			id = NewRequestID()
		}
		// Set the echo header before the handler runs: every write path —
		// 200, 422, 429 shed, 504 deadline, 500 internal — then carries it.
		w.Header().Set(RequestIDHeader, id)

		req := &Request{ID: id, Start: start, Sink: &trace.Sink{}}
		span := req.Sink.Start(SpanHTTP)
		rw := &responseWriter{ResponseWriter: w}
		// Keep the derived request: the mux sets r.Pattern on the request
		// it serves, and routeOf must read it after the handler returns.
		r = r.WithContext(WithRequest(r.Context(), req))
		next.ServeHTTP(rw, r)
		span.End()

		dur := time.Since(start)
		route := routeOf(r)
		o.latency.Observe(Labels{
			Endpoint: route,
			Cache:    orNone(req.Cache),
			Engine:   orNone(req.Engine),
			Tier:     orNone(req.Tier),
		}, dur)
		if rw.status == 0 {
			// Handler wrote nothing; net/http will send 200 on return.
			rw.status = http.StatusOK
		}
		rec := &RequestRecord{
			ID:             id,
			Time:           start,
			Method:         r.Method,
			Route:          route,
			Path:           r.URL.Path,
			Status:         rw.status,
			Cache:          req.Cache,
			Engine:         req.Engine,
			Tier:           req.Tier,
			QueueWaitNanos: int64(req.QueueWait),
			DurationNanos:  int64(dur),
			Bytes:          rw.bytes,
			Events:         req.Sink.Events(),
		}
		o.ring.Add(rec)
		o.logAccess(rec)
	})
}

// logAccess emits one structured access-log record. With logging
// disabled (nil logger) this is a nil check and nothing else — the
// zero-alloc contract is pinned by TestLogAccessDisabledAllocs.
func (o *Obs) logAccess(rec *RequestRecord) {
	lg := o.log
	if lg == nil {
		return
	}
	ctx := context.Background()
	if !lg.Enabled(ctx, slog.LevelInfo) {
		return
	}
	lg.LogAttrs(ctx, slog.LevelInfo, "request",
		slog.String("request_id", rec.ID),
		slog.String("method", rec.Method),
		slog.String("route", rec.Route),
		slog.Int("status", rec.Status),
		slog.String("cache", orNone(rec.Cache)),
		slog.String("engine", orNone(rec.Engine)),
		slog.String("tier", orNone(rec.Tier)),
		slog.Int64("queue_wait_ns", rec.QueueWaitNanos),
		slog.Int64("duration_ns", rec.DurationNanos),
		slog.Int64("bytes", rec.Bytes),
	)
}

// requestsResponse is the GET /debug/requests body.
type requestsResponse struct {
	Total    uint64           `json:"total"`
	Requests []*RequestRecord `json:"requests"`
}

// ServeRequests is GET /debug/requests: the ring's records, most recent
// first, as JSON.
func (o *Obs) ServeRequests(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	resp := requestsResponse{Total: o.ring.Total(), Requests: o.ring.Snapshot()}
	if resp.Requests == nil {
		resp.Requests = []*RequestRecord{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(resp)
}

// ServeRequestTrace is GET /debug/requests/{id}/trace: one request's
// span tree as Chrome trace-event JSON, loadable in Perfetto.
func (o *Obs) ServeRequestTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	rec := o.ring.Get(id)
	if rec == nil {
		http.Error(w, "unknown request id "+id+" (evicted from the ring, or never seen)", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	trace.WriteChromeTracks(w, []trace.Track{{
		Name:   rec.ID + " " + rec.Method + " " + rec.Route,
		Tid:    1,
		Events: rec.Events,
	}})
}

// ServeRequestsTrace is GET /debug/requests/trace: every buffered
// request as one combined Chrome trace, one track per request, placed on
// a shared timeline so request overlap (and the session-tier counter
// mix) is visible over time.
func (o *Obs) ServeRequestsTrace(w http.ResponseWriter, r *http.Request) {
	recs := o.ring.Snapshot()
	if len(recs) == 0 {
		http.Error(w, "no requests buffered", http.StatusNotFound)
		return
	}
	// Oldest first, offset onto the earliest record's timeline.
	epoch := recs[len(recs)-1].Time
	tracks := make([]trace.Track, 0, len(recs))
	for i := len(recs) - 1; i >= 0; i-- {
		rec := recs[i]
		tracks = append(tracks, trace.Track{
			Name:   rec.ID + " " + rec.Method + " " + rec.Route,
			Tid:    len(recs) - i,
			Offset: int64(rec.Time.Sub(epoch)),
			Events: rec.Events,
		})
	}
	w.Header().Set("Content-Type", "application/json")
	trace.WriteChromeTracks(w, tracks)
}

// Mount registers the introspection endpoints on mux. Safe for the
// serving mux: everything here is bounded reads of in-memory state.
func (o *Obs) Mount(mux *http.ServeMux) {
	mux.HandleFunc("GET /debug/requests", o.ServeRequests)
	mux.HandleFunc("GET /debug/requests/trace", o.ServeRequestsTrace)
	mux.HandleFunc("GET /debug/requests/{id}/trace", o.ServeRequestTrace)
}

// DebugHandler returns the separate debug surface: net/http/pprof plus
// the request-introspection endpoints. Serve it on its own listener
// (oicd's -debug-addr) — pprof can block and dump goroutine stacks, so
// it must never ship on the serving port by accident.
func (o *Obs) DebugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	o.Mount(mux)
	return mux
}
