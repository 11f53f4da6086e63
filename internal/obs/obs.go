// Package obs is oicd's service observability layer: request-scoped
// context (request IDs honored or minted per request), per-request trace
// span trees recorded into a bounded ring buffer, log-bucketed latency
// histograms keyed by {endpoint, cache status, engine, session tier},
// structured access logging via log/slog, and the debug surface that
// exposes all of it (GET /debug/requests as JSON, per-request Chrome
// traces for Perfetto, /metrics in Prometheus text exposition format,
// and net/http/pprof on a separate listener).
//
// The design lifts the compiler-observability discipline of
// internal/trace (DESIGN.md §9) to the service layer: tracing a request
// costs a handful of span records, the access-log call is a single nil
// check when logging is off (pinned at zero allocations by a test), and
// nothing here is on any compile or VM hot path — the middleware brackets
// the handler, it never interleaves with it.
package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"sync"
	"time"

	"objinline/internal/trace"
)

// Service-level span phases, joining the compiler's phase names on a
// request's timeline. Values are stable identifiers: they appear in
// /debug/requests trace exports.
const (
	// SpanHTTP covers the whole request, middleware to middleware.
	SpanHTTP trace.Phase = "http"
	// SpanAdmission is time spent queued for a worker token (only
	// recorded when the fast path missed and the request actually waited).
	SpanAdmission trace.Phase = "admission"
	// SpanAwait is a coalesced request waiting on another request's
	// in-flight compilation or native run.
	SpanAwait trace.Phase = "await"
	// SpanNative covers a native-engine build-and-run execution.
	SpanNative trace.Phase = "native"
	// SpanSession covers a session create's cold compile; SpanPatch one
	// incremental patch (its tier lands on the span as a counter).
	SpanSession trace.Phase = "session"
	SpanPatch   trace.Phase = "patch"
	// SpanForward covers proxying a request to its key's owner instance
	// on the cluster ring.
	SpanForward trace.Phase = "forward"
)

// NewRequestID mints a 64-bit random request id (16 hex chars). Random,
// not sequential: ids must be unguessable enough that /debug/requests
// lookups can't be enumerated and log correlation across instances never
// collides in practice.
func NewRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// Platform entropy failure; ids are correlation keys, not secrets
		// of record, so a fixed fallback beats crashing the request path.
		return "rand-unavailable"
	}
	return hex.EncodeToString(b[:])
}

// maxRequestIDLen bounds client-supplied ids so a hostile header cannot
// bloat logs or the ring buffer.
const maxRequestIDLen = 64

// SanitizeRequestID validates a client-supplied X-Oicd-Request-Id:
// printable ASCII without spaces, at most maxRequestIDLen bytes.
// Anything else returns "" and the server mints its own.
func SanitizeRequestID(id string) string {
	if id == "" || len(id) > maxRequestIDLen {
		return ""
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		if c <= ' ' || c > '~' || c == '"' {
			return ""
		}
	}
	return id
}

// Request is one in-flight request's observability state, carried in the
// request context so handlers deep in the call chain (admission, the
// compile leader, the session patch path) can annotate it. Fields are
// written by the handler goroutine and read by the middleware after the
// handler returns — same goroutine, so no lock.
type Request struct {
	// ID is the request id echoed in X-Oicd-Request-Id.
	ID string
	// Start is when the middleware first saw the request.
	Start time.Time
	// Sink records the request's span tree.
	Sink *trace.Sink

	// Cache is the compile-cache status ("hit"/"miss"), Engine the
	// execution tier of a run, Tier the session tier that absorbed a
	// patch; empty when not applicable.
	Cache  string
	Engine string
	Tier   string
	// QueueWait accumulates time spent waiting for worker tokens.
	QueueWait time.Duration
}

type requestKey struct{}

// WithRequest returns ctx carrying req.
func WithRequest(ctx context.Context, req *Request) context.Context {
	return context.WithValue(ctx, requestKey{}, req)
}

// FromContext returns the request's observability state, or nil when the
// context does not carry one (library use outside the server).
func FromContext(ctx context.Context) *Request {
	req, _ := ctx.Value(requestKey{}).(*Request)
	return req
}

// RequestRecord is one completed request as the ring buffer keeps it and
// GET /debug/requests serves it. Events (the span tree) are exported
// through the per-request trace endpoint rather than inlined in the
// listing — a listing is a scan, a trace is a drill-down.
type RequestRecord struct {
	ID     string    `json:"id"`
	Time   time.Time `json:"time"`
	Method string    `json:"method"`
	Route  string    `json:"route"`
	Path   string    `json:"path"`
	Status int       `json:"status"`

	Cache  string `json:"cache,omitempty"`
	Engine string `json:"engine,omitempty"`
	Tier   string `json:"tier,omitempty"`

	QueueWaitNanos int64 `json:"queue_wait_ns"`
	DurationNanos  int64 `json:"duration_ns"`
	Bytes          int64 `json:"bytes"`

	Events []trace.Event `json:"-"`
}

// Ring is a bounded buffer of the most recent completed requests. Fixed
// capacity, overwrite-oldest: the introspection surface must never be
// the memory leak it exists to find.
type Ring struct {
	mu    sync.Mutex
	buf   []*RequestRecord
	next  int
	total uint64
}

// NewRing returns a ring holding the last n requests (n >= 1).
func NewRing(n int) *Ring {
	if n < 1 {
		n = 1
	}
	return &Ring{buf: make([]*RequestRecord, 0, n)}
}

// Add records one completed request, evicting the oldest at capacity.
func (r *Ring) Add(rec *RequestRecord) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.total++
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, rec)
		return
	}
	r.buf[r.next] = rec
	r.next = (r.next + 1) % cap(r.buf)
}

// Snapshot returns the buffered records, most recent first.
func (r *Ring) Snapshot() []*RequestRecord {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*RequestRecord, 0, len(r.buf))
	// Entries [next, len) are older than [0, next) once the ring wraps.
	for i := len(r.buf) - 1; i >= 0; i-- {
		out = append(out, r.buf[(r.next+i)%len(r.buf)])
	}
	return out
}

// Get returns the record with the given id, or nil if it has been
// evicted (or never existed).
func (r *Ring) Get(id string) *RequestRecord {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, rec := range r.buf {
		if rec.ID == id {
			return rec
		}
	}
	return nil
}

// Total counts every record ever added (eviction does not decrement),
// so tests can assert eviction happened.
func (r *Ring) Total() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}
