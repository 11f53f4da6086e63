package server

// The server half of the distributed tier (internal/cluster holds the
// ring, membership, and disk store; this file is where requests meet
// them):
//
//   - forwardIfRemote proxies a request whose content-addressed key is
//     owned by another instance to that owner, so the owner's in-process
//     singleflight becomes cluster-wide dedup. A forward is one request:
//     the proxied response is written verbatim, so byte-identity holds
//     across front-ends.
//   - If the owner is unreachable the front-end compiles locally — the
//     compiler is deterministic, so availability costs no correctness
//     (only the envelope's phase timings differ from the owner's).
//   - persist/seed move completed compile envelopes through the WAL-backed
//     disk store so a restart comes up warm; entryProgram lazily rebuilds
//     the *Program behind a disk-seeded entry when explain/run need one.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"

	"objinline"
	"objinline/internal/cluster"
	"objinline/internal/obs"
)

const (
	// headerForwarded marks a request already proxied once; its receiver
	// always serves locally, so forwarding can never loop.
	headerForwarded = "X-Oicd-Forwarded"
	// headerOwner names the instance that owns (or served) the request's
	// key — how operators and the failover smoke test find a key's home.
	headerOwner = "X-Oicd-Owner"
)

// forwardIfRemote routes a prepared request to its key's owner when that
// owner is another instance. It returns true when it wrote the response
// (the request was served remotely) and false when the caller should
// proceed locally — because clustering is off, this instance owns the
// key, the request already is a forward, or the owner was unreachable
// (availability fallback: local compile).
func (s *Server) forwardIfRemote(w http.ResponseWriter, r *http.Request, p *prepared, endpoint string, payload any) bool {
	if s.cluster == nil {
		return false
	}
	if r.Header.Get(headerForwarded) != "" {
		// Final hop: we own this key as far as the sender could tell.
		w.Header().Set(headerOwner, s.cluster.SelfURL())
		return false
	}
	route := s.cluster.RouteKey(p.key)
	if route.Local {
		w.Header().Set(headerOwner, s.cluster.SelfURL())
		return false
	}
	body, err := json.Marshal(payload)
	if err != nil {
		return false // unreachable for the wire structs; compile locally
	}
	if s.forward(w, r, p, endpoint, body, route.Owner) {
		return true
	}
	// Owner unreachable: serve locally so the cluster degrades to extra
	// work, not errors. The local compile is deterministic, so the
	// response matches the owner's up to its phase timings.
	s.metrics.forwardFallbacks.Add(1)
	w.Header().Set(headerOwner, s.cluster.SelfURL())
	return false
}

// forward proxies the request to owner under the request context.
// It returns true once a response has been written — the owner's answer
// is authoritative whatever its status (a cached 422 is as final as a
// 200); false means the owner produced no HTTP response and the caller
// should fall back.
func (s *Server) forward(w http.ResponseWriter, r *http.Request, p *prepared, endpoint string, body []byte, owner string) bool {
	if oreq := obs.FromContext(r.Context()); oreq != nil {
		defer oreq.Sink.Start(obs.SpanForward).End()
	}
	s.metrics.forwards.Add(1)
	req, err := http.NewRequestWithContext(p.ctx, http.MethodPost, owner+endpoint, bytes.NewReader(body))
	if err != nil {
		s.metrics.forwardErrors.Add(1)
		return false
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(headerForwarded, "1")
	if id := r.Header.Get(obs.RequestIDHeader); id != "" {
		// Propagate the caller's request id so the owner's trace ring and
		// access log correlate with this front-end's.
		req.Header.Set(obs.RequestIDHeader, id)
	}
	resp, err := s.cluster.Client().Do(req)
	if err != nil {
		// Also the deadline landing mid-forward: the local path's
		// admission check turns the dead context into the usual 504.
		s.metrics.forwardErrors.Add(1)
		return false
	}
	s.writeForwarded(w, resp, owner)
	return true
}

// writeForwarded proxies the owner's response to the client verbatim:
// same status, same body bytes (byte-identity across front-ends), and
// the response headers a client of this instance would rely on.
func (s *Server) writeForwarded(w http.ResponseWriter, resp *http.Response, owner string) {
	defer resp.Body.Close()
	for _, h := range []string{
		"Content-Type", "Content-Length", "Retry-After",
		"X-Oicd-Cache", "X-Oicd-Cache-Key", "X-Oicd-Run-Cache", "X-Oicd-Engine",
	} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	if v := resp.Header.Get(headerOwner); v != "" {
		w.Header().Set(headerOwner, v)
	} else {
		w.Header().Set(headerOwner, owner)
	}
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
}

// persist appends a freshly completed compile entry to the disk tier.
// Only settled compile results go to disk: 200s and deterministic 422s.
// Transient statuses (shed 429s, deadline 504s) are never persisted —
// replaying those after a restart would be serving yesterday's overload.
func (s *Server) persist(e *entry) {
	if s.disk == nil {
		return
	}
	if e.status != http.StatusOK && e.status != http.StatusUnprocessableEntity {
		return
	}
	compact, err := s.disk.Append(cluster.Record{Key: e.key, Status: e.status, Body: e.body})
	if err != nil {
		s.diskLog().Warn("oicd: disk cache append failed", "err", err)
		return
	}
	if compact {
		s.scheduleCompact()
	}
}

// scheduleCompact starts one background compaction unless one is already
// running. Compaction rewrites the snapshot from the in-memory LRU's
// live set, so the disk tier inherits the memory tier's size bound.
func (s *Server) scheduleCompact() {
	if !s.compacting.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer s.compacting.Store(false)
		s.compactDisk()
	}()
}

// compactDisk rewrites the disk tier's snapshot from the current cache
// contents. Entries appended after the live set was captured stay in
// memory and re-persist at the next compaction (the disk tier is a
// cache, not a log of record).
func (s *Server) compactDisk() {
	if s.disk == nil {
		return
	}
	live := s.results.live()
	recs := make([]cluster.Record, 0, len(live))
	for _, e := range live {
		if e.status == http.StatusOK || e.status == http.StatusUnprocessableEntity {
			recs = append(recs, cluster.Record{Key: e.key, Status: e.status, Body: e.body})
		}
	}
	if err := s.disk.Compact(recs); err != nil {
		s.diskLog().Warn("oicd: disk cache compaction failed", "err", err)
	}
}

// seedFromDisk replays the disk store's recovered records into the
// result cache, so the instance answers warm from its first request.
// Seeded entries replay their envelopes byte-identically; explain/run
// recompile behind them on demand (entryProgram).
func (s *Server) seedFromDisk() {
	if s.disk == nil {
		return
	}
	for _, rec := range s.disk.Replay() {
		s.results.seed(rec.Key, rec.Status, rec.Body)
	}
}

func (s *Server) diskLog() *slog.Logger {
	if s.accessLog != nil {
		return s.accessLog
	}
	return slog.Default()
}

// entryProgram returns the compiled program behind a completed cache
// entry, rebuilding it for disk-seeded entries: the disk tier persists
// response bytes, not compiler state, so the first explain/run against a
// replayed key recompiles once (under a worker token) and caches the
// program on the entry. Returns ok=false after writing an error
// response. The caller must know e succeeded (!e.failed()).
func (s *Server) entryProgram(w http.ResponseWriter, p *prepared, e *entry) (*objinline.Program, bool) {
	if !e.fromDisk {
		return e.prog, true
	}
	// progMu serializes the upgrade AND orders this read against a
	// concurrent upgrade's write (done closed at seed time, so the usual
	// happens-before edge is long gone).
	e.progMu.Lock()
	defer e.progMu.Unlock()
	if e.prog != nil {
		return e.prog, true
	}
	if err := s.acquire(p.ctx); err != nil {
		s.writeAdmissionError(w, err)
		return nil, false
	}
	defer s.release()
	s.metrics.diskUpgrades.Add(1)
	prog, err := objinline.CompileContext(p.ctx, p.filename, p.source, p.cfg)
	if err != nil {
		// The persisted status was 200, so the source compiles; this is a
		// deadline (or a config/version skew so deep the replayed entry is
		// lies — surface it rather than guessing).
		s.writeCompileError(w, p.filename, err)
		return nil, false
	}
	e.prog = prog
	return prog, true
}

// retryAfterSeconds renders the queue-depth-derived Retry-After value.
func (s *Server) retryAfterSeconds() string {
	return fmt.Sprintf("%d", s.svcRate.retryAfter(s.queued.Load()))
}
