package server

// Incremental sessions: POST /v1/session pins a compilation, PATCH
// /v1/session/{id} feeds it edited source, and the pinned
// objinline.Session absorbs each edit at the cheapest sound tier
// (reuse/patch/reopt/solve/cold — see the objinline.Session docs). The
// store is an LRU with a TTL: sessions hold a full compiled program and
// its analysis state in memory, so both bounds matter. Eviction only
// unlinks a session from the store — a patch already holding the
// session pointer finishes normally and the memory goes when it does;
// later requests for the id get 404.

import (
	"container/list"
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"maps"
	"net/http"
	"sync"
	"time"

	"objinline"
	"objinline/internal/obs"
	"objinline/internal/server/api"
	"objinline/internal/trace"
)

// session is one pinned incremental compilation.
type session struct {
	id       string
	filename string

	// mu serializes patches: the underlying objinline.Session is not
	// safe for concurrent use, and last-writer-wins ordering per session
	// is the API's contract. It is independent of the store's lock — an
	// in-flight patch never blocks store lookups or eviction.
	mu   sync.Mutex
	sess *objinline.Session

	// lastUsed is guarded by the store's mutex, not mu.
	lastUsed time.Time
}

// sessionStore is the server's session table: an LRU bound plus a TTL,
// both protecting memory (each session pins a compiled program and its
// analysis result).
type sessionStore struct {
	mu      sync.Mutex
	max     int
	ttl     time.Duration
	entries map[string]*list.Element // of *session
	order   *list.List               // front = most recently used

	creates, patches, evictions, expirations int64
	tiers                                    map[string]int64
}

func newSessionStore(max int, ttl time.Duration) *sessionStore {
	return &sessionStore{
		max:     max,
		ttl:     ttl,
		entries: make(map[string]*list.Element),
		order:   list.New(),
		tiers:   make(map[string]int64),
	}
}

// put installs a new session, evicting expired sessions and then the
// least recently used beyond the bound.
func (st *sessionStore) put(s *session) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.creates++
	s.lastUsed = time.Now()
	st.entries[s.id] = st.order.PushFront(s)
	st.pruneExpiredLocked()
	for st.order.Len() > st.max {
		back := st.order.Back()
		st.unlinkLocked(back)
		st.evictions++
	}
}

// get returns the session for id, refreshing its recency, or nil when
// the id is unknown, expired, or evicted.
func (st *sessionStore) get(id string) *session {
	st.mu.Lock()
	defer st.mu.Unlock()
	el, ok := st.entries[id]
	if !ok {
		return nil
	}
	s := el.Value.(*session)
	if st.ttl > 0 && time.Since(s.lastUsed) > st.ttl {
		st.unlinkLocked(el)
		st.expirations++
		return nil
	}
	s.lastUsed = time.Now()
	st.order.MoveToFront(el)
	return s
}

// remove deletes id, reporting whether it was present (and alive).
func (st *sessionStore) remove(id string) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	el, ok := st.entries[id]
	if !ok {
		return false
	}
	s := el.Value.(*session)
	expired := st.ttl > 0 && time.Since(s.lastUsed) > st.ttl
	st.unlinkLocked(el)
	if expired {
		st.expirations++
		return false
	}
	return true
}

// purge drops every session; Server.Close calls it so a drained server
// does not keep compiled programs pinned.
func (st *sessionStore) purge() {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.entries = make(map[string]*list.Element)
	st.order.Init()
}

func (st *sessionStore) pruneExpiredLocked() {
	if st.ttl <= 0 {
		return
	}
	for {
		back := st.order.Back()
		if back == nil || time.Since(back.Value.(*session).lastUsed) <= st.ttl {
			return
		}
		st.unlinkLocked(back)
		st.expirations++
	}
}

func (st *sessionStore) unlinkLocked(el *list.Element) {
	st.order.Remove(el)
	delete(st.entries, el.Value.(*session).id)
}

// recordTier counts one absorbed patch by its tier, returning the
// cumulative per-tier totals after the bump. /metrics serves the totals;
// the patch handler also stamps them onto its trace span, so a Chrome
// trace export renders the tier mix over time as a counter track.
func (st *sessionStore) recordTier(tier string) map[string]int64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.patches++
	st.tiers[tier]++
	return maps.Clone(st.tiers)
}

// sessionStats is one consistent read of the store for the metrics
// endpoint.
type sessionStats struct {
	active                                   int
	creates, patches, evictions, expirations int64
	tiers                                    map[string]int64 // patches by tier
}

func (st *sessionStore) snapshot() sessionStats {
	st.mu.Lock()
	defer st.mu.Unlock()
	return sessionStats{st.order.Len(), st.creates, st.patches, st.evictions, st.expirations, maps.Clone(st.tiers)}
}

// newSessionID mints an unguessable 128-bit session id.
func newSessionID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing means the platform is broken; ids are only
		// lookup keys, so panicking beats serving predictable ones badly.
		panic("session id: " + err.Error())
	}
	return hex.EncodeToString(b[:])
}

// handleSessionCreate is POST /v1/session: a cold compile that pins its
// state for incremental patches. The response is the compile envelope
// plus the session id. Sessions compile without phase tracing — a trace
// sink shared across patches would grow without bound — so their stats
// carry the analysis work counters but no phase timings.
func (s *Server) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	var req api.CompileRequest
	if !s.decode(w, r, &req) {
		return
	}
	p, ok := s.prepare(w, r, &req)
	if !ok {
		return
	}
	defer p.cancel()
	if err := s.acquire(p.ctx); err != nil {
		s.writeAdmissionError(w, err)
		return
	}
	defer s.release()

	// A session create is a cold compile by definition; label the request
	// so its histogram cell and access-log record say so.
	oreq := obs.FromContext(r.Context())
	var span trace.Span
	if oreq != nil {
		oreq.Tier = objinline.TierCold
		span = oreq.Sink.Start(obs.SpanSession)
	}
	sess, err := objinline.NewSessionContext(p.ctx, p.filename, p.source, p.cfg)
	span.End()
	if err != nil {
		s.writeCompileError(w, p.filename, err)
		return
	}
	ss := &session{id: newSessionID(), filename: p.filename, sess: sess}
	s.sessions.put(ss)

	prog := sess.Program()
	cs := prog.CompileStats()
	s.writeEnvelope(w, http.StatusOK, api.Envelope{
		File:      p.filename,
		Mode:      prog.Mode().String(),
		CodeSize:  prog.CodeSize(),
		Inlined:   prog.InlinedFields(),
		Rejected:  prog.RejectedFields(),
		Stats:     &cs,
		SessionID: ss.id,
	})
}

// handleSessionPatch is PATCH /v1/session/{id}: recompile the session at
// the edited source, reusing as much prior work as the edit allows. The
// envelope is the same compile envelope /v1/compile produces for that
// source, plus the incremental stats saying which tier absorbed it.
func (s *Server) handleSessionPatch(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var req api.SessionPatchRequest
	if !s.decode(w, r, &req) {
		return
	}
	if req.Source == "" {
		s.writeError(w, http.StatusBadRequest, api.CodeBadRequest, "missing source field")
		return
	}
	if len(req.Source) > s.cfg.MaxSourceBytes {
		s.writeError(w, http.StatusRequestEntityTooLarge, api.CodeBadRequest,
			fmt.Sprintf("source is %d bytes; the limit is %d", len(req.Source), s.cfg.MaxSourceBytes))
		return
	}
	ss := s.sessions.get(id)
	if ss == nil {
		s.writeError(w, http.StatusNotFound, api.CodeUnknownSession,
			"unknown session "+id+" (expired, evicted, or never created)")
		return
	}

	ctx, cancel := s.deadlineContext(r.Context(), req.DeadlineMillis)
	defer cancel()
	// A patch occupies a compiler worker like any other compile; the
	// per-session mutex then serializes concurrent patches to one
	// session — each holds its token while it waits, which is the
	// honest accounting (it is about to do compiler work).
	if err := s.acquire(ctx); err != nil {
		s.writeAdmissionError(w, err)
		return
	}
	defer s.release()

	oreq := obs.FromContext(r.Context())
	var span trace.Span
	if oreq != nil {
		span = oreq.Sink.Start(obs.SpanPatch)
	}
	ss.mu.Lock()
	prog, st, err := ss.sess.PatchContext(ctx, req.Source)
	ss.mu.Unlock()
	if err != nil {
		span.End()
		s.writeCompileError(w, ss.filename, err)
		return
	}
	totals := s.sessions.recordTier(st.Tier)
	if oreq != nil {
		// The tier that absorbed this patch labels the request's histogram
		// cell and access-log record; the cumulative totals ride on the span
		// as tier_* counters, which the Chrome export folds into one
		// "session/tiers" counter track.
		oreq.Tier = st.Tier
		for _, tier := range []string{
			objinline.TierReuse, objinline.TierPatch, objinline.TierReopt,
			objinline.TierSolve, objinline.TierCold,
		} {
			span.Counter(obs.TierCounterPrefix+tier, totals[tier])
		}
	}
	span.End()
	cs := prog.CompileStats()
	s.writeEnvelope(w, http.StatusOK, api.Envelope{
		File:        ss.filename,
		Mode:        prog.Mode().String(),
		CodeSize:    prog.CodeSize(),
		Inlined:     prog.InlinedFields(),
		Rejected:    prog.RejectedFields(),
		Stats:       &cs,
		SessionID:   id,
		Incremental: &st,
	})
}

// handleSessionDelete is DELETE /v1/session/{id}: release the session.
func (s *Server) handleSessionDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !s.sessions.remove(id) {
		s.writeError(w, http.StatusNotFound, api.CodeUnknownSession,
			"unknown session "+id+" (expired, evicted, or never created)")
		return
	}
	s.writeEnvelope(w, http.StatusOK, api.Envelope{SessionID: id})
}

// deadlineContext applies the request's deadline discipline (default,
// then clamp to the maximum) without the full compile-request prepare.
func (s *Server) deadlineContext(parent context.Context, deadlineMillis int64) (context.Context, context.CancelFunc) {
	d := s.cfg.DefaultDeadline
	if deadlineMillis > 0 {
		d = time.Duration(deadlineMillis) * time.Millisecond
	}
	if d > s.cfg.MaxDeadline {
		d = s.cfg.MaxDeadline
	}
	return context.WithTimeout(parent, d)
}

// writeAdmissionError maps an acquire failure to 429 (shed) or 504
// (deadline landed while queued), bumping the matching counter.
func (s *Server) writeAdmissionError(w http.ResponseWriter, err error) {
	if errors.Is(err, errOverloaded) {
		s.metrics.shed.Add(1)
		s.writeError(w, http.StatusTooManyRequests, api.CodeOverloaded, err.Error())
		return
	}
	s.metrics.deadlineExceeded.Add(1)
	s.writeError(w, http.StatusGatewayTimeout, api.CodeDeadlineExceeded,
		"deadline exceeded waiting for a worker: "+err.Error())
}

// writeCompileError maps a compile failure to 504 on deadline/cancel and
// 422 otherwise, matching /v1/compile's status discipline.
func (s *Server) writeCompileError(w http.ResponseWriter, filename string, err error) {
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		s.metrics.deadlineExceeded.Add(1)
		s.writeEnvelope(w, http.StatusGatewayTimeout, api.Envelope{
			File:  filename,
			Error: &api.Error{Code: api.CodeDeadlineExceeded, Message: err.Error()},
		})
		return
	}
	s.writeEnvelope(w, http.StatusUnprocessableEntity, api.Envelope{
		File:  filename,
		Error: &api.Error{Code: api.CodeCompileError, Message: err.Error()},
	})
}
