package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime/debug"
	"strconv"
	"time"

	"objinline"
	"objinline/internal/emit"
	"objinline/internal/obs"
	"objinline/internal/pipeline"
	"objinline/internal/server/api"
	"objinline/internal/trace"
)

// prepared is a validated request: normalized inputs, the cache key they
// address, and the request-scoped context carrying the end-to-end
// deadline (it covers queueing, compiling, and running alike).
type prepared struct {
	filename string
	source   string
	cfg      objinline.Config
	key      string
	deadline time.Time
	ctx      context.Context
	cancel   context.CancelFunc
}

// prepare decodes and validates a compile request. On failure it writes
// the error response and returns ok=false. On success the caller must
// defer p.cancel().
func (s *Server) prepare(w http.ResponseWriter, r *http.Request, req *api.CompileRequest) (p prepared, ok bool) {
	if !s.checkSource(w, req.Source) {
		return p, false
	}
	cfg, err := req.Config.ToConfig()
	if err != nil {
		s.writeError(w, http.StatusBadRequest, api.CodeBadRequest, err.Error())
		return p, false
	}
	p.filename = req.Filename
	if p.filename == "" {
		p.filename = "request.icc"
	}
	p.source = req.Source
	p.cfg = cfg
	p.key = cacheKey(cfg, p.filename, p.source)

	p.deadline = time.Now().Add(s.deadline(req.DeadlineMillis))
	p.ctx, p.cancel = context.WithDeadline(r.Context(), p.deadline)
	return p, true
}

// checkSource enforces a request's source field: present, and within
// the source limit. On failure it writes the error response and returns
// false.
func (s *Server) checkSource(w http.ResponseWriter, src string) bool {
	if src == "" {
		s.writeError(w, http.StatusBadRequest, api.CodeBadRequest, "missing source field")
		return false
	}
	if len(src) > s.lim.maxSourceBytes {
		s.writeError(w, http.StatusRequestEntityTooLarge, api.CodeBadRequest,
			fmt.Sprintf("source is %d bytes; the limit is %d", len(src), s.lim.maxSourceBytes))
		return false
	}
	return true
}

// deadline is a request's compile budget: its own deadline_ms, else the
// default, clamped to the maximum.
func (s *Server) deadline(millis int64) time.Duration {
	d := s.lim.defaultDeadline
	if millis > 0 {
		d = time.Duration(millis) * time.Millisecond
	}
	return min(d, s.lim.maxDeadline)
}

// decode unmarshals the request body into dst, bounding its size. It
// writes the error response and returns false on failure.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, dst any) bool {
	// The body bound leaves headroom over the source limit for JSON string
	// escaping and the non-source fields; prepare enforces the precise
	// source limit.
	r.Body = http.MaxBytesReader(w, r.Body, 2*int64(s.lim.maxSourceBytes)+(64<<10))
	if err := json.NewDecoder(r.Body).Decode(dst); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			s.writeError(w, http.StatusRequestEntityTooLarge, api.CodeBadRequest, err.Error())
		} else {
			s.writeError(w, http.StatusBadRequest, api.CodeBadRequest, "invalid request body: "+err.Error())
		}
		return false
	}
	return true
}

// ensureCompiled resolves p to a completed compile-cache entry through
// singleflight. It returns ok=false after writing an error response. An
// ok entry may still hold a compile failure — check entry.failed().
func (s *Server) ensureCompiled(w http.ResponseWriter, r *http.Request, p *prepared) (*entry, bool) {
	w.Header().Set("X-Oicd-Cache-Key", p.key)
	e, ok := s.singleflight(w, r, p, s.results, p.key, "X-Oicd-Cache", "compilation",
		func(ctx context.Context, e *entry) { s.compileInto(ctx, e, p) })
	// The request's cache label is the compile cache's hit or miss; a
	// native run's own cache status travels only in X-Oicd-Run-Cache.
	if oreq := obs.FromContext(r.Context()); oreq != nil {
		oreq.Cache = w.Header().Get("X-Oicd-Cache")
	}
	return e, ok
}

// singleflight resolves key in c to a settled entry. A request that
// finds the key already claimed waits for the in-flight leader; the one
// that claims it leads: it takes a worker token and calls fill, which
// settles e and closes e.done. The leader queues and fills under a
// context detached from its client's connection (WithoutCancel) — the
// result is shared with every coalesced request, so one client hanging
// up must not fail the others — but still bounded by the request
// deadline. cacheHeader reports hit or miss; what names the work in a
// follower's deadline message. It returns ok=false after writing an
// error response (shed, or the deadline landed while waiting).
func (s *Server) singleflight(w http.ResponseWriter, r *http.Request, p *prepared, c *cache, key, cacheHeader, what string, fill func(ctx context.Context, e *entry)) (*entry, bool) {
	e, leader := c.claim(key)
	if !leader {
		w.Header().Set(cacheHeader, "hit")
		// Waiting on another request's in-flight work is its own span: a
		// trace reader should see coalescing, not an unexplained gap.
		var await trace.Span
		if oreq := obs.FromContext(r.Context()); oreq != nil {
			await = oreq.Sink.Start(obs.SpanAwait)
		}
		defer await.End()
		select {
		case <-e.done:
			return e, true
		case <-p.ctx.Done():
			s.metrics.deadlineExceeded.Add(1)
			s.writeError(w, http.StatusGatewayTimeout, api.CodeDeadlineExceeded,
				"deadline exceeded waiting for in-flight "+what+": "+p.ctx.Err().Error())
			return nil, false
		}
	}

	w.Header().Set(cacheHeader, "miss")
	ctx, cancel := context.WithDeadline(context.WithoutCancel(r.Context()), p.deadline)
	defer cancel()
	if err := s.acquire(ctx); err != nil {
		// The claim installed an entry other requests may already be
		// waiting on: give it the same fate this request got, then drop
		// it so the key is retried fresh.
		var env api.Envelope
		e.status, env = s.admissionError(err)
		e.body = marshalEnvelope(env)
		c.drop(e)
		close(e.done)
		s.replay(w, e)
		return nil, false
	}
	defer s.release()
	fill(ctx, e)
	return e, true
}

// compileInto runs the compilation and fills e, closing e.done. Compile
// errors are deterministic and stay cached; a deadline-canceled compile
// is dropped from the cache so the key can be retried.
func (s *Server) compileInto(ctx context.Context, e *entry, p *prepared) {
	// Settled results flow to the disk tier once the entry is readable;
	// persist ignores the transient statuses (dropped entries included).
	defer func() {
		close(e.done)
		s.persist(e)
	}()
	s.metrics.compiles.Add(1)
	// The compilation traces into its own sink — the envelope's
	// CompileStats must carry compiler phases only — and the phase spans
	// are then grafted into the owning request's span tree, so a slow
	// request's trace shows which phase made it slow. Merging after the
	// fact (rather than sharing the request sink) also keeps the cached
	// envelope byte-identical however the request was observed.
	sink := &trace.Sink{}
	prog, err := objinline.CompileContext(ctx, p.filename, p.source, p.cfg, objinline.WithTraceSink(sink))
	if oreq := obs.FromContext(ctx); oreq != nil {
		oreq.Sink.Merge(sink.Epoch(), sink.Events())
	}
	if err != nil {
		var env api.Envelope
		e.status, env = s.compileError(p.filename, err)
		e.body = marshalEnvelope(env)
		if e.status == http.StatusGatewayTimeout {
			s.results.drop(e)
		}
		return
	}
	e.prog = prog
	e.status = http.StatusOK
	e.body = marshalEnvelope(compileEnvelope(p.filename, prog))
}

// compileEnvelope is a successful compile's envelope: the body
// /v1/compile caches, and the base of every session response.
func compileEnvelope(file string, prog *objinline.Program) api.Envelope {
	cs := prog.CompileStats()
	return api.Envelope{
		File:     file,
		Mode:     prog.Mode().String(),
		CodeSize: prog.CodeSize(),
		Inlined:  prog.InlinedFields(),
		Rejected: prog.RejectedFields(),
		Stats:    &cs,
	}
}

// compileError maps a compile failure to its response: 504 on a
// deadline or cancel (counted in deadline_exceeded_total), 422 otherwise.
func (s *Server) compileError(filename string, err error) (int, api.Envelope) {
	status, code := http.StatusUnprocessableEntity, api.CodeCompileError
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		s.metrics.deadlineExceeded.Add(1)
		status, code = http.StatusGatewayTimeout, api.CodeDeadlineExceeded
	}
	return status, api.Envelope{File: filename, Error: &api.Error{Code: code, Message: err.Error()}}
}

// writeCompileError writes compileError's response.
func (s *Server) writeCompileError(w http.ResponseWriter, filename string, err error) {
	status, env := s.compileError(filename, err)
	s.writeEnvelope(w, status, env)
}

func (s *Server) handleCompile(w http.ResponseWriter, r *http.Request) {
	var req api.CompileRequest
	if !s.decode(w, r, &req) {
		return
	}
	p, ok := s.prepare(w, r, &req)
	if !ok {
		return
	}
	defer p.cancel()
	if s.forwardIfRemote(w, r, &p, "/v1/compile", &req) {
		return
	}
	e, ok := s.ensureCompiled(w, r, &p)
	if !ok {
		return
	}
	s.replay(w, e)
}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	var req api.ExplainRequest
	if !s.decode(w, r, &req) {
		return
	}
	if req.Field == "" {
		s.writeError(w, http.StatusBadRequest, api.CodeBadRequest, "missing field to explain")
		return
	}
	p, ok := s.prepare(w, r, &req.CompileRequest)
	if !ok {
		return
	}
	defer p.cancel()
	if s.forwardIfRemote(w, r, &p, "/v1/explain", &req) {
		return
	}
	e, ok := s.ensureCompiled(w, r, &p)
	if !ok {
		return
	}
	if e.failed() {
		s.replay(w, e)
		return
	}
	prog, ok := s.entryProgram(w, &p, e)
	if !ok {
		return
	}
	d, err := prog.Explain(req.Field)
	if err != nil {
		s.writeError(w, http.StatusNotFound, api.CodeUnknownField, err.Error())
		return
	}
	s.writeEnvelope(w, http.StatusOK, api.Envelope{
		File:    p.filename,
		Mode:    prog.Mode().String(),
		Explain: &d,
	})
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	var req api.RunRequest
	if !s.decode(w, r, &req) {
		return
	}
	engine, err := pipeline.ParseEngine(req.Engine)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, api.CodeBadRequest, err.Error())
		return
	}
	if engine == objinline.EngineNative && req.Profile {
		s.writeError(w, http.StatusBadRequest, api.CodeBadRequest, objinline.ErrProfileNeedsVM.Error())
		return
	}
	p, ok := s.prepare(w, r, &req.CompileRequest)
	if !ok {
		return
	}
	defer p.cancel()
	if s.forwardIfRemote(w, r, &p, "/v1/run", &req) {
		return
	}
	e, ok := s.ensureCompiled(w, r, &p)
	if !ok {
		return
	}
	if e.failed() {
		s.replay(w, e)
		return
	}
	prog, ok := s.entryProgram(w, &p, e)
	if !ok {
		return
	}
	oreq := obs.FromContext(r.Context())
	if engine == objinline.EngineNative {
		w.Header().Set("X-Oicd-Engine", objinline.EngineNative.String())
		if oreq != nil {
			oreq.Engine = objinline.EngineNative.String()
		}
		s.runNative(w, r, &p, prog, &req)
		return
	}
	w.Header().Set("X-Oicd-Engine", objinline.EngineVM.String())
	if oreq != nil {
		oreq.Engine = objinline.EngineVM.String()
	}

	// VM runs are per-request work (never cached), so each one occupies a
	// worker; the request context keeps the client's cancellation — a
	// run's result is not shared, so hanging up may cancel it.
	if err := s.acquire(p.ctx); err != nil {
		s.writeAdmissionError(w, err)
		return
	}
	defer s.release()
	s.metrics.runs.Add(1)

	// The run phase traces straight into the request's span tree when one
	// exists; a fresh throwaway sink otherwise, so concurrent runs never
	// append to the program's shared compile-time trace.
	runSink := &objinline.TraceSink{}
	if oreq != nil {
		runSink = oreq.Sink
	}
	out := capWriter{max: s.lim.maxOutputBytes}
	ro := objinline.RunOptions{
		Engine:       objinline.EngineVM,
		MaxSteps:     req.MaxSteps,
		DisableCache: req.DisableCache,
		Profile:      req.Profile,
		Trace:        runSink,
	}
	if req.IncludeOutput {
		ro.Output = &out
	}
	res, err := prog.Execute(p.ctx, ro)
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
			s.metrics.deadlineExceeded.Add(1)
			s.writeError(w, http.StatusGatewayTimeout, api.CodeDeadlineExceeded, err.Error())
			return
		}
		s.writeError(w, http.StatusUnprocessableEntity, api.CodeRuntimeError, err.Error())
		return
	}
	env := api.Envelope{
		File:    p.filename,
		Mode:    prog.Mode().String(),
		Engine:  objinline.EngineVM.String(),
		Metrics: res.Metrics,
		Profile: res.Profile,
	}
	if req.IncludeOutput {
		env.Output = out.buf.String()
		env.OutputTruncated = out.truncated
	}
	s.writeEnvelope(w, http.StatusOK, env)
}

// runNative serves a native-engine run: emit the compiled program's
// optimized IR as Go, build it, execute the binary, and report real
// measurements. A native build costs orders of magnitude more than a VM
// run, so results are content-addressed and singleflighted exactly like
// compilations — concurrent identical requests coalesce onto one build,
// and a warm request replays the original execution's envelope (its
// measurements included) byte for byte.
func (s *Server) runNative(w http.ResponseWriter, r *http.Request, p *prepared, prog *objinline.Program, req *api.RunRequest) {
	reps := req.NativeReps
	if reps < 1 {
		reps = 1
	}
	key := nativeRunKey(p.key, reps, req.IncludeOutput)
	e, ok := s.singleflight(w, r, p, s.nativeRuns, key, "X-Oicd-Run-Cache", "native run",
		func(ctx context.Context, e *entry) { s.nativeRunInto(ctx, e, prog, p, req, reps) })
	if ok {
		s.replay(w, e)
	}
}

// nativeRunInto executes the native run and fills e, closing e.done.
// Program traps are deterministic and stay cached (like compile errors);
// deadline cancellations and toolchain failures are dropped so the key
// can be retried.
func (s *Server) nativeRunInto(ctx context.Context, e *entry, prog *objinline.Program, p *prepared, req *api.RunRequest, reps int) {
	defer close(e.done)
	s.metrics.nativeRuns.Add(1)
	out := capWriter{max: s.lim.maxOutputBytes}
	ro := objinline.RunOptions{
		Engine:     objinline.EngineNative,
		NativeReps: reps,
	}
	if req.IncludeOutput {
		ro.Output = &out
	}
	// The native tier reports its own build/run split in the envelope;
	// the request trace gets one span covering the whole execution.
	var span trace.Span
	if oreq := obs.FromContext(ctx); oreq != nil {
		span = oreq.Sink.Start(obs.SpanNative)
	}
	res, err := prog.Execute(ctx, ro)
	span.End()
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
			s.metrics.deadlineExceeded.Add(1)
			e.status = http.StatusGatewayTimeout
			e.body = marshalEnvelope(api.Envelope{
				File:  p.filename,
				Error: &api.Error{Code: api.CodeDeadlineExceeded, Message: err.Error()},
			})
			s.nativeRuns.drop(e)
			return
		}
		var rte *emit.RuntimeError
		if errors.As(err, &rte) {
			e.status = http.StatusUnprocessableEntity
			e.body = marshalEnvelope(api.Envelope{
				File:   p.filename,
				Engine: objinline.EngineNative.String(),
				Error:  &api.Error{Code: api.CodeRuntimeError, Message: err.Error()},
			})
			return
		}
		// Emission or go-build failure: not a property of the program, so
		// never cached.
		e.status = http.StatusInternalServerError
		e.body = marshalEnvelope(api.Envelope{
			File:  p.filename,
			Error: &api.Error{Code: api.CodeInternal, Message: err.Error()},
		})
		s.nativeRuns.drop(e)
		return
	}
	env := api.Envelope{
		File:   p.filename,
		Mode:   prog.Mode().String(),
		Engine: objinline.EngineNative.String(),
		Native: res.Native,
	}
	if req.IncludeOutput {
		env.Output = out.buf.String()
		env.OutputTruncated = out.truncated
	}
	e.status = http.StatusOK
	e.body = marshalEnvelope(env)
}

// healthResponse is the GET /healthz body: readiness plus enough build
// identity to answer "what exactly is running on this box".
type healthResponse struct {
	// Status is "ok" while serving and "draining" once shutdown has begun
	// (the response is then a 503, so load balancers stop routing here
	// before the listener closes).
	Status        string  `json:"status"`
	GoVersion     string  `json:"go"`
	Revision      string  `json:"revision,omitempty"`
	BuildTime     string  `json:"build_time,omitempty"`
	Modified      bool    `json:"modified,omitempty"`
	UptimeSeconds float64 `json:"uptime_seconds"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := healthResponse{
		Status:        "ok",
		UptimeSeconds: time.Since(s.start).Seconds(),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		h.GoVersion = bi.GoVersion
		for _, kv := range bi.Settings {
			switch kv.Key {
			case "vcs.revision":
				h.Revision = kv.Value
			case "vcs.time":
				h.BuildTime = kv.Value
			case "vcs.modified":
				h.Modified = kv.Value == "true"
			}
		}
	}
	status := http.StatusOK
	if s.draining.Load() {
		h.Status = "draining"
		status = http.StatusServiceUnavailable
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(h)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "prometheus" {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		s.metrics.registry.WritePrometheus(w)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	s.metrics.registry.WriteJSON(w)
}

// marshalEnvelope serializes the response body. Cached bodies are these
// exact bytes, replayed verbatim — a warm response is byte-identical to
// the cold one that populated it.
func marshalEnvelope(env api.Envelope) []byte {
	body, err := json.Marshal(env)
	if err != nil {
		// Envelope contains only marshalable types; this is unreachable
		// short of a programming error in the wire structs.
		body, _ = json.Marshal(api.Envelope{Error: &api.Error{
			Code: api.CodeCompileError, Message: "response serialization failed: " + err.Error(),
		}})
	}
	return append(body, '\n')
}

func (s *Server) writeEnvelope(w http.ResponseWriter, status int, env api.Envelope) {
	body := marshalEnvelope(env)
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	w.Write(body)
}

func (s *Server) writeError(w http.ResponseWriter, status int, code, msg string) {
	s.writeEnvelope(w, status, api.Envelope{Error: &api.Error{Code: code, Message: msg}})
}

// admissionError maps an acquire failure to 429 (shed, with the queue
// depth observed at shed time so clients can size their backoff) or 504
// (the deadline landed while queued) and its envelope, bumping the
// matching counter.
func (s *Server) admissionError(err error) (int, api.Envelope) {
	if errors.Is(err, errOverloaded) {
		s.metrics.shed.Add(1)
		return http.StatusTooManyRequests, api.Envelope{Error: &api.Error{
			Code: api.CodeOverloaded, Message: err.Error(), QueueDepth: s.queued.Load(),
		}}
	}
	s.metrics.deadlineExceeded.Add(1)
	return http.StatusGatewayTimeout, api.Envelope{Error: &api.Error{
		Code: api.CodeDeadlineExceeded, Message: "deadline exceeded waiting for a worker: " + err.Error(),
	}}
}

// writeAdmissionError writes admissionError's response.
func (s *Server) writeAdmissionError(w http.ResponseWriter, err error) {
	status, env := s.admissionError(err)
	if status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", s.retryAfterSeconds())
	}
	s.writeEnvelope(w, status, env)
}

// replay writes a cache entry's stored response verbatim.
func (s *Server) replay(w http.ResponseWriter, e *entry) {
	if e.status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", s.retryAfterSeconds())
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(e.body)))
	w.WriteHeader(e.status)
	w.Write(e.body)
}

// capWriter keeps the first max bytes written and flags truncation.
type capWriter struct {
	buf       bytes.Buffer
	max       int
	truncated bool
}

func (c *capWriter) Write(p []byte) (int, error) {
	if room := c.max - c.buf.Len(); room < len(p) {
		if room > 0 {
			c.buf.Write(p[:room])
		}
		c.truncated = true
	} else {
		c.buf.Write(p)
	}
	return len(p), nil
}
