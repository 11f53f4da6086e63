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
	if req.Source == "" {
		s.writeError(w, http.StatusBadRequest, api.CodeBadRequest, "missing source field")
		return p, false
	}
	if len(req.Source) > s.cfg.MaxSourceBytes {
		s.writeError(w, http.StatusRequestEntityTooLarge, api.CodeBadRequest,
			fmt.Sprintf("source is %d bytes; the limit is %d", len(req.Source), s.cfg.MaxSourceBytes))
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

	d := s.cfg.DefaultDeadline
	if req.DeadlineMillis > 0 {
		d = time.Duration(req.DeadlineMillis) * time.Millisecond
	}
	if d > s.cfg.MaxDeadline {
		d = s.cfg.MaxDeadline
	}
	p.deadline = time.Now().Add(d)
	p.ctx, p.cancel = context.WithDeadline(r.Context(), p.deadline)
	return p, true
}

// decode unmarshals the request body into dst, bounding its size. It
// writes the error response and returns false on failure.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, dst any) bool {
	// The body bound leaves headroom over MaxSourceBytes for JSON string
	// escaping and the non-source fields; prepare enforces the precise
	// source limit.
	r.Body = http.MaxBytesReader(w, r.Body, 2*int64(s.cfg.MaxSourceBytes)+(64<<10))
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

// ensureCompiled resolves p to a completed cache entry, compiling as the
// singleflight leader when the key is new and waiting on the in-flight
// leader otherwise. It returns ok=false after writing an error response
// (shed, or the deadline landed while waiting). An ok entry may still
// hold a compile failure — check entry.failed().
func (s *Server) ensureCompiled(w http.ResponseWriter, r *http.Request, p *prepared) (*entry, bool) {
	e, leader := s.results.claim(p.key)
	w.Header().Set("X-Oicd-Cache-Key", p.key)
	oreq := obs.FromContext(r.Context())
	if !leader {
		w.Header().Set("X-Oicd-Cache", "hit")
		if oreq != nil {
			oreq.Cache = "hit"
		}
		// Waiting on another request's in-flight compile is its own span:
		// a trace reader should see coalescing, not an unexplained gap.
		var await trace.Span
		if oreq != nil {
			await = oreq.Sink.Start(obs.SpanAwait)
		}
		select {
		case <-e.done:
			await.End()
			return e, true
		case <-p.ctx.Done():
			await.End()
			s.metrics.deadlineExceeded.Add(1)
			s.writeError(w, http.StatusGatewayTimeout, api.CodeDeadlineExceeded,
				"deadline exceeded waiting for in-flight compilation: "+p.ctx.Err().Error())
			return nil, false
		}
	}

	w.Header().Set("X-Oicd-Cache", "miss")
	if oreq != nil {
		oreq.Cache = "miss"
	}
	if err := s.acquire(p.ctx); err != nil {
		// The claim installed an entry other requests may already be
		// waiting on: give it the same fate this request got, then drop
		// it so the key is retried fresh.
		status := http.StatusTooManyRequests
		env := api.Envelope{Error: s.overloadedError(err)}
		if !errors.Is(err, errOverloaded) {
			status = http.StatusGatewayTimeout
			env.Error = &api.Error{Code: api.CodeDeadlineExceeded, Message: "deadline exceeded waiting for a worker: " + err.Error()}
			s.metrics.deadlineExceeded.Add(1)
		} else {
			s.metrics.shed.Add(1)
		}
		e.status = status
		e.body = marshalEnvelope(env)
		s.results.drop(e)
		close(e.done)
		s.replay(w, e)
		return nil, false
	}
	defer s.release()

	// Compile detached from the client connection (WithoutCancel): the
	// result is shared with every coalesced request, so one client
	// hanging up must not cancel it. The deadline still applies.
	ctx, cancel := context.WithDeadline(context.WithoutCancel(r.Context()), p.deadline)
	defer cancel()
	s.compileInto(ctx, e, p)
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
		if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
			s.metrics.deadlineExceeded.Add(1)
			e.status = http.StatusGatewayTimeout
			e.body = marshalEnvelope(api.Envelope{
				File:  p.filename,
				Error: &api.Error{Code: api.CodeDeadlineExceeded, Message: err.Error()},
			})
			s.results.drop(e)
			return
		}
		e.status = http.StatusUnprocessableEntity
		e.body = marshalEnvelope(api.Envelope{
			File:  p.filename,
			Error: &api.Error{Code: api.CodeCompileError, Message: err.Error()},
		})
		return
	}
	e.prog = prog
	e.stats = prog.CompileStats()
	e.status = http.StatusOK
	e.body = marshalEnvelope(api.Envelope{
		File:     p.filename,
		Mode:     prog.Mode().String(),
		CodeSize: prog.CodeSize(),
		Inlined:  prog.InlinedFields(),
		Rejected: prog.RejectedFields(),
		Stats:    &e.stats,
	})
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
	engine, err := objinline.ParseEngine(req.Engine)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, api.CodeBadRequest, err.Error())
		return
	}
	if engine == objinline.EngineNative && req.Profile {
		s.writeError(w, http.StatusBadRequest, api.CodeBadRequest,
			"profile requires the vm engine: site attribution is VM instrumentation")
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
	if oreq != nil && oreq.Sink != nil {
		runSink = oreq.Sink
	}
	out := capWriter{max: s.cfg.MaxOutputBytes}
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
	var (
		res     objinline.Result
		profile *objinline.RunProfile
	)
	if req.Profile {
		// Profiled runs read their attribution back off the Program, so
		// they are serialized per entry.
		e.runMu.Lock()
		res, err = prog.Execute(p.ctx, ro)
		if err == nil {
			profile = prog.Profile()
		}
		e.runMu.Unlock()
	} else {
		res, err = prog.Execute(p.ctx, ro)
	}
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
		Profile: profile,
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
	e, leader := s.nativeRuns.claim(key)
	if !leader {
		w.Header().Set("X-Oicd-Run-Cache", "hit")
		select {
		case <-e.done:
			s.replay(w, e)
		case <-p.ctx.Done():
			s.metrics.deadlineExceeded.Add(1)
			s.writeError(w, http.StatusGatewayTimeout, api.CodeDeadlineExceeded,
				"deadline exceeded waiting for in-flight native run: "+p.ctx.Err().Error())
		}
		return
	}

	w.Header().Set("X-Oicd-Run-Cache", "miss")
	if err := s.acquire(p.ctx); err != nil {
		// Same treatment as a shed compile leader: settle the entry for
		// anyone already waiting, then drop it so the key retries fresh.
		status := http.StatusTooManyRequests
		env := api.Envelope{Error: s.overloadedError(err)}
		if !errors.Is(err, errOverloaded) {
			status = http.StatusGatewayTimeout
			env.Error = &api.Error{Code: api.CodeDeadlineExceeded, Message: "deadline exceeded waiting for a worker: " + err.Error()}
			s.metrics.deadlineExceeded.Add(1)
		} else {
			s.metrics.shed.Add(1)
		}
		e.status = status
		e.body = marshalEnvelope(env)
		s.nativeRuns.drop(e)
		close(e.done)
		s.replay(w, e)
		return
	}
	defer s.release()
	s.metrics.nativeRuns.Add(1)

	// Like a compile, the result is shared with every coalesced request,
	// so the build-and-run detaches from this client's connection; only
	// the deadline cancels it.
	ctx, cancel := context.WithDeadline(context.WithoutCancel(r.Context()), p.deadline)
	defer cancel()
	s.nativeRunInto(ctx, e, prog, p, req, reps)
	s.replay(w, e)
}

// nativeRunInto executes the native run and fills e, closing e.done.
// Program traps are deterministic and stay cached (like compile errors);
// deadline cancellations and toolchain failures are dropped so the key
// can be retried.
func (s *Server) nativeRunInto(ctx context.Context, e *entry, prog *objinline.Program, p *prepared, req *api.RunRequest, reps int) {
	defer close(e.done)
	out := capWriter{max: s.cfg.MaxOutputBytes}
	ro := objinline.RunOptions{
		Engine:     objinline.EngineNative,
		NativeReps: reps,
		// Concurrent native misses coalesce their go-build invocations
		// through the server's shared batcher.
		NativeBatcher: s.batcher,
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
	e := &api.Error{Code: code, Message: msg}
	if status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", s.retryAfterSeconds())
		e.QueueDepth = s.queued.Load()
	}
	s.writeEnvelope(w, status, api.Envelope{Error: e})
}

// overloadedError builds the 429 error body, including the queue depth
// observed at shed time so clients can size their backoff.
func (s *Server) overloadedError(err error) *api.Error {
	return &api.Error{
		Code:       api.CodeOverloaded,
		Message:    err.Error(),
		QueueDepth: s.queued.Load(),
	}
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
