package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"objinline"
	"objinline/internal/obs"
	"objinline/internal/pipeline"
	"objinline/internal/server"
	"objinline/internal/server/api"
)

// serveClients is the closed loop's client count: oic-style callers each
// wait for their reply, and two keep the load within a 2-CPU machine.
const serveClients = 2

// serveMaxRounds caps the rounds one run makes. Each round first-touches
// 10 keys; with the 20 warm keys the population stays below the server's
// default 256-entry cache, so nothing is evicted and every compile the
// server runs is one the request sequence asked for.
const serveMaxRounds = 22

var serveWorkload = &workload{
	name:  "serve",
	setup: func(cfg *config, traced bool) (instance, error) { return newServeInst(cfg, traced) },
}

// libResult is what the library compile says a compile response must
// carry.
type libResult struct {
	codeSize int
	inlined  []string
}

type serveInst struct {
	seed  uint64
	progs []program // default scale: compile, explain and miss requests
	small []program // small scale: run requests

	lib      map[compileConfig]libResult
	fields   map[int][]string // inline-mode decided fields per program
	runWant  map[int]string   // small-scale direct-mode output per program
	hitBody  map[compileConfig][]byte
	runBody  map[compileConfig][]byte
	expBody  map[[2]int][]byte // (program, field index)
	firstMu  sync.Mutex
	firstHit map[string][]byte // request body → first 200 response body

	url    string
	srv    *server.Server
	hs     *http.Server
	served chan error
	client *http.Client
	access *accessLog
}

func newServeInst(cfg *config, traced bool) (*serveInst, error) {
	progs, err := suite(cfg.root, cfg.seed)
	if err != nil {
		return nil, err
	}
	small, err := smallSuite(cfg.root)
	if err != nil {
		return nil, err
	}
	s := &serveInst{
		seed: cfg.seed, progs: progs, small: small,
		lib: map[compileConfig]libResult{}, fields: map[int][]string{}, runWant: map[int]string{},
		hitBody: map[compileConfig][]byte{}, runBody: map[compileConfig][]byte{},
		expBody: map[[2]int][]byte{}, firstHit: map[string][]byte{},
	}
	for pi, p := range progs {
		for _, m := range modes[1:] {
			mode, err := objinline.ParseMode(m.String())
			if err != nil {
				return nil, err
			}
			prog, err := objinline.Compile(p.file, p.src, objinline.Config{Mode: mode})
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", p.name, m, err)
			}
			cc := compileConfig{pi, m}
			s.lib[cc] = libResult{prog.CodeSize(), prog.InlinedFields()}
			if m == pipeline.ModeInline {
				for f := range prog.RejectedFields() {
					s.fields[pi] = append(s.fields[pi], f)
				}
				s.fields[pi] = append(s.fields[pi], prog.InlinedFields()...)
				sort.Strings(s.fields[pi])
			}
			s.hitBody[cc] = mustJSON(api.CompileRequest{Filename: p.file, Source: p.src, Config: api.Config{Mode: m.String()}})
			s.runBody[cc] = mustJSON(api.RunRequest{
				CompileRequest: api.CompileRequest{Filename: small[pi].file, Source: small[pi].src, Config: api.Config{Mode: m.String()}},
				IncludeOutput:  true,
			})
		}
		for fi, f := range s.fields[pi] {
			s.expBody[[2]int{pi, fi}] = mustJSON(api.ExplainRequest{
				CompileRequest: api.CompileRequest{Filename: p.file, Source: p.src, Config: api.Config{Mode: "inline"}},
				Field:          f,
			})
		}
		c, err := pipeline.Compile(small[pi].file, small[pi].src, pipeline.Config{Mode: pipeline.ModeDirect})
		if err != nil {
			return nil, err
		}
		if s.runWant[pi], _, err = runVM(c, true); err != nil {
			return nil, fmt.Errorf("%s small direct run: %w", p.name, err)
		}
	}

	scfg := server.Config{}
	if traced {
		s.access = &accessLog{recs: map[string]accessRec{}}
		scfg.AccessLog = slog.New(s.access)
	}
	s.srv = server.New(scfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.url = "http://" + ln.Addr().String()
	s.hs = &http.Server{Handler: s.srv}
	s.served = make(chan error, 1)
	go func() { s.served <- s.hs.Serve(ln) }()
	s.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serveClients, DisableCompression: true}}

	// Warm every hit key and run key: these compiles are set-up.
	var buf bytes.Buffer
	for cc := range s.hitBody {
		for _, body := range [][]byte{s.hitBody[cc], s.runBody[cc]} {
			path := "/v1/compile"
			if _, err := s.post(&buf, path, body, ""); err != nil {
				s.close()
				return nil, fmt.Errorf("warming %s: %w", s.progs[cc.prog].name, err)
			}
		}
	}
	return s, nil
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

func (s *serveInst) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = s.hs.Shutdown(ctx) // in-flight requests have all returned by now
	<-s.served
	s.srv.Close()
	s.client.CloseIdleConnections()
}

// post sends one request, reads the reply into buf and returns its
// body (buf's bytes).
func (s *serveInst) post(buf *bytes.Buffer, path string, body []byte, id string) ([]byte, error) {
	req, err := http.NewRequest(http.MethodPost, s.url+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if id != "" {
		req.Header.Set(obs.RequestIDHeader, id)
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := io.Copy(buf, resp.Body); err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: status %d: %s", path, resp.StatusCode, buf.Bytes())
	}
	return buf.Bytes(), nil
}

// outcome is one completed request.
type outcome struct {
	req      request
	round    int
	ms       float64
	op       int64
	id       string
	span     int
	lane     int
	failed   bool
	cycles   int64
	codeSize int
}

func (s *serveInst) measure(until time.Time, rec *recorder) (*report, error) {
	r := newReport()
	compile0 := s.counter("compiles_total")
	alloc0 := heapAllocated()
	var (
		done    []outcome
		errs    []string
		roundMs []float64
		rounds  int
	)
	// Whole rounds, both clients, until the deadline or the round cap.
	for rounds == 0 || rounds < serveMaxRounds && time.Now().Before(until) {
		t0 := time.Now()
		out, e := s.round(rounds, rec)
		roundMs = append(roundMs, ms(time.Since(t0)))
		done, errs = append(done, out...), append(errs, e...)
		rounds++
		if err := r.calibrate(); err != nil {
			return nil, err
		}
	}
	allocated := heapAllocated() - alloc0
	compiles := s.counter("compiles_total") - compile0
	var wall float64
	for _, d := range roundMs {
		wall += d
	}

	ops := newSamples()
	byClass := map[reqKind][]float64{}
	cycles := map[compileConfig]int64{}
	var misses int
	var codeSize int64
	for _, d := range done {
		r.attempted++
		if d.failed {
			r.failed++
			continue
		}
		cfg := d.req.kind.String()
		switch d.req.kind {
		case reqMiss, reqRun:
			cfg += "/" + s.progs[d.req.prog].name + "/" + d.req.mode.String()
		}
		ops.add(cfg, d.ms)
		byClass[d.req.kind] = append(byClass[d.req.kind], d.ms)
		switch d.req.kind {
		case reqMiss:
			misses++
			if d.round == 0 {
				codeSize += int64(d.codeSize)
			}
		case reqRun:
			cycles[compileConfig{d.req.prog, d.req.mode}] = d.cycles
		}
	}
	for i, e := range errs {
		if i < 8 {
			r.errs = append(r.errs, e)
		}
	}
	if compiles != int64(misses) {
		r.fail("server ran %d compiles for %d first-touch requests", compiles, misses)
	}
	r.e2e["suite_ms"] = median(roundMs)
	gm, err := ops.geomean()
	if err != nil {
		return nil, err
	}
	r.e2e["geomean_ms"] = gm
	r.e2e["ops_per_s"] = float64(len(done)) / (wall / 1000)
	r.e2e["p50_ms"] = median(ops.all)
	ops.tailNote(r)
	r.e2e["alloc_mb"] = float64(allocated) / 1e6 / float64(len(done))
	r.e2e["code_size"] = float64(codeSize)
	var ratios []float64
	var inlineCycles int64
	for pi := range s.progs {
		b, in := cycles[compileConfig{pi, pipeline.ModeBaseline}], cycles[compileConfig{pi, pipeline.ModeInline}]
		if b > 0 && in > 0 {
			ratios = append(ratios, float64(b)/float64(in))
			inlineCycles += in
			r.guard[fmt.Sprintf("cycles/%s/inline", s.progs[pi].name)] = in
			r.guard[fmt.Sprintf("cycles/%s/baseline", s.progs[pi].name)] = b
		}
	}
	if r.e2e["modeled_speedup"], err = geomean(ratios); err != nil {
		return nil, fmt.Errorf("modeled speedup: %w", err)
	}
	r.e2e["modeled_mcycles"] = float64(inlineCycles) / 1e6
	r.guard["code_size"] = codeSize
	r.guard["compiles_per_round"] = compiles / int64(rounds)
	r.notes = append(r.notes,
		fmt.Sprintf("%d requests by %d closed-loop clients in %.1fs: %d rounds", len(done), serveClients, wall/1000, rounds),
		fmt.Sprintf("p50_ms over all %d requests; %d compiles for %d first-touch misses", len(ops.all), compiles, misses))

	if rec != nil {
		r.layers = s.layers(rec, done, byClass, float64(compiles)/float64(rounds), allocated)
	}
	return r, nil
}

// round sends round rd's request sequence through serveClients
// closed-loop clients and returns when both are done.
func (s *serveInst) round(rd int, rec *recorder) ([]outcome, []string) {
	seq := roundRequests(s.seed, rd, len(s.progs))
	var (
		mu     sync.Mutex
		cursor int
		done   []outcome
		errs   []string
		wg     sync.WaitGroup
	)
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			var buf bytes.Buffer
			for {
				mu.Lock()
				if cursor == len(seq) {
					mu.Unlock()
					return
				}
				q := seq[cursor]
				cursor++
				mu.Unlock()

				path, body := s.route(q, rd)
				sv := outcome{req: q, round: rd, span: -1, lane: lane}
				if rec != nil {
					sv.op = rec.op()
					sv.id = "perfbench-" + strconv.FormatInt(sv.op, 10)
					sv.span = rec.begin("client."+q.kind.String(), sv.op, -1, lane)
				}
				t0 := time.Now()
				resp, err := s.post(&buf, path, body, sv.id)
				sv.ms = ms(time.Since(t0))
				if rec != nil {
					rec.end(sv.span)
				}
				if err == nil {
					err = s.check(q, body, resp, &sv)
				}
				mu.Lock()
				if err != nil {
					sv.failed = true
					errs = append(errs, fmt.Sprintf("%s %s: %v", q.kind, s.progs[q.prog].name, err))
				}
				done = append(done, sv)
				mu.Unlock()
			}
		}(c + 1)
	}
	wg.Wait()
	return done, errs
}

// route returns a request's path and body.
func (s *serveInst) route(q request, round int) (path string, body []byte) {
	cc := compileConfig{q.prog, q.mode}
	switch q.kind {
	case reqCompile:
		return "/v1/compile", s.hitBody[cc]
	case reqExplain:
		fi := q.field % len(s.fields[q.prog])
		return "/v1/explain", s.expBody[[2]int{q.prog, fi}]
	case reqRun:
		return "/v1/run", s.runBody[cc]
	}
	// A first-touch key: the same program with a trailing comment naming
	// the round, so positions (and so the response) match the library
	// compile of the unmarked source.
	p := s.progs[q.prog]
	src := p.src + "\n// perfbench round " + strconv.Itoa(round) + "\n"
	return "/v1/compile", mustJSON(api.CompileRequest{Filename: p.file, Source: src, Config: api.Config{Mode: q.mode.String()}})
}

// check verifies one 200 response: every body for a request must be
// byte-identical to the first, compile responses must agree with the
// library compile, and runs must print the direct build's output.
func (s *serveInst) check(q request, reqBody, resp []byte, sv *outcome) error {
	id := string(reqBody)
	s.firstMu.Lock()
	first, seen := s.firstHit[id]
	s.firstMu.Unlock()
	if seen {
		if !bytes.Equal(first, resp) {
			return errors.New("body differs from the first response for the same request")
		}
		if q.kind != reqRun {
			return nil
		}
	}
	var env api.Envelope
	if err := json.Unmarshal(resp, &env); err != nil {
		return err
	}
	switch q.kind {
	case reqCompile, reqMiss:
		want := s.lib[compileConfig{q.prog, q.mode}]
		if env.CodeSize != want.codeSize || fmt.Sprint(env.Inlined) != fmt.Sprint(want.inlined) {
			return fmt.Errorf("code_size %d inlined %v; the library compile gives %d %v",
				env.CodeSize, env.Inlined, want.codeSize, want.inlined)
		}
		sv.codeSize = env.CodeSize
	case reqExplain:
		if env.Explain == nil || env.Explain.Field != s.fields[q.prog][q.field%len(s.fields[q.prog])] {
			return errors.New("explain response names another field")
		}
	case reqRun:
		if env.Output != s.runWant[q.prog] || env.Metrics == nil {
			return errors.New("run output differs from the direct build's")
		}
		sv.cycles = env.Metrics.Cycles
	}
	if !seen && q.kind != reqMiss {
		s.firstMu.Lock()
		s.firstHit[id] = append([]byte(nil), resp...)
		s.firstMu.Unlock()
	}
	return nil
}

// counter reads one of the server's /metrics counters.
func (s *serveInst) counter(name string) int64 {
	resp, err := s.client.Get(s.url + "/metrics")
	if err != nil {
		return -1
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return -1
	}
	v, _ := m[name].(float64)
	return int64(v)
}

// layers derives the server's per-layer metrics from the client timings
// and the access log, and records the handler and queue-wait spans.
func (s *serveInst) layers(rec *recorder, done []outcome, byClass map[reqKind][]float64, compilesPerRound float64, allocated uint64) map[string]float64 {
	m := zeroLayers()
	m["server.hit_ms"] = median(byClass[reqCompile])
	m["server.miss_ms"] = median(byClass[reqMiss])
	m["server.explain_ms"] = median(byClass[reqExplain])
	m["server.run_ms"] = median(byClass[reqRun])
	recs := s.access.snapshot()
	var handler, transport []float64
	var wait time.Duration
	var hits, lookups, shed float64
	for _, d := range done {
		a, ok := recs[d.id]
		if !ok {
			continue
		}
		end := rec.at(a.at)
		start := end - a.dur
		h := rec.add(span{name: "server.handler", op: d.op, parent: d.span, lane: 10 + d.lane, start: start, end: end})
		if a.wait > 0 {
			rec.add(span{name: "server.queue_wait", op: d.op, parent: h, lane: 20 + d.lane, start: start, end: start + a.wait})
		}
		wait += a.wait
		if a.status == http.StatusTooManyRequests {
			shed++
		}
		if a.cache != "" {
			lookups++
			if a.cache == "hit" {
				hits++
			}
		}
		if d.req.kind == reqCompile {
			handler = append(handler, ms(a.dur))
			transport = append(transport, d.ms-ms(a.dur))
		}
	}
	m["server.handler_ms"] = median(handler)
	m["server.transport_ms"] = median(transport)
	m["server.queue_wait_ms"] = ms(wait) / float64(len(done))
	m["server.hit_ratio"] = ratio(hits, lookups)
	m["server.compiles"] = compilesPerRound
	// Every key of the mix is sent by one request at a time (warm keys
	// settle in set-up, miss keys are new each round and sent once), so
	// no request can coalesce onto another's in-flight compile.
	m["server.dedup"] = 0
	m["server.shed"] = shed
	m["server.alloc_kb"] = float64(allocated) / 1e3 / float64(len(done))
	return m
}

// accessRec is one access-log record.
type accessRec struct {
	at     time.Time
	dur    time.Duration
	wait   time.Duration
	status int
	cache  string
}

// accessLog is a slog.Handler that keeps the server's access-log records
// by request id.
type accessLog struct {
	mu   sync.Mutex
	recs map[string]accessRec
}

func (*accessLog) Enabled(context.Context, slog.Level) bool { return true }
func (l *accessLog) WithAttrs([]slog.Attr) slog.Handler     { return l }
func (l *accessLog) WithGroup(string) slog.Handler          { return l }

func (l *accessLog) Handle(_ context.Context, r slog.Record) error {
	a := accessRec{at: r.Time}
	var id string
	r.Attrs(func(at slog.Attr) bool {
		switch at.Key {
		case "request_id":
			id = at.Value.String()
		case "duration_ns":
			a.dur = time.Duration(at.Value.Int64())
		case "queue_wait_ns":
			a.wait = time.Duration(at.Value.Int64())
		case "status":
			a.status = int(at.Value.Int64())
		case "cache":
			if c := at.Value.String(); c != "none" {
				a.cache = c
			}
		}
		return true
	})
	l.mu.Lock()
	l.recs[id] = a
	l.mu.Unlock()
	return nil
}

func (l *accessLog) snapshot() map[string]accessRec {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make(map[string]accessRec, len(l.recs))
	for k, v := range l.recs {
		out[k] = v
	}
	return out
}
