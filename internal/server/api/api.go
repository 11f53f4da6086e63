// Package api defines the oicd service's wire types: the JSON request
// bodies the /v1 endpoints accept and the response envelope they (and the
// oic CLI's -json flag) emit. The envelope is shared with cmd/oic so the
// two surfaces cannot drift apart — a field added here appears in both,
// and the golden tests on either side pin the serialized shape.
package api

import "objinline"

// Config is the wire form of objinline.Config. Zero values mean defaults
// (mode "inline", the analysis package's TagDepth default), exactly as
// the library treats them. Fields this type does not declare — among
// them the removed "solver", "jobs" and "max_passes" — are ignored by
// the decoder and never reach the cache key.
type Config struct {
	// Mode is the pipeline: "direct", "baseline", or "inline" (default).
	Mode string `json:"mode,omitempty"`
	// ParallelArrays selects the struct-of-arrays inlined-array layout.
	ParallelArrays bool `json:"parallel_arrays,omitempty"`
	// TagDepth caps use-specialization tag nesting (default 3).
	TagDepth int `json:"tag_depth,omitempty"`
}

// ToConfig converts the wire config to the library's, parsing the mode.
func (c Config) ToConfig() (objinline.Config, error) {
	mode := objinline.Inline
	if c.Mode != "" {
		var err error
		if mode, err = objinline.ParseMode(c.Mode); err != nil {
			return objinline.Config{}, err
		}
	}
	return objinline.Config{
		Mode:           mode,
		ParallelArrays: c.ParallelArrays,
		TagDepth:       c.TagDepth,
	}, nil
}

// CompileRequest is the body of POST /v1/compile.
type CompileRequest struct {
	// Filename labels diagnostics and source positions (default
	// "request.icc"). It is part of the cache key: the same source under
	// a different name produces different position strings.
	Filename string `json:"filename,omitempty"`
	// Source is the Mini-ICC program text.
	Source string `json:"source"`
	// Config shapes the compilation; zero values mean defaults.
	Config Config `json:"config"`
	// DeadlineMillis bounds this request end-to-end, compile included.
	// 0 means the server's default deadline; values above the server's
	// maximum are clamped to it.
	DeadlineMillis int64 `json:"deadline_ms,omitempty"`
}

// ExplainRequest is the body of POST /v1/explain: a compilation plus the
// field to explain, named as InlinedFields/RejectedFields render it
// (e.g. "Rectangle.lower_left", or "arr@<site>[]" for an array site).
type ExplainRequest struct {
	CompileRequest
	Field string `json:"field"`
}

// SessionPatchRequest is the body of PATCH /v1/session/{id}: the edited
// full source text. The filename and config are pinned at session
// creation — an edit is the same program, differently written.
type SessionPatchRequest struct {
	// Source is the complete edited Mini-ICC program text.
	Source string `json:"source"`
	// DeadlineMillis bounds this patch end-to-end (0 = server default;
	// clamped to the server maximum).
	DeadlineMillis int64 `json:"deadline_ms,omitempty"`
}

// RunRequest is the body of POST /v1/run: a compilation plus execution
// options.
type RunRequest struct {
	CompileRequest
	// MaxSteps bounds execution (0 means the VM default); the request
	// deadline applies regardless.
	MaxSteps uint64 `json:"max_steps,omitempty"`
	// DisableCache turns the simulated data cache off.
	DisableCache bool `json:"disable_cache,omitempty"`
	// Profile attaches the site profiler; the envelope then carries the
	// run's allocation-site and field-path attribution.
	Profile bool `json:"profile,omitempty"`
	// IncludeOutput returns the program's print output in the envelope
	// (capped at the server's output limit).
	IncludeOutput bool `json:"include_output,omitempty"`
	// Engine selects the execution tier: "vm" (default) or "native",
	// which emits the optimized IR as Go, builds it, and runs the binary,
	// returning real wall-time and allocator measurements in the
	// envelope's native section. Native results are content-addressed and
	// cached like compilations (a native build is far more expensive than
	// a VM run); a cache hit replays the original execution's
	// measurements byte-for-byte. "native" cannot be combined with
	// Profile — site attribution is VM instrumentation.
	Engine string `json:"engine,omitempty"`
	// NativeReps, for the native engine, is how many times the program
	// body executes inside one process for measurement stability (0 means
	// 1; printing is muted after the first repetition). It is part of the
	// native result's cache key.
	NativeReps int `json:"native_reps,omitempty"`
}

// Stable machine-readable error codes (Error.Code).
const (
	// CodeBadRequest marks a malformed or oversized request (400/413).
	CodeBadRequest = "bad_request"
	// CodeCompileError marks source the compiler rejected (422). The
	// verdict is deterministic, so it is cached like a success.
	CodeCompileError = "compile_error"
	// CodeRuntimeError marks a program the VM aborted (422).
	CodeRuntimeError = "runtime_error"
	// CodeDeadlineExceeded marks a request its deadline canceled (504).
	CodeDeadlineExceeded = "deadline_exceeded"
	// CodeOverloaded marks a request shed because the worker queue was
	// full (429, with Retry-After).
	CodeOverloaded = "overloaded"
	// CodeUnknownField marks an explain request for a field the program
	// does not have (404).
	CodeUnknownField = "unknown_field"
	// CodeUnknownSession marks a patch or delete for a session id the
	// server does not hold — never created, expired, or evicted (404).
	CodeUnknownSession = "unknown_session"
	// CodeInternal marks a nondeterministic server-side failure (500) —
	// e.g. the native tier's go toolchain failing. Never cached, so the
	// request can simply be retried.
	CodeInternal = "internal_error"
)

// Error is one structured service failure; Code is one of the Code*
// constants above.
type Error struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	// QueueDepth reports how many requests were queued for a worker when
	// this request was shed (CodeOverloaded only) — the signal clients
	// should size their backoff on.
	QueueDepth int64 `json:"queue_depth,omitempty"`
}

// Envelope is the response body every endpoint (and oic -json) emits;
// only the sections the request produced are present. The serialized
// shape is a golden contract on both surfaces.
type Envelope struct {
	File     string                      `json:"file,omitempty"`
	Mode     string                      `json:"mode,omitempty"`
	CodeSize int                         `json:"code_size,omitempty"`
	Inlined  []string                    `json:"inlined,omitempty"`
	Rejected map[string]objinline.Reason `json:"rejected,omitempty"`
	Explain  *objinline.Decision         `json:"explain,omitempty"`
	Stats    *objinline.CompileStats     `json:"stats,omitempty"`
	Metrics  *objinline.Metrics          `json:"metrics,omitempty"`
	Profile  *objinline.RunProfile       `json:"profile,omitempty"`
	// Engine names the execution tier that produced a run response ("vm"
	// or "native"), echoed in the X-Oicd-Engine header as well; Native
	// carries the native tier's real measurements (wall time, build time,
	// Go allocator deltas) in place of Metrics.
	Engine string                   `json:"engine,omitempty"`
	Native *objinline.NativeMetrics `json:"native,omitempty"`
	// Output is the program's print output (run requests with
	// IncludeOutput); OutputTruncated marks it as cut at the server's
	// output cap.
	Output          string `json:"output,omitempty"`
	OutputTruncated bool   `json:"output_truncated,omitempty"`
	// SessionID names the incremental session the response belongs to
	// (session endpoints only).
	SessionID string `json:"session_id,omitempty"`
	// Incremental reports how a session patch was absorbed: the tier
	// (reuse/patch/reopt/solve/cold), the re-lowered functions, and how
	// much analysis work ran (PATCH /v1/session/{id} only).
	Incremental *objinline.IncrementalStats `json:"incremental,omitempty"`
	Error       *Error                      `json:"error,omitempty"`
}
