package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call. Every span of one operation (a compile, a VM run, a patch, a
// request) shares op; parent indexes the span that caused it (-1 for an
// operation's root).
type span struct {
	name       string
	op         int64
	parent     int
	lane       int
	start, end time.Duration // since the recorder's epoch
	alloc      uint64        // Go heap bytes allocated during the span
}

// recorder keeps spans in memory for the run and writes them out as a
// Chrome trace at the end. It is safe for concurrent use.
type recorder struct {
	mu     sync.Mutex
	epoch  time.Time
	spans  []span
	nextOp int64
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// op returns a fresh operation id.
func (r *recorder) op() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextOp++
	return r.nextOp
}

// begin opens a span and returns its handle for end.
func (r *recorder) begin(name string, op int64, parent, lane int) int {
	a := allocBytes()
	now := time.Since(r.epoch)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{name: name, op: op, parent: parent, lane: lane, start: now, alloc: a})
	return len(r.spans) - 1
}

// end closes span i.
func (r *recorder) end(i int) {
	now := time.Since(r.epoch)
	a := allocBytes()
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.spans[i]
	s.end = now
	s.alloc = a - s.alloc
}

// endAs closes span i under a name known only at its end.
func (r *recorder) endAs(i int, name string) {
	r.end(i)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[i].name = name
}

// add records a span whose interval was measured elsewhere (the server's
// handler time, reported through its access log) and returns its handle.
func (r *recorder) add(s span) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, s)
	return len(r.spans) - 1
}

// at converts a wall-clock instant to the recorder's timeline.
func (r *recorder) at(t time.Time) time.Duration { return t.Sub(r.epoch) }

func (r *recorder) len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// snapshot returns a copy of the spans recorded so far.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its child spans cover.
func selfTimes(spans []span) []time.Duration {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] = s.end - s.start - covered(s, spans, children[i])
	}
	return self
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, spans []span, kids []int) time.Duration {
	type iv struct{ a, b time.Duration }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(spans[k].start, parent.start), min(spans[k].end, parent.end)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB time.Duration
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// writeChromeFile writes the spans as Chrome trace-event JSON, which
// ui.perfetto.dev and chrome://tracing load directly. Each span is a
// complete ("X") event on its lane; args carry the operation id, the
// parent span's name and index, and the bytes allocated.
func (r *recorder) writeChromeFile(path string, meta map[string]any) error {
	spans := r.snapshot()
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur,omitempty"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	events := make([]event, 0, len(spans)+1)
	events = append(events, event{Name: "process_name", Ph: "M", Pid: 1, Args: map[string]any{"name": "perfbench"}})
	for i, s := range spans {
		args := map[string]any{"op": s.op, "span": i, "alloc_bytes": s.alloc}
		if s.parent >= 0 {
			args["parent"] = s.parent
			args["parent_name"] = spans[s.parent].name
		}
		events = append(events, event{Name: s.name, Ph: "X", Ts: us(s.start), Dur: us(s.end - s.start),
			Pid: 1, Tid: s.lane, Args: args})
	}
	b, err := json.Marshal(struct {
		TraceEvents     []event        `json:"traceEvents"`
		DisplayTimeUnit string         `json:"displayTimeUnit"`
		Metadata        map[string]any `json:"metadata"`
	}{events, "ms", meta})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

// allocBytes reads the Go heap's cumulative allocated bytes without
// stopping the world (unlike runtime.ReadMemStats).
func allocBytes() uint64 {
	s := []metrics.Sample{allocSample[0]}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// layerTotals sums self time and allocated bytes per span name.
func layerTotals(spans []span) (self map[string]time.Duration, alloc map[string]uint64) {
	st := selfTimes(spans)
	self, alloc = map[string]time.Duration{}, map[string]uint64{}
	for i, s := range spans {
		self[s.name] += st[i]
		alloc[s.name] += s.alloc
	}
	return self, alloc
}
