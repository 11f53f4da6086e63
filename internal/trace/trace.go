// Package trace is the compiler's phase-event sink: a structured record of
// what the pipeline spent its time on, one event per phase execution, with
// wall time and per-phase counters. pipeline.Compile (and the VM's run
// phase) drive it; the public CompileStats API and the CLI's -trace flag
// render it.
//
// The sink is optional and the disabled path is free: every method is
// nil-receiver-safe, Start on a nil *Sink returns an inert Span, and none
// of the nil-path operations allocate (asserted by a test). Compilations
// that nobody observes therefore pay nothing — not even a branch beyond
// the nil checks.
package trace

import (
	"fmt"
	"io"
	"sync"
	"text/tabwriter"
	"time"
)

// Phase names one stage of the compilation (or execution) pipeline. The
// values are stable identifiers: they appear in JSON output and golden
// tests, so changing one is an API break.
type Phase string

// The pipeline's phases, in execution order.
const (
	PhaseParse      Phase = "parse"      // source text -> AST
	PhaseCheck      Phase = "check"      // semantic analysis
	PhaseLower      Phase = "lower"      // AST -> IR
	PhaseAnalysis   Phase = "analysis"   // contour/flow analysis
	PhaseOptimize   Phase = "optimize"   // decision + clone + rewrite/materialize
	PhaseFuncInline Phase = "funcinline" // post-specialization function inlining
	PhasePeephole   Phase = "peephole"   // peephole cleanup
	PhaseRun        Phase = "run"        // VM execution
)

// Counter is one named per-phase measurement (instruction counts, contour
// counts, ...). A slice, not a map, so JSON output and golden tests are
// deterministic.
type Counter struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// Event is one recorded phase execution.
type Event struct {
	Phase Phase `json:"phase"`
	// Start is the span's start time in nanoseconds since the sink's
	// first Start call (the sink epoch). Like Nanos it is wall-clock
	// derived and therefore nondeterministic; schema checks normalize
	// both. The Chrome export uses it to place spans on a timeline.
	Start int64 `json:"start_nanos"`
	// Nanos is the phase's wall time; schema checks normalize it.
	Nanos    int64     `json:"nanos"`
	Counters []Counter `json:"counters,omitempty"`
}

// Sink collects phase events. The zero value is ready to use; a nil *Sink
// is also valid everywhere and records nothing. Sinks are safe for
// concurrent use (the VM's run phase may be timed from another goroutine
// than a later compile phase).
type Sink struct {
	mu     sync.Mutex
	events []Event
	// epoch is the time of the first Start call; event Start offsets are
	// relative to it.
	epoch time.Time
	// now stands in for time.Now in tests that need deterministic
	// durations; nil means time.Now.
	now func() time.Time
}

// Span is one in-progress phase measurement, returned by Start. The zero
// Span (from a nil sink) is inert: Counter and End on it do nothing and
// allocate nothing.
type Span struct {
	sink  *Sink
	idx   int
	start time.Time
}

// Start opens a phase span. On a nil sink it returns the inert zero Span.
func (s *Sink) Start(p Phase) Span {
	if s == nil {
		return Span{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	start := s.clock()
	if s.epoch.IsZero() {
		s.epoch = start
	}
	s.events = append(s.events, Event{Phase: p, Start: int64(start.Sub(s.epoch))})
	return Span{sink: s, idx: len(s.events) - 1, start: start}
}

func (s *Sink) clock() time.Time {
	if s.now != nil {
		return s.now()
	}
	return time.Now()
}

// Counter records one named value on the span's event. No-op on the inert
// Span.
func (sp Span) Counter(name string, v int64) {
	if sp.sink == nil {
		return
	}
	sp.sink.mu.Lock()
	defer sp.sink.mu.Unlock()
	ev := &sp.sink.events[sp.idx]
	ev.Counters = append(ev.Counters, Counter{Name: name, Value: v})
}

// End closes the span, recording its wall time. No-op on the inert Span.
func (sp Span) End() {
	if sp.sink == nil {
		return
	}
	sp.sink.mu.Lock()
	defer sp.sink.mu.Unlock()
	sp.sink.events[sp.idx].Nanos = int64(sp.sink.clock().Sub(sp.start))
}

// Epoch returns the sink's time origin — the wall-clock time of its
// first Start call — or the zero time before any span has started. Safe
// on a nil sink. Callers merging one sink's events into another use it
// to translate between the two timelines.
func (s *Sink) Epoch() time.Time {
	if s == nil {
		return time.Time{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.epoch
}

// Merge appends events recorded by another sink, shifting their Start
// offsets so the other sink's epoch lands at the right point on s's
// timeline. The oicd server uses it to graft a compilation's phase spans
// (recorded into their own sink, so the cached CompileStats stay free of
// service-level spans) into the owning request's span tree. Merging into
// a sink that has recorded nothing adopts epoch as its own. Events may
// land out of start order relative to existing ones; consumers (the
// Chrome export, Perfetto) order by timestamp, not position. No-op on a
// nil sink or a zero epoch.
func (s *Sink) Merge(epoch time.Time, events []Event) {
	if s == nil || epoch.IsZero() || len(events) == 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.epoch.IsZero() {
		s.epoch = epoch
	}
	shift := int64(epoch.Sub(s.epoch))
	for _, ev := range events {
		ev.Start += shift
		s.events = append(s.events, ev)
	}
}

// Events returns a copy of the recorded events in start order. Safe on a
// nil sink (returns nil).
func (s *Sink) Events() []Event {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Event, len(s.events))
	copy(out, s.events)
	return out
}

// TotalNanos sums the recorded phase times.
func (s *Sink) TotalNanos() int64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var total int64
	for _, ev := range s.events {
		total += ev.Nanos
	}
	return total
}

// WriteTable renders the events as an aligned text table (the CLI's
// -trace output).
func WriteTable(w io.Writer, events []Event) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "phase\ttime\tcounters")
	for _, ev := range events {
		var cs string
		for i, c := range ev.Counters {
			if i > 0 {
				cs += " "
			}
			cs += fmt.Sprintf("%s=%d", c.Name, c.Value)
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\n", ev.Phase, time.Duration(ev.Nanos), cs)
	}
	tw.Flush()
}
