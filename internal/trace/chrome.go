package trace

// Chrome trace-event export: serializes recorded phase events to the JSON
// format the Perfetto UI (https://ui.perfetto.dev) and chrome://tracing
// load directly. Each phase span becomes a complete ("X") event on one
// timeline track; each span counter additionally becomes a counter ("C")
// event at the span's start, so contour counts, instruction counts, and VM
// run counters render as tracks next to the spans that produced them.
//
// Two service-level extensions ride on the same format:
//
//   - Multi-track export (WriteChromeTracks): several event streams — in
//     practice, several requests from oicd's /debug/requests ring — placed
//     on one shared timeline, one named thread track each, so request
//     overlap is visible.
//   - Session-tier counter folding: span counters named "tier_<t>"
//     (cumulative incremental-tier totals recorded by the session patch
//     handler) are folded into one multi-series "session/tiers" counter
//     track, so Perfetto shows the reuse/patch/reopt/solve/cold mix over
//     time next to the analysis counters.

import (
	"encoding/json"
	"io"
	"strings"
)

// chromeEvent is one entry of the trace-event JSON array. Field names are
// the trace-event format's, not ours.
type chromeEvent struct {
	Name string `json:"name"`
	Cat  string `json:"cat,omitempty"`
	// Ph is the event type: "X" for complete spans, "C" for counters,
	// "M" for metadata (track names).
	Ph  string  `json:"ph"`
	Ts  float64 `json:"ts"`  // microseconds since trace start
	Dur float64 `json:"dur"` // microseconds; 0 for "C" events
	Pid int     `json:"pid"`
	Tid int     `json:"tid"`
	// Args carries the span counters ("X"), the counter value(s) ("C"),
	// or the metadata payload ("M"). Values are int64 counters except for
	// metadata strings.
	Args map[string]any `json:"args,omitempty"`
}

// chromeTrace is the top-level JSON object Perfetto expects.
type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// Track is one event stream of a multi-track export: a thread on the
// shared timeline, optionally named and time-shifted.
type Track struct {
	// Name labels the track in the Perfetto UI (thread_name metadata);
	// empty emits no metadata event.
	Name string
	// Tid distinguishes tracks; each track should use a distinct value.
	Tid int
	// Offset shifts every event's Start by this many nanoseconds, placing
	// a stream recorded against its own epoch onto the shared timeline.
	Offset int64
	// Events is the stream, as Sink.Events returns it.
	Events []Event
}

// TierCounterPrefix marks span counters that carry cumulative
// session-tier totals (e.g. "tier_patch"). WriteChrome folds counters
// with this prefix into one multi-series "session/tiers" track so
// Perfetto shows the incremental-tier mix over time.
const TierCounterPrefix = "tier_"

// WriteChrome serializes the events as Chrome trace-event JSON. The output
// is deterministic for a given event slice: events in recorded order, each
// span's counters in recorded order.
func WriteChrome(w io.Writer, events []Event) error {
	return WriteChromeTracks(w, []Track{{Tid: 1, Events: events}})
}

// WriteChromeTracks serializes several event streams into one Chrome
// trace, one thread track each. Determinism matches WriteChrome: tracks
// in argument order, events in recorded order.
func WriteChromeTracks(w io.Writer, tracks []Track) error {
	out := chromeTrace{DisplayTimeUnit: "ns", TraceEvents: []chromeEvent{}}
	const usPerNs = 1e-3
	for _, tr := range tracks {
		if tr.Name != "" {
			out.TraceEvents = append(out.TraceEvents, chromeEvent{
				Name: "thread_name",
				Ph:   "M",
				Pid:  1,
				Tid:  tr.Tid,
				Args: map[string]any{"name": tr.Name},
			})
		}
		for _, ev := range tr.Events {
			ts := float64(ev.Start+tr.Offset) * usPerNs
			span := chromeEvent{
				Name: string(ev.Phase),
				Cat:  "phase",
				Ph:   "X",
				Ts:   ts,
				Dur:  float64(ev.Nanos) * usPerNs,
				Pid:  1,
				Tid:  tr.Tid,
			}
			if len(ev.Counters) > 0 {
				span.Args = make(map[string]any, len(ev.Counters))
			}
			for _, c := range ev.Counters {
				span.Args[c.Name] = c.Value
			}
			out.TraceEvents = append(out.TraceEvents, span)
			// Counter tracks: one "C" event per counter at the span's start,
			// named <phase>/<counter> so same-named counters of different
			// phases (e.g. "instrs") stay on separate tracks — except the
			// session-tier counters, which fold into one multi-series track
			// so the tier mix renders stacked over time.
			var tiers map[string]any
			for _, c := range ev.Counters {
				if t, ok := strings.CutPrefix(c.Name, TierCounterPrefix); ok {
					if tiers == nil {
						tiers = make(map[string]any)
					}
					tiers[t] = c.Value
					continue
				}
				out.TraceEvents = append(out.TraceEvents, chromeEvent{
					Name: string(ev.Phase) + "/" + c.Name,
					Ph:   "C",
					Ts:   ts,
					Pid:  1,
					Tid:  tr.Tid,
					Args: map[string]any{c.Name: c.Value},
				})
			}
			if tiers != nil {
				out.TraceEvents = append(out.TraceEvents, chromeEvent{
					Name: "session/tiers",
					Ph:   "C",
					Ts:   ts,
					Pid:  1,
					Tid:  tr.Tid,
					Args: tiers,
				})
			}
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}
