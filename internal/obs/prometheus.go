package obs

// The flat metric registry and its two renderings. Each series is
// declared once — name, kind, help text, and how to read it — and
// GET /metrics derives both bodies from that one list: flat JSON
// numbers, and Prometheus text exposition (version 0.0.4) written by
// hand. The repository's no-new-dependencies rule means no
// client_golang, and the format is three line shapes — `# HELP`,
// `# TYPE`, and `name{labels} value` — which a scraper, the CI
// well-formedness check, and the serve benchmark's parser all agree on.
// Output is fully deterministic for a given state: metrics sort by name,
// histogram cells by label tuple.

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// MetricNamespace prefixes every exposed series.
const MetricNamespace = "oicd"

// Kind is a flat metric's Prometheus type.
type Kind uint8

const (
	Counter Kind = iota // monotonic since boot
	Gauge               // point-in-time value
)

func (k Kind) String() string {
	if k == Gauge {
		return "gauge"
	}
	return "counter"
}

// Metric declares one flat series. Read extracts its value from the
// scrape's snapshot S, so every series of one scrape sees each source at
// the same instant.
type Metric[S any] struct {
	Name string
	Kind Kind
	Help string
	Read func(*S) int64
}

// Registry is a server's flat metric set plus the latency histogram vec
// whose per-endpoint percentiles the JSON body carries.
type Registry[S any] struct {
	snapshot  func() S
	metrics   []Metric[S] // sorted by name
	latency   *HistogramVec
	endpoints []string
}

// NewRegistry builds a registry whose scrapes each call snapshot once.
// latency is the request histogram vec (non-nil); endpoints are the
// routes given latency_<endpoint>_p{50,95,99}_ns keys in the JSON body. It panics on a declaration error — a duplicate name or
// missing help text — so a series cannot ship undocumented.
func NewRegistry[S any](snapshot func() S, latency *HistogramVec, endpoints []string, metrics ...Metric[S]) *Registry[S] {
	sort.Slice(metrics, func(i, j int) bool { return metrics[i].Name < metrics[j].Name })
	for i, m := range metrics {
		if m.Help == "" || m.Read == nil || (i > 0 && metrics[i-1].Name == m.Name) {
			panic("obs: bad metric declaration " + strconv.Quote(m.Name))
		}
	}
	return &Registry[S]{snapshot: snapshot, metrics: metrics, latency: latency, endpoints: endpoints}
}

// WriteJSON renders one level of JSON numbers with sorted keys and
// `"key": value` spacing: every metric, plus the server-computed
// latency_<endpoint>_p{50,95,99}_ns percentiles of each endpoint. These
// are estimated from the same histograms the Prometheus exposition
// serves, so a client comparing the two compares estimators, not data.
func (r *Registry[S]) WriteJSON(w io.Writer) {
	type kv struct {
		key string
		val int64
	}
	snap := r.snapshot()
	out := make([]kv, 0, len(r.metrics)+3*len(r.endpoints))
	for _, m := range r.metrics {
		out = append(out, kv{m.Name, m.Read(&snap)})
	}
	for _, ep := range r.endpoints {
		h := r.latency.Endpoint(ep)
		base := "latency_" + flatEndpointKey(ep) + "_p"
		for _, p := range []struct {
			pct string
			q   float64
		}{{"50", 0.50}, {"95", 0.95}, {"99", 0.99}} {
			out = append(out, kv{base + p.pct + "_ns", int64(h.Quantile(p.q))})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
	b := []byte{'{'}
	for i, e := range out {
		if i > 0 {
			b = append(b, ", "...)
		}
		b = strconv.AppendQuote(b, e.key)
		b = append(b, ": "...)
		b = strconv.AppendInt(b, e.val, 10)
	}
	w.Write(append(b, "}\n"...))
}

// flatEndpointKey turns a route pattern into a JSON key fragment:
// "/v1/session/{id}" -> "v1_session_id".
func flatEndpointKey(ep string) string {
	r := strings.NewReplacer("/", "_", "{", "", "}", "")
	return r.Replace(strings.TrimPrefix(ep, "/"))
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// formatValue renders a sample value. Integral values print without a
// decimal point (matching what scrape parsers and the CI regex expect);
// non-integral values use the shortest round-trip form.
func formatValue(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders the flat metrics plus the latency histogram
// vec in exposition format. The histogram is exposed as
// oicd_request_duration_seconds with labels
// {endpoint, cache, engine, tier} and the fixed log-spaced `le`
// boundaries of BucketBounds.
func (r *Registry[S]) WritePrometheus(w io.Writer) {
	snap := r.snapshot()
	for _, m := range r.metrics {
		name := MetricNamespace + "_" + m.Name
		fmt.Fprintf(w, "# HELP %s %s\n", name, m.Help)
		fmt.Fprintf(w, "# TYPE %s %s\n", name, m.Kind)
		fmt.Fprintf(w, "%s %d\n", name, m.Read(&snap))
	}

	cells := r.latency.Snapshots()
	if len(cells) == 0 {
		return
	}
	name := MetricNamespace + "_request_duration_seconds"
	fmt.Fprintf(w, "# HELP %s Request latency by endpoint, cache status, engine, and session tier.\n", name)
	fmt.Fprintf(w, "# TYPE %s histogram\n", name)
	bounds := BucketBounds()
	for _, cell := range cells {
		l := cell.Labels
		base := fmt.Sprintf(`endpoint="%s",cache="%s",engine="%s",tier="%s"`,
			escapeLabel(l.Endpoint), escapeLabel(l.Cache), escapeLabel(l.Engine), escapeLabel(l.Tier))
		var cum uint64
		for i, b := range bounds {
			cum += cell.Snapshot.Counts[i]
			fmt.Fprintf(w, "%s_bucket{%s,le=\"%s\"} %d\n",
				name, base, formatValue(b.Seconds()), cum)
		}
		cum += cell.Snapshot.Counts[len(bounds)]
		fmt.Fprintf(w, "%s_bucket{%s,le=\"+Inf\"} %d\n", name, base, cum)
		fmt.Fprintf(w, "%s_sum{%s} %s\n", name, base,
			formatValue(float64(cell.Snapshot.SumNanos)/1e9))
		fmt.Fprintf(w, "%s_count{%s} %d\n", name, base, cell.Snapshot.Count)
	}
}
