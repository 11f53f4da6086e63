package obs

import (
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

// promLine is the CI well-formedness check's contract: every non-empty
// line is a comment (# HELP / # TYPE) or a `name{labels} value` sample.
var promLine = regexp.MustCompile(`^(# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* .*|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [0-9eE.+-]+(Inf)?)$`)

// testSnap stands in for a server's per-scrape snapshot.
type testSnap struct{ requests, queued int64 }

// testRegistry declares a counter and a gauge over v, counting the
// snapshots its scrapes take in *snaps.
func testRegistry(v *HistogramVec, endpoints []string, snaps *int) *Registry[testSnap] {
	return NewRegistry(func() testSnap { *snaps++; return testSnap{requests: 7, queued: 2} }, v, endpoints,
		Metric[testSnap]{Name: "requests_total", Kind: Counter, Help: "HTTP requests received.",
			Read: func(s *testSnap) int64 { return s.requests }},
		Metric[testSnap]{Name: "queue_depth", Kind: Gauge, Help: "Requests queued.",
			Read: func(s *testSnap) int64 { return s.queued }},
	)
}

func TestWritePrometheusWellFormed(t *testing.T) {
	v := NewHistogramVec()
	v.Observe(Labels{Endpoint: "/v1/compile", Cache: "miss", Engine: "none", Tier: "none"}, 3*time.Millisecond)
	v.Observe(Labels{Endpoint: "/v1/compile", Cache: "hit", Engine: "none", Tier: "none"}, 40*time.Microsecond)

	snaps := 0
	r := testRegistry(v, nil, &snaps)
	var b strings.Builder
	r.WritePrometheus(&b)
	out := b.String()

	for _, line := range strings.Split(out, "\n") {
		if line == "" {
			continue
		}
		if !promLine.MatchString(line) {
			t.Errorf("malformed exposition line: %q", line)
		}
	}
	if snaps != 1 {
		t.Errorf("one scrape took %d snapshots, want 1", snaps)
	}
	// Metrics sort by name and carry HELP/TYPE with the right kind.
	for _, want := range []string{
		"# TYPE oicd_requests_total counter\noicd_requests_total 7\n",
		"# TYPE oicd_queue_depth gauge\noicd_queue_depth 2\n",
		"# TYPE oicd_request_duration_seconds histogram",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if strings.Index(out, "oicd_requests_total") < strings.Index(out, "oicd_queue_depth") {
		t.Error("metrics not sorted by name")
	}
}

// TestWriteJSON: one snapshot per scrape, metrics and latency keys
// merged in sorted order, `"key": value` spacing.
func TestWriteJSON(t *testing.T) {
	v := NewHistogramVec()
	v.Observe(Labels{Endpoint: "/v1/session/{id}"}, 3*time.Millisecond)
	snaps := 0
	r := testRegistry(v, []string{"/v1/session/{id}"}, &snaps)
	var b strings.Builder
	r.WriteJSON(&b)
	p := func(q float64) string {
		return strconv.FormatInt(int64(v.Endpoint("/v1/session/{id}").Quantile(q)), 10)
	}
	want := `{"latency_v1_session_id_p50_ns": ` + p(0.5) + `, "latency_v1_session_id_p95_ns": ` + p(0.95) +
		`, "latency_v1_session_id_p99_ns": ` + p(0.99) + `, "queue_depth": 2, "requests_total": 7}` + "\n"
	if b.String() != want {
		t.Errorf("WriteJSON =\n%s want\n%s", b.String(), want)
	}
	if snaps != 1 {
		t.Errorf("one scrape took %d snapshots, want 1", snaps)
	}
}

// TestRegistryRejectsBadDeclarations: a metric without help text, or a
// name declared twice, must not make it into a registry.
func TestRegistryRejectsBadDeclarations(t *testing.T) {
	read := func(*testSnap) int64 { return 0 }
	for name, ms := range map[string][]Metric[testSnap]{
		"no help": {{Name: "x_total", Read: read}},
		"no read": {{Name: "x_total", Help: "X."}},
		"duplicate": {
			{Name: "x_total", Help: "X.", Read: read},
			{Name: "x_total", Help: "X again.", Read: read},
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: NewRegistry accepted %+v", name, ms)
				}
			}()
			NewRegistry(func() testSnap { return testSnap{} }, NewHistogramVec(), nil, ms...)
		}()
	}
}

func TestWritePrometheusHistogramCumulative(t *testing.T) {
	v := NewHistogramVec()
	l := Labels{Endpoint: "/v1/run", Cache: "none", Engine: "vm", Tier: "none"}
	v.Observe(l, 15*time.Microsecond)  // bucket le=2e-05
	v.Observe(l, 100*time.Millisecond) // higher bucket
	v.Observe(l, 300*time.Hour)        // overflow

	var b strings.Builder
	NewRegistry(func() struct{} { return struct{}{} }, v, nil).WritePrometheus(&b)
	out := b.String()

	base := `endpoint="/v1/run",cache="none",engine="vm",tier="none"`
	var lastCum uint64
	var bucketLines int
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "oicd_request_duration_seconds_bucket{"+base) {
			continue
		}
		bucketLines++
		val := line[strings.LastIndexByte(line, ' ')+1:]
		n, err := strconv.ParseUint(val, 10, 64)
		if err != nil {
			t.Fatalf("bucket value %q: %v", val, err)
		}
		if n < lastCum {
			t.Fatalf("buckets not cumulative: %d after %d in %q", n, lastCum, line)
		}
		lastCum = n
	}
	if bucketLines != numBuckets {
		t.Errorf("got %d bucket lines, want %d", bucketLines, numBuckets)
	}
	if lastCum != 3 {
		t.Errorf("+Inf cumulative = %d, want 3 (overflow observation lost)", lastCum)
	}
	if !strings.Contains(out, "oicd_request_duration_seconds_count{"+base+"} 3") {
		t.Error("missing _count sample")
	}
	if !strings.Contains(out, "oicd_request_duration_seconds_sum{"+base+"}") {
		t.Error("missing _sum sample")
	}
	if !strings.Contains(out, `le="+Inf"`) {
		t.Error("missing +Inf bucket")
	}
}

func TestEscapeLabel(t *testing.T) {
	if got := escapeLabel(`a"b\c` + "\nd"); got != `a\"b\\c\nd` {
		t.Errorf("escapeLabel = %q", got)
	}
}

func TestFormatValue(t *testing.T) {
	cases := map[float64]string{
		0:       "0",
		3:       "3",
		1.5:     "1.5",
		1e-05:   "1e-05",
		0.00064: "0.00064",
	}
	for in, want := range cases {
		if got := formatValue(in); got != want {
			t.Errorf("formatValue(%v) = %q, want %q", in, got, want)
		}
	}
}
